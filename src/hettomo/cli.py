"""Config-driven command line front end for the simulation/tomography pipeline.

Subcommands: simulate, analyze, calibrate, wigner, full-run.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric/consistency failure.
All randomness derives from the single config seed through documented
SeedSequence paths ([seed, stage, batch]), so runs are reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .acquire import (QuadratureHistogram, RawMomentMatrix, StreamingMoments,
                      combine_batches, resample_batches, vacuum_sigma)
from .fock import (FockState, NoiseModel, coherent_state, prepare_superposition,
                   thermal_state)
from .moments import moment_indices
from .simulate import (AmplifierChain, ShotBatch, TemporalEnvelope,
                       matched_filter, sample_detector, simulate_time_trace)
from .tomo import (InversionReport, bootstrap_errors, estimate_gain,
                   invert_moments, reconstruct_wigner)
from . import serialize

# stage indices for RNG stream derivation
STAGE_SIGNAL = 0
STAGE_VACUUM = 1
STAGE_CALIBRATION = 2
STAGE_PILOT = 3

PILOT_SHOTS = 100_000
# calibration fails when more bootstrap replicas than this share have no gain
MAX_FAILED_REPLICA_FRACTION = 0.1


class ConfigError(Exception):
    exit_code = 2


class DataError(Exception):
    exit_code = 3


class NumericError(Exception):
    exit_code = 4


# -- configuration -----------------------------------------------------------

@dataclass
class ExperimentConfig:
    seed: int
    shots: int
    state: dict
    gain: float = 1.0
    nbar: float = 0.0
    order: int = 4
    batches: int = 100
    bins: int = 1024
    extent: float | None = None     # None -> auto from pilot vacuum run
    time_domain: bool = False
    kappa: float = 1.0 / 40.0
    dt: float = 1.0
    time_bins: int = 400
    calibration: dict | None = None
    store_shots: bool = False
    emit_reference: bool = True
    raw: dict = field(default_factory=dict)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _noise_nbar(amp: dict) -> float:
    if "nbar" in amp:
        _require(isinstance(amp["nbar"], (int, float)) and amp["nbar"] >= 0,
                 "amplifier.nbar", "must be a number >= 0")
        return float(amp["nbar"])
    _require("temperature_K" in amp and "frequency_Hz" in amp,
             "amplifier", "need either nbar or temperature_K + frequency_Hz")
    model = NoiseModel.from_temperature(amp["temperature_K"], amp["frequency_Hz"],
                                        rayleigh_jeans=amp.get("rayleigh_jeans", False))
    return model.nbar


def parse_config(doc: dict, overrides: dict | None = None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    doc = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            doc[key] = value
    _require("seed" in doc, "seed", "is mandatory (no wall-clock default)")
    _require(isinstance(doc["seed"], int), "seed", "must be an integer")
    _require("shots" in doc and isinstance(doc["shots"], int) and doc["shots"] >= 1,
             "shots", "must be an integer >= 1")
    _require("state" in doc and isinstance(doc.get("state"), dict),
             "state", "must be an object with a 'kind' field")
    state = doc["state"]
    _require(state.get("kind") in
             {"vacuum", "fock", "coherent", "superposition", "thermal"},
             "state.kind", "must be one of vacuum|fock|coherent|superposition|thermal")
    amp = doc.get("amplifier", {"gain": 1.0, "nbar": 0.0})
    _require(isinstance(amp, dict), "amplifier", "must be an object")
    gain = amp.get("gain", 1.0)
    _require(isinstance(gain, (int, float)) and gain > 0,
             "amplifier.gain", "must be a number > 0")
    hist = doc.get("histogram", {})
    bins = hist.get("bins", 1024)
    _require(isinstance(bins, int) and bins >= 1, "histogram.bins",
             "must be an integer >= 1")
    extent = hist.get("range")
    _require(extent is None or (isinstance(extent, (int, float)) and extent > 0),
             "histogram.range", "must be null (auto) or a number > 0")
    td = doc.get("time_domain", {})
    batches = doc.get("batches", 100)
    _require(isinstance(batches, int) and 1 <= batches <= doc["shots"],
             "batches", "must be an integer in [1, shots]")
    order = doc.get("order", 4)
    _require(isinstance(order, int) and 1 <= order <= 8, "order",
             "must be an integer in [1, 8]")
    cal = doc.get("calibration")
    if cal is not None:
        _require(isinstance(cal, dict), "calibration", "must be an object")
        beta = abs(complex(cal.get("beta", 1.0 / math.sqrt(2.0))))
        _require(beta <= 1.0, "calibration.beta", "must satisfy |beta| <= 1")
    return ExperimentConfig(
        seed=doc["seed"],
        shots=doc["shots"],
        state=state,
        gain=float(gain),
        nbar=_noise_nbar(amp),
        order=order,
        batches=batches,
        bins=bins,
        extent=None if extent is None else float(extent),
        time_domain=bool(td.get("enabled", False)),
        kappa=float(td.get("kappa", 1.0 / 40.0)),
        dt=float(td.get("dt", 1.0)),
        time_bins=int(td.get("bins", 400)),
        calibration=cal,
        store_shots=bool(doc.get("store_shots", False)),
        emit_reference=bool(doc.get("emit_reference", True)),
        raw=doc,
    )


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc, overrides)


def build_state(spec: dict) -> FockState:
    kind = spec["kind"]
    try:
        if kind == "vacuum":
            return FockState.vacuum()
        if kind == "fock":
            return FockState.fock(int(spec.get("k", 1)))
        if kind == "coherent":
            alpha = spec.get("alpha", 1.0)
            if isinstance(alpha, list):
                alpha = complex(alpha[0], alpha[1])
            return coherent_state(alpha)
        if kind == "thermal":
            return thermal_state(float(spec.get("nbar", 1.0)))
        beta = abs(complex(spec.get("beta", 1.0))) \
            * np.exp(1j * float(spec.get("phase", 0.0)))
        state = prepare_superposition(beta, float(spec.get("admixture", 0.0)))
        eta = spec.get("loss_eta")
        if eta is not None:
            from .fock import loss_channel
            state = loss_channel(state, float(eta))
        return state
    except ValueError as exc:
        raise ConfigError(f"state: {exc}") from exc


# -- simulation runs ---------------------------------------------------------

def _batch_sizes(shots: int, batches: int) -> list[int]:
    base, rem = divmod(shots, batches)
    return [base + (1 if i < rem else 0) for i in range(batches)]


def run_acquisition(state: FockState, cfg: ExperimentConfig, stage: int,
                    extent: float) -> dict:
    """Simulate one run in batches; returns histogram, per-batch moments,
    optional shots."""
    chain = AmplifierChain(gain=cfg.gain, noise=NoiseModel(cfg.nbar))
    hist = QuadratureHistogram(bins=cfg.bins, extent=extent)
    env = TemporalEnvelope(kappa=cfg.kappa, dt=cfg.dt, n_bins=cfg.time_bins) \
        if cfg.time_domain else None
    batch_moments: list[RawMomentMatrix] = []
    shots_kept: list[np.ndarray] = []
    for b, size in enumerate(_batch_sizes(cfg.shots, cfg.batches)):
        if env is not None:
            records = simulate_time_trace(state, env, chain, size,
                                          seed=[cfg.seed, stage], stream=b)
            batch = matched_filter(records, env, seed=[cfg.seed, stage], stream=b)
        else:
            batch = sample_detector(state, chain, size,
                                    seed=[cfg.seed, stage], stream=b)
        hist.add(batch)
        batch_moments.append(StreamingMoments(cfg.order).update(batch).result())
        if cfg.store_shots:
            shots_kept.append(batch.samples)
    out = {"hist": hist, "batch_moments": batch_moments}
    if cfg.store_shots:
        out["shots"] = ShotBatch(np.concatenate(shots_kept),
                                 seed=(cfg.seed, stage))
    return out


def auto_extent(cfg: ExperimentConfig) -> float:
    """Axis range from a pilot vacuum batch: 6x the vacuum-reference sigma."""
    if cfg.extent is not None:
        return cfg.extent
    chain = AmplifierChain(gain=cfg.gain, noise=NoiseModel(cfg.nbar))
    pilot = sample_detector(FockState.vacuum(), chain,
                            min(PILOT_SHOTS, max(cfg.shots, 1000)),
                            seed=[cfg.seed, STAGE_PILOT])
    return 6.0 * vacuum_sigma(pilot)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, cfg: ExperimentConfig | None,
                   derived: dict, t0: float) -> Path:
    files = {p.name: _sha256(p) for p in sorted(out_dir.iterdir())
             if p.is_file() and p.name != "manifest.json"}
    manifest = {
        "config": cfg.raw if cfg else None,
        "config_sha256": cfg.digest() if cfg else None,
        "versions": {"hettomo": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "timing_s": time.monotonic() - t0,
        "derived": derived,
        "files": files,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


# -- commands ----------------------------------------------------------------

def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> dict:
    t0 = time.monotonic()
    out_dir.mkdir(parents=True, exist_ok=True)
    extent = auto_extent(cfg)
    state = build_state(cfg.state)
    derived = {"extent": extent, "gain_true": cfg.gain, "nbar": cfg.nbar}

    runs = [("signal", state, STAGE_SIGNAL)]
    if cfg.emit_reference:
        runs.append(("vacuum", FockState.vacuum(), STAGE_VACUUM))
    if cfg.calibration is not None:
        cal = cfg.calibration
        beta = abs(complex(cal.get("beta", 1.0 / math.sqrt(2.0)))) \
            * np.exp(1j * float(cal.get("phase", math.pi)))
        cal_state = prepare_superposition(beta, float(cal.get("admixture", 0.0)))
        runs.append(("calibration", cal_state, STAGE_CALIBRATION))

    for name, run_state, stage in runs:
        result = run_acquisition(run_state, cfg, stage, extent)
        serialize.save_histogram(out_dir / f"hist_{name}", result["hist"],
                                 meta={"seed": cfg.seed, "stage": stage,
                                       "units": "detector", "gain": cfg.gain})
        serialize.save_batch_moments(out_dir / f"moments_{name}.json",
                                     result["batch_moments"])
        if cfg.store_shots:
            serialize.save_shots(out_dir / f"shots_{name}", result["shots"],
                                 gain=cfg.gain)
        if name == "vacuum":
            sigma = vacuum_sigma(result["hist"])
            derived["sigma_vac"] = sigma
            # sigma standard error for pooled X/P Gaussian data
            derived["sigma_vac_stderr"] = sigma / math.sqrt(
                4.0 * max(result["hist"].total, 1))
    write_manifest(out_dir, cfg, derived, t0)
    return derived


def _load_run(run_dir: Path, name: str) -> list[RawMomentMatrix]:
    path = run_dir / f"moments_{name}.json"
    if not path.exists():
        raise DataError(f"missing {name} moments: {path}")
    return serialize.load_batch_moments(path)


def _up_to_order(batches: list[RawMomentMatrix], order: int) -> list[RawMomentMatrix]:
    return [RawMomentMatrix(b.values[: order + 1, : order + 1], count=b.count,
                            provenance=b.provenance) for b in batches]


def cmd_analyze(signal_dir: Path, vacuum_dir: Path, gain: float,
                order: int, out_path: Path) -> InversionReport:
    sig_batches = _load_run(signal_dir, "signal")
    vac_batches = _load_run(vacuum_dir, "vacuum")
    if sig_batches[0].order != vac_batches[0].order:
        raise DataError("signal and vacuum runs have different moment orders")
    if sig_batches[0].order < order:
        raise DataError(f"stored moments only go to order {sig_batches[0].order}")
    if order < 1:
        raise ConfigError("order must be >= 1")
    sig_batches = _up_to_order(sig_batches, order)
    vac_batches = _up_to_order(vac_batches, order)
    raw_signal = combine_batches(sig_batches)
    raw_vacuum = combine_batches(vac_batches)
    try:
        errors = bootstrap_errors(sig_batches, vac_batches, gain)
        report = invert_moments(raw_signal, raw_vacuum, gain, errors=errors)
    except ValueError as exc:
        raise NumericError(str(exc)) from exc
    serialize.save_report(out_path, report)
    table_path = out_path.with_suffix(".txt")
    table_path.write_text(format_moment_table(report))
    return report


def format_moment_table(report: InversionReport) -> str:
    lines = [f"recovered |<(a^dag)^n a^m>| (gain G = {report.gain:.6g})",
             "  n  m  |moment|    stderr"]
    for n, m in moment_indices(report.moments.order):
        err = report.errors[n, m] if report.errors is not None else float("nan")
        lines.append(f"  {n}  {m}  {abs(report.moments.values[n, m]):<10.4f} "
                     f"{err:.2e}")
    return "\n".join(lines) + "\n"


def cmd_calibrate(super_dir: Path, vacuum_dir: Path, out_path: Path,
                  n_boot: int = 200, seed: int = 0) -> dict:
    sup_batches = _load_run(super_dir, "calibration") \
        if (super_dir / "moments_calibration.json").exists() \
        else _load_run(super_dir, "signal")
    vac_batches = _load_run(vacuum_dir, "vacuum")
    replicas = resample_batches([sup_batches, vac_batches], n_boot,
                                seed=[seed, 0xCA1])
    estimates, failed = [], 0
    for sup, vac in replicas:
        try:
            estimates.append(estimate_gain(sup, vac))
        except ValueError:
            failed += 1
    m1_err = float(np.std([abs(sup.values[0, 1]) for sup, _ in replicas]))
    try:
        gain = estimate_gain(combine_batches(sup_batches),
                             combine_batches(vac_batches), m1_error=m1_err)
    except ValueError as exc:
        raise NumericError(str(exc)) from exc
    if failed > MAX_FAILED_REPLICA_FRACTION * n_boot:
        raise NumericError(f"gain estimate failed on {failed} of {n_boot} "
                           "bootstrap replicas")
    unc = float(np.std(estimates)) if len(estimates) > 1 else float("nan")
    result = {"gain": gain, "gain_stderr": unc, "m1_stderr": m1_err,
              "n_bootstrap": len(estimates), "n_bootstrap_failed": failed}
    out_path.write_text(json.dumps(result, indent=2))
    return result


def cmd_wigner(report_path: Path, out_prefix: Path, extent: float,
               resolution: int) -> dict:
    if not Path(report_path).exists():
        raise DataError(f"missing inversion report: {report_path}")
    report = serialize.load_report(report_path)
    threshold = 0.1
    if report.errors is not None:
        # each diagonal m(n, n) is tested against its own error
        diag_err = np.diag(report.errors)[: report.moments.order // 2 + 1]
        threshold = np.maximum(0.1, 3.0 * diag_err)
    grid = reconstruct_wigner(report.moments, extent=extent,
                              resolution=resolution, threshold=threshold)
    serialize.save_wigner(out_prefix, grid)
    wmin, where = grid.minimum()
    return {"min_w": wmin, "at": [where.real, where.imag],
            "truncation_order": grid.truncation}


def cmd_full_run(cfg: ExperimentConfig, out_dir: Path) -> dict:
    t0 = time.monotonic()
    if cfg.calibration is None:
        raise ConfigError("calibration: block is required for full-run")
    out_dir.mkdir(parents=True, exist_ok=True)
    derived = cmd_simulate(cfg, out_dir)
    calib = cmd_calibrate(out_dir, out_dir, out_dir / "calibration.json")
    report = cmd_analyze(out_dir, out_dir, calib["gain"], cfg.order,
                         out_dir / "report.json")
    wigner_summary = cmd_wigner(out_dir / "report.json", out_dir / "wigner",
                                extent=3.0, resolution=121)
    summary = {
        "sigma_vac": derived.get("sigma_vac"),
        "gain_true": cfg.gain,
        "gain_estimate": calib["gain"],
        "gain_stderr": calib["gain_stderr"],
        "m11": report.moments.values[1, 1].real,
        "m01_abs": abs(report.moments.values[0, 1]),
        "min_w": wigner_summary["min_w"],
        "min_w_at": wigner_summary["at"],
        "truncation_order": wigner_summary["truncation_order"],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    write_manifest(out_dir, cfg, {**derived, **summary}, t0)
    return summary


# -- argument parsing --------------------------------------------------------

def _add_config_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--shots", type=int, help="override shot count")
    p.add_argument("--order", type=int, help="override moment order cap")
    p.add_argument("--bins", type=int, help="override histogram bins")
    p.add_argument("--range", type=float, dest="extent",
                   help="override histogram axis range")
    p.add_argument("--time-domain", action="store_true", default=None,
                   help="force the time-domain simulation path")
    p.add_argument("--out", required=True, help="output run directory")


def _overrides(args) -> dict:
    ov: dict = {}
    for key in ("seed", "shots", "order"):
        ov[key] = getattr(args, key, None)
    if getattr(args, "bins", None) is not None or getattr(args, "extent", None) is not None:
        hist = {}
        if args.bins is not None:
            hist["bins"] = args.bins
        if args.extent is not None:
            hist["range"] = args.extent
        ov["histogram"] = hist
    if getattr(args, "time_domain", None):
        ov["time_domain"] = {"enabled": True}
    return ov


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hettomo",
        description="Heterodyne detection simulation and moment tomography")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate detector runs")
    _add_config_overrides(p_sim)

    p_an = sub.add_parser("analyze", help="invert moments against a vacuum reference")
    p_an.add_argument("--signal", required=True, help="signal run directory")
    p_an.add_argument("--vacuum", help="vacuum run directory (default: signal dir)")
    p_an.add_argument("--gain", type=float, help="amplifier gain (default: manifest)")
    p_an.add_argument("--order", type=int, default=4)
    p_an.add_argument("--out", required=True, help="report JSON path")

    p_cal = sub.add_parser("calibrate", help="estimate gain from a superposition run")
    p_cal.add_argument("--signal", required=True, help="superposition run directory")
    p_cal.add_argument("--vacuum", help="vacuum run directory (default: signal dir)")
    p_cal.add_argument("--out", required=True, help="calibration JSON path")

    p_w = sub.add_parser("wigner", help="reconstruct the Wigner function")
    p_w.add_argument("--report", required=True, help="inversion report JSON")
    p_w.add_argument("--extent", type=float, default=3.0)
    p_w.add_argument("--resolution", type=int, default=121)
    p_w.add_argument("--out", required=True, help="output path prefix")

    p_full = sub.add_parser("full-run",
                            help="simulate, calibrate, analyze and reconstruct")
    _add_config_overrides(p_full)
    return parser


def _manifest_gain(run_dir: Path) -> float:
    manifest = run_dir / "manifest.json"
    if not manifest.exists():
        raise DataError(f"no manifest in {run_dir}; pass --gain explicitly")
    doc = json.loads(manifest.read_text())
    gain = doc.get("derived", {}).get("gain_true")
    if gain is None:
        raise DataError("manifest carries no gain; pass --gain explicitly")
    return float(gain)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = load_config(args.config, _overrides(args))
            derived = cmd_simulate(cfg, Path(args.out))
            print(json.dumps(derived, indent=2))
        elif args.command == "analyze":
            signal_dir = Path(args.signal)
            vacuum_dir = Path(args.vacuum) if args.vacuum else signal_dir
            gain = args.gain if args.gain is not None else _manifest_gain(signal_dir)
            report = cmd_analyze(signal_dir, vacuum_dir, gain, args.order,
                                 Path(args.out))
            print(format_moment_table(report))
        elif args.command == "calibrate":
            signal_dir = Path(args.signal)
            vacuum_dir = Path(args.vacuum) if args.vacuum else signal_dir
            result = cmd_calibrate(signal_dir, vacuum_dir, Path(args.out))
            print(json.dumps(result, indent=2))
        elif args.command == "wigner":
            result = cmd_wigner(Path(args.report), Path(args.out),
                                args.extent, args.resolution)
            print(json.dumps(result, indent=2))
        elif args.command == "full-run":
            cfg = load_config(args.config, _overrides(args))
            summary = cmd_full_run(cfg, Path(args.out))
            print(json.dumps(summary, indent=2))
    except (ConfigError, DataError, NumericError) as exc:
        stage = args.command if hasattr(args, "command") else "cli"
        print(f"error [{stage}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
