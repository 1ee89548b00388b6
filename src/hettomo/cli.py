"""Config-driven command line front end for the simulation/tomography pipeline.

Subcommands: simulate, analyze, calibrate, wigner, full-run.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric/consistency failure.
Simulation randomness derives from the config seed through documented
SeedSequence paths ([seed, stage, batch]); the bootstrap replicas of analyze
and calibrate use the fixed streams [0, 0xB007] and [0, 0xCA1]. So runs are
reproducible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .acquire import (DEFAULT_BINS, QuadratureHistogram, StreamingMoments,
                      combine_batches, vacuum_sigma)
from .fock import (FockState, NoiseModel, coherent_state, loss_channel,
                   prepare_superposition, thermal_state)
from .moments import BatchMoments, moment_indices
from .simulate import (AmplifierChain, TemporalEnvelope, matched_filter,
                       sample_detector, simulate_time_trace)
from .tomo import (WIGNER_EXTENT, WIGNER_KERNEL_MAX_ORDER, WIGNER_RESOLUTION,
                   InversionReport, bootstrap_errors, estimate_gain, invert_moments,
                   reconstruct_wigner)
from . import serialize

# stage indices for RNG stream derivation
STAGE_SIGNAL = 0
STAGE_VACUUM = 1
STAGE_CALIBRATION = 2
STAGE_PILOT = 3

PILOT_SHOTS = 100_000


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
    state: FockState
    chain: AmplifierChain
    order: int
    batches: int
    bins: int
    extent: float | None            # None -> auto from pilot vacuum run
    envelope: TemporalEnvelope | None   # None -> direct detector path
    calibration: FockState | None
    store_shots: bool
    raw: dict

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


@contextmanager
def _block(name: str, error: type[Exception] = ConfigError):
    """Report what a reader or constructor refuses as `error` (a ConfigError
    by default, a DataError for stored files) naming the block or file."""
    try:
        yield
    except (ValueError, TypeError, LookupError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"{name}: {detail}") from exc


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          str: "a string"}
_MANDATORY = object()


def _typed(value, kind: type, key: str, lo=None, hi=None):
    """`value` checked against JSON type `kind` and the bounds [lo, hi].

    A bool is not a number, an integer serves where a float is wanted but
    not the reverse, and numbers must be finite."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok = {bool: isinstance(value, bool), str: isinstance(value, str),
          int: number and isinstance(value, int),
          float: number and abs(value) <= sys.float_info.max}[kind]
    if not (ok and (lo is None or value >= lo) and (hi is None or value <= hi)):
        bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ValueError(f"{key} must be {_KINDS[kind]}{bounds}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def _get(block: dict, key: str, kind: type, default=_MANDATORY, lo=None, hi=None):
    """`block[key]` read with `_typed`; null passes only where null is the default."""
    value = block[key] if key in block else default
    if value is _MANDATORY:
        raise ValueError(f"{key} is mandatory")
    if value is None and default is None:
        return None
    return _typed(value, kind, key, lo, hi)


def _object(doc: dict, key: str, default: dict) -> dict:
    block = doc.get(key, default)
    _require(isinstance(block, dict), key, "must be an object")
    return block


def _noise_model(amp: dict) -> NoiseModel:
    if "nbar" in amp:
        return NoiseModel(_get(amp, "nbar", float))
    if "temperature_K" not in amp or "frequency_Hz" not in amp:
        raise ValueError("need either nbar or temperature_K + frequency_Hz")
    return NoiseModel.from_temperature(
        _get(amp, "temperature_K", float), _get(amp, "frequency_Hz", float),
        rayleigh_jeans=_get(amp, "rayleigh_jeans", bool, False))


def parse_config(doc: dict, overrides: dict | None = None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    doc = dict(doc)
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):     # flags for one block merge into it
            value = {**_object(doc, key, {}), **value}
        if value is not None:
            doc[key] = value
    _require("seed" in doc, "seed", "is mandatory (no wall-clock default)")
    with _block("config"):
        seed = _get(doc, "seed", int, lo=0)
        shots = _get(doc, "shots", int, lo=1)
        batches = _get(doc, "batches", int, 100, lo=1, hi=shots)
        order = _get(doc, "order", int, 4, lo=2, hi=WIGNER_KERNEL_MAX_ORDER)
        store_shots = _get(doc, "store_shots", bool, False)
    spec = _object(doc, "state", None)
    amp = _object(doc, "amplifier", {"gain": 1.0, "nbar": 0.0})
    hist = _object(doc, "histogram", {})
    td = _object(doc, "time_domain", {})
    cal = doc.get("calibration")
    _require(cal is None or isinstance(cal, dict), "calibration", "must be an object")

    with _block("state"):
        state = build_state(spec)
    with _block("amplifier"):
        chain = AmplifierChain(gain=_get(amp, "gain", float, 1.0), noise=_noise_model(amp))
    with _block("histogram"):
        bins = _get(hist, "bins", int, DEFAULT_BINS, lo=1, hi=serialize.MAX_BINS)
        extent = _get(hist, "range", float, None)
        if extent is not None and extent <= 0:
            raise ValueError(f"range must be null (auto) or a number > 0, got {extent}")
    envelope = calibration = None
    with _block("time_domain"):
        if _get(td, "enabled", bool, False):
            envelope = TemporalEnvelope(kappa=_get(td, "kappa", float, 1.0 / 40.0),
                                        dt=_get(td, "dt", float, 1.0),
                                        n_bins=_get(td, "bins", int, 400))
    # the largest draw of a batch, 2 normals per shot and time bin, must be indexable
    draws = -(-shots // batches) * 2 * (envelope.n_bins if envelope else 1)
    _require(draws <= np.iinfo(np.intp).max, "config", f"shots {shots} in {batches} "
             f"batches need {draws} noise draws per batch, more than numpy can index")
    if cal is not None:
        with _block("calibration"):
            calibration = build_state({"beta": 1.0 / math.sqrt(2.0), "phase": math.pi,
                                       **cal, "kind": "superposition"})
    return ExperimentConfig(seed=seed, shots=shots, state=state, chain=chain,
                            order=order, batches=batches, bins=bins, extent=extent,
                            envelope=envelope, calibration=calibration,
                            store_shots=store_shots, raw=doc)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc, overrides)


def build_state(spec: dict) -> FockState:
    kind = _get(spec, "kind", str, None)
    if kind == "vacuum":
        return FockState.vacuum()
    if kind == "fock":
        return FockState.fock(_get(spec, "k", int, 1))
    if kind == "coherent":
        alpha = spec.get("alpha", 1.0)
        if not isinstance(alpha, list):
            return coherent_state(_get(spec, "alpha", float, 1.0))
        if len(alpha) != 2:
            raise ValueError("alpha must be a number or a pair [x, p]")
        x, p = (_typed(a, float, "alpha") for a in alpha)
        return coherent_state(x + 1j * p)
    if kind == "thermal":
        return thermal_state(_get(spec, "nbar", float, 1.0))
    if kind != "superposition":
        raise ValueError("kind must be one of vacuum|fock|coherent|superposition|thermal")
    phase = _get(spec, "phase", float, 0.0)
    beta = abs(_get(spec, "beta", float, 1.0)) * np.exp(1j * phase)
    state = prepare_superposition(beta, _get(spec, "admixture", float, 0.0))
    eta = _get(spec, "loss_eta", float, None)
    return state if eta is None else loss_channel(state, eta)


# -- simulation runs ---------------------------------------------------------

def _batch_sizes(shots: int, batches: int) -> list[int]:
    base, rem = divmod(shots, batches)
    return [base + (1 if i < rem else 0) for i in range(batches)]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


def _time_domain_batches(state: FockState, env: TemporalEnvelope,
                         chain: AmplifierChain, sizes: list[int], seed):
    """Matched-filtered batches in batch order, at most one per CPU in flight on
    a thread pool; each keeps its own stream, so the CPU count changes no output.
    A batch's records are made and filtered one row block at a time."""
    workers = min(_available_cpus(), len(sizes))

    @np.errstate(over="ignore", invalid="ignore")   # per thread, as on cmd_simulate
    def make(b: int, size: int) -> np.ndarray:
        return np.concatenate([matched_filter(block, env) for block in simulate_time_trace(
            state, env, chain, size, seed=seed, stream=b)])

    with ThreadPoolExecutor(workers) as pool:
        window = []
        for b, size in enumerate(sizes):
            window.append(pool.submit(make, b, size))
            if len(window) == workers:
                yield window.pop(0).result()
        yield from (future.result() for future in window)


def run_acquisition(state: FockState, cfg: ExperimentConfig, stage: int,
                    extent: float) -> dict:
    """Simulate one run in batches; returns histogram, per-batch moments,
    optional shots."""
    hist = QuadratureHistogram(bins=cfg.bins, extent=extent)
    seed, sizes = [cfg.seed, stage], _batch_sizes(cfg.shots, cfg.batches)
    if cfg.envelope is not None:
        batches = _time_domain_batches(state, cfg.envelope, cfg.chain, sizes, seed)
    else:
        # sequential: a pool saves time here, but its whole batches in flight cost
        # more memory than it is worth
        batches = (sample_detector(state, cfg.chain, size, seed=seed, stream=b)
                   for b, size in enumerate(sizes))
    moments = StreamingMoments(cfg.order)
    shots_kept: list[np.ndarray] = []
    for batch in batches:
        hist.add(batch)
        moments.update(batch)
        if cfg.store_shots:
            shots_kept.append(batch)
    out = {"hist": hist, "batch_moments": moments.result()}
    if cfg.store_shots:
        out["shots"] = np.concatenate(shots_kept)
    return out


def auto_extent(cfg: ExperimentConfig) -> float:
    """Axis range from a pilot vacuum batch: 6x the vacuum-reference sigma."""
    if cfg.extent is not None:
        return cfg.extent
    pilot = sample_detector(FockState.vacuum(), cfg.chain,
                            min(PILOT_SHOTS, max(cfg.shots, 1000)),
                            seed=[cfg.seed, STAGE_PILOT])
    extent = 6.0 * vacuum_sigma(pilot)
    if not math.isfinite(extent):
        raise NumericError(f"histogram.range: pilot vacuum width {extent / 6:g} is not finite")
    return extent


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@contextmanager
def _run_dir(cfg: ExperimentConfig, out_dir: Path):
    """Make the run directory and yield the dict of derived values; on leaving,
    also by an error, write the manifest over every file present."""
    t0 = time.monotonic()
    out_dir.mkdir(parents=True, exist_ok=True)
    derived: dict = {}
    try:
        yield derived
    finally:
        write_manifest(out_dir, cfg, derived, t0)


def write_manifest(out_dir: Path, cfg: ExperimentConfig, derived: dict, t0: float) -> Path:
    files = {p.name: _sha256(p) for p in sorted(out_dir.iterdir())
             if p.is_file() and p.name != "manifest.json"}
    manifest = {
        "config": cfg.raw,
        "config_sha256": cfg.digest(),
        "versions": {"hettomo": __version__, "numpy": np.__version__},
        "timing_s": time.monotonic() - t0,
        "derived": derived,
        "files": files,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


# -- commands ----------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")   # the finiteness checks decide
def cmd_simulate(cfg: ExperimentConfig, out_dir: Path,
                 derived: dict) -> dict[str, BatchMoments]:
    """Simulate and store each run into `out_dir`; returns each run's batch
    moments by run name, and enters each derived value into `derived` as soon
    as it is known. The histograms are not kept."""
    extent = auto_extent(cfg)
    derived.update(extent=extent, gain_true=cfg.chain.gain, nbar=cfg.chain.noise.nbar)

    runs = [("signal", cfg.state, STAGE_SIGNAL),
            ("vacuum", FockState.vacuum(), STAGE_VACUUM)]
    if cfg.calibration is not None:
        runs.append(("calibration", cfg.calibration, STAGE_CALIBRATION))

    moments = {}
    for name, run_state, stage in runs:
        try:
            result = run_acquisition(run_state, cfg, stage, extent)
        except ValueError as exc:
            raise NumericError(f"{name} run: {exc}") from exc
        serialize.save_histogram(out_dir / f"hist_{name}", result["hist"],
                                 meta={"seed": cfg.seed, "stage": stage,
                                       "units": "detector", "gain": cfg.chain.gain})
        moments[name] = result["batch_moments"]
        serialize.save_batch_moments(out_dir / f"moments_{name}.json", moments[name])
        if cfg.store_shots:
            serialize.save_shots(out_dir / f"shots_{name}", result["shots"],
                                 gain=cfg.chain.gain, seed=[cfg.seed, stage])
        if name == "vacuum":
            if result["hist"].in_range == 0:
                raise NumericError(f"histogram.range: no vacuum shot within +/-{extent:g}")
            # per-quadrature width, 2 sigma^2 = s(1,1) - |s(0,1)|^2 (which rounding can
            # take below 0 on one shot), and its standard error for pooled X/P data
            s = combine_batches(moments[name]).values
            sigma = math.sqrt(max(s[1, 1].real - abs(s[0, 1]) ** 2, 0.0) / 2.0)
            derived.update(sigma_vac=sigma,
                           sigma_vac_stderr=sigma / math.sqrt(4.0 * cfg.shots))
    return moments


def _read(path: Path, what: str, reader):
    """`reader(path)`, with a missing or refused file reported as a DataError."""
    if not path.exists():
        raise DataError(f"missing {what}: {path}")
    with _block(str(path), DataError):
        return reader(path)


def _load_pair(signal_dir: Path, signal_name: str, vacuum_dir: Path,
               order: int | None = None) -> list[BatchMoments]:
    """A signal run's and its vacuum run's batches, of one stored order, cut to
    `order` where that is lower."""
    pair = [_read(run_dir / f"moments_{name}.json", f"{name} moments",
                  serialize.load_batch_moments)
            for run_dir, name in ((signal_dir, signal_name), (vacuum_dir, "vacuum"))]
    stored = pair[0].order
    if pair[1].order != stored:
        raise DataError("signal and vacuum runs have different moment orders")
    if order is None or order == stored:
        return pair
    if stored < order:
        raise DataError(f"stored moments only go to order {stored}")
    return [BatchMoments(run.values[:, : order + 1, : order + 1], run.counts) for run in pair]


def cmd_analyze(sig: BatchMoments, vac: BatchMoments, gain: float,
                out_path: Path) -> InversionReport:
    try:
        errors = bootstrap_errors(sig, vac, gain)
        report = invert_moments(combine_batches(sig), combine_batches(vac), gain, errors)
    except ValueError as exc:
        raise NumericError(str(exc)) from exc
    serialize.save_report(out_path, report)
    out_path.with_suffix(".txt").write_text(format_moment_table(report))
    return report


def format_moment_table(report: InversionReport) -> str:
    lines = [f"recovered |<(a^dag)^n a^m>| (gain G = {report.gain:.6g})",
             "  n  m  |moment|    stderr"]
    for n, m in moment_indices(report.moments.order):
        lines.append(f"  {n}  {m}  {abs(report.moments.values[n, m]):<10.4f} "
                     f"{report.errors[n, m]:.2e}")
    return "\n".join(lines) + "\n"


def cmd_calibrate(sup: BatchMoments, vac: BatchMoments, out_path: Path) -> dict:
    try:
        result = estimate_gain(sup, vac)
    except ValueError as exc:
        raise NumericError(str(exc)) from exc
    out_path.write_text(json.dumps(result, indent=2))
    return result


def cmd_wigner(report: InversionReport, out_prefix: Path, extent: float,
               resolution: int) -> dict:
    grid = reconstruct_wigner(report.moments, report.errors, extent=extent,
                              resolution=resolution)
    serialize.save_wigner(out_prefix, grid)
    wmin, where = grid.minimum()
    return {"min_w": wmin, "at": [where.real, where.imag],
            "truncation_order": grid.truncation}


def cmd_full_run(cfg: ExperimentConfig, out_dir: Path) -> dict:
    """simulate -> calibrate -> analyze -> wigner, each stage handed the one
    before's result in memory; the manifest is written once, also on failure."""
    if cfg.calibration is None:
        raise ConfigError("calibration: block is required for full-run")
    _require(cfg.batches >= 2, "config", "batches must be >= 2 for full-run, whose "
             f"bootstrap resamples batches, got {cfg.batches}")
    with _run_dir(cfg, out_dir) as derived:
        moments = cmd_simulate(cfg, out_dir, derived)
        calib = cmd_calibrate(moments["calibration"], moments["vacuum"],
                              out_dir / "calibration.json")
        report = cmd_analyze(moments["signal"], moments["vacuum"], calib["gain"],
                             out_dir / "report.json")
        wigner = cmd_wigner(report, out_dir / "wigner", WIGNER_EXTENT, WIGNER_RESOLUTION)
        m = report.moments.values
        summary = {"sigma_vac": derived.get("sigma_vac"), "gain_true": cfg.chain.gain,
                   "gain_estimate": calib["gain"], "gain_stderr": calib["gain_stderr"],
                   "m11": m[1, 1].real, "m01_abs": abs(m[0, 1]), "min_w": wigner["min_w"],
                   "min_w_at": wigner["at"], "truncation_order": wigner["truncation_order"]}
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
        derived.update(summary)
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
    """Flag values for parse_config; a block's flags merge into that block."""
    ov = {key: getattr(args, key) for key in ("seed", "shots", "order")}
    hist = {key: value for key, value in (("bins", args.bins), ("range", args.extent))
            if value is not None}
    if hist:
        ov["histogram"] = hist
    if args.time_domain:
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
    p_w.add_argument("--extent", type=float, default=WIGNER_EXTENT)
    p_w.add_argument("--resolution", type=int, default=WIGNER_RESOLUTION)
    p_w.add_argument("--out", required=True, help="output path prefix")

    p_full = sub.add_parser("full-run",
                            help="simulate, calibrate, analyze and reconstruct")
    _add_config_overrides(p_full)
    return parser


def _manifest_gain(run_dir: Path) -> float:
    manifest = run_dir / "manifest.json"
    if not manifest.exists():
        raise DataError(f"no manifest in {run_dir}; pass --gain explicitly")
    with _block(str(manifest), DataError):
        gain = _get(json.loads(manifest.read_text())["derived"], "gain_true", float)
        if gain <= 0:
            raise ValueError(f"gain_true must be a number > 0, got {gain}")
        return gain


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("simulate", "full-run"):
            cfg = load_config(args.config, _overrides(args))
            out_dir = Path(args.out)
            if args.command == "full-run":
                result = cmd_full_run(cfg, out_dir)
            else:
                with _run_dir(cfg, out_dir) as result:
                    cmd_simulate(cfg, out_dir, result)
        elif args.command == "wigner":
            _require(math.isfinite(args.extent) and args.extent > 0, "extent",
                     f"must be a number > 0, got {args.extent}")
            _require(args.resolution >= 1, "resolution",
                     f"must be >= 1, got {args.resolution}")
            report = _read(Path(args.report), "inversion report", serialize.load_report)
            result = cmd_wigner(report, Path(args.out), args.extent, args.resolution)
        else:   # calibrate and analyze read a signal run and its vacuum run
            signal_dir = Path(args.signal)
            vacuum_dir = Path(args.vacuum) if args.vacuum else signal_dir
            if args.command == "calibrate":
                stored = ("calibration" if (signal_dir / "moments_calibration.json").exists()
                          else "signal")
                pair = _load_pair(signal_dir, stored, vacuum_dir)
                if pair[0].order < 2:
                    raise DataError(f"stored moments only go to order {pair[0].order}; "
                                    "calibrate reads s(1,1)")
                result = cmd_calibrate(*pair, Path(args.out))
            else:
                gain = args.gain if args.gain is not None else _manifest_gain(signal_dir)
                _require(math.isfinite(gain) and gain > 0, "gain",
                         f"must be a number > 0, got {gain}")
                _require(args.order >= 1, "order", f"must be >= 1, got {args.order}")
                pair = _load_pair(signal_dir, "signal", vacuum_dir, args.order)
                result = cmd_analyze(*pair, gain, Path(args.out))
        print(format_moment_table(result) if args.command == "analyze"
              else json.dumps(result, indent=2))
    except (ConfigError, DataError, NumericError) as exc:
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
