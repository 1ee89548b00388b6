"""Config-driven command line front end for the simulation/tomography pipeline.

Subcommands: simulate, analyze, calibrate, wigner, full-run.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric/consistency failure;
`run` runs each command with NumPy's floating-point warnings off, so that the
finiteness checks decide, and a ValueError that reaches it is exit 4.
Simulation randomness derives from the config seed through documented
SeedSequence paths ([seed, stage, batch]); the bootstrap replicas of analyze
and calibrate use the fixed streams [0, 0xB007] and [0, 0xCA1]. So runs are
reproducible.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .acquire import (DEFAULT_BINS, QuadratureHistogram, StreamingMoments,
                      combine_batches, leaf_slices, vacuum_sigma)
from .fock import (FockState, coherent_state, loss_channel, prepare_superposition,
                   thermal_state)
from .moments import BatchMoments, moment_indices
from .simulate import (AmplifierChain, TemporalEnvelope, detector_blocks,
                       matched_filter, sample_detector, simulate_time_trace, thermal_nbar)
from .tomo import (WIGNER_EXTENT, WIGNER_KERNEL_MAX_ORDER, WIGNER_RESOLUTION,
                   InversionReport, bootstrap_errors, estimate_gain, invert_moments,
                   reconstruct_wigner)
from . import serialize
from .serialize import field, typed

# stage indices for RNG stream derivation
STAGE_SIGNAL = 0
STAGE_VACUUM = 1
STAGE_CALIBRATION = 2
STAGE_PILOT = 3

PILOT_SHOTS = 100_000
# largest `wigner --resolution`: reconstruct_wigner peaks at about 88 B per grid
# point (save_wigner at under 1 MB), so 2048 points a side take about 0.37 GB
MAX_RESOLUTION = 2048
# largest thermal `state.nbar`: its dense rho of thermal_cutoff(50) + 1 = 698 levels
# takes 7.8 MB, and building and checking it peaks at about 24 MB
MAX_THERMAL_NBAR = 50
# largest `time_domain.bins`: a 64-row block of records, its noise draw and its
# matched filter peak at about 3.2 KB per bin, about 52 MB at 16384
MAX_TIME_BINS = 16384


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


@contextmanager
def _block(name: str, error: type[Exception] = ConfigError):
    """Report what a reader or constructor refuses, or a file it cannot read, as
    `error` (a ConfigError by default, a DataError for stored files) naming the
    block or file."""
    try:
        yield
    except (ValueError, TypeError, LookupError, OSError) as exc:
        detail = (f"missing key {exc}" if isinstance(exc, KeyError) else
                  f"not valid JSON: {exc}" if isinstance(exc, json.JSONDecodeError) else exc)
        raise error(f"{name}: {detail}") from exc


def _read(path: Path, what: str, reader, error: type[Exception] = DataError):
    """`reader(path)`, with a missing, unreadable or refused file reported as
    `error` (a DataError by default, for stored files)."""
    if not path.exists():
        raise error(f"{what} not found: {path}")
    with _block(str(path), error):
        return reader(path)


def _nbar(amp: dict) -> float:
    if "nbar" in amp:
        return field(amp, "nbar", float)
    if "temperature_K" not in amp or "frequency_Hz" not in amp:
        raise ValueError("need either nbar or temperature_K + frequency_Hz")
    return thermal_nbar(field(amp, "temperature_K", float), field(amp, "frequency_Hz", float),
                        rayleigh_jeans=field(amp, "rayleigh_jeans", bool, False))


def parse_config(doc: dict, overrides: dict | None = None) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    doc = dict(doc)
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):     # flags for one block merge into it
            with _block(key):
                value = {**field(doc, key, dict, {}), **value}
        if value is not None:
            doc[key] = value
    with _block("config"):
        seed = field(doc, "seed", int, lo=0)
        shots = field(doc, "shots", int, lo=1)
        batches = field(doc, "batches", int, min(100, shots), lo=1, hi=shots)
        order = field(doc, "order", int, 4, lo=2, hi=WIGNER_KERNEL_MAX_ORDER)
        store_shots = field(doc, "store_shots", bool, False)
    with _block("state"):
        state = build_state(field(doc, "state", dict))
    with _block("amplifier"):
        amp = field(doc, "amplifier", dict, {"gain": 1.0, "nbar": 0.0})
        chain = AmplifierChain(gain=field(amp, "gain", float, 1.0), nbar=_nbar(amp))
    with _block("histogram"):
        hist = field(doc, "histogram", dict, {})
        bins = field(hist, "bins", int, DEFAULT_BINS, lo=1, hi=serialize.MAX_BINS)
        extent = field(hist, "range", float, None, positive=True)
    envelope = calibration = None
    with _block("time_domain"):
        td = field(doc, "time_domain", dict, {})
        if field(td, "enabled", bool, False):
            envelope = TemporalEnvelope(kappa=field(td, "kappa", float, 1.0 / 40.0),
                                        dt=field(td, "dt", float, 1.0),
                                        n_bins=field(td, "bins", int, 400, lo=1,
                                                     hi=MAX_TIME_BINS))
    # the largest draw of a batch, 2 normals per shot and time bin, must be indexable
    draws = -(-shots // batches) * 2 * (envelope.n_bins if envelope else 1)
    if draws > np.iinfo(np.intp).max:
        raise ConfigError(f"config: shots {shots} in {batches} batches need {draws} "
                          "noise draws per batch, more than numpy can index")
    with _block("calibration"):
        if (cal := field(doc, "calibration", dict, None)) is not None:
            calibration = build_state({"beta": 1.0 / math.sqrt(2.0), "phase": math.pi,
                                       **cal, "kind": "superposition"})
    return ExperimentConfig(seed=seed, shots=shots, state=state, chain=chain,
                            order=order, batches=batches, bins=bins, extent=extent,
                            envelope=envelope, calibration=calibration,
                            store_shots=store_shots, raw=doc)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    doc = _read(Path(path), "config file", lambda p: json.loads(p.read_text()), ConfigError)
    return parse_config(doc, overrides)


def build_state(spec: dict) -> FockState:
    kind = field(spec, "kind", str, None)
    if kind == "vacuum":
        return FockState.vacuum()
    if kind == "fock":
        return FockState.fock(field(spec, "k", int, 1))
    if kind == "coherent":
        pair = isinstance(spec.get("alpha"), list)   # [x, p]
        return coherent_state(field(spec, "alpha", complex if pair else float, 1.0))
    if kind == "thermal":
        return thermal_state(field(spec, "nbar", float, 1.0, lo=0, hi=MAX_THERMAL_NBAR))
    if kind != "superposition":
        raise ValueError("kind must be one of vacuum|fock|coherent|superposition|thermal")
    phase = field(spec, "phase", float, 0.0)
    beta = abs(field(spec, "beta", float, 1.0)) * np.exp(1j * phase)
    state = prepare_superposition(beta, field(spec, "admixture", float, 0.0))
    eta = field(spec, "loss_eta", float, None)
    return state if eta is None else loss_channel(state, eta)


# -- simulation runs ---------------------------------------------------------

def _batch_sizes(shots: int, batches: int) -> list[int]:
    base, rem = divmod(shots, batches)
    return [base + (1 if i < rem else 0) for i in range(batches)]


def _available_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


def _in_order(calls, workers: int):
    """The results of the zero-argument `calls`, in order, from a pool of `workers`
    threads that keeps `workers` calls in flight beyond the awaited one, each under
    the caller's (per-thread) NumPy error state at its submission. Closing the
    generator, or an error, shuts the pool down: no thread outlives it."""
    with ThreadPoolExecutor(workers) as pool:
        window = []
        for call in calls:
            window.append(pool.submit(np.errstate(**np.geterr())(call)))
            if len(window) > workers:
                yield window.pop(0).result()
        yield from (future.result() for future in window)


def _time_domain_leaves(state: FockState, env: TemporalEnvelope,
                        chain: AmplifierChain, sizes: list[int], seed):
    """The leaves (`leaf_slices`) of the run's matched-filtered batches, in order.
    The batches are made on a pool of one thread per CPU; each keeps its own
    stream, so the CPU count changes no output. A batch's records are made and
    filtered one row block at a time."""
    def make(b: int, size: int) -> np.ndarray:
        return np.concatenate([matched_filter(block, env) for block in simulate_time_trace(
            state, env, chain, size, seed=seed, stream=b)])

    batches = _in_order((functools.partial(make, b, size) for b, size in enumerate(sizes)),
                        min(_available_cpus(), len(sizes)))
    with closing(batches):
        for batch in batches:
            yield from (batch[cut] for cut in leaf_slices(batch.size))


def _detector_leaves(state: FockState, chain: AmplifierChain, sizes: list[int], seed):
    """The leaves (`leaf_slices`) of the run's batches, batch b on stream b, in
    order to the stream's end, drawn on one draw thread one leaf ahead of the
    caller, across batch edges. One thread runs the draws one at a time, so the
    streams are the sequential ones and no generator is entered twice."""
    leaves = itertools.chain.from_iterable(
        detector_blocks(state, chain, leaf_slices(size), seed, stream=b)
        for b, size in enumerate(sizes))
    drawn = _in_order(itertools.repeat(functools.partial(next, leaves, None)), workers=1)
    with closing(drawn):
        yield from itertools.takewhile(lambda leaf: leaf is not None, drawn)


def run_acquisition(state: FockState, cfg: ExperimentConfig, stage: int,
                    extent: float) -> dict:
    """Simulate one run in batches; returns histogram, per-batch moments,
    optional shots. The run's leaves (`leaf_slices` of each batch) arrive in
    order, each binned and summed as it arrives on this thread, and the
    overflow is checked once per batch."""
    hist = QuadratureHistogram(bins=cfg.bins, extent=extent)
    seed, sizes = [cfg.seed, stage], _batch_sizes(cfg.shots, cfg.batches)
    leaves = (_detector_leaves(state, cfg.chain, sizes, seed) if cfg.envelope is None
              else _time_domain_leaves(state, cfg.envelope, cfg.chain, sizes, seed))
    moments = StreamingMoments(cfg.order)
    shots_kept: list[np.ndarray] = []

    def binned(leaf: np.ndarray) -> np.ndarray:
        hist.add(leaf)
        if cfg.store_shots:
            shots_kept.append(leaf)
        return leaf

    with closing(leaves):   # closing it shuts its pool down, also on an error
        for size in sizes:
            moments.add_batch(size, map(binned, leaves))
            hist.check_overflow()
        if next(leaves, None) is not None:
            raise ValueError("more leaves than leaf_slices cuts the run's batches into")
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

def cmd_simulate(cfg: ExperimentConfig, out_dir: Path,
                 derived: dict) -> dict[str, BatchMoments]:
    """Simulate and store each run into `out_dir`; returns each run's batch
    moments by run name, and enters each derived value into `derived` as soon
    as it is known. The histograms are not kept."""
    extent = auto_extent(cfg)
    derived.update(extent=extent, gain_true=cfg.chain.gain, nbar=cfg.chain.nbar)

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
        del result      # its histogram and shots go before the next run draws
    return moments


def _load_pair(paths: list[Path], order: int) -> list[BatchMoments]:
    """The batches at a signal run's and its vacuum run's `paths`, of one stored order,
    cut to `order` where that is lower. A run whose count-weighted mean is not finite,
    or (from order 2) has s(1,1) < |s(0,1)|^2, is a NumericError naming its file."""
    pair = [_read(path, "stored moments", serialize.load_batch_moments) for path in paths]
    stored = pair[0].order
    if pair[1].order != stored:
        raise DataError("signal and vacuum runs have different moment orders")
    if stored < order:
        raise DataError(f"stored moments only go to order {stored}")
    pair = [BatchMoments(run.values[:, : order + 1, : order + 1], run.counts)
            if order < stored else run for run in pair]
    for path, run in zip(paths, pair):
        with _block(f"{path}: count-weighted mean", NumericError):
            s = combine_batches(run).values
            if order >= 2 and (var := s[1, 1].real - abs(s[0, 1]) ** 2) < 0:
                raise ValueError(f"the shots' variance s(1,1) - |s(0,1)|^2 is {var:g} < 0")
    return pair


def cmd_analyze(sig: BatchMoments, vac: BatchMoments, gain: float, out_path: Path,
                runs: str = "moments_signal.json and moments_vacuum.json") -> InversionReport:
    """Bootstrap, then inversion; a stage left non-finite is a NumericError naming `runs`."""
    with _block(f"{runs}: bootstrap", NumericError):
        if not np.isfinite(errors := bootstrap_errors(sig, vac, gain)).all():
            raise ValueError("the replicas' spread is not finite")
    with _block(f"{runs}: inversion", NumericError):
        report = invert_moments(combine_batches(sig), combine_batches(vac), gain, errors)
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


def cmd_calibrate(sup: BatchMoments, vac: BatchMoments, out_path: Path,
                  runs: str = "moments_calibration.json and moments_vacuum.json") -> dict:
    """Gain estimate; one refused or left non-finite is a NumericError naming `runs`."""
    with _block(f"{runs}: calibration", NumericError):
        result = estimate_gain(sup, vac)
        for key in ("gain_stderr", "m1_stderr"):
            if not math.isfinite(result[key]):
                raise ValueError(f"{key} is {result[key]}: the replicas' spread is not finite")
    out_path.write_text(json.dumps(result, indent=2, allow_nan=False))
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
    if cfg.batches < 2:
        raise ConfigError("config: batches must be >= 2 for full-run, whose bootstrap "
                          f"resamples batches, got {cfg.batches}")
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


def _manifest_gain(manifest: Path) -> float:
    return field(json.loads(manifest.read_text())["derived"], "gain_true", float,
                 positive=True)


def _flag(args, name: str, kind: type, **bounds):
    """The value of flag --name, read with `typed`; a refused value is a ConfigError."""
    with _block(f"--{name}"):
        return typed(getattr(args, name), kind, "value", **bounds)


# the files each command writes at --out, none for a run directory
_OUT_FILES = {"simulate": lambda out: (), "full-run": lambda out: (),
              "analyze": lambda out: (out, out.with_suffix(".txt")),
              "calibrate": lambda out: (out,), "wigner": serialize.wigner_paths}


def _out_path(args) -> Path:
    """--out, refused as a ConfigError naming it, before any work, where the command
    could not write. A run directory is made with its parents, so the nearest path
    that exists must be a writable directory; each file must be in one, be no other
    output's file, and not be a directory or a file that cannot be written."""
    out = Path(args.out)
    with _block(f"--out {out}"):
        files = _OUT_FILES[args.command](out)
        if len(set(files)) < len(files):    # analyze --out x.txt: the table over the report
            raise ValueError("two outputs would be written to one file")
        for path in files:
            if path.is_dir() or path.exists() and not os.access(path, os.W_OK):
                raise ValueError(f"{path} cannot be written as a file")
        dirs = ({path.parent for path in files} if files
                else {next(path for path in (out, *out.parents) if path.exists())})
        for where in dirs:
            if not where.is_dir() or not os.access(where, os.W_OK | os.X_OK):
                raise ValueError(f"{where} is not a writable directory")
    return out


@np.errstate(all="ignore")   # the finiteness checks decide, whatever the caller set
def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = _out_path(args)
        if args.command in ("simulate", "full-run"):
            cfg = load_config(args.config, _overrides(args))
            if args.command == "full-run":
                result = cmd_full_run(cfg, out)
            else:
                with _run_dir(cfg, out) as result:
                    cmd_simulate(cfg, out, result)
        elif args.command == "wigner":
            extent = _flag(args, "extent", float, positive=True)
            resolution = _flag(args, "resolution", int, lo=1, hi=MAX_RESOLUTION)
            report = _read(Path(args.report), "inversion report", serialize.load_report)
            result = cmd_wigner(report, out, extent, resolution)
        else:   # calibrate and analyze read a signal run and its vacuum run
            signal_dir = Path(args.signal)
            calibration = signal_dir / "moments_calibration.json"
            paths = [calibration if args.command == "calibrate" and calibration.exists()
                     else signal_dir / "moments_signal.json",
                     Path(args.vacuum or signal_dir) / "moments_vacuum.json"]
            runs = " and ".join(map(str, paths))
            if args.command == "calibrate":     # it reads s(0,1) and s(1,1)
                result = cmd_calibrate(*_load_pair(paths, order=2), out, runs)
            else:
                gain = (_flag(args, "gain", float, positive=True) if args.gain is not None
                        else _read(signal_dir / "manifest.json", "manifest (or pass --gain)",
                                   _manifest_gain))
                order = _flag(args, "order", int, lo=1)
                result = cmd_analyze(*_load_pair(paths, order), gain, out, runs)
        print(format_moment_table(result) if args.command == "analyze"
              else json.dumps(result, indent=2))
    except (ConfigError, DataError, NumericError, ValueError) as exc:
        # outside inputs are read through _block, _read and _flag: a ValueError is numeric
        print(f"error [{args.command}]: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", NumericError.exit_code)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
