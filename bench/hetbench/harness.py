"""Closed-loop runner: one process, one `hettomo` operation at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (import of hettomo, config generation and parsing, and for
`reanalyze` the stored run) is repeated SETUP_REPEATS times and reported
as the import time plus the median repeat. Then whole pipeline passes run
until S seconds have gone by, at least one, and pipeline_s is the fastest.
With --trace 1 untraced and traced passes alternate, and the per-layer
numbers are medians over the traced ones. The last line of standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from . import tracing
from .workloads import WORKLOADS

SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_hettomo(src: Path):
    """Import the package from this checkout's src/, never an installed one."""
    if not (src / "hettomo" / "__init__.py").is_file():
        raise ImportError(f"no hettomo package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("hettomo.cli")
    if Path(cli.__file__).resolve().parent != (src / "hettomo").resolve():
        raise ImportError(f"imported hettomo from {cli.__file__}, not from {src}")
    return cli


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _attempt(cli, op, log) -> bool:
    """Run one operation; True when it exited 0."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(op.argv())
    except Exception:        # a crash is a failed operation, not a crashed benchmark
        log.write(f"{op.name}: raised\n{traceback.format_exc()}")
        return False
    if code != 0:
        log.write(f"{op.name}: exit code {code}\n")
    return code == 0


def measure(workload, cli, work: Path, seconds: float, trace: bool,
            import_s: float, log=sys.stderr) -> dict:
    setup_times = []
    for r in range(SETUP_REPEATS):
        if r:
            shutil.rmtree(work / f"setup{r - 1}")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            workload.setup(work / f"setup{r}", cli)
        setup_times.append(time.perf_counter() - t0)
    workload.prepare()
    setup_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    tracer = tracing.Tracer()
    pass_times = {False: [], True: []}
    traced_totals, run_bytes = [], []
    attempted = failed = 0
    unexpected = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        pass_dir = work / f"pass{i}"
        pass_dir.mkdir(parents=True)
        ops = workload.ops(pass_dir)
        if traced:
            missing = tracer.install()
            if missing:
                log.write(f"trace: not found in hettomo: {', '.join(missing)}\n")
        first = len(tracer.spans)
        exits = []
        t0 = time.perf_counter()
        for op in ops:
            with tracer.span(f"op.{op.name}") if traced else contextlib.nullcontext():
                exits.append(_attempt(cli, op, log))
        pass_times[traced].append(time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
            traced_totals.append(tracing.layer_totals(tracer.spans, first,
                                                      len(tracer.spans)))
        for op, ok in zip(ops, exits):
            attempted += 1
            try:
                problems = op.check() if ok else ["did not exit 0"]
            except Exception as exc:     # unreadable output fails the operation
                problems = [f"output unreadable: {exc!r}"]
            if problems:
                failed += 1
                known = op.name in workload.known_failures
                if not known:
                    unexpected.append(op.name)
                log.write(f"pass {i} {op.name} failed{' (known fault)' if known else ''}: "
                          + "; ".join(problems) + "\n")
        run_bytes.append(_dir_bytes(pass_dir))
        shutil.rmtree(pass_dir)
        i += 1
        if time.perf_counter() - start >= seconds and i >= (2 if trace else 1):
            break

    # the fastest pass: the host's speed switches by up to 2x for ~10 s at a
    # time, which moves a run's median pass far more than its fastest one
    pipeline_s = min(pass_times[False])
    if trace:
        metrics = tracing.per_layer_metrics(traced_totals)
        metrics["trace.overhead_s"] = min(pass_times[True]) - pipeline_s
        units = {name: unit for name, (unit, _, _) in tracing.PER_LAYER.items()}
        units["trace.overhead_s"] = "s"
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_times),
            "pipeline_s": pipeline_s,
            "mshot_per_s": workload.shots_per_pass / pipeline_s / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "run_dir_mb": statistics.median(run_bytes) / 1e6,
        }
        units = {"setup_s": "s", "pipeline_s": "s", "mshot_per_s": "Mshot/s",
                 "peak_rss_mb": "MB", "run_dir_mb": "MB"}
    log.write(f"{workload.name}: {i} passes, untraced {pass_times[False]}, "
              f"traced {pass_times[True]}, setup {setup_times} + import {import_s}, "
              f"peak RSS after set-up {setup_rss} MB\n")
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        cli = import_hettomo(root / "src")
    except ImportError as exc:
        print(f"bench: cannot import hettomo: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    workload = WORKLOADS[args.workload](args.seed)
    work = root / "bench" / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure(workload, cli, work, args.seconds, bool(args.trace), import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):     # kept while another run uses it
            work.parent.rmdir()
    print(json.dumps(result))
    return 0
