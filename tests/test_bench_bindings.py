"""The benchmark's tracer wraps functions by the names its callers look up
(`hettomo.cli.sample_detector`, `hettomo.cli.cmd_wigner`, ...). A rename in
the package must fail here rather than silently drop per-layer metrics."""

import importlib.util
from pathlib import Path

import hettomo.cli  # noqa: F401  (the tracer patches modules already imported)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "hetbench" / "tracing.py"


def test_tracer_finds_every_target():
    spec = importlib.util.spec_from_file_location("hetbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        assert tracer.install() == []
    finally:
        tracer.uninstall()
