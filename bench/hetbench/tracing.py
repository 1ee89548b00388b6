"""In-memory spans around the `hettomo` functions each layer exposes.

The wrappers go on the names the callers look up at run time: `cli` and
`simulate` bind their imports with `from ... import`, so `cli.sample_detector`
and `simulate.husimi_q` are patched rather than the defining modules, and
the two accumulator methods are patched on their classes. Each span keeps
(name, start, end, parent, payload); the payload is a small count taken
from the call's arguments or result (shots, points, bytes, replicas).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _size(x) -> int:
    samples = getattr(x, "samples", x)
    return int(np.asarray(samples).size)


def _bytes(paths) -> int:
    if isinstance(paths, (str, Path)):
        paths = [paths]
    return sum(Path(p).stat().st_size for p in paths)


def _husimi_points(args, kwargs, result):
    alpha = np.asarray(args[1] if len(args) > 1 else kwargs["alpha"])
    # candidate points arrive as a flat vector; the envelope search uses a grid
    return {"points": int(alpha.size), "candidates": int(alpha.size) if alpha.ndim == 1 else 0}


def _shots_arg(index):
    return lambda args, kwargs, result: {"shots": _size(args[index])}


# (span name, where the callers look it up, attribute, payload of one call)
TARGETS = [
    ("cli.cmd_simulate", "hettomo.cli", "cmd_simulate", None),
    ("cli.auto_extent", "hettomo.cli", "auto_extent", None),
    ("cli.write_manifest", "hettomo.cli", "write_manifest", None),
    ("cli.cmd_calibrate", "hettomo.cli", "cmd_calibrate",
     lambda a, k, r: {"replicas": int(r["n_bootstrap"])}),
    ("cli.cmd_analyze", "hettomo.cli", "cmd_analyze", None),
    ("cli.cmd_wigner", "hettomo.cli", "cmd_wigner", None),
    ("simulate.sample_detector", "hettomo.cli", "sample_detector",
     lambda a, k, r: {"shots": _size(r)}),
    ("simulate.simulate_time_trace", "hettomo.cli", "simulate_time_trace", None),
    ("simulate.matched_filter", "hettomo.cli", "matched_filter", None),
    ("simulate.sample_q", "hettomo.simulate", "sample_q",
     lambda a, k, r: {"shots": _size(r)}),
    ("fock.husimi_q", "hettomo.simulate", "husimi_q", _husimi_points),
    ("acquire.QuadratureHistogram.add", "hettomo.acquire:QuadratureHistogram", "add",
     _shots_arg(1)),
    ("acquire.StreamingMoments.update", "hettomo.acquire:StreamingMoments", "update",
     _shots_arg(1)),
    ("acquire.vacuum_sigma", "hettomo.cli", "vacuum_sigma", None),
    ("tomo.bootstrap_errors", "hettomo.cli", "bootstrap_errors", None),
    ("tomo.invert_moments", "hettomo.cli", "invert_moments", None),
    ("tomo.estimate_gain", "hettomo.cli", "estimate_gain", None),
    ("tomo.reconstruct_wigner", "hettomo.cli", "reconstruct_wigner", None),
    ("serialize.load_batch_moments", "hettomo.serialize", "load_batch_moments", None),
    ("serialize.save_histogram", "hettomo.serialize", "save_histogram",
     lambda a, k, r: {"bytes": _bytes(r)}),
    ("serialize.save_batch_moments", "hettomo.serialize", "save_batch_moments",
     lambda a, k, r: {"bytes": _bytes(a[0])}),
    ("serialize.save_report", "hettomo.serialize", "save_report",
     lambda a, k, r: {"bytes": _bytes(a[0])}),
    ("serialize.save_wigner", "hettomo.serialize", "save_wigner",
     lambda a, k, r: {"bytes": _bytes(r)}),
]


def _owner(where: str):
    module, _, cls = where.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; `uninstall()` restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, payload):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, {}])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if payload is not None:
                spans[index][4] = payload(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> list[str]:
        """Patch every target present; returns the names not found."""
        missing = []
        for name, where, attr, payload in TARGETS:
            owner = _owner(where)
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, payload))
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one operation."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1, {}])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()


def layer_totals(spans: list[list], first: int, last: int) -> dict:
    """Per-name totals over spans[first:last]: calls, inclusive and self
    time, and summed payload counts. Candidate points count towards the
    acceptance ratio only in sample_q calls that evaluated them."""
    child_time = [0.0] * (last - first)
    rejection_shots = 0
    candidates_of = {}
    for i in range(first, last):
        name, start, end, parent, payload = spans[i]
        if parent >= first:
            child_time[parent - first] += end - start
            if name == "fock.husimi_q":
                candidates_of[parent] = candidates_of.get(parent, 0) \
                    + payload.get("candidates", 0)
    totals: dict[str, dict] = {}
    for i in range(first, last):
        name, start, end, parent, payload = spans[i]
        t = totals.setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0})
        t["calls"] += 1
        t["time"] += end - start
        t["self"] += end - start - child_time[i - first]
        for key, value in payload.items():
            t[key] = t.get(key, 0) + value
        if name == "simulate.sample_q" and candidates_of.get(i, 0):
            rejection_shots += payload["shots"]
    totals["_rejection"] = {"shots": rejection_shots,
                            "candidates": sum(candidates_of.values())}
    return totals


def _get(totals, name, key):
    return totals.get(name, {}).get(key, 0)


def _rate(totals, name):
    t = _get(totals, name, "time")
    return _get(totals, name, "shots") / t / 1e6 if t > 0 else 0.0


# per-layer metric -> (unit, better, value from one traced pass's totals)
PER_LAYER = {
    "simulate.sample_q.self_s": ("s", "lower", lambda t: _get(t, "simulate.sample_q", "self")),
    "simulate.sample_q.mshot_per_s": ("Mshot/s", "higher", lambda t: _rate(t, "simulate.sample_q")),
    "simulate.sample_q.accept_ratio": ("ratio", "higher", lambda t: (
        t["_rejection"]["shots"] / t["_rejection"]["candidates"]
        if t["_rejection"]["candidates"] else 0.0)),
    "fock.husimi_q.self_s": ("s", "lower", lambda t: _get(t, "fock.husimi_q", "self")),
    "fock.husimi_q.points": ("count", "lower", lambda t: _get(t, "fock.husimi_q", "points")),
    "simulate.sample_detector.self_s": ("s", "lower",
                                        lambda t: _get(t, "simulate.sample_detector", "self")),
    "simulate.simulate_time_trace.self_s": ("s", "lower",
                                            lambda t: _get(t, "simulate.simulate_time_trace", "self")),
    "simulate.matched_filter.self_s": ("s", "lower",
                                       lambda t: _get(t, "simulate.matched_filter", "self")),
    "acquire.QuadratureHistogram.add.self_s": ("s", "lower",
                                               lambda t: _get(t, "acquire.QuadratureHistogram.add", "self")),
    "acquire.QuadratureHistogram.add.mshot_per_s": ("Mshot/s", "higher",
                                                    lambda t: _rate(t, "acquire.QuadratureHistogram.add")),
    "acquire.QuadratureHistogram.add.calls": ("count", "lower",
                                              lambda t: _get(t, "acquire.QuadratureHistogram.add", "calls")),
    "acquire.StreamingMoments.update.self_s": ("s", "lower",
                                               lambda t: _get(t, "acquire.StreamingMoments.update", "self")),
    "acquire.StreamingMoments.update.mshot_per_s": ("Mshot/s", "higher",
                                                    lambda t: _rate(t, "acquire.StreamingMoments.update")),
    "acquire.vacuum_sigma.self_s": ("s", "lower", lambda t: _get(t, "acquire.vacuum_sigma", "self")),
    "cli.auto_extent.self_s": ("s", "lower", lambda t: _get(t, "cli.auto_extent", "self")),
    "cli.cmd_simulate.self_s": ("s", "lower", lambda t: _get(t, "cli.cmd_simulate", "self")),
    "cli.write_manifest.self_s": ("s", "lower", lambda t: _get(t, "cli.write_manifest", "self")),
    "tomo.bootstrap_errors.self_s": ("s", "lower", lambda t: _get(t, "tomo.bootstrap_errors", "self")),
    "tomo.invert_moments.self_s": ("s", "lower", lambda t: _get(t, "tomo.invert_moments", "self")),
    "tomo.estimate_gain.calls": ("count", "lower", lambda t: _get(t, "tomo.estimate_gain", "calls")),
    "tomo.reconstruct_wigner.self_s": ("s", "lower", lambda t: _get(t, "tomo.reconstruct_wigner", "self")),
    "cli.cmd_calibrate.self_s": ("s", "lower", lambda t: _get(t, "cli.cmd_calibrate", "self")),
    "cli.cmd_calibrate.replicas_used": ("count", "higher",
                                        lambda t: _get(t, "cli.cmd_calibrate", "replicas")),
    "cli.cmd_analyze.self_s": ("s", "lower", lambda t: _get(t, "cli.cmd_analyze", "self")),
    "cli.cmd_wigner.self_s": ("s", "lower", lambda t: _get(t, "cli.cmd_wigner", "self")),
    "serialize.load_batch_moments.self_s": ("s", "lower",
                                            lambda t: _get(t, "serialize.load_batch_moments", "self")),
    "serialize.save_wigner.self_s": ("s", "lower", lambda t: _get(t, "serialize.save_wigner", "self")),
    "serialize.save_histogram.self_s": ("s", "lower", lambda t: _get(t, "serialize.save_histogram", "self")),
    "serialize.save_batch_moments.self_s": ("s", "lower",
                                            lambda t: _get(t, "serialize.save_batch_moments", "self")),
    "serialize.bytes_written": ("bytes", "lower", lambda t: sum(
        v.get("bytes", 0) for k, v in t.items() if k.startswith("serialize."))),
}


def per_layer_metrics(per_pass_totals: list[dict]) -> dict:
    """Median over traced passes of each per-layer metric."""
    return {name: statistics.median(fn(t) for t in per_pass_totals)
            for name, (unit, better, fn) in PER_LAYER.items()}
