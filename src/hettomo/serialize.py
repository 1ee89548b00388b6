"""File formats for shots, histograms, moments, reports and Wigner grids.

Complex numbers are stored as [re, im] pairs in JSON.  Bulk data uses flat
little-endian binary with a JSON sidecar/header: float64 (re, im) pairs for
shots, and for a histogram its occupied bins alone, as packed 12-byte
(index <u4, count <u8) records in ascending row-major flat index order.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .acquire import QuadratureHistogram
from .moments import ANTINORMAL, NORMAL, BatchMoments, MomentMatrix
from .tomo import WIGNER_KERNEL_MAX_ORDER, InversionReport, WignerGrid

MAX_BINS = 1 << 16  # a <u4 record index holds every bin of a MAX_BINS^2 histogram
HIST_RECORD = np.dtype([("index", "<u4"), ("count", "<u8")])  # packed, 12 bytes


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          complex: "a pair [re, im] of finite numbers", str: "a string", list: "a list"}
_MANDATORY = object()


def typed(value, kind: type, key: str, lo=None, hi=None, positive: bool = False):
    """`value` checked against JSON type `kind` and the bounds [lo, hi], or > 0.

    A bool is not a number, an integer serves where a float is wanted but not
    the reverse, numbers must be finite, and a complex number is a pair [re, im]."""
    if kind is complex and isinstance(value, list) and len(value) == 2:
        return complex(typed(value[0], float, key), typed(value[1], float, key))
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        ok = number and abs(value) <= sys.float_info.max
    elif kind is int:
        ok = number and isinstance(value, int)
    else:
        ok = isinstance(value, kind)
    if not (ok and (lo is None or value >= lo) and (hi is None or value <= hi)
            and (not positive or value > 0)):
        bounds = " > 0" if positive else "" if lo is None else \
            f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        raise ValueError(f"{key} must be {_KINDS[kind]}{bounds}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def field(block: dict, key: str, kind: type, default=_MANDATORY, **bounds):
    """`block[key]` read with `typed`; null passes only where null is the default."""
    value = block[key] if key in block else default
    if value is _MANDATORY:
        raise ValueError(f"{key} is mandatory")
    if value is None and default is None:
        return None
    return typed(value, kind, key, **bounds)


def matrix_to_json(values: np.ndarray) -> list:
    values = np.asarray(values, dtype=complex)
    return np.stack((values.real, values.imag), -1).tolist()


def matrix_from_json(rows, key: str = "matrix", kind: type = complex) -> np.ndarray:
    """A JSON matrix of `kind` entries, each read with `typed`; ragged rows are refused."""
    rows, entry = typed(rows, list, key), f"{key} entry"
    return np.array([[typed(x, kind, entry) for x in row] for row in rows], dtype=kind)


# -- shots -------------------------------------------------------------------

def save_shots(prefix, samples: np.ndarray, gain: float | None = None,
               seed=None) -> tuple[Path, Path]:
    prefix = Path(prefix)
    samples = np.asarray(samples, dtype="<c16")     # (re, im) <f8 pairs in memory
    bin_path = prefix.with_suffix(".bin")
    samples.tofile(bin_path)
    sidecar = {
        "count": samples.size,
        "seed": seed,
        "units": "detector",
        "gain": gain,
        "dtype": "<f8 interleaved re,im",
    }
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(sidecar, indent=2))
    return bin_path, json_path


def load_shots(prefix) -> np.ndarray:
    """The complex shots `save_shots` wrote; a non-finite sample is refused."""
    prefix = Path(prefix)
    count = field(json.loads(prefix.with_suffix(".json").read_text()), "count", int, lo=0)
    path = prefix.with_suffix(".bin")
    data = np.fromfile(path, dtype="<f8")
    if data.size != 2 * count:
        raise ValueError(f"{prefix}: shot file length disagrees with sidecar")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: shot file contains non-finite samples")
    return data.view("<c16")


# -- histograms --------------------------------------------------------------

def save_histogram(prefix, hist: QuadratureHistogram, meta: dict | None = None
                   ) -> tuple[Path, Path]:
    prefix = Path(prefix)
    counts_path = prefix.with_suffix(".coo")
    flat = hist.counts.reshape(-1)      # a view: counts are C-contiguous
    index = np.concatenate([np.flatnonzero(flat[i:i + 65536] != 0) + i   # no whole-array mask
                            for i in range(0, flat.size, 65536)])
    records = np.empty(index.size, dtype=HIST_RECORD)
    records["index"], records["count"] = index, flat[index]
    records.tofile(counts_path)
    header = {
        "bins": hist.bins,
        "extent": hist.extent,
        "total": hist.total,
        "overflow": hist.overflow,
        "counts_file": counts_path.name,
        "format": "<u4 index, <u8 count per occupied bin; row-major index ascending",
        "occupied": int(index.size),
    }
    if meta:
        header.update(meta)
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(header, indent=2))
    return counts_path, json_path


def load_histogram(prefix) -> QuadratureHistogram:
    """The histogram `save_histogram` wrote, its records checked against the header."""
    prefix = Path(prefix)
    header = json.loads(prefix.with_suffix(".json").read_text())
    # the header is checked before bins^2 counts are allocated
    bins = field(header, "bins", int, lo=1, hi=MAX_BINS)
    extent = field(header, "extent", float, positive=True)
    overflow, total, occupied = (field(header, key, int, lo=0)
                                 for key in ("overflow", "total", "occupied"))
    path, cells = prefix.parent / header["counts_file"], bins ** 2
    size = path.stat().st_size
    if size % HIST_RECORD.itemsize:
        raise ValueError(f"{path}: {size} bytes is not a whole number of "
                         f"{HIST_RECORD.itemsize}-byte records")
    records = np.fromfile(path, dtype=HIST_RECORD)
    index, count = records["index"], records["count"]
    if index.size != occupied:
        raise ValueError(f"{path}: {index.size} records, header says "
                         f"{occupied} occupied bins")
    if np.any(index[1:] <= index[:-1]) or np.any(index >= cells):
        raise ValueError(f"{path}: bin indices must ascend strictly below bins^2 = {cells}")
    if np.any(count == 0):
        raise ValueError(f"{path}: a record has a zero count")
    in_range, summed = total - overflow, int(count.sum())
    if summed != in_range:
        raise ValueError(f"{path}: counts sum to {summed}, header says "
                         f"total - overflow = {in_range}")
    hist = QuadratureHistogram(bins=bins, extent=extent)
    hist.counts.reshape(-1)[index] = count
    hist.in_range, hist.overflow = summed, overflow
    return hist


# -- moments and reports -----------------------------------------------------

def save_batch_moments(path, batches: BatchMoments) -> None:
    doc = [{"count": int(count), "provenance": "streaming", "values": matrix_to_json(values)}
           for values, count in zip(batches.values, batches.counts)]
    Path(path).write_text(json.dumps(doc))


def load_batch_moments(path) -> BatchMoments:
    doc = json.loads(Path(path).read_text())
    counts = [field(b, "count", int, lo=1) for b in doc]
    values = [matrix_from_json(b["values"], "values") for b in doc]
    if len({v.shape for v in values}) > 1:
        raise ValueError("batches of different moment orders")
    return BatchMoments(np.array(values), np.array(counts))


def save_report(path, report: InversionReport) -> None:
    doc = {
        "order": report.moments.order,
        "gain": report.gain,
        "moments": matrix_to_json(report.moments.values),
        "noise_moments": matrix_to_json(report.noise.values),
        "errors": report.errors.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def load_report(path) -> InversionReport:
    doc = json.loads(Path(path).read_text())
    order = field(doc, "order", int, lo=0, hi=WIGNER_KERNEL_MAX_ORDER)
    moments = MomentMatrix(matrix_from_json(doc["moments"], "moments"), ordering=NORMAL)
    if moments.order != order:
        raise ValueError(f"order {order} disagrees with moments of order {moments.order}")
    return InversionReport(
        moments=moments,
        gain=field(doc, "gain", float),
        noise=MomentMatrix(matrix_from_json(doc["noise_moments"], "noise_moments"),
                           ordering=ANTINORMAL),
        errors=matrix_from_json(doc["errors"], "errors", float),
    )


# -- Wigner grids ------------------------------------------------------------

def save_wigner(prefix, grid: WignerGrid) -> tuple[Path, Path]:
    prefix = Path(prefix)
    csv_path = prefix.with_suffix(".csv")
    x, p = np.meshgrid(grid.xs, grid.ps, indexing="ij")
    rows = np.column_stack([x.ravel(), p.ravel(), grid.values.ravel()])
    # np.savetxt's bytes, from one format over the flat values in place of one per row
    text = "%.9g,%.9g,%.12g\n" * len(rows) % tuple(rows.ravel().tolist())
    csv_path.write_text("x,p,w\n" + text)
    header = {
        "extent": grid.extent,
        "resolution": len(grid.xs),
        "truncation_order": grid.truncation,
        "csv_file": csv_path.name,
    }
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(header, indent=2))
    return csv_path, json_path
