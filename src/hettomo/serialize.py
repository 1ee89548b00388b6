"""File formats for shots, histograms, moments, reports and Wigner grids.

Complex numbers are stored as [re, im] pairs in JSON.  Bulk data uses flat
little-endian binary with a JSON sidecar/header: float64 (re, im) pairs for
shots, and for a histogram its occupied bins alone, as packed 12-byte
(index <u4, count <u8) records in ascending row-major flat index order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .acquire import QuadratureHistogram
from .moments import BatchMoments, MomentMatrix
from .tomo import WIGNER_KERNEL_MAX_ORDER, InversionReport, WignerGrid

MAX_BINS = 1 << 16  # a <u4 record index holds every bin of a MAX_BINS^2 histogram
HIST_RECORD = np.dtype([("index", "<u4"), ("count", "<u8")])  # packed, 12 bytes


def matrix_to_json(values: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(values, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(z[0], z[1]) for z in row] for row in rows], dtype=complex)


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
    sidecar = json.loads(prefix.with_suffix(".json").read_text())
    path = prefix.with_suffix(".bin")
    data = np.fromfile(path, dtype="<f8")
    if data.size != 2 * sidecar["count"]:
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
    index = np.flatnonzero(flat)
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
    path, cells = prefix.parent / header["counts_file"], header["bins"] ** 2
    size = path.stat().st_size
    if size % HIST_RECORD.itemsize:
        raise ValueError(f"{path}: {size} bytes is not a whole number of "
                         f"{HIST_RECORD.itemsize}-byte records")
    records = np.fromfile(path, dtype=HIST_RECORD)
    index, count = records["index"], records["count"]
    if index.size != header["occupied"]:
        raise ValueError(f"{path}: {index.size} records, header says "
                         f"{header['occupied']} occupied bins")
    if np.any(index[1:] <= index[:-1]) or np.any(index >= cells):
        raise ValueError(f"{path}: bin indices must ascend strictly below bins^2 = {cells}")
    if np.any(count == 0):
        raise ValueError(f"{path}: a record has a zero count")
    in_range, summed = header["total"] - header["overflow"], int(count.sum())
    if summed != in_range:
        raise ValueError(f"{path}: counts sum to {summed}, header says "
                         f"total - overflow = {in_range}")
    hist = QuadratureHistogram(bins=header["bins"], extent=header["extent"])
    hist.counts.reshape(-1)[index] = count
    hist.in_range, hist.overflow = summed, header["overflow"]
    return hist


# -- moments and reports -----------------------------------------------------

def save_batch_moments(path, batches: BatchMoments) -> None:
    doc = [{"count": int(count), "provenance": "streaming", "values": matrix_to_json(values)}
           for values, count in zip(batches.values, batches.counts)]
    Path(path).write_text(json.dumps(doc))


def load_batch_moments(path) -> BatchMoments:
    doc = json.loads(Path(path).read_text())
    counts = [b["count"] for b in doc]
    if any(type(count) is not int for count in counts):
        raise ValueError("batch counts must be integers >= 1")
    values = [matrix_from_json(b["values"]) for b in doc]
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
    moments = MomentMatrix(matrix_from_json(doc["moments"]), ordering="normal")
    if moments.order > WIGNER_KERNEL_MAX_ORDER:
        raise ValueError(f"order {moments.order} is above the Wigner kernels' "
                         f"cap {WIGNER_KERNEL_MAX_ORDER}")
    return InversionReport(
        moments=moments,
        gain=doc["gain"],
        noise=MomentMatrix(matrix_from_json(doc["noise_moments"]),
                           ordering="antinormal"),
        errors=np.asarray(doc["errors"], dtype=float),
    )


# -- Wigner grids ------------------------------------------------------------

def save_wigner(prefix, grid: WignerGrid) -> tuple[Path, Path]:
    prefix = Path(prefix)
    csv_path = prefix.with_suffix(".csv")
    x, p = np.meshgrid(grid.xs, grid.ps, indexing="ij")
    np.savetxt(csv_path, np.column_stack([x.ravel(), p.ravel(), grid.values.ravel()]),
               fmt="%.9g,%.9g,%.12g", header="x,p,w", comments="")
    header = {
        "extent": grid.extent,
        "resolution": len(grid.xs),
        "truncation_order": grid.truncation,
        "csv_file": csv_path.name,
    }
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(header, indent=2))
    return csv_path, json_path
