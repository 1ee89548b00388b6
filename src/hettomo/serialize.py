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
from .simulate import ShotBatch
from .tomo import WIGNER_KERNEL_MAX_ORDER, InversionReport, WignerGrid

MAX_BINS = 1 << 16  # a <u4 record index holds every bin of a MAX_BINS^2 histogram
HIST_RECORD = np.dtype([("index", "<u4"), ("count", "<u8")])  # packed, 12 bytes


def matrix_to_json(values: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(values, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(z[0], z[1]) for z in row] for row in rows], dtype=complex)


# -- shot batches ------------------------------------------------------------

def save_shots(prefix, batch: ShotBatch, gain: float | None = None,
               seed=None) -> tuple[Path, Path]:
    prefix = Path(prefix)
    data = np.empty(2 * batch.count, dtype="<f8")
    data[0::2] = batch.samples.real
    data[1::2] = batch.samples.imag
    bin_path = prefix.with_suffix(".bin")
    data.tofile(bin_path)
    sidecar = {
        "count": batch.count,
        "seed": seed,
        "units": "detector",
        "gain": gain,
        "dtype": "<f8 interleaved re,im",
    }
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(sidecar, indent=2))
    return bin_path, json_path


def load_shots(prefix) -> ShotBatch:
    prefix = Path(prefix)
    sidecar = json.loads(prefix.with_suffix(".json").read_text())
    data = np.fromfile(prefix.with_suffix(".bin"), dtype="<f8")
    if data.size != 2 * sidecar["count"]:
        raise ValueError(f"{prefix}: shot file length disagrees with sidecar")
    return ShotBatch(data[0::2] + 1j * data[1::2])


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
        "errors": (np.asarray(report.errors, dtype=float).tolist()
                   if report.errors is not None else None),
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
        errors=np.array(doc["errors"]) if doc.get("errors") is not None else None,
    )


# -- Wigner grids ------------------------------------------------------------

def save_wigner(prefix, grid: WignerGrid) -> tuple[Path, Path]:
    prefix = Path(prefix)
    csv_path = prefix.with_suffix(".csv")
    with open(csv_path, "w") as fh:
        fh.write("x,p,w\n")
        for i, x in enumerate(grid.xs):
            for j, p in enumerate(grid.ps):
                fh.write(f"{x:.9g},{p:.9g},{grid.values[i, j]:.12g}\n")
    header = {
        "extent": grid.extent,
        "resolution": len(grid.xs),
        "truncation_order": grid.truncation,
        "csv_file": csv_path.name,
    }
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(header, indent=2))
    return csv_path, json_path
