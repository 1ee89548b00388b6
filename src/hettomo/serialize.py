"""File formats for shots, histograms, moments, reports and Wigner grids.

Complex numbers are stored as [re, im] pairs in JSON.  Bulk data uses flat
little-endian binary: float64 (re, im) pairs for shots, uint64 row-major
counts for histogram bins, each with a JSON sidecar/header.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .acquire import QuadratureHistogram
from .moments import BatchMoments, MomentMatrix
from .simulate import ShotBatch
from .tomo import WIGNER_KERNEL_MAX_ORDER, InversionReport, WignerGrid


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
    counts_path = prefix.with_suffix(".u64")
    np.asarray(hist.counts, dtype="<u8").tofile(counts_path)
    header = {
        "bins": hist.bins,
        "extent": hist.extent,
        "total": hist.total,
        "overflow": hist.overflow,
        "counts_file": counts_path.name,
        "dtype": "<u8 row-major",
    }
    if meta:
        header.update(meta)
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(header, indent=2))
    return counts_path, json_path


def load_histogram(prefix) -> QuadratureHistogram:
    prefix = Path(prefix)
    header = json.loads(prefix.with_suffix(".json").read_text())
    counts = np.fromfile(prefix.parent / header["counts_file"], dtype="<u8")
    hist = QuadratureHistogram(bins=header["bins"], extent=header["extent"])
    if counts.size != hist.bins ** 2:
        raise ValueError(f"{prefix}: counts file length disagrees with header")
    hist.counts = counts.reshape(hist.bins, hist.bins)
    hist.overflow = header["overflow"]
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
