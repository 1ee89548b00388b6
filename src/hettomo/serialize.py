"""File formats for shots, histograms, moments, reports and Wigner grids.

Complex numbers are stored as [re, im] pairs in JSON.  Bulk data uses flat
little-endian binary with a JSON sidecar/header: float64 (re, im) pairs for
shots, and for a histogram one zlib stream of a bitmap of its occupied bins,
then their counts at the narrowest unsigned width that holds the largest.
"""

from __future__ import annotations

import json
import sys
import zlib
from contextlib import suppress
from pathlib import Path

import numpy as np

from .acquire import QuadratureHistogram
from .moments import BatchMoments, MomentMatrix, moment_indices
from .tomo import WIGNER_KERNEL_MAX_ORDER, InversionReport, WignerGrid

MAX_BINS = 4096  # largest config/header `bins`: a run's dense uint32 counts take <= 64 MiB


_KINDS = {bool: "true or false", int: "an integer", float: "a finite number",
          complex: "a pair [re, im] of finite numbers", str: "a string", list: "a list",
          dict: "an object"}
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
    """A JSON matrix of `kind` entries, each read as `typed` reads it; ragged rows
    are refused. One pass checks the whole list; `typed` words a refusal."""
    rows, pair, entry = typed(rows, list, key), kind is complex, f"{key} entry"
    with suppress(TypeError, ValueError, OverflowError):  # not a pair, ragged, past float
        types = {type(v) for row in rows for x in row for v in (x if pair else (x,))}
        values = np.array(rows, dtype=float)    # float(x) of each number, as typed
        if (types <= {int, float} and values.shape[2:] == ((2,) if pair else ())
                and np.isfinite(values).all()):
            return values.view(complex)[..., 0] if pair else values
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
    """Write the counts as one zlib stream, read 65 536 bins at a time for the bitmap
    and again for the counts, and the header beside it."""
    prefix = Path(prefix)
    counts_path = prefix.with_suffix(".occ")
    flat = hist.counts.reshape(-1)      # a view: counts are C-contiguous
    count_dtype = f"<u{np.min_scalar_type(int(flat.max())).itemsize}"
    chunks = [flat[i:i + 65536] for i in range(0, flat.size, 65536)]   # 8 KiB of bitmap each
    deflate, occupied = zlib.compressobj(strategy=zlib.Z_RLE), 0
    with counts_path.open("wb") as out:
        for chunk in chunks:
            out.write(deflate.compress(np.packbits(chunk != 0)))
        for chunk in chunks:
            counts = chunk[chunk != 0].astype(count_dtype)
            occupied += counts.size
            out.write(deflate.compress(counts))
        out.write(deflate.flush())
    header = {
        "bins": hist.bins,
        "extent": hist.extent,
        "total": hist.total,
        "overflow": hist.overflow,
        "counts_file": counts_path.name,
        "format": "zlib stream of a bins^2-bit row-major occupancy bitmap, MSB first; "
                  "occupied counts",
        "count_dtype": count_dtype,
        "occupied": occupied,
    }
    if meta:
        header.update(meta)
    json_path = prefix.with_suffix(".json")
    json_path.write_text(json.dumps(header, indent=2))
    return counts_path, json_path


def _inflate(path: Path, size: int) -> bytes:
    """The payload of `path`, refused unless it is exactly one complete zlib stream
    that inflates to `size` bytes; at most size + 1 bytes are inflated."""
    inflate = zlib.decompressobj()
    try:
        data = inflate.decompress(path.read_bytes(), size + 1)
    except zlib.error as exc:
        raise ValueError(f"{path}: not a zlib stream ({exc})") from None
    if len(data) > size:
        raise ValueError(f"{path}: inflates past the {size} bytes the header implies")
    if not inflate.eof:
        raise ValueError(f"{path}: the zlib stream is cut short after {len(data)} bytes")
    if inflate.unused_data:
        raise ValueError(f"{path}: {len(inflate.unused_data)} bytes follow the zlib stream")
    return data


def load_histogram(prefix) -> QuadratureHistogram:
    """The histogram `save_histogram` wrote, its counts file checked against the header."""
    prefix = Path(prefix)
    json_path = prefix.with_suffix(".json")
    header = json.loads(json_path.read_text())
    try:    # the header is checked before bins^2 counts are allocated
        bins = field(header, "bins", int, lo=1, hi=MAX_BINS)
        extent = field(header, "extent", float, positive=True)
        overflow, total, occupied = (field(header, key, int, lo=0)
                                     for key in ("overflow", "total", "occupied"))
        if occupied > bins ** 2:
            raise ValueError(f"occupied {occupied} is more than bins^2 = {bins ** 2}")
        name, dtype = (field(header, key, str) for key in ("counts_file", "count_dtype"))
        if name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ValueError(f"counts_file must be a bare file name, got {json.dumps(name)}")
        if dtype not in ("<u1", "<u2", "<u4", "<u8"):
            raise ValueError("count_dtype must be <u1, <u2, <u4 or <u8, "
                             f"got {json.dumps(dtype)}")
    except ValueError as exc:
        raise ValueError(f"{json_path}: {exc}") from None
    path, cells, width = prefix.parent / name, bins ** 2, int(dtype[2])
    nbytes = -(-cells // 8)
    data = _inflate(path, nbytes + occupied * width)
    if len(data) != nbytes + occupied * width:
        raise ValueError(f"{path}: inflates to {len(data)} bytes, header says ceil(bins^2 / 8)"
                         f" + occupied x {width} = {nbytes + occupied * width}")
    bits = np.unpackbits(np.frombuffer(data, np.uint8, nbytes))
    count = np.frombuffer(data, dtype, offset=nbytes)
    if bits[cells:].any():
        raise ValueError(f"{path}: a pad bit after bin bins^2 = {cells} is set")
    if (popcount := np.count_nonzero(bits)) != occupied:
        raise ValueError(f"{path}: {popcount} bits set, header says {occupied} occupied bins")
    if not count.all():
        raise ValueError(f"{path}: an occupied bin has a zero count")
    in_range, summed = total - overflow, int(count.sum())
    if summed != in_range:
        raise ValueError(f"{path}: counts sum to {summed}, header says "
                         f"total - overflow = {in_range}")
    hist = QuadratureHistogram(bins=bins, extent=extent)
    hist.widen_for(summed)
    hist.counts.reshape(-1)[bits[:cells].view(bool)] = count
    hist.in_range, hist.overflow = summed, overflow
    return hist


# -- moments and reports -----------------------------------------------------

def _lower(order: int) -> np.ndarray:
    """The (n, m) of `moment_indices(order)` with n >= m, as rows n and m: the entries
    a batch's moment sums fill, which fix its matrix."""
    return np.array([nm for nm in moment_indices(order) if nm[0] >= nm[1]]).T


def save_batch_moments(path, batches: BatchMoments) -> None:
    """Write the order and each batch's count and its entries at `_lower(order)`."""
    n, m = _lower(batches.order)
    doc = [{"count": int(count), "values": values}
           for values, count in zip(matrix_to_json(batches.values[:, n, m]), batches.counts)]
    Path(path).write_text(json.dumps({"order": batches.order, "batches": doc}))


def load_batch_moments(path) -> BatchMoments:
    """The stack `save_batch_moments` wrote: each entry above the diagonal is the
    conjugate of its mirror, and each above the order cap is zero."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, list):
        raise ValueError("a list of full matrices is the layout before {order, batches}")
    order = field(doc, "order", int, lo=0, hi=WIGNER_KERNEL_MAX_ORDER)
    batches, (n, m) = field(doc, "batches", list), _lower(order)
    for i, batch in enumerate(batches):
        if (size := len(field(batch, "values", list))) != n.size:
            raise ValueError(f"batch {i} holds {size} values, order {order} has {n.size}")
    lower = matrix_from_json([b["values"] for b in batches], "values").reshape(-1, n.size)
    values = np.zeros((len(batches), order + 1, order + 1), dtype=complex)
    values[:, m, n] = lower.conj()
    values[:, n, m] = lower
    return BatchMoments(values, np.array([field(b, "count", int, lo=1) for b in batches]))


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
    moments = MomentMatrix(matrix_from_json(doc["moments"], "moments"))
    if moments.order != order:
        raise ValueError(f"order {order} disagrees with moments of order {moments.order}")
    return InversionReport(
        moments=moments,
        gain=field(doc, "gain", float),
        noise=MomentMatrix(matrix_from_json(doc["noise_moments"], "noise_moments")),
        errors=matrix_from_json(doc["errors"], "errors", float),
    )


# -- Wigner grids ------------------------------------------------------------

def wigner_paths(prefix) -> tuple[Path, Path]:
    """The grid's CSV and JSON header files: .csv and .json after the prefix's full name."""
    prefix = Path(prefix)
    return prefix.with_name(prefix.name + ".csv"), prefix.with_name(prefix.name + ".json")


def save_wigner(prefix, grid: WignerGrid) -> tuple[Path, Path]:
    csv_path, json_path = wigner_paths(prefix)
    step = max(1, 4096 // len(grid.ps))     # x values per block: a few thousand points
    with csv_path.open("w") as out:
        out.write("x,p,w\n")
        for i in range(0, len(grid.xs), step):
            x, p = np.meshgrid(grid.xs[i:i + step], grid.ps, indexing="ij")
            rows = np.column_stack([x.ravel(), p.ravel(), grid.values[i:i + step].ravel()])
            # np.savetxt's bytes, from one format over the flat values in place of one per row
            out.write("%.9g,%.9g,%.12g\n" * len(rows) % tuple(rows.ravel().tolist()))
    header = {
        "extent": grid.extent,
        "resolution": len(grid.xs),
        "truncation_order": grid.truncation,
        "csv_file": csv_path.name,
    }
    json_path.write_text(json.dumps(header, indent=2))
    return csv_path, json_path
