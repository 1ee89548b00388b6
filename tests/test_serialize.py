import csv
import json
import math
import re
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from hettomo.acquire import QuadratureHistogram, StreamingMoments
from hettomo.fock import FockState, analytic_moments, prepare_superposition
from hettomo.serialize import (load_batch_moments, load_histogram,
                               load_report, load_shots, matrix_from_json,
                               matrix_to_json, save_batch_moments, save_histogram,
                               save_report, save_shots, save_wigner, typed)
from hettomo.simulate import AmplifierChain, sample_detector
from hettomo.tomo import (InversionReport, forward_moments, invert_moments,
                          reconstruct_wigner)

from conftest import noise_moments


def test_matrix_json_round_trip():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(v))))
    assert np.array_equal(back, v)


@pytest.mark.parametrize("kind", [complex, float])
def test_matrix_from_json_keeps_the_per_entry_values(kind):
    # signed zeros, subnormals, the extremes and integers beyond 2^53, as JSON
    numbers = [-0.0, 0.0, 5e-324, -1e-310, 1e300, -1e300, sys.float_info.max,
               0.1, 3, -2 ** 53 - 1, 2 ** 64 + 1, 10 ** 300]
    rng = np.random.default_rng(7)
    pick = (lambda: numbers[rng.integers(len(numbers))]) if kind is float else \
        (lambda: [numbers[i] for i in rng.integers(len(numbers), size=2)])
    rows = json.loads(json.dumps([[pick() for _ in range(9)] for _ in range(9)]))
    alone = np.array([[typed(x, kind, "entry") for x in row] for row in rows], dtype=kind)
    back = matrix_from_json(rows, kind=kind)
    assert back.dtype == alone.dtype and back.shape == alone.shape == (9, 9)
    assert back.tobytes() == alone.tobytes()


def test_shots_round_trip(tmp_path):
    chain = AmplifierChain(gain=100.0, nbar=1.0)
    shots = sample_detector(FockState.fock(1), chain, 1000, seed=5, stream=3)
    bin_path, _ = save_shots(tmp_path / "shots", shots, gain=chain.gain, seed=[5, 3])
    back = load_shots(tmp_path / "shots")
    assert back.dtype == complex and np.array_equal(back, shots)
    data = np.fromfile(bin_path, dtype="<f8")     # interleaved (re, im)
    assert np.array_equal(data[0::2], shots.real) and np.array_equal(data[1::2], shots.imag)
    sidecar = json.loads((tmp_path / "shots.json").read_text())
    assert sidecar["seed"] == [5, 3] and sidecar["count"] == 1000


def test_shots_length_mismatch_detected(tmp_path):
    shots = sample_detector(FockState.vacuum(),
                            AmplifierChain(1.0, 0.0), 100, seed=1)
    bin_path, _ = save_shots(tmp_path / "shots", shots)
    data = np.fromfile(bin_path, dtype="<f8")
    data[:-2].tofile(bin_path)
    with pytest.raises(ValueError, match="disagrees"):
        load_shots(tmp_path / "shots")


@pytest.mark.parametrize("count", [True, 1.0])
def test_shots_sidecar_count_must_be_an_integer(tmp_path, count):
    # one shot, so a count of true or 1.0 matches the file's length by value alone
    save_shots(tmp_path / "shots", np.array([0.5 - 0.25j]))
    sidecar = json.loads((tmp_path / "shots.json").read_text())
    (tmp_path / "shots.json").write_text(json.dumps({**sidecar, "count": count}))
    with pytest.raises(ValueError, match=re.escape(
            f"count must be an integer >= 0, got {json.dumps(count)}")):
        load_shots(tmp_path / "shots")


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(1.0, np.inf)])
def test_shots_loader_refuses_non_finite_samples(tmp_path, bad):
    shots = np.arange(5, dtype=complex)
    shots[3] = bad
    bin_path, _ = save_shots(tmp_path / "shots", shots)
    with pytest.raises(ValueError, match=f"{re.escape(str(bin_path))}: .*non-finite"):
        load_shots(tmp_path / "shots")


def test_histogram_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    s = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    hist = QuadratureHistogram(bins=64, extent=5.0).add(s)
    save_histogram(tmp_path / "hist", hist, meta={"label": "vacuum"})
    back = load_histogram(tmp_path / "hist")
    assert np.array_equal(back.counts, hist.counts)
    assert back.extent == hist.extent and back.overflow == hist.overflow


def test_histogram_file_is_a_bitmap_then_counts(tmp_path):
    rng = np.random.default_rng(4)
    hist = QuadratureHistogram(bins=7, extent=2.0).add(
        0.4 * (rng.normal(size=400) + 1j * rng.normal(size=400)))
    counts_path, json_path = save_histogram(tmp_path / "hist", hist)
    header = json.loads(json_path.read_text())
    assert counts_path.name == header["counts_file"] == "hist.occ"
    assert header["count_dtype"] == "<u1" and "dtype" not in header
    assert header["format"].startswith("zlib stream of ")
    occupied = [(i, int(c)) for i, c in enumerate(hist.counts.reshape(-1)) if c]
    assert header["occupied"] == len(occupied)
    # 49 bits, most significant first, zero-padded to 7 bytes, then one byte
    # per occupied bin's count, as one zlib stream; read without numpy
    raw = zlib.decompress(counts_path.read_bytes())
    assert len(raw) == 7 + len(occupied)
    bits = [raw[k // 8] >> (7 - k % 8) & 1 for k in range(7 * 8)]
    assert [k for k, bit in enumerate(bits) if bit] == [i for i, _ in occupied]
    assert list(raw[7:]) == [c for _, c in occupied]


@pytest.mark.parametrize("shots, count_dtype", [
    (255, "<u1"), (256, "<u2"), (300, "<u2"), (65535, "<u2"), (65536, "<u4")])
def test_histogram_counts_take_the_narrowest_width(tmp_path, shots, count_dtype):
    hist = QuadratureHistogram(bins=4, extent=1.0).add(np.full(shots, 0.1 + 0.6j))
    hist.add(np.array([-0.9 - 0.9j]))
    counts_path, json_path = save_histogram(tmp_path / "hist", hist)
    assert json.loads(json_path.read_text())["count_dtype"] == count_dtype
    width, raw = int(count_dtype[2]), zlib.decompress(counts_path.read_bytes())
    assert raw[:2] == bytes([0b10000000, 0b00010000])   # bins 0 and 2 * 4 + 3 of 16
    assert len(raw) == 2 + 2 * width
    assert [int.from_bytes(raw[k:k + width], "little")
            for k in range(2, len(raw), width)] == [1, shots]
    assert np.array_equal(load_histogram(tmp_path / "hist").counts, hist.counts)


@pytest.mark.parametrize("bins", [255, 256, 257, 300])
def test_histogram_round_trip_across_scan_chunks(tmp_path, bins):
    # the occupied bins are found 65 536 at a time: bins^2 below, at and past one chunk
    rng = np.random.default_rng(bins)
    hist = QuadratureHistogram(bins=bins, extent=3.0).add(
        rng.normal(size=200_000) + 1j * rng.normal(size=200_000))
    counts_path, _ = save_histogram(tmp_path / "hist", hist)
    raw = np.frombuffer(zlib.decompress(counts_path.read_bytes()), dtype=np.uint8)
    cells = bins * bins
    bits = np.unpackbits(raw[:-(-cells // 8)])
    occupied = np.flatnonzero(bits[:cells])
    assert np.array_equal(occupied, np.flatnonzero(hist.counts))
    assert not bits[cells:].any()
    assert (occupied >= 65536).any() == (cells > 65536)
    assert np.array_equal(raw[-(-cells // 8):], hist.counts.reshape(-1)[occupied])
    assert np.array_equal(load_histogram(tmp_path / "hist").counts, hist.counts)


def test_histogram_save_copies_no_dense_array(tmp_path):
    # 1024^2 uint32 bins are 4 MB; a few thousand occupied ones need ~100 kB
    rng = np.random.default_rng(5)
    hist = QuadratureHistogram(bins=1024, extent=4.0).add(
        rng.normal(size=5000) + 1j * rng.normal(size=5000))
    tracemalloc.start()
    try:
        save_histogram(tmp_path / "hist", hist)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < hist.counts.nbytes / 8


def test_histogram_loader_widens_counts_past_uint32(tmp_path):
    # one bin of 2^32 + 5 counts, as save_histogram writes it: bitmap, then <u8
    count = 2 ** 32 + 5
    (tmp_path / "hist.occ").write_bytes(zlib.compress(b"\x80" + count.to_bytes(8, "little")))
    (tmp_path / "hist.json").write_text(json.dumps({
        "bins": 1, "extent": 1.0, "total": count, "overflow": 0,
        "counts_file": "hist.occ", "count_dtype": "<u8", "occupied": 1}))
    hist = load_histogram(tmp_path / "hist")
    assert hist.counts.dtype == np.uint64 and int(hist.counts[0, 0]) == count
    assert hist.in_range == count


def test_empty_histogram_round_trip(tmp_path):
    # every shot outside +/-1e-12: a bitmap of zeros and no count
    hist = QuadratureHistogram(bins=4, extent=1e-12).add(np.ones(50) + 1j)
    counts_path, json_path = save_histogram(tmp_path / "hist", hist)
    assert zlib.decompress(counts_path.read_bytes()) == bytes(2)
    assert json.loads(json_path.read_text())["occupied"] == 0
    back = load_histogram(tmp_path / "hist")
    assert np.array_equal(back.counts, np.zeros((4, 4), dtype=np.uint64))
    assert (back.in_range, back.overflow, back.total) == (0, 50, 50)


def _edit_file(edit):
    def corrupt(counts_path, header):
        raw = bytearray(zlib.decompress(counts_path.read_bytes()))
        edit(raw)
        counts_path.write_bytes(zlib.compress(raw))
    return corrupt


def _set_header(key, change):
    def corrupt(counts_path, header):
        header[key] = change(header[key])
    return corrupt


# 16 x 16 bins: a 32-byte bitmap, whose first bit is the empty bin 0, then a
# one-byte count per occupied bin; a file is edited on its inflated payload
@pytest.mark.parametrize("corrupt, message", [
    (_edit_file(lambda raw: raw.__delitem__(-1)),
     "bytes, header says ceil(bins^2 / 8) + occupied x 1 = "),
    (_set_header("occupied", lambda n: n + 1),
     "bytes, header says ceil(bins^2 / 8) + occupied x 1 = "),
    (_set_header("count_dtype", lambda _: "<u2"),
     "bytes, header says ceil(bins^2 / 8) + occupied x 2 = "),
    (_edit_file(lambda raw: raw.__setitem__(0, raw[0] | 0x80)),
     "bits set, header says"),
    (_edit_file(lambda raw: raw.__setitem__(-1, 0)), "an occupied bin has a zero count"),
    (_edit_file(lambda raw: raw.__setitem__(-1, raw[-1] + 1)), "counts sum to"),
    (_set_header("overflow", lambda n: n + 1), "counts sum to"),
], ids=["length", "occupied", "width", "popcount", "zero-count", "sum-counts",
        "sum-header"])
def test_histogram_loader_refuses(tmp_path, corrupt, message):
    rng = np.random.default_rng(6)
    hist = QuadratureHistogram(bins=16, extent=5.0).add(
        rng.normal(size=300) + 1j * rng.normal(size=300))
    assert hist.counts[0, 0] == 0 and hist.counts.max() < 255
    counts_path, json_path = save_histogram(tmp_path / "hist", hist)
    header = json.loads(json_path.read_text())
    corrupt(counts_path, header)
    json_path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match=re.escape(str(counts_path))) as info:
        load_histogram(tmp_path / "hist")
    assert message in str(info.value)


def test_histogram_loader_refuses_a_set_pad_bit(tmp_path):
    # 5 x 5 bins fill 25 of the bitmap's 32 bits; a pad bit set, and one count
    # appended so that the length and the popcount still agree
    hist = QuadratureHistogram(bins=5, extent=1.0).add(np.array([0.0, 0.5j]))
    counts_path, json_path = save_histogram(tmp_path / "hist", hist)
    raw = bytearray(zlib.decompress(counts_path.read_bytes()))
    raw[3] |= 0x01
    counts_path.write_bytes(zlib.compress(bytes(raw) + bytes([1])))
    header = json.loads(json_path.read_text())
    json_path.write_text(json.dumps({**header, "occupied": 3, "total": 3}))
    with pytest.raises(ValueError, match=re.escape(
            f"{counts_path}: a pad bit after bin bins^2 = 25 is set")):
        load_histogram(tmp_path / "hist")


@pytest.mark.parametrize("corrupt, message", [
    (zlib.decompress, "not a zlib stream"),   # the payload, stored uncompressed
    (lambda raw: raw[:-1], "the zlib stream is cut short after 38 bytes"),   # its checksum
    (lambda raw: raw[:len(raw) // 2], "the zlib stream is cut short after "),
    (lambda raw: raw + b"\x00", "1 bytes follow the zlib stream"),
    (lambda raw: raw + raw, "bytes follow the zlib stream"),
], ids=["not-zlib", "no-checksum", "half", "trailing-byte", "two-streams"])
def test_histogram_loader_refuses_all_but_one_complete_stream(tmp_path, corrupt, message):
    # 16 x 16 bins, 6 of them occupied: 32 bytes of bitmap and 6 one-byte counts
    hist = QuadratureHistogram(bins=16, extent=5.0).add(np.arange(8) * (0.5 + 0.25j))
    counts_path, _ = save_histogram(tmp_path / "hist", hist)
    assert len(zlib.decompress(counts_path.read_bytes())) == 38
    counts_path.write_bytes(corrupt(counts_path.read_bytes()))
    with pytest.raises(ValueError, match=re.escape(f"{counts_path}: ")) as info:
        load_histogram(tmp_path / "hist")
    assert message in str(info.value)


def test_histogram_loader_inflates_at_most_one_byte_past_the_header(tmp_path):
    # a valid header over a stream of 64 MiB of zeros: inflating it would take 64 MB
    hist = QuadratureHistogram(bins=16, extent=5.0).add(np.arange(8) * (0.5 + 0.25j))
    counts_path, _ = save_histogram(tmp_path / "hist", hist)
    deflate = zlib.compressobj(9)
    with counts_path.open("wb") as out:
        for _ in range(64):
            out.write(deflate.compress(bytes(1 << 20)))
        out.write(deflate.flush())
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"{counts_path}: inflates past the 38 bytes the header implies")):
            load_histogram(tmp_path / "hist")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


def test_histogram_loader_refuses_more_occupied_bins_than_bins(tmp_path):
    # checked in the header, before a size of 10^30 bytes is asked of zlib
    hist = QuadratureHistogram(bins=16, extent=5.0).add(np.arange(8) * (0.5 + 0.25j))
    _, json_path = save_histogram(tmp_path / "hist", hist)
    header = json.loads(json_path.read_text())
    json_path.write_text(json.dumps({**header, "occupied": 10 ** 30}))
    with pytest.raises(ValueError, match=re.escape(
            f"{json_path}: occupied {10 ** 30} is more than bins^2 = 256")):
        load_histogram(tmp_path / "hist")


_MISSING = object()


@pytest.mark.parametrize("key, value, message", [
    ("counts_file", 5, "counts_file must be a string, got 5"),
    ("counts_file", None, "counts_file must be a string, got null"),
    ("counts_file", _MISSING, "counts_file is mandatory"),
    ("counts_file", "../other/hist.occ",
     'counts_file must be a bare file name, got "../other/hist.occ"'),
    ("count_dtype", "<i1", "count_dtype must be <u1, <u2, <u4 or <u8, got \"<i1\""),
    ("count_dtype", ">u2", "count_dtype must be <u1, <u2, <u4 or <u8, got \">u2\""),
    ("count_dtype", "<u3", "count_dtype must be <u1, <u2, <u4 or <u8, got \"<u3\""),
    ("count_dtype", 1, "count_dtype must be a string, got 1"),
], ids=["name-number", "name-null", "name-missing", "name-path", "dtype-signed",
        "dtype-big-endian", "dtype-width", "dtype-number"])
def test_histogram_loader_refuses_a_counts_field(tmp_path, key, value, message):
    # a copy of the counts file one directory over, which a path could reach
    run_dir, other = tmp_path / "run", tmp_path / "other"
    run_dir.mkdir(), other.mkdir()
    hist = QuadratureHistogram(bins=16, extent=5.0).add(np.arange(8) * (0.5 + 0.25j))
    counts_path, json_path = save_histogram(run_dir / "hist", hist)
    (other / "hist.occ").write_bytes(counts_path.read_bytes())
    header = json.loads(json_path.read_text())
    if value is _MISSING:
        del header[key]
    else:
        header[key] = value
    json_path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match=re.escape(f"{json_path}: {message}")):
        load_histogram(run_dir / "hist")


@pytest.mark.parametrize("key, value, message", [
    ("bins", 0, "bins must be an integer in [1, 4096], got 0"),
    ("bins", 4097, "bins must be an integer in [1, 4096], got 4097"),
    ("bins", True, "bins must be an integer in [1, 4096], got true"),
    ("bins", 4.0, "bins must be an integer in [1, 4096], got 4.0"),
    ("extent", math.nan, "extent must be a finite number > 0, got NaN"),
    ("extent", math.inf, "extent must be a finite number > 0, got Infinity"),
    ("extent", 0, "extent must be a finite number > 0, got 0"),
    ("extent", True, "extent must be a finite number > 0, got true"),
    ("total", 8.0, "total must be an integer >= 0, got 8.0"),
    # the 8 shots fill 6 bins, so only the JSON type of 6.0 is wrong
    ("occupied", 6.0, "occupied must be an integer >= 0, got 6.0"),
])
def test_histogram_loader_checks_its_header_before_allocating(tmp_path, key, value,
                                                              message):
    hist = QuadratureHistogram(bins=16, extent=5.0).add(np.arange(8) * (0.5 + 0.25j))
    _, json_path = save_histogram(tmp_path / "hist", hist)
    header = json.loads(json_path.read_text())
    json_path.write_text(json.dumps({**header, key: value}))   # json writes NaN, Infinity
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            load_histogram(tmp_path / "hist")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak     # 4097^2 uint32 counts would be 67 MB


@pytest.mark.parametrize("overflow, shown", [(-3, "-3"), (0.5, "0.5"), (True, "true")])
def test_histogram_loader_refuses_an_overflow_that_is_not_a_count(tmp_path, overflow,
                                                                  shown):
    # total moves with it, so total - overflow still matches the records' sum
    hist = QuadratureHistogram(bins=16, extent=5.0).add(np.arange(8) * (0.5 + 0.25j))
    _, json_path = save_histogram(tmp_path / "hist", hist)
    header = json.loads(json_path.read_text())
    json_path.write_text(json.dumps({**header, "overflow": overflow,
                                     "total": header["total"] + overflow}))
    with pytest.raises(ValueError, match=re.escape(
            f"overflow must be an integer >= 0, got {shown}")):
        load_histogram(tmp_path / "hist")


def test_batch_moments_round_trip(tmp_path):
    chain = AmplifierChain(gain=10.0, nbar=0.5)
    acc = StreamingMoments(2)
    for i in range(4):
        acc.update(sample_detector(FockState.vacuum(), chain, 500, seed=8, stream=i))
    batches = acc.result()
    save_batch_moments(tmp_path / "b.json", batches)
    back = load_batch_moments(tmp_path / "b.json")
    assert np.array_equal(back.values, batches.values)
    assert back.counts.tolist() == [500] * 4


def test_report_round_trip(tmp_path):
    state = prepare_superposition(1.0 / math.sqrt(2.0))
    noise = noise_moments(2.0, 4)
    raw = forward_moments(analytic_moments(state, 4), noise, 100.0)
    raw_vac = forward_moments(analytic_moments(FockState.vacuum(), 4),
                              noise, 100.0)
    report = invert_moments(raw, raw_vac, 100.0,
                            errors=np.full((5, 5), 0.02))
    save_report(tmp_path / "report.json", report)
    back = load_report(tmp_path / "report.json")
    assert isinstance(back, InversionReport)
    assert np.array_equal(back.moments.values, report.moments.values)
    assert np.array_equal(back.noise.values, report.noise.values)
    assert back.gain == report.gain
    assert np.array_equal(back.errors, report.errors)


def test_wigner_files(tmp_path):
    grid = reconstruct_wigner(analytic_moments(FockState.fock(1), 4), np.zeros((5, 5)),
                              extent=2.0, resolution=21)
    csv_path, json_path = save_wigner(tmp_path / "wigner", grid)
    header = json.loads(json_path.read_text())
    assert header["resolution"] == 21
    assert header["truncation_order"] == grid.truncation
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21 * 21
    # the grid center row carries the negative dip
    center = [r for r in rows
              if float(r["x"]) == 0.0 and float(r["p"]) == 0.0]
    assert len(center) == 1
    assert float(center[0]["w"]) == pytest.approx(-2.0 / math.pi, abs=1e-9)
    # the text equals the row-by-row Python formatting it replaced
    assert csv_path.read_text() == "x,p,w\n" + "".join(
        f"{x:.9g},{p:.9g},{w:.12g}\n"
        for x, row in zip(grid.xs, grid.values) for p, w in zip(grid.ps, row))


def test_wigner_csv_is_written_in_blocks(tmp_path):
    # formatting the whole grid at once peaks at about 200 B per point here
    grid = reconstruct_wigner(analytic_moments(FockState.fock(1), 4), np.zeros((5, 5)),
                              extent=3.0, resolution=256)
    tracemalloc.start()
    try:
        save_wigner(tmp_path / "wigner", grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 256 ** 2, peak


def test_wigner_csv_keeps_savetxt_bytes(tmp_path):
    # Fock |1> dips below zero, and both axes run through negative coordinates
    grid = reconstruct_wigner(analytic_moments(FockState.fock(1), 4), np.zeros((5, 5)),
                              extent=3.0, resolution=121)
    assert grid.values.min() < 0
    csv_path, _ = save_wigner(tmp_path / "wigner", grid)
    x, p = np.meshgrid(grid.xs, grid.ps, indexing="ij")
    np.savetxt(tmp_path / "savetxt.csv",
               np.column_stack([x.ravel(), p.ravel(), grid.values.ravel()]),
               fmt="%.9g,%.9g,%.12g", header="x,p,w", comments="")
    assert csv_path.read_bytes() == (tmp_path / "savetxt.csv").read_bytes()
