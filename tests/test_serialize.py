import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from hettomo.acquire import QuadratureHistogram, StreamingMoments
from hettomo.fock import (FockState, NoiseModel, analytic_moments,
                          noise_moments, prepare_superposition)
from hettomo.serialize import (HIST_RECORD, load_batch_moments, load_histogram,
                               load_report, load_shots, matrix_from_json,
                               matrix_to_json, save_batch_moments, save_histogram,
                               save_report, save_shots, save_wigner)
from hettomo.simulate import AmplifierChain, sample_detector
from hettomo.tomo import (InversionReport, forward_moments, invert_moments,
                          reconstruct_wigner)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(v))))
    assert np.array_equal(back, v)


def test_shots_round_trip(tmp_path):
    chain = AmplifierChain(gain=100.0, noise=NoiseModel(1.0))
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
                            AmplifierChain(1.0, NoiseModel(0.0)), 100, seed=1)
    bin_path, _ = save_shots(tmp_path / "shots", shots)
    data = np.fromfile(bin_path, dtype="<f8")
    data[:-2].tofile(bin_path)
    with pytest.raises(ValueError, match="disagrees"):
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


def test_histogram_file_holds_occupied_bins_in_index_order(tmp_path):
    rng = np.random.default_rng(4)
    hist = QuadratureHistogram(bins=8, extent=2.0).add(
        0.4 * (rng.normal(size=400) + 1j * rng.normal(size=400)))
    counts_path, json_path = save_histogram(tmp_path / "hist", hist)
    header = json.loads(json_path.read_text())
    assert counts_path.name == header["counts_file"] == "hist.coo"
    assert "dtype" not in header
    flat = hist.counts.reshape(-1)
    occupied = [(i, int(c)) for i, c in enumerate(flat) if c]
    assert header["occupied"] == len(occupied)
    # packed little-endian (uint32 index, uint64 count), read without numpy
    raw = counts_path.read_bytes()
    assert len(raw) == 12 * len(occupied)
    records = [(int.from_bytes(raw[k:k + 4], "little"),
                int.from_bytes(raw[k + 4:k + 12], "little"))
               for k in range(0, len(raw), 12)]
    assert records == occupied


def test_histogram_save_copies_no_dense_array(tmp_path):
    # 1024^2 uint64 bins are 8 MB; a few thousand occupied ones need ~100 kB
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


def test_empty_histogram_round_trip(tmp_path):
    # every shot outside +/-1e-12: no record, a 0-byte file
    with pytest.warns(UserWarning, match="overflow fraction"):
        hist = QuadratureHistogram(bins=4, extent=1e-12).add(np.ones(50) + 1j)
    counts_path, _ = save_histogram(tmp_path / "hist", hist)
    assert counts_path.stat().st_size == 0
    back = load_histogram(tmp_path / "hist")
    assert np.array_equal(back.counts, np.zeros((4, 4), dtype=np.uint64))
    assert (back.in_range, back.overflow, back.total) == (0, 50, 50)


def _corrupt_records(edit):
    def corrupt(counts_path, header):
        records = np.fromfile(counts_path, dtype=HIST_RECORD)
        edit(records)
        records.tofile(counts_path)
    return corrupt


def _set_header(key, change):
    def corrupt(counts_path, header):
        header[key] = change(header[key])
    return corrupt


def _swap_first_two(records):
    records[[0, 1]] = records[[1, 0]]


@pytest.mark.parametrize("corrupt, message", [
    (lambda path, header: path.write_bytes(path.read_bytes()[:-1]),
     "is not a whole number of 12-byte records"),
    (_set_header("occupied", lambda n: n + 1), "records, header says"),
    (_corrupt_records(_swap_first_two), "must ascend strictly"),
    (_corrupt_records(lambda r: r["index"].__setitem__(1, r["index"][0])),
     "must ascend strictly"),
    (_corrupt_records(lambda r: r["index"].__setitem__(-1, 16 * 16)),
     "below bins^2 = 256"),
    (_corrupt_records(lambda r: r["count"].__setitem__(2, 0)), "a zero count"),
    (_corrupt_records(lambda r: r["count"].__setitem__(2, r["count"][2] + 1)),
     "counts sum to"),
    (_set_header("overflow", lambda n: n + 1), "counts sum to"),
], ids=["partial-record", "occupied", "descending", "repeated", "out-of-range",
        "zero-count", "sum-records", "sum-header"])
def test_histogram_loader_refuses(tmp_path, corrupt, message):
    rng = np.random.default_rng(6)
    hist = QuadratureHistogram(bins=16, extent=5.0).add(
        rng.normal(size=300) + 1j * rng.normal(size=300))
    counts_path, json_path = save_histogram(tmp_path / "hist", hist)
    header = json.loads(json_path.read_text())
    corrupt(counts_path, header)
    json_path.write_text(json.dumps(header))
    with pytest.raises(ValueError, match=re.escape(str(counts_path))) as info:
        load_histogram(tmp_path / "hist")
    assert message in str(info.value)


def test_batch_moments_round_trip(tmp_path):
    chain = AmplifierChain(gain=10.0, noise=NoiseModel(0.5))
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
    noise = noise_moments(NoiseModel(2.0), 4)
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
