import csv
import json
import math

import numpy as np
import pytest

from hettomo.acquire import QuadratureHistogram, StreamingMoments
from hettomo.fock import (FockState, NoiseModel, analytic_moments,
                          noise_moments, prepare_superposition)
from hettomo.serialize import (load_batch_moments, load_histogram, load_report,
                               load_shots, matrix_from_json, matrix_to_json,
                               save_batch_moments, save_histogram, save_report,
                               save_shots, save_wigner)
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
    batch = sample_detector(FockState.fock(1), chain, 1000, seed=5, stream=3)
    save_shots(tmp_path / "shots", batch, gain=chain.gain, seed=[5, 3])
    back = load_shots(tmp_path / "shots")
    assert np.array_equal(back.samples, batch.samples)
    assert json.loads((tmp_path / "shots.json").read_text())["seed"] == [5, 3]


def test_shots_length_mismatch_detected(tmp_path):
    batch = sample_detector(FockState.vacuum(),
                            AmplifierChain(1.0, NoiseModel(0.0)), 100, seed=1)
    bin_path, _ = save_shots(tmp_path / "shots", batch)
    data = np.fromfile(bin_path, dtype="<f8")
    data[:-2].tofile(bin_path)
    with pytest.raises(ValueError, match="disagrees"):
        load_shots(tmp_path / "shots")


def test_histogram_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    s = rng.normal(size=5000) + 1j * rng.normal(size=5000)
    hist = QuadratureHistogram(bins=64, extent=5.0).add(s)
    save_histogram(tmp_path / "hist", hist, meta={"label": "vacuum"})
    back = load_histogram(tmp_path / "hist")
    assert np.array_equal(back.counts, hist.counts)
    assert back.extent == hist.extent and back.overflow == hist.overflow


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
    grid = reconstruct_wigner(analytic_moments(FockState.fock(1), 4),
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
