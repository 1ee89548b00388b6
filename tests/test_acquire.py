import itertools
import math
import warnings

import numpy as np
import pytest

from hettomo.acquire import (QuadratureHistogram, RawMomentMatrix,
                             StreamingMoments, batch_errors,
                             difference_histogram, histogram_moments,
                             streaming_moments, vacuum_sigma)
from hettomo.fock import FockState, NoiseModel, prepare_superposition
from hettomo.moments import moment_indices
from hettomo.serialize import load_histogram, save_histogram
from hettomo.simulate import AmplifierChain, sample_detector, stream_rng

CHAIN = AmplifierChain(gain=1.0e4, noise=NoiseModel(64.0))
SIGMA_VAC = math.sqrt(1.0e4 * 65.0 / 2.0)


def gaussian_shots(n, seed=0, sigma=1.0, mean=0.0):
    rng = stream_rng(seed)
    return mean + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestQuadratureHistogram:
    def test_counts_and_range(self):
        h = QuadratureHistogram(bins=64, extent=4.0)
        h.add(gaussian_shots(10_000, seed=1))
        assert h.total == 10_000
        assert h.in_range == 10_000 - h.overflow

    def test_overflow_counted(self):
        h = QuadratureHistogram(bins=16, extent=1.0)
        with pytest.warns(UserWarning, match="overflow"):
            h.add(np.array([0.0 + 0.0j, 5.0 + 0.0j, 0.0 + 5.0j]))
        assert h.overflow == 2
        assert h.in_range == 1

    def test_merge_adds_counts(self):
        a = QuadratureHistogram(bins=32, extent=4.0).add(gaussian_shots(500, 2))
        b = QuadratureHistogram(bins=32, extent=4.0).add(gaussian_shots(700, 3))
        m = a.merge(b)
        assert m.total == 1200
        assert np.array_equal(m.counts, a.counts + b.counts)

    def test_merge_order_independent(self):
        a = QuadratureHistogram(bins=32, extent=4.0).add(gaussian_shots(500, 2))
        b = QuadratureHistogram(bins=32, extent=4.0).add(gaussian_shots(700, 3))
        assert np.array_equal(a.merge(b).counts, b.merge(a).counts)

    def test_merge_equals_single_pass(self):
        s = gaussian_shots(1000, seed=4)
        one = QuadratureHistogram(bins=32, extent=5.0).add(s)
        two = QuadratureHistogram(bins=32, extent=5.0).add(s[:400]).merge(
            QuadratureHistogram(bins=32, extent=5.0).add(s[400:]))
        assert np.array_equal(one.counts, two.counts)

    def test_merge_rejects_different_binning(self):
        with pytest.raises(ValueError):
            QuadratureHistogram(32, 4.0).merge(QuadratureHistogram(64, 4.0))

    def test_density_normalized(self):
        h = QuadratureHistogram(bins=64, extent=5.0).add(gaussian_shots(20_000, 5))
        assert float(h.density().sum() * h.bin_width ** 2) == pytest.approx(1.0)

    def test_add_is_in_place(self):
        h = QuadratureHistogram(bins=16, extent=4.0)
        out = h.add(gaussian_shots(100, 6))
        assert out is h and h.total == 100

    @pytest.mark.parametrize("bins", [1, 2, 3, 16, 1024])
    @pytest.mark.parametrize("extent", [1.0, 0.3, 6.0, 1299.7])
    def test_bit_identical_to_histogram2d(self, bins, extent):
        h = QuadratureHistogram(bins=bins, extent=extent)
        e = h.edges()
        values = np.concatenate([
            e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
            [-extent, extent, np.nan, np.inf, -np.inf],
            stream_rng(bins).uniform(-1.1 * extent, 1.1 * extent, 500)])
        # each value appears as x and as y, against edges, specials and draws
        rng = stream_rng(bins, 1)
        x = np.concatenate([values, values, rng.permutation(values)])
        y = np.concatenate([values, rng.permutation(values), values[::-1]])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h.add(x + 1j * y)
            ref, _, _ = np.histogram2d(x, y, bins=bins, range=[[-extent, extent]] * 2)
        assert h.counts.dtype == np.uint64
        assert np.array_equal(h.counts, ref.astype(np.uint64))
        assert h.overflow == x.size - int(ref.sum())
        assert h.in_range == int(ref.sum())

    def test_counts_survive_merge_and_reload(self, tmp_path):
        a = QuadratureHistogram(bins=32, extent=5.0).add(gaussian_shots(900, 22))
        b = QuadratureHistogram(bins=32, extent=5.0).add(gaussian_shots(600, 23))
        m = a.merge(b)
        assert (m.in_range, m.overflow) == (a.in_range + b.in_range,
                                            a.overflow + b.overflow)
        m.add(gaussian_shots(400, 24))
        assert m.total == 1900 and m.in_range == int(m.counts.sum())
        save_histogram(tmp_path / "h", m)
        back = load_histogram(tmp_path / "h")
        assert (back.in_range, back.overflow) == (m.in_range, m.overflow)
        back.add(gaussian_shots(100, 25))
        assert back.total == 2000 and back.in_range == int(back.counts.sum())


class TestRawMomentMatrix:
    def test_rejects_unnormalized(self):
        v = np.eye(3, dtype=complex) * 2.0
        with pytest.raises(ValueError):
            RawMomentMatrix(v, count=1)

    def test_zeros_above_order_cap(self):
        v = np.ones((3, 3), dtype=complex)
        r = RawMomentMatrix(v, count=1)
        assert r.values[2, 2] == 0.0 and r.values[1, 2] == 0.0
        assert r.values[1, 1] == 1.0
        assert r.order == 2


class TestStreamingMoments:
    def test_matches_direct_averages(self):
        s = gaussian_shots(5000, seed=7, sigma=0.8, mean=0.3 + 0.1j)
        r = streaming_moments(s, order=4)
        for n, m in moment_indices(4):
            direct = np.mean(np.conj(s) ** n * s ** m)
            assert r[n, m] == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 1000])
    def test_sums_bit_identical_to_fresh_power_table(self, size):
        # stored moments of exactly sampled states must not change by a rounding:
        # the reused buffers must give the sums of a fresh S^n table, bit for bit
        for seed, order in itertools.product(range(11, 15), range(10)):
            s = gaussian_shots(size, seed=seed, sigma=30.0, mean=5.0 - 2.0j)
            powers = [np.ones_like(s)]
            for _ in range(order):
                powers.append(powers[-1] * s)
            expected = np.zeros((order + 1, order + 1), dtype=complex)
            for n, m in moment_indices(order):
                if n >= m:
                    expected[n, m] = np.sum(powers[n].conj() * powers[m])
            got = StreamingMoments(order).update(s).sums
            assert got.tobytes() == expected.tobytes(), (seed, order)

    def test_merge_equals_single_pass(self):
        s = gaussian_shots(4000, seed=8)
        a = StreamingMoments(4).update(s[:1500])
        b = StreamingMoments(4).update(s[1500:])
        merged = a.merge(b).result()
        single = streaming_moments(s, order=4)
        assert np.allclose(merged.values, single.values, atol=1e-12)
        assert merged.count == 4000

    def test_merge_rejects_order_mismatch(self):
        with pytest.raises(ValueError):
            StreamingMoments(2).merge(StreamingMoments(4))

    def test_empty_result_raises(self):
        with pytest.raises(ValueError):
            StreamingMoments(4).result()

    def test_hermitian_fill(self):
        r = streaming_moments(gaussian_shots(1000, 9, mean=0.5), order=4)
        for n, m in moment_indices(4):
            assert r[n, m] == pytest.approx(np.conj(r[m, n]), abs=1e-12)


class TestHistogramMoments:
    def test_agrees_with_streaming_for_fine_bins(self):
        batch = sample_detector(prepare_superposition(1.0 / math.sqrt(2.0)),
                                CHAIN, 200_000, seed=10)
        extent = 6.0 * SIGMA_VAC
        hist = QuadratureHistogram(bins=1024, extent=extent).add(batch)
        hm = histogram_moments(hist, order=4)
        sm = streaming_moments(batch, order=4)
        for n, m in moment_indices(4):
            scale = SIGMA_VAC ** (n + m)
            assert abs(hm[n, m] - sm[n, m]) / scale < 0.02

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            histogram_moments(QuadratureHistogram(16, 1.0))


class TestDifferenceHistogram:
    def test_sums_to_zero(self):
        a = QuadratureHistogram(64, 5.0).add(gaussian_shots(50_000, 11))
        b = QuadratureHistogram(64, 5.0).add(gaussian_shots(50_000, 12,
                                                            mean=0.2))
        d = difference_histogram(a, b)
        assert float(d.sum()) == pytest.approx(0.0, abs=1e-12)

    def test_identical_runs_near_zero(self):
        s = gaussian_shots(50_000, 13)
        a = QuadratureHistogram(64, 5.0).add(s)
        d = difference_histogram(a, a)
        assert np.max(np.abs(d)) == 0.0

    def test_rejects_binning_mismatch(self):
        with pytest.raises(ValueError):
            difference_histogram(QuadratureHistogram(64, 5.0),
                                 QuadratureHistogram(64, 4.0))


class TestVacuumSigma:
    def test_array_path(self):
        batch = sample_detector(FockState.vacuum(), CHAIN, 200_000, seed=14)
        assert vacuum_sigma(batch) == pytest.approx(SIGMA_VAC, rel=0.01)

    def test_histogram_path(self):
        batch = sample_detector(FockState.vacuum(), CHAIN, 200_000, seed=15)
        hist = QuadratureHistogram(bins=1024, extent=6.0 * SIGMA_VAC).add(batch)
        assert vacuum_sigma(hist) == pytest.approx(SIGMA_VAC, rel=0.01)

    def test_warns_on_quadrature_imbalance(self):
        rng = stream_rng(16)
        s = 2.0 * rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
        with pytest.warns(UserWarning, match="variances differ"):
            vacuum_sigma(s)


class TestBatchErrors:
    def test_errors_scale_as_inverse_root_n(self):
        small = batch_errors(gaussian_shots(40_000, 17), order=2, n_batches=50)
        big = batch_errors(gaussian_shots(160_000, 18), order=2, n_batches=50)
        ratio = small[1, 1] / big[1, 1]
        assert ratio == pytest.approx(2.0, rel=0.3)

    def test_covers_true_moment(self):
        batch = sample_detector(FockState.fock(1), CHAIN, 100_000, seed=19)
        est = streaming_moments(batch, order=2)
        err = batch_errors(batch, order=2, n_batches=100)
        truth = CHAIN.gain * (1.0 + 65.0)  # G (<a^dag a> + nbar + 1)
        assert abs(est[1, 1] - truth) < 4.0 * err[1, 1]

    def test_accepts_batch_sequence(self):
        batches = [gaussian_shots(1000, seed=(20, i)) for i in range(10)]
        err = batch_errors(batches, order=2)
        assert err.shape == (3, 3)
        assert err[1, 1] > 0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            batch_errors(gaussian_shots(50, 21), order=2, n_batches=100)
