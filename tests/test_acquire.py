import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hettomo.acquire import (QuadratureHistogram, StreamingMoments, combine_batches,
                             histogram_moments, resample_batches, vacuum_sigma)
from hettomo.fock import FockState, NoiseModel, prepare_superposition
from hettomo.moments import BatchMoments, moment_indices
from hettomo.serialize import load_histogram, save_histogram
from hettomo.simulate import AmplifierChain, sample_detector, stream_rng

from conftest import random_moment_matrix

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

    def test_overflow_warns_once(self):
        # about 9% of these shots fall outside +-1 on one axis or the other
        h = QuadratureHistogram(bins=16, extent=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for b in range(50):
                h.add(gaussian_shots(1000, seed=b, sigma=0.5))
        assert 0.05 < h.overflow / h.total < 0.15
        assert [w.category for w in caught] == [UserWarning]
        assert "overflow" in str(caught[0].message)

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

    def test_counts_survive_reload(self, tmp_path):
        m = QuadratureHistogram(bins=32, extent=5.0).add(gaussian_shots(900, 22))
        m.add(gaussian_shots(400, 24))
        assert m.total == 1300 and m.in_range == int(m.counts.sum())
        save_histogram(tmp_path / "h", m)
        back = load_histogram(tmp_path / "h")
        assert (back.in_range, back.overflow) == (m.in_range, m.overflow)
        back.add(gaussian_shots(100, 25))
        assert back.total == 1400 and back.in_range == int(back.counts.sum())


def one_batch(values) -> BatchMoments:
    return BatchMoments(np.array([values]), [1])


class TestRawMomentMatrix:
    """The checks every raw (detector) moment matrix of a batch stack passes."""

    def test_rejects_unnormalized(self):
        v = np.eye(3, dtype=complex) * 2.0
        with pytest.raises(ValueError):
            one_batch(v)

    @pytest.mark.parametrize("n, m, value, message", [
        (1, 1, np.nan, "non-finite"),
        (0, 1, np.nan, "non-finite"),
        (1, 1, 2.0 + 0.5j, "diagonal moments must be real"),
    ])
    def test_rejects_non_finite_and_complex_diagonal(self, n, m, value, message):
        v = np.eye(3, dtype=complex)
        v[n, m], v[m, n] = value, np.conj(value)
        with pytest.raises(ValueError, match=message):
            one_batch(v)

    def test_zeros_above_order_cap(self):
        v = np.ones((3, 3), dtype=complex)
        r = one_batch(v)
        assert r.values[0, 2, 2] == 0.0 and r.values[0, 1, 2] == 0.0
        assert r.values[0, 1, 1] == 1.0
        assert r.order == 2


class TestBatchMoments:
    def test_tolerances_are_per_matrix(self):
        # 1e-6 off Hermitian is far outside a unit-scale batch's 1e-9 tolerance,
        # though inside the 1e-3 that a stack-wide scale of 1e6 would allow
        large = np.eye(3, dtype=complex)
        large[1, 1], large[2, 0], large[0, 2] = 1.0e6, 3.0e5, 3.0e5
        skewed = np.eye(3, dtype=complex)
        skewed[0, 1], skewed[1, 0] = 0.5, 0.5 + 1.0e-6
        one_batch(large), one_batch(np.eye(3))
        with pytest.raises(ValueError, match="Hermitian"):
            BatchMoments(np.array([large, skewed]), [1, 1])
        with pytest.raises(ValueError, match="2 counts for 1 batches"):
            BatchMoments(np.array([large]), [1, 1])

    @pytest.mark.parametrize("counts, message", [
        ([], "no batches"), ([0], "integers >= 1"), ([1.5], "integers >= 1"),
        ([True], "integers >= 1")])
    def test_rejects_bad_counts(self, counts, message):
        with pytest.raises(ValueError, match=message):
            BatchMoments(np.eye(3)[None], counts)


class TestResampleBatches:
    @staticmethod
    def random_run(rng, batches: int) -> BatchMoments:
        values = [random_moment_matrix(rng, 4) for _ in range(batches)]
        return BatchMoments(np.array(values), rng.integers(100, 1000, batches))

    def test_each_replica_is_combine_batches_of_its_draw(self):
        rng = np.random.default_rng(3)
        runs = [self.random_run(rng, 7), self.random_run(rng, 5)]
        replicas = resample_batches(runs, 30, seed=[5, 6])
        assert [r.shape for r in replicas] == [(30, 5, 5), (30, 5, 5)]
        draws = np.random.default_rng(np.random.SeedSequence([5, 6]))
        for b in range(30):     # the documented order: replica by replica, run after run
            for run, stack in zip(runs, replicas):
                drawn = draws.integers(0, len(run.counts), len(run.counts))
                expected = combine_batches(BatchMoments(run.values[drawn],
                                                        run.counts[drawn])).values
                assert stack[b].tobytes() == expected.tobytes(), b

    def test_refuses_a_one_batch_run(self):
        rng = np.random.default_rng(4)
        runs = [self.random_run(rng, 3), self.random_run(rng, 1)]
        with pytest.raises(ValueError, match="at least two batches"):
            resample_batches(runs, 10, seed=[0])


class TestStreamingMoments:
    def test_matches_direct_averages(self):
        s = gaussian_shots(5000, seed=7, sigma=0.8, mean=0.3 + 0.1j)
        r = combine_batches(StreamingMoments(4).update(s).result())
        for n, m in moment_indices(4):
            direct = np.mean(np.conj(s) ** n * s ** m)
            assert r[n, m] == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 1000, 32768, 32769, 65541,
                                      3 * 32768 + 5, 400_000])
    def test_sums_bit_identical_to_fresh_power_table(self, size):
        # stored moments of exactly sampled states must not change by a rounding:
        # the reused buffers must give the sums of a fresh S^n table, bit for bit,
        # and batches summed in blocks must give one np.sum over the whole batch
        for seed, order in itertools.product(range(11, 15), range(10)):
            s = gaussian_shots(size, seed=seed, sigma=30.0, mean=5.0 - 2.0j)
            powers = [np.ones_like(s)]
            for _ in range(order):
                powers.append(powers[-1] * s)
            expected = np.zeros((order + 1, order + 1), dtype=complex)
            for n, m in moment_indices(order):
                if n >= m:
                    expected[n, m] = np.sum(powers[n].conj() * powers[m])
            got = StreamingMoments(order).update(s).sums[0]
            assert got.tobytes() == expected.tobytes(), (seed, order)

    def test_large_batch_peaks_below_its_own_size(self):
        # order 8 at 400 000 shots: cache-sized blocks, no batch-sized power rows
        s = gaussian_shots(400_000, seed=3)
        tracemalloc.start()
        try:
            StreamingMoments(8).update(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < s.nbytes, peak

    def test_empty_result_raises(self):
        with pytest.raises(ValueError):
            StreamingMoments(4).result()

    def test_hermitian_fill(self):
        r = StreamingMoments(4).update(gaussian_shots(1000, 9, mean=0.5)).result()
        for n, m in moment_indices(4):
            assert r.values[0, n, m] == pytest.approx(np.conj(r.values[0, m, n]), abs=1e-12)

    def test_one_row_per_batch(self):
        acc = StreamingMoments(4)
        batches = [gaussian_shots(size, seed=size) for size in (300, 5, 1200)]
        for s in batches:
            acc.update(s)
        r = acc.result()
        assert r.counts.tolist() == [300, 5, 1200]
        for s, values in zip(batches, r.values):
            alone = StreamingMoments(4).update(s).result().values[0]
            assert values.tobytes() == alone.tobytes()


class TestHistogramMoments:
    def test_agrees_with_streaming_for_fine_bins(self):
        batch = sample_detector(prepare_superposition(1.0 / math.sqrt(2.0)),
                                CHAIN, 200_000, seed=10)
        extent = 6.0 * SIGMA_VAC
        hist = QuadratureHistogram(bins=1024, extent=extent).add(batch)
        hm = histogram_moments(hist, order=4)
        sm = combine_batches(StreamingMoments(4).update(batch).result())
        for n, m in moment_indices(4):
            scale = SIGMA_VAC ** (n + m)
            assert abs(hm[n, m] - sm[n, m]) / scale < 0.02

    def test_empty_histogram_raises(self):
        with pytest.raises(ValueError):
            histogram_moments(QuadratureHistogram(16, 1.0))


class TestVacuumSigma:
    def test_array_path(self):
        batch = sample_detector(FockState.vacuum(), CHAIN, 200_000, seed=14)
        assert vacuum_sigma(batch) == pytest.approx(SIGMA_VAC, rel=0.01)
