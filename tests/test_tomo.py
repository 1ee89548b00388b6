import hashlib
import math

import numpy as np
import pytest

from hettomo.acquire import StreamingMoments, combine_batches
from hettomo.fock import (FockState, analytic_moments,
                          coherent_state, prepare_superposition, wigner_oracle)
from hettomo.moments import BatchMoments, MomentMatrix, hermitize, moment_indices
from hettomo.simulate import AmplifierChain, sample_detector
from hettomo.tomo import (_binomial_operator, _gain_diagonal, _solve,
                          bootstrap_errors, estimate_gain, forward_moments, gain_terms,
                          invert_moments, reconstruct_wigner, truncation_order,
                          wigner_from_moments, wigner_kernel)

from conftest import (fock_power_moments, noise_moments, pipeline_over_seeds,
                      random_density_matrix, random_moment_matrix, traced_peak,
                      two_mode_raw_oracle, wigner_kernel_quadrature)

TWO_OVER_PI = 2.0 / math.pi


def batch_moments(shot_batches, order: int) -> BatchMoments:
    acc = StreamingMoments(order)
    for batch in shot_batches:
        acc.update(batch)
    return acc.result()


def combined_moments(shots, order: int):
    """The moments of one batch of shots."""
    return combine_batches(batch_moments([shots], order))


def test_hermitize_over_a_stack_matches_the_matrix_loop():
    # the per-matrix loop the stacked form replaced: a real diagonal, and the
    # lower triangle conjugated from the upper
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(6, 5, 5)) + 1j * rng.normal(size=(6, 5, 5))
    expected = stack.copy()
    for v, out in zip(stack, expected):
        for n in range(5):
            out[n, n] = complex(v[n, n].real, 0.0)
            for m in range(n + 1, 5):
                out[m, n] = np.conj(v[n, m])
    assert hermitize(stack).tobytes() == expected.tobytes()
    assert hermitize(stack[2]).tobytes() == expected[2].tobytes()


class TestForwardMoments:
    # small nbar only: the brute-force product-space trace needs a thermal
    # cutoff far beyond what is tractable once nbar is large
    @pytest.mark.parametrize("nbar", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("gain", [1.0, 1.0e4])
    def test_against_two_mode_trace_oracle(self, nbar, gain):
        rng = np.random.default_rng(17)
        state = random_density_matrix(rng, 4)
        raw = forward_moments(analytic_moments(state, 4),
                              noise_moments(nbar, 4), gain)
        for n, m in moment_indices(4):
            oracle = two_mode_raw_oracle(state.rho, nbar, gain, n, m)
            scale = max(1.0, abs(oracle))
            assert abs(raw[n, m] - oracle) / scale < 1e-8

    def test_vacuum_signal_gives_pure_noise(self):
        noise = noise_moments(2.0, 4)
        raw = forward_moments(analytic_moments(FockState.vacuum(), 4),
                              noise, 100.0)
        recovered = invert_moments(raw, raw, 100.0, np.zeros((5, 5))).noise
        assert np.allclose(recovered.values, noise.values, atol=1e-12)

    def test_first_moment_scales_with_root_gain(self):
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        raw = forward_moments(analytic_moments(state, 4),
                              noise_moments(64.0, 4), 1.0e4)
        assert raw[0, 1] == pytest.approx(100.0 * 0.5, abs=1e-9)


@pytest.mark.parametrize("k, expected", [(1, (3.0, 16.0)), (0, (2.0, 8.0))])
def test_fock_power_moments_match_trace_oracle(k, expected):
    # nbar_h = 1 keeps the brute-force thermal cutoff converged
    rho = FockState.fock(k).rho
    closed = fock_power_moments(k, 1.0)
    traced = tuple(two_mode_raw_oracle(rho, 1.0, 1.0, n, n).real
                   for n in (1, 2))
    assert closed == pytest.approx(expected, rel=1e-12)
    assert traced == pytest.approx(expected, rel=1e-10)


class TestInvertMoments:
    @pytest.mark.parametrize("order, nbar", [(4, 64.0)] + [
        (order, 2.0) for order in range(1, 9)])
    def test_exact_round_trip_random_moments(self, order, nbar):
        rng = np.random.default_rng(23)
        noise = noise_moments(nbar, order)
        worst = 0.0
        for _ in range(100):
            signal = MomentMatrix(random_moment_matrix(rng, order))
            raw = forward_moments(signal, noise, 1.0e4)
            raw_vac = forward_moments(
                analytic_moments(FockState.vacuum(), order), noise, 1.0e4)
            report = invert_moments(raw, raw_vac, 1.0e4, np.zeros((order + 1, order + 1)))
            worst = max(worst, float(np.max(np.abs(
                report.moments.values - signal.values))))
        assert worst < 1e-10

    @pytest.mark.parametrize("order", [4, 8])
    def test_solve_matches_lapack_bit_for_bit(self, order):
        # stored moments keep their bytes only while the forward substitution
        # rounds as LAPACK's unit lower-triangular solve does
        solve_triangular = pytest.importorskip("scipy.linalg").solve_triangular
        rng = np.random.default_rng(41 + order)
        for _ in range(200):
            op = _binomial_operator(random_moment_matrix(rng, order))
            raw = random_moment_matrix(rng, order)
            gain = rng.uniform(1.0, 1.0e4)
            n, m, g = _gain_diagonal(order, gain)
            want = np.zeros_like(raw)
            want[n, m] = solve_triangular(op, raw[n, m] / g, lower=True,
                                          unit_diagonal=True)
            assert _solve(op, raw, gain).tobytes() == want.tobytes()

    def test_single_photon_from_simulated_shots(self):
        chain = AmplifierChain(gain=1.0e4, nbar=2.0)
        sig = sample_detector(FockState.fock(1), chain, 400_000, seed=31)
        vac = sample_detector(FockState.vacuum(), chain, 400_000, seed=32)
        report = invert_moments(combined_moments(sig, 4), combined_moments(vac, 4),
                                chain.gain, np.zeros((5, 5)))
        assert report.moments[1, 1].real == pytest.approx(1.0, abs=0.05)
        assert abs(report.moments[0, 1]) < 0.02

    def test_rejects_order_mismatch(self):
        noise = noise_moments(1.0, 4)
        raw4 = forward_moments(analytic_moments(FockState.vacuum(), 4), noise, 1.0)
        raw2 = forward_moments(analytic_moments(FockState.vacuum(), 2),
                               noise_moments(1.0, 2), 1.0)
        with pytest.raises(ValueError):
            invert_moments(raw4, raw2, 1.0, np.zeros((5, 5)))


def two_batches(first: np.ndarray, second: np.ndarray) -> BatchMoments:
    """A run of two batches of 1000 shots each."""
    return BatchMoments(np.array([first, second]), [1000, 1000])


class TestEstimateGain:
    def test_exact_moments(self):
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        noise = noise_moments(64.0, 4)
        raw = forward_moments(analytic_moments(state, 4), noise, 1.0e4).values
        raw_vac = forward_moments(analytic_moments(FockState.vacuum(), 4),
                                  noise, 1.0e4).values
        result = estimate_gain(two_batches(raw, raw), two_batches(raw_vac, raw_vac))
        assert result["gain"] == pytest.approx(1.0e4, rel=1e-10)

    def test_insensitive_to_admixture(self):
        # vacuum admixture scales <a> and <a^dag a> alike, G is unchanged
        state = prepare_superposition(1.0 / math.sqrt(2.0), admixture_error=0.2)
        noise = noise_moments(64.0, 4)
        raw = forward_moments(analytic_moments(state, 4), noise, 1.0e4).values
        raw_vac = forward_moments(analytic_moments(FockState.vacuum(), 4),
                                  noise, 1.0e4).values
        result = estimate_gain(two_batches(raw, raw), two_batches(raw_vac, raw_vac))
        assert result["gain"] == pytest.approx(1.0e4, rel=1e-10)

    def test_stacked_gains_round_as_scalar_estimates(self):
        # G of each member of a stack, bit for bit as Python's complex abs()
        # and float ** round it; np.abs or an array's ** 2 would differ
        rng = np.random.default_rng(9)
        n = 20_000
        sup = np.zeros((n, 3, 3), dtype=complex)
        sup[:, 0, 1] = rng.normal(size=n) + 1j * rng.normal(size=n)
        sup[:, 1, 1] = 2.0 + rng.exponential(size=n)
        vac = np.zeros_like(sup)
        vac[:, 1, 1] = 2.0
        expected = [(float((s[1, 1] - 2.0).real) / abs(complex(s[0, 1]))) ** 2 for s in sup]
        assert gain_terms(sup, vac)[2].tobytes() == np.array(expected).tobytes()

    def test_weak_phase_reference_raises(self):
        # two batches whose s(0, 1) are 10 and -9 times the exact one: the
        # combined |s(0, 1)| is half the exact one, and the replicas, which
        # draw the batches with replacement, spread it by about 4.5 times it
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        noise = noise_moments(64.0, 4)
        raw = forward_moments(analytic_moments(state, 4), noise, 1.0e4).values
        raw_vac = forward_moments(analytic_moments(FockState.vacuum(), 4),
                                  noise, 1.0e4).values
        high, low = raw.copy(), raw.copy()
        for batch, scale in ((high, 10.0), (low, -9.0)):
            batch[0, 1] = scale * raw[0, 1]
            batch[1, 0] = np.conj(batch[0, 1])
        with pytest.raises(ValueError, match="phase reference too weak"):
            estimate_gain(two_batches(high, low), two_batches(raw_vac, raw_vac))


def _synthetic_runs(order: int) -> tuple[BatchMoments, BatchMoments]:
    """A 7-batch signal and a 5-batch vacuum run of random moments, unequal counts."""
    rng = np.random.default_rng(order)

    def run(batches: int) -> BatchMoments:
        values, counts = [], []
        for _ in range(batches):    # the draw order of one matrix, then its count
            values.append(0.1 * random_moment_matrix(rng, order))
            values[-1][0, 0] = 1.0
            counts.append(int(rng.integers(500, 2000)))
        return BatchMoments(np.array(values), counts)
    return run(7), run(5)


# bootstrap_errors(*_synthetic_runs(order), 3.0, n_boot=64, seed=11), taken
# while every replica was still a validated per-batch moment matrix
BOOTSTRAP_SHA256 = {
    4: "dcd10b7031ad06bc70579a17c33e4b18739512ffe0ab871798497f7eca33bc15",
    8: "e91d352032fecc1e605ae089863faff54bd93e15498ca4e147f8cd86ce00a200",
}


class TestBootstrapErrors:
    @pytest.mark.parametrize("order", sorted(BOOTSTRAP_SHA256))
    def test_keeps_its_bytes(self, order):
        err = bootstrap_errors(*_synthetic_runs(order), 3.0, n_boot=64, seed=11)
        assert hashlib.sha256(err.tobytes()).hexdigest() == BOOTSTRAP_SHA256[order]

    def test_builds_one_operator_at_a_time(self):
        # 200 stacked order-8 operators, (200, 45, 45) complex, peaked near 10.6 MB
        rng = np.random.default_rng(3)
        values = 0.1 * np.array([random_moment_matrix(rng, 8) for _ in range(10)])
        values[:, 0, 0] = 1.0
        run = BatchMoments(values, np.full(10, 1000))
        _, peak = traced_peak(lambda: bootstrap_errors(run, run, 3.0))
        assert peak < 2e6, peak

    def test_tracks_batch_spread(self):
        chain = AmplifierChain(gain=100.0, nbar=1.0)
        sig = batch_moments((
            sample_detector(FockState.fock(1), chain, 20_000, seed=41, stream=i)
            for i in range(20)), 4)
        vac = batch_moments((
            sample_detector(FockState.vacuum(), chain, 20_000, seed=42, stream=i)
            for i in range(20)), 4)
        err = bootstrap_errors(sig, vac, chain.gain, n_boot=100, seed=7)
        assert err[1, 1] > 0
        # recovered n=1 photon number should sit within a few sigma of truth
        report = invert_moments(combine_batches(sig), combine_batches(vac), chain.gain, err)
        assert abs(report.moments[1, 1].real - 1.0) < 4.0 * err[1, 1]

    def test_matches_delta_method(self):
        # identical vacuum batches remove the reference term, so every
        # replica is the same linear map m = A^-1 s of its resampled signal
        # mean, A = D_G B(h), and the spread is sqrt(diag(A^-1 C A^-H)) with
        # C the batches' population covariance of s over the batch count
        order, gain, n_boot = 4, 100.0, 400
        chain = AmplifierChain(gain=gain, nbar=1.0)
        sig = batch_moments((
            sample_detector(FockState.fock(1), chain, 20_000, seed=44, stream=i)
            for i in range(20)), order)
        vac = batch_moments([
            sample_detector(FockState.vacuum(), chain, 400_000, seed=45)] * 20, order)
        err = bootstrap_errors(sig, vac, gain, n_boot=n_boot, seed=3)

        idx = moment_indices(order)
        noise = {(n, m): vac.values[0, n, m] / gain ** ((n + m) / 2.0) for n, m in idx}
        noise[0, 0] = 1.0
        a = np.array([[gain ** ((n + m) / 2.0) * math.comb(n, i) * math.comb(m, j)
                       * noise[n - i, m - j] if i <= n and j <= m else 0.0
                       for i, j in idx] for n, m in idx])
        s = np.array([[b[n, m] for n, m in idx] for b in sig.values])
        d = s - s.mean(axis=0)
        c = d.T @ d.conj() / len(s) ** 2
        a_inv = np.linalg.inv(a)
        delta = np.sqrt(np.diag(a_inv @ c @ a_inv.conj().T).real)
        for k, (n, m) in enumerate(idx[1:], start=1):
            assert err[n, m] == pytest.approx(
                delta[k], rel=4.0 / math.sqrt(2.0 * n_boot)), (n, m)

    def test_deterministic_given_seed(self):
        chain = AmplifierChain(gain=10.0, nbar=0.5)
        sig = batch_moments((
            sample_detector(FockState.vacuum(), chain, 5000, seed=43, stream=i)
            for i in range(5)), 2)
        a = bootstrap_errors(sig, sig, chain.gain, n_boot=50, seed=1)
        b = bootstrap_errors(sig, sig, chain.gain, n_boot=50, seed=1)
        assert np.array_equal(a, b)


class TestTruncationOrder:
    def test_single_photon_keeps_order_two(self):
        # |m(2,2)| = 0 < threshold at N = 2, so orders up to 2 are kept
        m = analytic_moments(FockState.fock(1), 4)
        assert truncation_order(m, np.zeros((5, 5))) == 2

    def test_threshold_never_crossed_keeps_cap(self):
        m = analytic_moments(coherent_state(1.5, cutoff=20), 4)
        assert truncation_order(m, np.zeros((5, 5))) == 4

    def test_each_diagonal_against_its_own_error(self):
        # order-8 |1> moments whose high diagonals carry large errors, as at a
        # few 1e6 shots: m(1, 1) = 1 stands above max(0.1, 3 err(1, 1)), and
        # m(2, 2) = 0 ends the sum at order 2
        m = analytic_moments(FockState.fock(1), 8)
        errors = np.full((9, 9), 0.01)
        errors[3, 3], errors[4, 4] = 0.4, 2.08
        assert truncation_order(m, errors) == 2
        errors[1, 1] = 0.34     # 3 err(1, 1) = 1.02 > m(1, 1)
        assert truncation_order(m, errors) == 0


class TestWignerKernel:
    @pytest.mark.parametrize("n,m", [(n, m) for n in range(3) for m in range(3)])
    @pytest.mark.parametrize("alpha", [0.0, 0.7, -1.2 + 0.4j, 2.5j, 3.0])
    def test_against_quadrature_oracle(self, n, m, alpha):
        closed = wigner_kernel(n, m, alpha)
        quad = wigner_kernel_quadrature(n, m, alpha)
        assert abs(closed - quad) < 1e-6

    def test_base_gaussian(self):
        assert wigner_kernel(0, 0, 0.0) == pytest.approx(TWO_OVER_PI)
        assert wigner_kernel(0, 0, 1.0) == pytest.approx(
            TWO_OVER_PI * math.exp(-2.0))

    def test_hermitian_pairing_gives_real_sum(self):
        alpha = 0.3 - 0.8j
        k01 = wigner_kernel(0, 1, alpha)
        k10 = wigner_kernel(1, 0, alpha)
        m01 = 0.25 + 0.1j
        total = m01 * k01 + np.conj(m01) * k10
        assert abs(total.imag) < 1e-12

    def test_order_cap(self):
        with pytest.raises(ValueError):
            wigner_kernel(5, 4, 0.0)


class TestWignerReconstruction:
    def test_vacuum(self):
        m = analytic_moments(FockState.vacuum(), 4)
        w = wigner_from_moments(m, np.array(0.0 + 0.0j), truncation=0)
        assert float(w) == pytest.approx(TWO_OVER_PI)

    def test_single_photon_origin(self):
        m = analytic_moments(FockState.fock(1), 4)
        w = wigner_from_moments(m, np.array(0.0 + 0.0j), truncation=2)
        assert float(w) == pytest.approx(-TWO_OVER_PI, abs=1e-12)

    @pytest.mark.parametrize("maker", [
        lambda: FockState.fock(1),
        lambda: prepare_superposition(-1.0 / math.sqrt(2.0)),
        lambda: prepare_superposition(1.0, admixture_error=0.09),
    ])
    def test_matches_displaced_parity_oracle(self, maker):
        # states with finite moment support reconstruct exactly
        state = maker()
        m = analytic_moments(state, 4)
        grid = reconstruct_wigner(m, np.zeros((5, 5)), extent=3.0, resolution=41)
        pts = grid.xs[:, None] + 1j * grid.ps[None, :]
        oracle = wigner_oracle(state, pts)
        assert float(np.max(np.abs(grid.values - oracle))) < 1e-8

    def test_mixture_minimum_value(self):
        state = prepare_superposition(1.0, admixture_error=0.09)
        grid = reconstruct_wigner(analytic_moments(state, 4), np.zeros((5, 5)),
                                  extent=3.0, resolution=121)
        w_min, at = grid.minimum()
        assert w_min == pytest.approx(TWO_OVER_PI * (1.0 - 2.0 * 0.91),
                                      abs=1e-10)
        assert abs(at) < 0.05

    def test_integral_close_to_one(self):
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        grid = reconstruct_wigner(analytic_moments(state, 4), np.zeros((5, 5)),
                                  extent=4.0, resolution=161)
        dx, dp = grid.xs[1] - grid.xs[0], grid.ps[1] - grid.ps[0]
        assert float(np.sum(grid.values) * dx * dp) == pytest.approx(1.0, abs=1e-3)

    def test_truncation_recorded(self):
        grid = reconstruct_wigner(analytic_moments(FockState.fock(1), 4), np.zeros((5, 5)))
        assert grid.truncation == 2


class TestEndToEndMomentsToWigner:
    def test_simulated_single_photon_negativity(self):
        chain = AmplifierChain(gain=1.0e4, nbar=2.0)
        sig = sample_detector(FockState.fock(1), chain, 400_000, seed=51)
        vac = sample_detector(FockState.vacuum(), chain, 400_000, seed=52)
        report = invert_moments(combined_moments(sig, 4), combined_moments(vac, 4),
                                chain.gain, np.zeros((5, 5)))
        grid = reconstruct_wigner(report.moments, report.errors, extent=2.5, resolution=81)
        w_min, at = grid.minimum()
        assert w_min < -0.4
        assert abs(at) < 0.2


# the README config at 2e5 shots in 50 batches, and 24 seeds used by no other test
SPREAD_CONFIG = {"shots": 200_000, "batches": 50, "order": 4,
                 "state": {"kind": "superposition", "beta": 0.7071, "phase": 0.0},
                 "amplifier": {"gain": 10000.0, "nbar": 2.0},
                 "histogram": {"bins": 1024, "range": None},
                 "calibration": {"beta": 0.7071, "phase": 3.14159}}
SPREAD_SEEDS = range(37001, 37025)
# a ratio of spread over K seeds to the reported sigma reads with a standard deviation
# of about 1 / sqrt(2 (K - 1)), 0.147 at 24 seeds; the bound is 3 of those, fixed
# before the run
SPREAD_RATIO_BOUND = 3.0 / math.sqrt(2 * (len(SPREAD_SEEDS) - 1))


@pytest.fixture(scope="module")
def over_seeds():
    return pipeline_over_seeds(SPREAD_CONFIG, SPREAD_SEEDS)


class TestReportedErrorsOverSeeds:
    """Each reported error against the spread of its value over seeds."""

    def test_m11_spread_matches_its_error(self, over_seeds):
        spread = np.std(over_seeds["moments"][:, 1, 1].real, ddof=1)
        ratio = spread / np.median(over_seeds["errors"][:, 1, 1])
        assert abs(ratio - 1.0) < SPREAD_RATIO_BOUND, ratio

    def test_m01_complex_rms_spread_matches_its_error(self, over_seeds):
        # `errors` holds the complex RMS of each moment's spread
        m01 = over_seeds["moments"][:, 0, 1]
        spread = math.sqrt(np.sum(np.abs(m01 - m01.mean()) ** 2) / (m01.size - 1))
        ratio = spread / np.median(over_seeds["errors"][:, 0, 1])
        assert abs(ratio - 1.0) < SPREAD_RATIO_BOUND, ratio

    def test_calibrated_gain_spread_matches_its_error(self, over_seeds):
        ratio = np.std(over_seeds["gain"], ddof=1) / np.median(over_seeds["gain_stderr"])
        assert abs(ratio - 1.0) < SPREAD_RATIO_BOUND, ratio
