import math

import numpy as np
import pytest

from hettomo.acquire import RawMomentMatrix, streaming_moments
from hettomo.fock import (FockState, NoiseModel, analytic_moments,
                          coherent_state, noise_moments,
                          prepare_superposition, wigner_oracle)
from hettomo.moments import NORMAL, MomentMatrix, hermitize, moment_indices
from hettomo.simulate import AmplifierChain, sample_detector
from hettomo.tomo import (bootstrap_errors, estimate_gain, forward_moments,
                          invert_moments, reconstruct_wigner,
                          recover_noise_moments, truncation_order,
                          wigner_from_moments, wigner_kernel)

from conftest import (fock_power_moments, random_density_matrix,
                      random_moment_matrix, two_mode_raw_oracle,
                      wigner_kernel_quadrature)

TWO_OVER_PI = 2.0 / math.pi


class TestForwardMoments:
    # small nbar only: the brute-force product-space trace needs a thermal
    # cutoff far beyond what is tractable once nbar is large
    @pytest.mark.parametrize("nbar", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("gain", [1.0, 1.0e4])
    def test_against_two_mode_trace_oracle(self, nbar, gain):
        rng = np.random.default_rng(17)
        state = random_density_matrix(rng, 4)
        raw = forward_moments(analytic_moments(state, 4),
                              noise_moments(NoiseModel(nbar), 4), gain)
        for n, m in moment_indices(4):
            oracle = two_mode_raw_oracle(state.rho, nbar, gain, n, m)
            scale = max(1.0, abs(oracle))
            assert abs(raw[n, m] - oracle) / scale < 1e-8

    def test_vacuum_signal_gives_pure_noise(self):
        noise = noise_moments(NoiseModel(2.0), 4)
        raw = forward_moments(analytic_moments(FockState.vacuum(), 4),
                              noise, 100.0)
        recovered = recover_noise_moments(raw, 100.0)
        assert np.allclose(recovered.values, noise.values, atol=1e-12)

    def test_first_moment_scales_with_root_gain(self):
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        raw = forward_moments(analytic_moments(state, 4),
                              noise_moments(NoiseModel(64.0), 4), 1.0e4)
        assert raw[0, 1] == pytest.approx(100.0 * 0.5, abs=1e-9)

    def test_rejects_ordering_mismatch(self):
        m = analytic_moments(FockState.vacuum(), 4)
        with pytest.raises(ValueError):
            forward_moments(m, m, 1.0)


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
        noise = noise_moments(NoiseModel(nbar), order)
        worst = 0.0
        for _ in range(100):
            signal = MomentMatrix(random_moment_matrix(rng, order))
            raw = forward_moments(signal, noise, 1.0e4)
            raw_vac = forward_moments(
                analytic_moments(FockState.vacuum(), order), noise, 1.0e4)
            report = invert_moments(raw, raw_vac, 1.0e4)
            worst = max(worst, float(np.max(np.abs(
                report.moments.values - signal.values))))
        assert worst < 1e-10

    def test_single_photon_from_simulated_shots(self):
        chain = AmplifierChain(gain=1.0e4, noise=NoiseModel(2.0))
        sig = sample_detector(FockState.fock(1), chain, 400_000, seed=31)
        vac = sample_detector(FockState.vacuum(), chain, 400_000, seed=32)
        report = invert_moments(streaming_moments(sig, 4),
                                streaming_moments(vac, 4), chain.gain)
        assert report.moments[1, 1].real == pytest.approx(1.0, abs=0.05)
        assert abs(report.moments[0, 1]) < 0.02

    def test_rejects_order_mismatch(self):
        noise = noise_moments(NoiseModel(1.0), 4)
        raw4 = forward_moments(analytic_moments(FockState.vacuum(), 4), noise, 1.0)
        raw2 = forward_moments(analytic_moments(FockState.vacuum(), 2),
                               noise_moments(NoiseModel(1.0), 2), 1.0)
        with pytest.raises(ValueError):
            invert_moments(raw4, raw2, 1.0)


class TestEstimateGain:
    def test_exact_moments(self):
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        noise = noise_moments(NoiseModel(64.0), 4)
        raw = forward_moments(analytic_moments(state, 4), noise, 1.0e4)
        raw_vac = forward_moments(analytic_moments(FockState.vacuum(), 4),
                                  noise, 1.0e4)
        assert estimate_gain(raw, raw_vac) == pytest.approx(1.0e4, rel=1e-10)

    def test_insensitive_to_admixture(self):
        # vacuum admixture scales <a> and <a^dag a> alike, G is unchanged
        state = prepare_superposition(1.0 / math.sqrt(2.0), admixture_error=0.2)
        noise = noise_moments(NoiseModel(64.0), 4)
        raw = forward_moments(analytic_moments(state, 4), noise, 1.0e4)
        raw_vac = forward_moments(analytic_moments(FockState.vacuum(), 4),
                                  noise, 1.0e4)
        assert estimate_gain(raw, raw_vac) == pytest.approx(1.0e4, rel=1e-10)

    def test_weak_phase_reference_raises(self):
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        noise = noise_moments(NoiseModel(64.0), 4)
        raw = forward_moments(analytic_moments(state, 4), noise, 1.0e4)
        raw_vac = forward_moments(analytic_moments(FockState.vacuum(), 4),
                                  noise, 1.0e4)
        with pytest.raises(ValueError, match="phase reference"):
            estimate_gain(raw, raw_vac, m1_error=abs(raw[0, 1]))


class TestBootstrapErrors:
    def test_tracks_batch_spread(self):
        chain = AmplifierChain(gain=100.0, noise=NoiseModel(1.0))
        sig = [streaming_moments(
            sample_detector(FockState.fock(1), chain, 20_000, seed=41, stream=i), 4)
            for i in range(20)]
        vac = [streaming_moments(
            sample_detector(FockState.vacuum(), chain, 20_000, seed=42, stream=i), 4)
            for i in range(20)]
        err = bootstrap_errors(sig, vac, chain.gain, n_boot=100, seed=7)
        assert err[1, 1] > 0
        # recovered n=1 photon number should sit within a few sigma of truth
        full_sig = streaming_moments(
            [sample_detector(FockState.fock(1), chain, 20_000, seed=41, stream=i)
             for i in range(20)], 4)
        full_vac = streaming_moments(
            [sample_detector(FockState.vacuum(), chain, 20_000, seed=42, stream=i)
             for i in range(20)], 4)
        report = invert_moments(full_sig, full_vac, chain.gain)
        assert abs(report.moments[1, 1].real - 1.0) < 4.0 * err[1, 1]

    def test_matches_delta_method(self):
        # identical vacuum batches remove the reference term, so every
        # replica is the same linear map m = A^-1 s of its resampled signal
        # mean, A = D_G B(h), and the spread is sqrt(diag(A^-1 C A^-H)) with
        # C the batches' population covariance of s over the batch count
        order, gain, n_boot = 4, 100.0, 400
        chain = AmplifierChain(gain=gain, noise=NoiseModel(1.0))
        sig = [streaming_moments(
            sample_detector(FockState.fock(1), chain, 20_000, seed=44, stream=i),
            order) for i in range(20)]
        vac = [streaming_moments(
            sample_detector(FockState.vacuum(), chain, 400_000, seed=45), order)] * 20
        err = bootstrap_errors(sig, vac, gain, n_boot=n_boot, seed=3)

        idx = moment_indices(order)
        noise = {(n, m): vac[0][n, m] / gain ** ((n + m) / 2.0) for n, m in idx}
        noise[0, 0] = 1.0
        a = np.array([[gain ** ((n + m) / 2.0) * math.comb(n, i) * math.comb(m, j)
                       * noise[n - i, m - j] if i <= n and j <= m else 0.0
                       for i, j in idx] for n, m in idx])
        s = np.array([[b[n, m] for n, m in idx] for b in sig])
        d = s - s.mean(axis=0)
        c = d.T @ d.conj() / len(sig) ** 2
        a_inv = np.linalg.inv(a)
        delta = np.sqrt(np.diag(a_inv @ c @ a_inv.conj().T).real)
        for k, (n, m) in enumerate(idx[1:], start=1):
            assert err[n, m] == pytest.approx(
                delta[k], rel=4.0 / math.sqrt(2.0 * n_boot)), (n, m)

    def test_deterministic_given_seed(self):
        chain = AmplifierChain(gain=10.0, noise=NoiseModel(0.5))
        sig = [streaming_moments(
            sample_detector(FockState.vacuum(), chain, 5000, seed=43, stream=i), 2)
            for i in range(5)]
        a = bootstrap_errors(sig, sig, chain.gain, n_boot=50, seed=1)
        b = bootstrap_errors(sig, sig, chain.gain, n_boot=50, seed=1)
        assert np.array_equal(a, b)


class TestTruncationOrder:
    def test_single_photon_keeps_order_two(self):
        # |m(2,2)| = 0 < threshold at N = 2, so orders up to 2 are kept
        m = analytic_moments(FockState.fock(1), 4)
        assert truncation_order(m, threshold=0.1) == 2

    def test_threshold_never_crossed_keeps_cap(self):
        m = analytic_moments(coherent_state(1.5, cutoff=20), 4)
        assert truncation_order(m, threshold=0.1) == 4

    def test_rejects_antinormal(self):
        with pytest.raises(ValueError):
            truncation_order(noise_moments(NoiseModel(1.0), 4))


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
        grid = reconstruct_wigner(m, extent=3.0, resolution=41)
        pts = grid.xs[:, None] + 1j * grid.ps[None, :]
        oracle = wigner_oracle(state, pts)
        assert float(np.max(np.abs(grid.values - oracle))) < 1e-8

    def test_mixture_minimum_value(self):
        state = prepare_superposition(1.0, admixture_error=0.09)
        grid = reconstruct_wigner(analytic_moments(state, 4), extent=3.0,
                                  resolution=121)
        w_min, at = grid.minimum()
        assert w_min == pytest.approx(TWO_OVER_PI * (1.0 - 2.0 * 0.91),
                                      abs=1e-10)
        assert abs(at) < 0.05

    def test_integral_close_to_one(self):
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        grid = reconstruct_wigner(analytic_moments(state, 4), extent=4.0,
                                  resolution=161)
        assert grid.integral() == pytest.approx(1.0, abs=1e-3)

    def test_truncation_recorded(self):
        grid = reconstruct_wigner(analytic_moments(FockState.fock(1), 4))
        assert grid.truncation == 2

    def test_rejects_antinormal_moments(self):
        with pytest.raises(ValueError):
            reconstruct_wigner(noise_moments(NoiseModel(1.0), 4))


class TestEndToEndMomentsToWigner:
    def test_simulated_single_photon_negativity(self):
        chain = AmplifierChain(gain=1.0e4, noise=NoiseModel(2.0))
        sig = sample_detector(FockState.fock(1), chain, 400_000, seed=51)
        vac = sample_detector(FockState.vacuum(), chain, 400_000, seed=52)
        report = invert_moments(streaming_moments(sig, 4),
                                streaming_moments(vac, 4), chain.gain)
        grid = reconstruct_wigner(report.moments, extent=2.5, resolution=81)
        w_min, at = grid.minimum()
        assert w_min < -0.4
        assert abs(at) < 0.2
