import math

import numpy as np
import pytest

from hettomo.fock import (FockState, _laguerre, analytic_moments,
                          coherent_state, husimi_q, loss_channel,
                          prepare_superposition, thermal_state, wigner_oracle)
from hettomo.moments import moment_indices

from conftest import antinormal_moments, husimi_q_einsum, noise_moments, padded, \
    random_density_matrix, random_pure_state, thermal_antinormal_oracle

TWO_OVER_PI = 2.0 / math.pi


class TestFockState:
    def test_validation_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FockState(np.diag([0.5, 0.4]).astype(complex))

    def test_validation_rejects_nonhermitian(self):
        rho = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            FockState(rho)

    def test_validation_rejects_negative_eigenvalues(self):
        rho = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
        with pytest.raises(ValueError):
            FockState(rho)

    def test_support(self):
        assert FockState.fock(1, cutoff=8).support() == 1
        assert FockState.vacuum().support() == 0


class TestPrepareSuperposition:
    def test_full_swap_gives_single_photon(self):
        state = prepare_superposition(1.0)
        assert state.rho[1, 1] == pytest.approx(1.0, abs=1e-14)

    def test_pure_minus_superposition(self):
        beta = -1.0 / math.sqrt(2.0)
        state = prepare_superposition(beta)
        c = np.zeros(9, dtype=complex)
        c[0], c[1] = 1.0 / math.sqrt(2.0), beta
        assert np.allclose(state.rho, np.outer(c, c.conj()), atol=1e-14)

    def test_admixture_reduces_photon_number(self):
        state = prepare_superposition(1.0, admixture_error=0.09)
        m = analytic_moments(state, 2)
        assert m[1, 1].real == pytest.approx(0.91, abs=1e-14)

    def test_rejects_amplitude_above_one(self):
        with pytest.raises(ValueError):
            prepare_superposition(1.1)


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        assert coherent_state(0.0).rho[0, 0].real == pytest.approx(1.0)

    def test_mean_photon_number(self):
        m = analytic_moments(coherent_state(0.5, cutoff=8), 2)
        assert m[1, 1].real == pytest.approx(0.25, abs=1e-6)

    def test_unit_amplitude_moments_all_one(self):
        m = analytic_moments(coherent_state(1.0, cutoff=20), 4)
        for n, mm in moment_indices(4):
            assert abs(m[n, mm] - 1.0) < 1e-6

    def test_moments_decay_as_half_power(self):
        m = analytic_moments(coherent_state(0.5, cutoff=8), 4)
        for n, mm in moment_indices(4):
            assert m[n, mm] == pytest.approx(0.5 ** (n + mm), abs=1e-6)

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            coherent_state(2.0, cutoff=8)

    def test_cutoff_guard_at_its_boundary(self):
        # |alpha|^2 > cutoff / 4 in float: sqrt(2)^2 rounds to 2.0000000000000004
        below = np.nextafter(math.sqrt(2.0), 0.0)
        assert coherent_state(below, cutoff=8).profile == ("coherent", below)
        with pytest.raises(ValueError, match="cutoff too small"):
            coherent_state(math.sqrt(2.0), cutoff=8)

    @pytest.mark.parametrize("alpha", [1e300, -1e300, 1e300j, complex(1e308, 1e308)])
    def test_cutoff_guard_past_float_range(self, alpha):
        # |alpha|^2 overflows a float, where it is refused as too large
        with pytest.raises(ValueError, match="cutoff too small"):
            coherent_state(alpha)


class TestThermalState:
    def test_zero_nbar_is_vacuum(self):
        assert thermal_state(0.0).rho[0, 0].real == pytest.approx(1.0)

    def test_moments_against_geometric_sums(self):
        state = thermal_state(1.0, cutoff=30)
        # independent oracle: sums over the geometric photon distribution
        p = (0.5 ** np.arange(31))
        p /= p.sum()
        k = np.arange(31)
        m = analytic_moments(state, 4)
        assert m[1, 1].real == pytest.approx(float(np.sum(p * k)), abs=1e-6)
        assert m[2, 2].real == pytest.approx(float(np.sum(p * k * (k - 1))),
                                             abs=1e-6)
        assert m[1, 1].real == pytest.approx(1.0, abs=1e-6)
        assert m[2, 2].real == pytest.approx(2.0, abs=1e-5)

    def test_off_diagonals_vanish(self):
        m = analytic_moments(thermal_state(1.0, cutoff=30), 4)
        for n, mm in moment_indices(4):
            if n != mm:
                assert abs(m[n, mm]) < 1e-12

    def test_cutoff_too_small(self):
        with pytest.raises(ValueError):
            thermal_state(64.0, cutoff=30)


class TestAnalyticMoments:
    def test_single_photon(self):
        m = analytic_moments(FockState.fock(1), 4)
        assert m[1, 1] == pytest.approx(1.0)
        assert abs(m[2, 2]) < 1e-14
        for n, mm in moment_indices(4):
            if n != mm:
                assert abs(m[n, mm]) < 1e-14

    def test_superposition_signs(self):
        state = prepare_superposition(-1.0 / math.sqrt(2.0))
        m = analytic_moments(state, 2)
        assert m[0, 1] == pytest.approx(-0.5)
        assert m[1, 1] == pytest.approx(0.5)

    def test_order_cap_precondition(self):
        with pytest.raises(ValueError):
            analytic_moments(FockState.fock(0, cutoff=1), 4)

    def test_fock_diagonals_above_k_vanish_exactly(self):
        for k in range(4):
            m = analytic_moments(FockState.fock(k, cutoff=8), 8)
            for n in range(k + 1, 5):
                assert m[n, n] == 0.0

    def test_phase_covariance(self):
        rng = np.random.default_rng(11)
        c = random_pure_state(rng, 5)
        phi = 0.7321
        rotated = c * np.exp(1j * np.arange(5) * phi)
        m0 = analytic_moments(FockState.from_amplitudes(c), 4)
        m1 = analytic_moments(FockState.from_amplitudes(rotated), 4)
        for n, mm in moment_indices(4):
            expected = m0[n, mm] * np.exp(1j * (mm - n) * phi)
            assert m1[n, mm] == pytest.approx(expected, abs=1e-12)


class TestNoiseMoments:
    def test_vacuum_antinormal_commutator(self):
        m = noise_moments(0.0, 2)
        assert m[1, 1] == pytest.approx(1.0)

    def test_thermal_values(self):
        m = noise_moments(64.0, 4)
        assert m[1, 1].real == pytest.approx(65.0)
        assert m[2, 2].real == pytest.approx(2.0 * 65.0 ** 2)

    def test_off_diagonals_zero(self):
        m = noise_moments(3.0, 4)
        assert m[0, 1] == 0.0 and m[1, 0] == 0.0

    @pytest.mark.parametrize("nbar", [0.0, 0.5, 1.0, 2.0])
    def test_against_fock_trace_oracle(self, nbar):
        m = noise_moments(nbar, 4)
        for n, mm in moment_indices(4):
            oracle = thermal_antinormal_oracle(nbar, n, mm)
            assert m[n, mm] == pytest.approx(oracle, abs=1e-6)


class TestHusimiQ:
    def test_vacuum_at_origin(self):
        assert husimi_q(FockState.vacuum(), 0.0) == pytest.approx(1.0 / math.pi)

    def test_single_photon_at_origin(self):
        assert husimi_q(FockState.fock(1), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_single_photon_on_unit_circle(self):
        assert husimi_q(FockState.fock(1), 1.0) == pytest.approx(
            math.exp(-1.0) / math.pi, abs=1e-12)

    @pytest.mark.parametrize("cutoff", [1, 8])
    def test_qubit_superposition_closed_form(self, cutoff):
        c0, c1 = 0.6, 0.48 - 0.64j
        state = FockState.from_amplitudes([c0, c1] + [0.0] * (cutoff - 1))
        x = np.linspace(-4.0, 4.0, 81)
        alpha = x[:, None] + 1j * x[None, :]
        expected = np.exp(-np.abs(alpha) ** 2) * np.abs(c0 + c1 * np.conj(alpha)) ** 2 / np.pi
        assert np.max(np.abs(husimi_q(state, alpha) - expected)) < 1e-14

    @pytest.mark.parametrize("maker", [
        lambda: FockState.fock(2),
        lambda: coherent_state(1.0),
        lambda: random_density_matrix(np.random.default_rng(3), 6),
    ])
    def test_nonnegative_and_normalized(self, maker):
        state = maker()
        x = np.linspace(-6, 6, 241)
        grid = x[:, None] + 1j * x[None, :]
        q = husimi_q(state, grid)
        assert np.all(q >= 0)
        d = x[1] - x[0]
        assert float(np.sum(q) * d * d) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("shape", [(), (257,), (33, 17)], ids=["scalar", "1d", "2d"])
    def test_matches_complex_einsum_form(self, shape):
        rng = np.random.default_rng(17)
        for _ in range(3):
            state = random_density_matrix(rng, 9)
            assert np.max(np.abs(state.rho.imag)) > 0.01   # complex coherences
            alpha = 2.5 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
            got, want = husimi_q(state, alpha), husimi_q_einsum(state, alpha)
            assert np.shape(got) == shape and type(got) is type(want)
            assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 9])
    def test_keeps_the_bytes_of_its_allocating_form(self, dim):
        # husimi_q sums through scratch rows; each term must round as the one-line
        # expression below did. The rejection sampler's bytes rarely show a changed
        # rounding of Q, so this compares Q itself, bit for bit
        rng = np.random.default_rng(dim)
        state = random_density_matrix(rng, dim)
        alpha = 2.0 * (rng.normal(size=4099) + 1j * rng.normal(size=4099))
        assert husimi_q(state, alpha).tobytes() == _husimi_q_by_terms(state, alpha).tobytes()


def _husimi_q_by_terms(state, alpha):
    """husimi_q as it was before its scratch rows: every term allocated, one line each."""
    flat, rho = np.asarray(alpha, dtype=complex), state.rho
    a, b = [None, flat.real.copy()], [None, flat.imag.copy()]
    for k in range(2, state.dim):
        a.append((a[-1] * a[1] - b[-1] * b[1]) / math.sqrt(k))
        b.append((a[-2] * b[1] + b[-1] * a[1]) / math.sqrt(k))
    q = np.full(flat.shape, rho[0, 0].real)
    for k in range(1, state.dim):
        c = 2.0 * rho[0, k]
        q += rho[k, k].real * (a[k] * a[k] + b[k] * b[k]) + c.real * a[k] - c.imag * b[k]
        for j in range(1, k):
            c = 2.0 * rho[j, k]
            q += c.real * (a[j] * a[k] + b[j] * b[k]) - c.imag * (a[j] * b[k] - b[j] * a[k])
    q *= np.exp(-(flat.real ** 2 + flat.imag ** 2)) / np.pi
    return np.maximum(q, 0.0)


class TestWignerOracle:
    def test_vacuum_parity(self):
        assert wigner_oracle(FockState.vacuum(), 0.0) == pytest.approx(TWO_OVER_PI)

    def test_single_photon_negative_at_origin(self):
        assert wigner_oracle(FockState.fock(1), 0.0) == pytest.approx(-TWO_OVER_PI)

    def test_mixture_by_convexity(self):
        state = prepare_superposition(1.0, admixture_error=0.09)
        assert wigner_oracle(state, 0.0) == pytest.approx(
            TWO_OVER_PI * (1.0 - 2.0 * 0.91), abs=1e-12)

    def test_normalization_on_grid(self):
        rng = np.random.default_rng(5)
        state = random_density_matrix(rng, 3)
        x = np.linspace(-4, 4, 33)
        grid = x[:, None] + 1j * x[None, :]
        w = wigner_oracle(state, grid)
        d = x[1] - x[0]
        assert float(np.sum(w) * d * d) == pytest.approx(1.0, abs=1e-3)

    def test_laguerre_recurrence_matches_scipy(self):
        eval_genlaguerre = pytest.importorskip("scipy.special").eval_genlaguerre
        x = np.linspace(0.0, 128.0, 513)
        for a in range(17):
            laguerre = _laguerre(16, a, x)
            for n in range(17):
                # relative to the size of the terms C(n+a, n-k) x^k / k!, because
                # L_n^(a) itself passes through zero
                size = sum(math.comb(n + a, n - k) * x ** k / math.factorial(k)
                           for k in range(n + 1))
                error = np.abs(laguerre[n] - eval_genlaguerre(n, a, x)) / size
                assert np.max(error) < 1e-12, (n, a)

    def test_truncation_converges_with_padding(self):
        # doubling the padding must not move the value at the grid edge
        state = FockState.fock(1, cutoff=2)
        w1 = wigner_oracle(state, 3.0)
        w2 = wigner_oracle(padded(state, 30), 3.0)
        assert w1 == pytest.approx(w2, abs=1e-8)


class TestLossChannel:
    def test_eta_one_is_identity(self):
        state = coherent_state(0.7)
        out = loss_channel(state, 1.0)
        assert np.allclose(out.rho, state.rho, atol=1e-14)

    def test_eta_zero_gives_vacuum(self):
        out = loss_channel(FockState.fock(2), 0.0)
        assert out.rho[0, 0].real == pytest.approx(1.0, abs=1e-14)

    def test_single_photon_binomial(self):
        out = loss_channel(FockState.fock(1), 8.0 / 9.0)
        assert out.rho[1, 1].real == pytest.approx(8.0 / 9.0, abs=1e-14)
        assert out.rho[0, 0].real == pytest.approx(1.0 / 9.0, abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_moment_scaling_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        state = random_density_matrix(rng, 6)
        eta = rng.uniform(0.2, 0.95)
        m0 = analytic_moments(state, 4)
        m1 = analytic_moments(loss_channel(state, eta), 4)
        for n, mm in moment_indices(4):
            expected = eta ** ((n + mm) / 2.0) * m0[n, mm]
            assert m1[n, mm] == pytest.approx(expected, abs=1e-12)

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            loss_channel(FockState.vacuum(), 1.5)


class TestAntinormalMoments:
    def test_vacuum_matches_commutator(self):
        m = antinormal_moments(FockState.vacuum(), 2)
        assert m[1, 1] == pytest.approx(1.0)

    def test_relation_to_normal_moments_single_photon(self):
        m = antinormal_moments(FockState.fock(1), 2)
        assert m[1, 1] == pytest.approx(2.0)  # <a a^dag> = <a^dag a> + 1
