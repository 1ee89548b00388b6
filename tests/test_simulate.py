import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hettomo import simulate
from hettomo.acquire import leaf_slices
from hettomo.fock import (FockState, analytic_moments, coherent_state,
                          husimi_q, loss_channel, prepare_superposition, thermal_state)
from hettomo.moments import moment_indices
from hettomo.simulate import (_TRACE_ROW_BLOCK, AmplifierChain, TemporalEnvelope,
                              _complex_normal, _envelope_candidates, _proposal,
                              detector_blocks, matched_filter, overlap, sample_detector,
                              sample_q, simulate_time_trace, stream_rng, thermal_nbar)
from hettomo.tomo import forward_moments

from conftest import antinormal_moments, noise_moments, random_density_matrix

CHAIN = AmplifierChain(gain=1.0e4, nbar=64.0)
QUIET = AmplifierChain(gain=1.0, nbar=0.0)


class TestAmplifierChain:
    def test_bose_einstein_21k(self):
        assert thermal_nbar(21.0, 6.77e9) == pytest.approx(64.1, abs=0.5)

    def test_rayleigh_jeans_close_at_high_t(self):
        rj = thermal_nbar(21.0, 6.77e9, rayleigh_jeans=True)
        assert rj == pytest.approx(thermal_nbar(21.0, 6.77e9), rel=0.01)

    def test_exact_si_constants_keep_occupations_bit_for_bit(self):
        # h and k_B are exact in the SI; these are the values scipy.constants gave
        assert thermal_nbar(21.0, 6.77e9) == 64.13481983080844
        assert thermal_nbar(21.0, 6.77e9, rayleigh_jeans=True) == 64.63353051549174

    @pytest.mark.parametrize("rayleigh_jeans", [False, True])
    def test_occupation_past_float_range(self, rayleigh_jeans):
        # h nu / kT = 28 795 overflows e^x: the Bose-Einstein occupation is 0.0
        expected = pytest.approx(1.0 / 28795.0, rel=1e-4) if rayleigh_jeans else 0.0
        assert thermal_nbar(1e-5, 6e9, rayleigh_jeans) == expected
        assert thermal_nbar(1e-310, 6e9, rayleigh_jeans) == 0.0     # kT underflows to 0
        with pytest.raises(ValueError, match="occupation is not finite"):
            thermal_nbar(1e300, 1e-300, rayleigh_jeans)     # h nu / kT underflows to 0

    @pytest.mark.parametrize("nbar", [-0.1, math.nan, math.inf])
    def test_rejects_nbar_that_is_negative_or_not_finite(self, nbar):
        with pytest.raises(ValueError, match="mean thermal photon number must be >= 0"):
            AmplifierChain(gain=1.0, nbar=nbar)

class TestStreamRng:
    def test_deterministic(self):
        a = stream_rng(42, 0, 3).standard_normal(5)
        b = stream_rng(42, 0, 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_distinct_paths_decorrelated(self):
        a = stream_rng(42, 0, 0).standard_normal(5)
        b = stream_rng(42, 0, 1).standard_normal(5)
        c = stream_rng(42, 1, 0).standard_normal(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_list_seed_matches_scalar_path(self):
        a = stream_rng([42, 7], 3).standard_normal(5)
        b = stream_rng(42, 7, 3).standard_normal(5)
        assert np.array_equal(a, b)


class TestSampleQ:
    def test_vacuum_statistics(self):
        s = sample_q(FockState.vacuum(), 200_000, seed=1)
        assert np.var(s.real) == pytest.approx(0.5, rel=0.02)
        assert np.var(s.imag) == pytest.approx(0.5, rel=0.02)
        assert abs(np.mean(s)) < 0.01

    def test_coherent_mean(self):
        s = sample_q(coherent_state(0.8 + 0.3j), 200_000, seed=2)
        assert np.mean(s) == pytest.approx(0.8 + 0.3j, abs=0.01)

    def test_fock_one_radial_moments(self):
        # Q of |1> gives E|alpha|^2 = 2, E|alpha|^4 = 6
        s = sample_q(FockState.fock(1), 400_000, seed=3)
        r2 = np.abs(s) ** 2
        assert np.mean(r2) == pytest.approx(2.0, rel=0.01)
        assert np.mean(r2 ** 2) == pytest.approx(6.0, rel=0.02)
        assert abs(np.mean(s)) < 0.01

    def test_thermal_variance(self):
        s = sample_q(thermal_state(3.0), 200_000, seed=4)
        assert np.var(s.real) == pytest.approx(2.0, rel=0.03)

    def test_rejection_superposition_first_moments(self):
        state = prepare_superposition(-1.0 / math.sqrt(2.0))
        s = sample_q(state, 400_000, seed=5)
        # Q-function moments: E[alpha] = <a> and E[|alpha|^2] = <a^dag a> + 1
        assert np.mean(s) == pytest.approx(-0.5, abs=0.01)
        assert np.mean(np.abs(s) ** 2) == pytest.approx(1.5, rel=0.01)

    def test_rejection_reproducible(self):
        state = prepare_superposition(0.6)
        a = sample_q(state, 1000, seed=6)
        b = sample_q(state, 1000, seed=6)
        assert np.array_equal(a, b)

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            sample_q(FockState.vacuum(), 0, seed=0)


# off-diagonal phases that no vector of phases aligns, so sum |rho_jk| > lambda (K+1)
_FRUSTRATED = np.array([[0, 1, -1], [1, 0, 1], [-1, 1, 0]]) / 8.0 + np.eye(3) / 3.0

REJECTION_STATES = {
    "pure": lambda: prepare_superposition(1.0 / math.sqrt(2.0)),
    "vacuum-admixed": lambda: prepare_superposition(0.6j, 0.2),
    "lossy": lambda: loss_channel(prepare_superposition(-0.8), 0.7),
    "random-K3": lambda: random_density_matrix(np.random.default_rng(31), 4),
    "frustrated": lambda: FockState(_FRUSTRATED),
}


def _smaller_bound(rho):
    """min(Tr D, lambda (K+1)) with D = diag(sum_k |rho_jk|), from rho directly."""
    return min(np.abs(rho).sum(), np.linalg.eigvalsh(rho)[-1] * len(rho))


def _assert_moments_match(samples, truth, order):
    """Raw moments E[conj(S)^n S^m] within 5 standard errors of `truth`."""
    for n, m in moment_indices(order):
        x = np.conj(samples) ** n * samples ** m
        err = np.std(x.real) / math.sqrt(x.size), np.std(x.imag) / math.sqrt(x.size)
        d = np.mean(x) - truth[n, m]
        assert abs(d.real) <= 5.0 * err[0] + 1e-12, (n, m)
        assert abs(d.imag) <= 5.0 * err[1] + 1e-12, (n, m)


def test_states_exercise_both_envelopes():
    target, weights = _proposal(REJECTION_STATES["frustrated"](), 1.0)
    assert np.array_equal(weights, np.full(3, np.linalg.eigvalsh(target.rho)[-1]))
    target, weights = _proposal(REJECTION_STATES["vacuum-admixed"](), 1.0)
    assert np.array_equal(weights, np.abs(target.rho).sum(axis=1))


@pytest.mark.parametrize("name", sorted(REJECTION_STATES))
class TestRejectionEnvelope:
    def test_envelope_bounds_q_on_every_candidate(self, name):
        trimmed, weights = _proposal(REJECTION_STATES[name](), 1.0)
        cand, envelope = _envelope_candidates(stream_rng(40), 200_000, weights)
        assert np.all(husimi_q(trimmed, cand) / envelope <= 1.0 + 1e-12)

    def test_acceptance_is_one_over_smaller_envelope_weight(self, name):
        trimmed, weights = _proposal(REJECTION_STATES[name](), 1.0)
        rng = stream_rng(41)
        n = 400_000
        cand, envelope = _envelope_candidates(rng, n, weights)
        accepted = rng.random(n) * envelope < husimi_q(trimmed, cand)
        p = 1.0 / _smaller_bound(trimmed.rho)
        assert abs(accepted.mean() - p) < 5.0 * math.sqrt(p * (1.0 - p) / n)

    def test_moments_to_order_four(self, name):
        state = REJECTION_STATES[name]()
        s = sample_q(state, 300_000, seed=42)
        # E[alpha^n conj(alpha)^m] = <a^n (a^dag)^m>
        _assert_moments_match(np.conj(s), antinormal_moments(state, 4), 4)


@pytest.mark.parametrize("nbar", [0.0, 2.0, 64.0])
@pytest.mark.parametrize("name", sorted(REJECTION_STATES))
def test_detector_moments_match_forward_model(name, nbar):
    """One-pass loss-channel draw has the law of sqrt(G) (alpha + nu)."""
    state = REJECTION_STATES[name]()
    chain = AmplifierChain(gain=9.0e3, nbar=nbar)
    s = sample_detector(state, chain, 300_000, seed=[43, int(nbar)], stream=2)
    truth = forward_moments(analytic_moments(state, 4), noise_moments(nbar, 4), chain.gain)
    _assert_moments_match(s, truth, 4)


# SHA-256 of sample_detector(state, chain, 4099, seed=[17, 2], stream=5)
# before rejection-sampled states moved to the loss-channel draw; the exact
# samplers keep their streams and bytes
EXACT_PATH_SHA256 = {
    "vacuum": "b619ceebc691d2ccf3233f48a992c414f3d2b13e791958a6704d9bb0f73b98c8",
    "fock1": "29be14f55c31384a55c04998a3edb6be175239dd80597b7939c9f6313921dd1b",
    "coherent": "430d505aa1cec51bde66ea1d145de1e5100d17f4acd874d34dcda5c612c5474b",
    "thermal": "cd876b2d0f009f5fedf6bdfdee1dbadbaa71d71fad1d876161ba9f5c1164f4b2",
    "vacuum-noiseless": "9614f2b39e8ef094a8d025df8bede07dfa8750ed3137e80d7ac5058b82bad01c",
}


@pytest.mark.parametrize("name", sorted(EXACT_PATH_SHA256))
def test_exact_samplers_keep_their_bytes(name):
    state = {"vacuum": FockState.vacuum(), "fock1": FockState.fock(1),
             "coherent": coherent_state(0.8 - 0.3j), "thermal": thermal_state(0.5),
             "vacuum-noiseless": FockState.vacuum()}[name]
    nbar = 0.0 if name.endswith("noiseless") else 2.0
    chain = AmplifierChain(gain=1.0e4, nbar=nbar)
    s = sample_detector(state, chain, 4099, seed=[17, 2], stream=5)
    assert hashlib.sha256(s.tobytes()).hexdigest() == EXACT_PATH_SHA256[name]


@pytest.mark.parametrize("k", [1, 2])
def test_fock_batch_holds_no_gammas_whole(k):
    # one 400 000-shot batch, drawn leaf by leaf as fock-order8 draws it: its
    # gammas held whole would take 3.2 MB beside the leaves
    chain = AmplifierChain(gain=1.0e4, nbar=2.0)
    tracemalloc.start()
    try:
        for _ in detector_blocks(FockState.fock(k), chain, leaf_slices(400_000), [7, 0]):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


# the same call through the rejection sampler for prepare_superposition(0.6j, 0.2),
# taken before the proposal was built once per (state, eta); "q" is sample_q's
# draw, the one simulate_time_trace makes
REJECTION_PATH_SHA256 = {
    "nbar2": "5ea3d23bd8eae4141ba00928d6e763efc95742a618278025fb2b9ad831114e60",
    "nbar0": "cd8bbf4540eff8e47202556f10afd7d6b767c6da9e52b1bef095f5a41a56b3bc",
    "q": "dada457b465d587ea182fa3c43239d2cdfd33776c768c60dc5385953f41b0371",
}


@pytest.mark.parametrize("name", sorted(REJECTION_PATH_SHA256))
def test_rejection_sampler_keeps_its_bytes(name):
    state = prepare_superposition(0.6j, 0.2)
    if name == "q":
        s = sample_q(state, 4099, [17, 2], stream=5)
    else:
        chain = AmplifierChain(gain=1.0e4, nbar=float(name[-1]))
        s = sample_detector(state, chain, 4099, seed=[17, 2], stream=5)
    assert hashlib.sha256(s.tobytes()).hexdigest() == REJECTION_PATH_SHA256[name]


def _mixed_k3_with_empty_level() -> FockState:
    # levels 0, 2 and 3 with coherences 0-3 and 2-3; level 1 empty, so w_1 = 0
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0], rho[2, 2], rho[3, 3] = 0.5, 0.3, 0.2
    rho[0, 3] = rho[3, 0] = 0.1
    rho[2, 3], rho[3, 2] = 0.05j, -0.05j
    return FockState(rho)


# SHA-256 of rejection draws that REJECTION_PATH_SHA256 does not reach, taken while
# the mixture index came from rng.choice and husimi_q allocated every term: a K = 2
# target behind noise, a K = 3 target with a zero envelope weight (sample_q), and an
# n = 1 draw whose first pass of 7 candidates accepts none (stream 363)
REJECTION_TARGET_SHA256 = {
    "K2-lossy": "c82593cc4ba661a87c881d727c31b3d27b095e57174647ff65a18bb234507ce9",
    "K3-empty-level": "76c1b4bc73ef26b3b71de43864adff1d89905880977bf5795b0965a4cf63937d",
    "topped-up": "4d160bfe69d23fbf39c31fee861442c1d83ce212fc9793ab90caa0a958575531",
}


@pytest.mark.parametrize("name", sorted(REJECTION_TARGET_SHA256))
def test_rejection_targets_keep_their_bytes(name, monkeypatch):
    passes = []

    def counted(rng, n, weights):
        passes.append(n)
        return _envelope_candidates(rng, n, weights)

    monkeypatch.setattr(simulate, "_envelope_candidates", counted)
    if name == "K2-lossy":
        state = loss_channel(FockState.fock(2), 0.5)
        s = sample_detector(state, AmplifierChain(gain=1.0e4, nbar=2.0), 4099,
                            seed=[17, 2], stream=5)
        assert len(_proposal(state, 1.0 / 3.0)[1]) == 3
    elif name == "K3-empty-level":
        state = _mixed_k3_with_empty_level()
        s = sample_q(state, 4099, [17, 2], stream=5)
        weights = _proposal(state, 1.0)[1]
        assert len(weights) == 4 and weights[1] == 0.0
    else:
        s = sample_q(prepare_superposition(0.6j, 0.2), 1, [17, 2], stream=363)
        assert passes == [7, 7]
    assert hashlib.sha256(s.tobytes()).hexdigest() == REJECTION_TARGET_SHA256[name]


def _envelope_candidates_by_choice(rng, n, weights):
    """The form _envelope_candidates replaced: the mixture index from rng.choice."""
    z = _complex_normal(rng, n, 0.5)
    j = rng.choice(len(weights), n, p=weights / weights.sum())
    r2 = z2 = z.real ** 2 + z.imag ** 2
    for k, extra in enumerate(rng.standard_exponential((len(weights) - 1, n)), start=1):
        r2 = r2 + np.where(j >= k, extra, 0.0)
    poly = sum(w * r2 ** k / math.factorial(k) for k, w in enumerate(weights))
    return z * np.sqrt(r2 / z2), np.exp(-r2) * poly / np.pi


@pytest.mark.parametrize("weights", [[1.0], [1.12, 0.46], [0.69, 0.28, 0.03],
                                     [0.6, 0.0, 0.35, 0.35], [0.4, 0.6, 0.0]])
@pytest.mark.parametrize("n", [1, 7, 20_000])
def test_mixture_index_matches_rng_choice(weights, n):
    # u >= cdf[k-1] / cdf[-1] must pick the j that rng.choice picks from the same uniforms
    # (r2 gains the k-th exponential iff j >= k), and leave the stream where choice does
    weights = np.array(weights)
    rng, twin = stream_rng(60, n), stream_rng(60, n)
    cand, envelope = _envelope_candidates(rng, n, weights)
    want_cand, want_envelope = _envelope_candidates_by_choice(twin, n, weights)
    assert cand.tobytes() == want_cand.tobytes()
    assert envelope.tobytes() == want_envelope.tobytes()
    assert rng.random() == twin.random()


# SHA-256 of sample_q(state, n, seed=[17, 2], stream=5) for the exact samplers,
# taken while sample_q had its own Q-sampling generator
SAMPLE_Q_SHA256 = {
    ("vacuum", 1): "108c8318dc7e23ce004bb91d94a5de995d0904cf7635b0a40910a44f9f06d9d1",
    ("vacuum", 4099): "79ee5121327047b4c41c83232d2be1c51bcbe8f3d2d0bd9669d73ece652914a6",
    ("vacuum", 40000): "2929d9ecedbbe5bd7be72635b793986a8ccf3e59532e04fa06545d45ecce0e64",
    ("fock1", 1): "e530fb4b86b8e199003e52bfc8c12d62c0dead6dd446e62b40f030b2b2289cd0",
    ("fock1", 4099): "b58d9d273105e99313ba01b4a3aa2339f32b0b3b8732c155bd8154dafaaab9e0",
    ("fock1", 40000): "5344694dce3fe08a7c2cdcc8d17ba74862fe690aae53dbd81c6ddf16e8a5164e",
    ("fock2", 1): "5bc2a18eff2b97643b51064e2fa6e235058f9a286d39d507e18dfa2772bf2f1f",
    ("fock2", 4099): "512d1ad8b97fa116f5ad1c6235a5889cef26a0d1a5739381f50c4f30e558a019",
    ("fock2", 40000): "dcd4728d43b2af54b221fa681d7d205ea75c617ec15fedf4c0f294bed33c64dd",
    ("coherent", 1): "02e544c91ef6076321f4c057dec6cd83c71405128261af85c9ecd9682d21b9b8",
    ("coherent", 4099): "58dd4ba7d1cf22510fbd6cd1d16d528c3b195e99cdcd3e99816ea36d80ff3f51",
    ("coherent", 40000): "a499638b60007bd69b758de3ad1867884ec183ae3c44debcf5e3f3491fdaf59f",
    ("thermal", 1): "7b7c2b338e2f0dbb3e87545f29f88f92728f24c85e3cd314563dad1e2fbfbe4d",
    ("thermal", 4099): "29387de08ea118aeec7a4a08dd9bb9f46a4c390fe8b58fb2c78f9b2236fd1d4f",
    ("thermal", 40000): "4f320c5214bba997226a4621fc18b70b98a5f7064a50e5b586031b2595f654fe",
}


@pytest.mark.parametrize("name, n", sorted(SAMPLE_Q_SHA256))
def test_sample_q_keeps_its_bytes(name, n):
    state = {"vacuum": FockState.vacuum(), "fock1": FockState.fock(1),
             "fock2": FockState.fock(2), "coherent": coherent_state(0.8 - 0.3j),
             "thermal": thermal_state(0.5)}[name]
    s = sample_q(state, n, [17, 2], stream=5)
    assert hashlib.sha256(s.tobytes()).hexdigest() == SAMPLE_Q_SHA256[name, n]


@pytest.mark.parametrize("path", ["detector", "time-trace"])
def test_proposal_is_built_once_per_state_and_eta(path, monkeypatch):
    env = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
    chain = AmplifierChain(gain=1.0e4, nbar=2.0)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def set_up_cost(batches: int) -> Counter:
        state = prepare_superposition(0.6j, 0.2)    # fresh, so nothing is cached yet
        calls.clear()
        for b in range(batches):
            if path == "detector":
                sample_detector(state, chain, 16, seed=[50, 0], stream=b)
            else:
                list(simulate_time_trace(state, env, chain, 16, seed=[50, 0], stream=b))
        return Counter(calls)

    monkeypatch.setattr(simulate, "loss_channel", counted("loss_channel", simulate.loss_channel))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    one = set_up_cost(1)
    assert one["loss_channel"] == (path == "detector") and one["eigvalsh"] > 0
    assert set_up_cost(5) == one


def test_cached_proposal_follows_eta():
    state = prepare_superposition(0.6j, 0.2)
    for nbar in (2.0, 64.0, 0.0):
        chain = AmplifierChain(gain=1.0e4, nbar=nbar)
        reused = sample_detector(state, chain, 64, seed=[51, 0])
        fresh = sample_detector(prepare_superposition(0.6j, 0.2), chain, 64, seed=[51, 0])
        assert np.array_equal(reused, fresh), nbar


class TestSampleDetector:
    def test_vacuum_width(self):
        batch = sample_detector(FockState.vacuum(), CHAIN, 200_000, seed=7)
        expected = math.sqrt(CHAIN.gain * (1.0 + 64.0) / 2.0)
        assert np.std(batch.real) == pytest.approx(expected, rel=0.01)
        assert np.std(batch.imag) == pytest.approx(expected, rel=0.01)

    def test_mean_scales_with_root_gain(self):
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        batch = sample_detector(state, CHAIN, 400_000, seed=8)
        assert np.mean(batch) == pytest.approx(
            math.sqrt(CHAIN.gain) * 0.5, abs=0.5 * math.sqrt(CHAIN.gain) * 0.05)

    def test_noiseless_unit_gain_reduces_to_q_samples(self):
        a = sample_detector(FockState.fock(1), QUIET, 1000, seed=9)
        b = sample_q(FockState.fock(1), 1000, seed=9)
        assert np.allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("state", [FockState.vacuum(), prepare_superposition(0.6)],
                             ids=["exact", "rejection"])
    def test_rejects_zero_shots(self, state):
        with pytest.raises(ValueError, match="need n >= 1"):
            sample_detector(state, CHAIN, 0, seed=0)

    def test_signal_and_noise_streams_independent(self):
        # same seed, different stream: completely different outcomes
        a = sample_detector(FockState.vacuum(), CHAIN, 100, seed=10, stream=0)
        b = sample_detector(FockState.vacuum(), CHAIN, 100, seed=10, stream=1)
        assert not np.allclose(a, b)


class TestTemporalEnvelope:
    def test_unit_norm(self):
        env = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
        assert float(np.sum(np.abs(env.f) ** 2) * env.dt) == pytest.approx(1.0)

    def test_decay_shape(self):
        env = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
        ratio = (env.f[1:] / env.f[:-1]).real
        assert np.allclose(ratio, math.exp(-0.5 * 0.05), atol=1e-12)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            TemporalEnvelope(kappa=0.5, dt=1.0, n_bins=400)

    def test_rejects_short_window(self):
        with pytest.raises(ValueError):
            TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=50)


class TestTimeTrace:
    def test_shape(self):
        env = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
        rec = np.concatenate(list(simulate_time_trace(FockState.vacuum(), env, CHAIN, 10,
                                                      seed=11)))
        assert rec.shape == (10, 400)

    def test_matched_filter_recovers_detector_statistics(self):
        env = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
        state = prepare_superposition(1.0 / math.sqrt(2.0))
        rec = np.concatenate(list(simulate_time_trace(state, env, CHAIN, 50_000, seed=12)))
        batch = matched_filter(rec, env)
        g = math.sqrt(CHAIN.gain)
        assert np.mean(batch) == pytest.approx(0.5 * g, abs=0.05 * g)
        # <|S|^2> = G (<a^dag a> + 1 + nbar) = G (0.5 + 65)
        assert np.mean(np.abs(batch) ** 2) == pytest.approx(
            CHAIN.gain * 65.5, rel=0.02)

    def test_orthogonal_filter_sees_noise_only(self):
        env = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
        state = FockState.fock(1)
        rec = np.concatenate(list(simulate_time_trace(state, env, CHAIN, 50_000, seed=13)))
        # Gram-Schmidt a second exponential against the signal mode
        other = TemporalEnvelope(kappa=0.1, dt=1.0, n_bins=400)
        c = overlap(other, env)
        w = other.f - c * env.f
        w = w / math.sqrt(float(np.sum(np.abs(w) ** 2) * env.dt))
        s = np.sum(rec * w.conj(), axis=1) * env.dt
        # orthogonal mode carries no signal photon: <|S|^2> = G nbar_h
        assert np.mean(np.abs(s) ** 2) == pytest.approx(
            CHAIN.gain * 64.0, rel=0.02)

    @pytest.mark.parametrize("nbar", [2.0, 0.0])
    @pytest.mark.parametrize("state", [
        FockState.vacuum(), FockState.fock(1),
        prepare_superposition(1.0 / math.sqrt(2.0))], ids=["vacuum", "fock1", "super"])
    def test_records_bit_equal_to_signal_plus_noise(self, state, nbar):
        env = TemporalEnvelope(kappa=0.05, dt=0.5, n_bins=300)
        chain = AmplifierChain(gain=9.0e3, nbar=nbar)
        n = 2 * _TRACE_ROW_BLOCK + 3    # last row block is partial
        rec = np.concatenate(list(simulate_time_trace(state, env, chain, n, seed=[21, 0],
                                                      stream=4)))
        # sqrt(G) (alpha f + xi), rebuilt from the same streams
        expected = sample_q(state, n, [21, 0], stream=4)[:, None] * env.f
        if nbar > 0:
            expected = expected + _complex_normal(
                stream_rng([21, 0], 4, 1), n * env.n_bins,
                nbar / (2.0 * env.dt)).reshape(n, env.n_bins)
        expected = math.sqrt(chain.gain) * expected
        assert rec.dtype == expected.dtype and rec.tobytes() == expected.tobytes()

    def test_yields_blocks_of_at_most_the_row_block(self):
        env = TemporalEnvelope(kappa=0.05, dt=0.5, n_bins=300)
        blocks = simulate_time_trace(FockState.fock(1), env, CHAIN, 2 * _TRACE_ROW_BLOCK + 3,
                                     seed=[22, 0], stream=3)
        assert [block.shape for block in blocks] == [
            (_TRACE_ROW_BLOCK, 300), (_TRACE_ROW_BLOCK, 300), (3, 300)]

    def test_batch_records_and_filter_peak_at_cache_sized_blocks(self):
        # one 2000-shot batch at 400 bins, made and filtered block by block as a
        # time-domain pool worker does: each block and its noise draw stay within L2
        env = TemporalEnvelope(kappa=0.025, dt=1.0, n_bins=400)
        chain = AmplifierChain(gain=1.0e4, nbar=2.0)
        tracemalloc.start()
        try:
            shots = np.concatenate([matched_filter(block, env) for block in
                                    simulate_time_trace(FockState.fock(1), env, chain,
                                                        2000, [7, 0])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shots.shape == (2000,)
        assert peak < 2.5e6, peak

    def test_matched_filter_matches_plain_sum(self):
        env = TemporalEnvelope(kappa=0.05, dt=0.5, n_bins=800)
        rec = np.concatenate(list(simulate_time_trace(FockState.fock(1), env, CHAIN, 300,
                                                      seed=5)))
        got = matched_filter(rec, env)
        ref = np.sum(rec * env.f.conj(), axis=1) * env.dt
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_filter_rejects_wrong_grid(self):
        env = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
        with pytest.raises(ValueError):
            matched_filter(np.zeros((5, 200), dtype=complex), env)


class TestOverlap:
    def test_matched_is_unity(self):
        env = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
        assert overlap(env, env) == pytest.approx(1.0, abs=1e-12)

    def test_exponential_pair_closed_form(self):
        f = TemporalEnvelope(kappa=0.05, dt=0.25, n_bins=2400)
        g = TemporalEnvelope(kappa=0.10, dt=0.25, n_bins=2400)
        analytic = 2.0 * math.sqrt(0.05 * 0.10) / 0.15
        assert overlap(f, g) == pytest.approx(analytic, abs=2e-4)

    def test_rejects_mismatched_grids(self):
        f = TemporalEnvelope(kappa=0.05, dt=1.0, n_bins=400)
        g = TemporalEnvelope(kappa=0.05, dt=0.5, n_bins=800)
        with pytest.raises(ValueError):
            overlap(f, g)
