"""Synthetic heterodyne detector outcomes for an amplified single mode.

The detector record is S = sqrt(G) (alpha + nu) where alpha is drawn from
the signal mode's Husimi Q function and nu is the complex Gaussian noise
added by the amplifier chain (total variance nbar_h, i.e. nbar_h/2 per
quadrature).  For vacuum input the per-quadrature variance of S is
G (1 + nbar_h) / 2.

The noise is a beam splitter with a thermal mode: alpha + nu has the law of
sqrt(1 + nbar_h) beta, beta ~ Q of loss_channel(rho, 1 / (1 + nbar_h)) (Leonhardt,
Measuring the Quantum State of Light, 1997).  States without an exact Q sampler
are drawn so, in one rejection pass; exact samplers draw nu on stream (seed, stream, 1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import FockState, husimi_q, loss_channel

# exact in the SI since 2019
PLANCK = 6.62607015e-34     # J s
BOLTZMANN = 1.380649e-23    # J / K


@dataclass(frozen=True)
class AmplifierChain:
    """Phase-insensitive amplifier: effective power gain plus thermal noise of
    mean occupation nbar in the noise mode h."""

    gain: float
    nbar: float

    def __post_init__(self):
        if not (math.isfinite(self.gain) and self.gain > 0):
            raise ValueError("gain must be > 0")
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise ValueError("mean thermal photon number must be >= 0")
        object.__setattr__(self, "gain", float(self.gain))
        object.__setattr__(self, "nbar", float(self.nbar))


def thermal_nbar(temperature_k: float, frequency_hz: float,
                 rayleigh_jeans: bool = False) -> float:
    """Bose-Einstein occupation at (T, nu); Rayleigh-Jeans kT/(h nu) on request."""
    if temperature_k < 0 or frequency_hz <= 0:
        raise ValueError("need T >= 0 and nu > 0")
    kt = BOLTZMANN * temperature_k
    x = PLANCK * frequency_hz / kt if kt else math.inf   # T = 0, or kT below float range
    if x == 0 or 1.0 / x == math.inf:   # 1 / expm1(x) <= 1 / x
        raise ValueError(f"h nu / kT = {x:.3g} underflows: the occupation is not finite")
    try:
        return 1.0 / x if rayleigh_jeans else 1.0 / math.expm1(x)
    except OverflowError:   # e^x past float range, where the occupation exp(-x) is 0.0
        return math.exp(-x)


@dataclass(frozen=True)
class TemporalEnvelope:
    """Discretized temporal mode f(t) = sqrt(kappa) exp(-kappa t / 2) for t >= 0."""

    kappa: float          # decay rate, 1/ns
    dt: float = 1.0       # time step, ns
    n_bins: int = 400
    f: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kappa <= 0 or self.dt <= 0 or self.n_bins < 1:
            raise ValueError("need kappa > 0, dt > 0, n_bins >= 1")
        if self.kappa * self.dt > 0.1:
            raise ValueError("time step too coarse: require kappa*dt <= 0.1")
        if self.n_bins * self.dt < 6.0 / self.kappa:
            raise ValueError("window too short: require n_bins*dt >= 6/kappa")
        t = (np.arange(self.n_bins) + 0.5) * self.dt
        f = np.sqrt(self.kappa) * np.exp(-0.5 * self.kappa * t)
        f = f / math.sqrt(float(np.sum(np.abs(f) ** 2) * self.dt))
        f.setflags(write=False)
        object.__setattr__(self, "f", f.astype(complex))

    def same_grid(self, other: "TemporalEnvelope") -> bool:
        return self.dt == other.dt and self.n_bins == other.n_bins


def stream_rng(seed, *path: int) -> np.random.Generator:
    """Deterministic RNG stream derived from (seed, *path) via SeedSequence;
    `seed` is an integer or a sequence of integers."""
    entropy = list(seed) if isinstance(seed, (tuple, list)) else [seed]
    return np.random.default_rng(np.random.SeedSequence(entropy + list(path)))


_TRACE_ROW_BLOCK = 64   # records rows made at once (0.4 MB at 400 bins)


def _complex_normal(rng: np.random.Generator, n: int, var_per_quad: float) -> np.ndarray:
    # interleaved (re, im) view keeps this a single draw + single scale pass
    arr = rng.standard_normal(2 * n)
    arr *= math.sqrt(var_per_quad)
    return arr.view(complex)


@functools.lru_cache
def _proposal(state: FockState, eta: float) -> tuple[FockState, np.ndarray]:
    """A rejection-sampled run's proposal, built once: rho on its Fock support (after
    loss_channel(rho, eta) if eta < 1) and weights w_j of the smaller proved envelope
    sum_j w_j |<j|alpha>|^2 / pi >= Q(alpha), from rho <= lambda_max 1 or D = diag(sum_k
    |rho_jk|) (D - rho: Hermitian, diagonally dominant); acceptance is 1 / sum_j w_j."""
    target = state.trimmed()
    if eta < 1.0:
        target = loss_channel(target, eta).trimmed()
    lam = np.full(target.dim, np.linalg.eigvalsh(target.rho)[-1])
    return target, min(lam, np.abs(target.rho).sum(axis=1), key=np.sum)


def _envelope_candidates(rng: np.random.Generator, n: int,
                         weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws from the w-weighted mixture of the Fock Q functions j = 0..K
    (a vacuum draw stretched radially to |alpha|^2 ~ Gamma(j+1)), and at each the
    envelope sum_j w_j |<j|alpha>|^2 / pi, sum_j w_j times that density."""
    z = _complex_normal(rng, n, 0.5)
    cdf, u = np.cumsum(weights / weights.sum()), rng.random(n)   # j as rng.choice draws it
    r2 = z2 = z.real ** 2
    z2 += z.imag ** 2
    for k, extra in enumerate(rng.standard_exponential((len(weights) - 1, n)), start=1):
        extra *= u >= cdf[k - 1] / cdf[-1]   # j >= k, by choice's cdf; + 0.0 elsewhere
        r2 = np.add(extra, r2, out=extra)
    poly = np.full(n, weights[0])   # sum_k w_k r2^k / k! term by term; r2^1 / 1! is r2
    for k in range(1, len(weights)):
        poly += (r2 ** k * weights[k] / math.factorial(k) if k > 1
                 else np.multiply(r2, weights[1], out=u))
    poly *= np.exp(np.negative(r2, out=u), out=u)
    z *= np.sqrt(np.divide(r2, z2, out=z2), out=z2)
    return z, np.divide(poly, np.pi, out=poly)


def _sample_q_rejection(target: FockState, weights: np.ndarray, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    parts, filled, accept = [], 0, 1.0 / weights.sum()
    while filled < n:
        need = n - filled   # candidates for the expected count plus four binomial sigmas
        draw = math.ceil((need + 4.0 * math.sqrt(need * (1.0 - accept))) / accept)
        cand, envelope = _envelope_candidates(rng, draw, weights)
        envelope *= rng.random(draw)
        parts.append(np.compress(envelope < husimi_q(target, cand), cand))
        filled += parts[-1].size
    # candidates stay in draw order, so the first n accepted are i.i.d.
    return (parts[0] if len(parts) == 1 else np.concatenate(parts))[:n]


def sample_q(state: FockState, n: int, seed, stream: int = 0) -> np.ndarray:
    """Draw n i.i.d. samples from the state's Husimi Q distribution: `sample_detector`
    through a noiseless unit-gain chain, S = alpha."""
    return sample_detector(state, AmplifierChain(1.0, 0.0), n, seed, stream)


def detector_blocks(state: FockState, chain: AmplifierChain, cuts: list[slice],
                    seed, stream: int = 0):
    """One batch of detector outcomes S = sqrt(G) (alpha + nu), alpha ~ Q, nu ~
    amplifier noise, yielded in the consecutive blocks `cuts` (slices from 0 to the
    batch size); the blocks joined are the one-block batch bit for bit. Exact
    samplers draw alpha block by block. A Fock |k >= 1> stream holds all n gammas,
    then the uniforms: the stream skips the gammas block by block, and a second
    generator on the same stream draws them again next to the uniforms. A state
    without an exact sampler (one pass, see the module docstring) is drawn whole
    and cut."""
    n, nbar, rng = cuts[-1].stop, chain.nbar, stream_rng(seed, stream)
    if n < 1:
        raise ValueError("need n >= 1")
    if state.profile is None:
        beta = _sample_q_rejection(*_proposal(state, 1.0 / (1.0 + nbar)), n, rng)
        scale = math.sqrt(chain.gain * (1.0 + nbar))
        yield from (scale * beta[cut] for cut in cuts)
        return
    kind, p = state.profile   # Fock k, coherent alpha or thermal nbar
    if kind == "fock" and p > 0:
        gammas = stream_rng(seed, stream)
        for cut in cuts:   # chunks of one draw equal the whole draw: rng ends at the uniforms
            rng.gamma(shape=p + 1, scale=1.0, size=cut.stop - cut.start)
    noise = stream_rng(seed, stream, 1)
    for cut in cuts:   # each leaf is built in place in one complex array, alpha
        size = cut.stop - cut.start
        if kind == "fock" and p > 0:
            r = gammas.gamma(shape=p + 1, scale=1.0, size=size)
            alpha = 2j * np.pi * rng.random(size)   # the phase, then the leaf
            np.multiply(np.sqrt(r, out=r), np.exp(alpha, out=alpha), out=alpha)
        else:   # vacuum (Fock |0>), coherent or thermal
            z = _complex_normal(rng, size, (p + 1.0) / 2.0 if kind == "thermal" else 0.5)
            alpha = np.add(p, z, out=z) if kind == "coherent" else z
        alpha += _complex_normal(noise, size, nbar / 2.0) if nbar > 0 else 0.0
        yield np.multiply(math.sqrt(chain.gain), alpha, out=alpha)


def sample_detector(state: FockState, chain: AmplifierChain, n: int,
                    seed, stream: int = 0) -> np.ndarray:
    """n complex detector outcomes: `detector_blocks` in one block."""
    block, = detector_blocks(state, chain, [slice(0, n)], seed, stream)
    return block


def simulate_time_trace(state: FockState, env: TemporalEnvelope,
                        chain: AmplifierChain, n: int, seed, stream: int = 0):
    """Time-binned records r_j(t_i) = sqrt(G) (alpha_j f_i + xi_ji), yielded in
    row order in blocks of at most `_TRACE_ROW_BLOCK` rows.

    xi is white complex Gaussian with per-bin total variance nbar_h/dt so
    that matched filtering reproduces sample_detector statistics exactly.
    Each block draws its share of the noise stream, so the blocks joined are
    the records of one whole draw. Valid for the matched filter only; model
    temporal-mode mismatch with fock.loss_channel(eta=overlap**2) instead.
    """
    alpha = sample_q(state, n, seed, stream=stream)
    noise = stream_rng(seed, stream, 1)
    for i in range(0, n, _TRACE_ROW_BLOCK):
        block = alpha[i:i + _TRACE_ROW_BLOCK, None] * env.f
        if chain.nbar > 0:
            block += _complex_normal(noise, block.size, chain.nbar /
                                     (2.0 * env.dt)).reshape(block.shape)
        block *= math.sqrt(chain.gain)
        yield block


def matched_filter(records: np.ndarray, env: TemporalEnvelope) -> np.ndarray:
    """Project time-binned records onto the envelope's temporal mode:
    S_j = sum_i f_i* r_ji dt, in a new array."""
    records = np.asarray(records, dtype=complex)
    if records.ndim != 2 or records.shape[1] != env.n_bins:
        raise ValueError("records do not match the envelope time grid")
    # einsum, not `records @ f`: BLAS would leave OpenBLAS workers spinning between batches
    return np.einsum("ij,j->i", records, env.f.conj()) * env.dt


def overlap(f: TemporalEnvelope, g: TemporalEnvelope) -> float:
    """Mode overlap c = sum_i f_i g_i* dt; for exponential envelopes
    c = 2 sqrt(kappa kappa') / (kappa + kappa')."""
    if not f.same_grid(g):
        raise ValueError("envelopes live on different time grids")
    return float(np.sum(f.f * g.f.conj()).real * f.dt)
