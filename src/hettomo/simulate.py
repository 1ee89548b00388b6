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

from .fock import FockState, NoiseModel, husimi_q, loss_channel


@dataclass(frozen=True)
class AmplifierChain:
    """Phase-insensitive amplifier: effective power gain plus thermal noise."""

    gain: float
    noise: NoiseModel

    def __post_init__(self):
        if not (math.isfinite(self.gain) and self.gain > 0):
            raise ValueError("gain must be > 0")
        object.__setattr__(self, "gain", float(self.gain))


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


_TRACE_ROW_BLOCK = 256   # rows that take alpha f in one in-place step (1.6 MB at 400 bins)


def _complex_normal(rng: np.random.Generator, n: int, var_per_quad: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    # interleaved (re, im) view keeps this a single draw + single scale pass;
    # `out`, 2n contiguous float64, takes the same draw in place
    arr = rng.standard_normal(2 * n) if out is None else rng.standard_normal(out=out)
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
    j = rng.choice(len(weights), n, p=weights / weights.sum())
    r2 = z2 = z.real ** 2 + z.imag ** 2
    for k, extra in enumerate(rng.standard_exponential((len(weights) - 1, n)), start=1):
        r2 = r2 + np.where(j >= k, extra, 0.0)
    poly = sum(w * r2 ** k / math.factorial(k) for k, w in enumerate(weights))
    return z * np.sqrt(r2 / z2), np.exp(-r2) * poly / np.pi


def _sample_q_rejection(target: FockState, weights: np.ndarray, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    parts, filled, accept = [], 0, 1.0 / weights.sum()
    while filled < n:
        need = n - filled   # candidates for the expected count plus four binomial sigmas
        draw = math.ceil((need + 4.0 * math.sqrt(need * (1.0 - accept))) / accept)
        cand, envelope = _envelope_candidates(rng, draw, weights)
        parts.append(cand[rng.random(draw) * envelope < husimi_q(target, cand)])
        filled += parts[-1].size
    # candidates stay in draw order, so the first n accepted are i.i.d.
    return np.concatenate(parts)[:n]


def sample_q(state: FockState, n: int, seed, stream: int = 0) -> np.ndarray:
    """Draw n i.i.d. samples from the state's Husimi Q distribution.

    Vacuum/coherent, Fock and thermal states use exact samplers; everything
    else goes through rejection sampling under a proved Fock-mixture envelope.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = stream_rng(seed, stream)
    kind = state.profile[0] if state.profile else None
    if kind == "fock":
        k = state.profile[1]
        if k == 0:
            return _complex_normal(rng, n, 0.5)
        r = np.sqrt(rng.gamma(shape=k + 1, scale=1.0, size=n))
        return r * np.exp(2j * np.pi * rng.random(n))
    if kind == "coherent":
        return state.profile[1] + _complex_normal(rng, n, 0.5)
    if kind == "thermal":
        return _complex_normal(rng, n, (state.profile[1] + 1.0) / 2.0)
    return _sample_q_rejection(*_proposal(state, 1.0), n, rng)


def sample_detector(state: FockState, chain: AmplifierChain, n: int,
                    seed, stream: int = 0) -> np.ndarray:
    """n complex detector outcomes S = sqrt(G) (alpha + nu), alpha ~ Q, nu ~ amplifier noise;
    a state without an exact sampler is drawn in one pass (see the module docstring)."""
    if n < 1:
        raise ValueError("need n >= 1")
    nbar = chain.noise.nbar
    if state.profile is None:
        beta = _sample_q_rejection(*_proposal(state, 1.0 / (1.0 + nbar)), n,
                                   stream_rng(seed, stream))
        return math.sqrt(chain.gain * (1.0 + nbar)) * beta
    alpha = sample_q(state, n, seed, stream=stream)
    nu = _complex_normal(stream_rng(seed, stream, 1), n, nbar / 2.0) if nbar > 0 else 0.0
    return math.sqrt(chain.gain) * (alpha + nu)


def simulate_time_trace(state: FockState, env: TemporalEnvelope,
                        chain: AmplifierChain, n: int, seed,
                        stream: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """Time-binned records r_j(t_i) = sqrt(G) (alpha_j f_i + xi_ji).

    xi is white complex Gaussian with per-bin total variance nbar_h/dt so
    that matched filtering reproduces sample_detector statistics exactly.
    Valid for the matched filter only; model temporal-mode mismatch with
    fock.loss_channel(eta=overlap**2) instead. `out`, a C-contiguous complex
    (n, n_bins) array, receives the same records in place and is returned.
    """
    alpha = sample_q(state, n, seed, stream=stream)
    if out is None:
        records = np.empty((n, env.n_bins), dtype=complex)
    elif out.shape == (n, env.n_bins) and out.dtype == complex and out.flags.c_contiguous:
        records = out
    else:
        raise ValueError(f"out must be a C-contiguous complex ({n}, {env.n_bins}) array")
    if chain.noise.nbar == 0:
        np.multiply(alpha[:, None], env.f, out=records)
    else:
        _complex_normal(stream_rng(seed, stream, 1), n * env.n_bins,
                        chain.noise.nbar / (2.0 * env.dt), out=records.view(float).reshape(-1))
        for i in range(0, n, _TRACE_ROW_BLOCK):
            records[i:i + _TRACE_ROW_BLOCK] += alpha[i:i + _TRACE_ROW_BLOCK, None] * env.f
    records *= math.sqrt(chain.gain)
    return records


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
