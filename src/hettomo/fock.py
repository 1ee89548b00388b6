"""Exact finite-dimensional quantum states and analytic phase-space oracles.

Unit convention (used by every module in this package): the complex field
amplitude is ``alpha = X + iP`` and the vacuum Husimi Q function is
``Q_vac(alpha) = exp(-|alpha|^2)/pi``, i.e. per-quadrature variance 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import MomentMatrix, hermitize, moment_indices

DEFAULT_CUTOFF = 8

_TRACE_TOL = 1e-12
_EIG_TOL = -1e-10
_THERMAL_TAIL_TOL = 1e-6


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator on a (dim)-dimensional truncated Fock space."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


@dataclass(frozen=True, eq=False)   # hashed by identity; rho is read-only
class FockState:
    """Quantum state of a single mode in a truncated Fock basis.

    Always stored as a density matrix ``rho[j, k] = <j|rho|k>`` with
    ``0 <= j, k <= N``.  ``profile`` is an optional provenance hint
    (e.g. ``("coherent", alpha)``) that lets samplers pick an exact
    special-case path; it never affects physics.
    """

    rho: np.ndarray
    profile: tuple | None = None

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError("rho must be a square matrix")
        if not np.all(np.isfinite(rho.view(float))):
            raise ValueError("rho contains non-finite entries")
        if abs(np.trace(rho).real - 1.0) > 1e-10 or abs(np.trace(rho).imag) > _TRACE_TOL:
            raise ValueError("rho must have unit trace")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
            raise ValueError("rho must be Hermitian")
        eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if np.min(eigs) < _EIG_TOL:
            raise ValueError("rho must be positive semidefinite")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @property
    def cutoff(self) -> int:
        """Photon-number cutoff N (basis runs |0> .. |N>)."""
        return self.rho.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def support(self) -> int:
        """Largest occupied Fock level (population or coherence above 1e-14)."""
        mag = np.maximum(np.max(np.abs(self.rho), axis=0),
                         np.max(np.abs(self.rho), axis=1))
        occupied = np.nonzero(mag > 1e-14)[0]
        return int(occupied[-1]) if occupied.size else 0

    def trimmed(self) -> "FockState":
        """Same state on levels 0 .. support() only, renormalized."""
        rho = self.rho[: self.support() + 1, : self.support() + 1]
        return FockState(rho / np.trace(rho).real, profile=self.profile)

    @classmethod
    def from_amplitudes(cls, amps, profile: tuple | None = None) -> "FockState":
        c = np.asarray(amps, dtype=complex)
        norm = np.sum(np.abs(c) ** 2)
        if abs(norm - 1.0) > _TRACE_TOL:
            raise ValueError("pure-state amplitudes must be normalized")
        return cls(np.outer(c, c.conj()), profile=profile)

    @classmethod
    def vacuum(cls, cutoff: int = DEFAULT_CUTOFF) -> "FockState":
        return cls.fock(0, cutoff)

    @classmethod
    def fock(cls, k: int, cutoff: int = DEFAULT_CUTOFF) -> "FockState":
        if not 0 <= k <= cutoff:
            raise ValueError("Fock level outside cutoff")
        c = np.zeros(cutoff + 1, dtype=complex)
        c[k] = 1.0
        return cls.from_amplitudes(c, profile=("fock", k))


def prepare_superposition(beta: complex, admixture_error: float = 0.0,
                          cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Ideal qubit-to-field map producing alpha|0> + beta|1>, optionally
    mixed convexly with vacuum (weight `admixture_error`)."""
    beta = complex(beta)
    if abs(beta) > 1.0 + 1e-12:
        raise ValueError("excited-state amplitude must satisfy |beta| <= 1")
    if not 0.0 <= admixture_error <= 1.0:
        raise ValueError("admixture_error must lie in [0, 1]")
    a0 = math.sqrt(max(0.0, 1.0 - abs(beta) ** 2))
    c = np.zeros(cutoff + 1, dtype=complex)
    c[0], c[1] = a0, beta
    rho = np.outer(c, c.conj())
    if admixture_error > 0.0:
        vac = np.zeros_like(rho)
        vac[0, 0] = 1.0
        rho = (1.0 - admixture_error) * rho + admixture_error * vac
    return FockState(rho)


def coherent_state(alpha: complex, cutoff: int = DEFAULT_CUTOFF) -> FockState:
    """Truncated coherent state |alpha>, renormalized after truncation."""
    alpha = complex(alpha)
    # a part past the cutoff is refused before abs(alpha) ** 2 could overflow
    if max(abs(alpha.real), abs(alpha.imag)) > cutoff or abs(alpha) ** 2 > cutoff / 4.0:
        raise ValueError("cutoff too small for requested coherent amplitude")
    k = np.arange(cutoff + 1)
    logfact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff + 1)))))
    c = np.exp(-0.5 * abs(alpha) ** 2) * alpha ** k / np.exp(0.5 * logfact)
    c = c / math.sqrt(float(np.sum(np.abs(c) ** 2)))
    return FockState.from_amplitudes(c, profile=("coherent", alpha))


def thermal_cutoff(nbar: float, tail: float = _THERMAL_TAIL_TOL) -> int:
    """Smallest cutoff keeping the geometric tail weight below `tail`."""
    if nbar <= 0:
        return 1
    # tail weight beyond N is (nbar/(nbar+1))**(N+1)
    q = nbar / (nbar + 1.0)
    return max(1, math.ceil(math.log(tail) / math.log(q)) - 1)


def thermal_state(nbar: float, cutoff: int | None = None) -> FockState:
    """Thermal state with mean photon number nbar, diagonal in the Fock basis."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    needed = thermal_cutoff(nbar)
    if cutoff is None:
        cutoff = needed
    elif cutoff < needed:
        raise ValueError(f"cutoff {cutoff} too small for nbar={nbar} "
                         f"(need >= {needed} for tail < {_THERMAL_TAIL_TOL})")
    if nbar == 0:
        return FockState.vacuum(cutoff)
    k = np.arange(cutoff + 1)
    p = (nbar / (nbar + 1.0)) ** k
    p = p / p.sum()
    return FockState(np.diag(p.astype(complex)), profile=("thermal", nbar))


def analytic_moments(state: FockState, order: int = 4) -> MomentMatrix:
    """Normally ordered moments m(n, m) = Tr[rho (a^dag)^n a^m], exact."""
    if order > 2 * state.cutoff:
        raise ValueError("order cap exceeds 2N; raise the Fock cutoff")
    a = destroy(state.dim)
    ad = a.conj().T
    a_pow = [np.eye(state.dim, dtype=complex)]
    ad_pow = [np.eye(state.dim, dtype=complex)]
    for _ in range(order):
        a_pow.append(a_pow[-1] @ a)
        ad_pow.append(ad_pow[-1] @ ad)
    values = np.zeros((order + 1, order + 1), dtype=complex)
    for n, m in moment_indices(order):
        values[n, m] = np.trace(state.rho @ ad_pow[n] @ a_pow[m])
    return MomentMatrix(hermitize(values))


def husimi_q(state: FockState, alpha) -> np.ndarray | float:
    """Husimi Q function <alpha|rho|alpha>/pi; non-negative, integrates to 1."""
    alpha_arr = np.atleast_1d(np.asarray(alpha, dtype=complex))
    flat, rho = alpha_arr.ravel(), state.rho
    # <alpha|rho|alpha> e^{|alpha|^2} = sum_k rho_kk |v_k|^2 + 2 Re sum_{j<k} rho_jk v_j* v_k
    # without BLAS; v_0 = 1, v_k = <k|alpha> e^{|alpha|^2/2} = alpha^k/sqrt(k!) = a[k] + i b[k]
    a, b = [None, flat.real.copy()], [None, flat.imag.copy()]
    for k in range(2, state.dim):
        a.append((a[-1] * a[1] - b[-1] * b[1]) / math.sqrt(k))
        b.append((a[-2] * b[1] + b[-1] * a[1]) / math.sqrt(k))
    q, (s, t) = np.full(flat.shape, rho[0, 0].real), np.empty((2, flat.size))
    for k in range(1, state.dim):   # rows s, t keep each term's operation order
        c = 2.0 * rho[0, k]   # q += rho_kk (a_k a_k + b_k b_k) + c.real a_k - c.imag b_k
        np.multiply(a[k], a[k], out=s)
        s += np.multiply(b[k], b[k], out=t)
        s *= rho[k, k].real
        s += np.multiply(a[k], c.real, out=t)
        q += np.subtract(s, np.multiply(b[k], c.imag, out=t), out=s)
        for j in range(1, k):
            c = 2.0 * rho[j, k]
            q += c.real * (a[j] * a[k] + b[j] * b[k]) - c.imag * (a[j] * b[k] - b[j] * a[k])
    np.square(a[1], out=s)   # q *= exp(-|alpha|^2) / pi
    s += np.square(b[1], out=t)
    q *= np.divide(np.exp(np.negative(s, out=s), out=s), np.pi, out=s)
    q = np.maximum(q, 0.0, out=q).reshape(alpha_arr.shape)
    return float(q.reshape(-1)[0]) if np.ndim(alpha) == 0 else q


def _laguerre(n_max: int, a: int, x: np.ndarray) -> list[np.ndarray]:
    """Generalized Laguerre polynomials L_0^(a)(x) .. L_n_max^(a)(x) by the
    recurrence (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}."""
    lag = [np.ones_like(x), 1.0 + a - x]
    for k in range(1, n_max):
        lag.append(((2 * k + 1 + a - x) * lag[k] - (k + a) * lag[k - 1]) / (k + 1))
    return lag[: n_max + 1]


def wigner_oracle(state: FockState, alpha) -> np.ndarray | float:
    """Displaced-parity Wigner function, W(alpha) = (2/pi) Tr[rho D(alpha) Pi D(-alpha)].

    Independent oracle for the moment-based reconstruction, exact on the state's
    own Fock space: D(alpha) Pi D(-alpha) = D(2 alpha) Pi, and for m >= n,
    <m|D(b)|n> = sqrt(n!/m!) b^(m-n) e^(-|b|^2/2) L_n^(m-n)(|b|^2) = (-1)^(m-n) <n|D(b)|m>*.
    """
    alpha_arr = np.atleast_1d(np.asarray(alpha, dtype=complex))
    beta = 2.0 * alpha_arr.ravel()
    x = beta.real ** 2 + beta.imag ** 2
    laguerre = [_laguerre(state.dim - 1 - a, a, x) for a in range(state.dim)]
    w = np.zeros(beta.shape)
    for m in range(state.dim):
        for n in range(m + 1):
            d = math.sqrt(math.factorial(n) / math.factorial(m)) * beta ** (m - n) \
                * laguerre[m - n][n]
            # rho_nm (-1)^n <m|D|n> plus its conjugate, the (m, n) term
            w += (-1) ** n * (1 if m == n else 2) * (state.rho[n, m] * d).real
    w = ((2.0 / np.pi) * np.exp(-0.5 * x) * w).reshape(alpha_arr.shape)
    return float(w.reshape(-1)[0]) if np.ndim(alpha) == 0 else w


def loss_channel(state: FockState, eta: float) -> FockState:
    """Pure-loss (beam-splitter with vacuum) channel; <a^dag a> scales by eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmission eta must lie in [0, 1]")
    dim = state.dim
    if eta == 1.0:
        return FockState(state.rho.copy(), profile=state.profile)
    out = np.zeros_like(state.rho)
    for j in range(dim):  # j photons lost
        k = np.zeros((dim, dim))
        for n in range(j, dim):
            k[n - j, n] = math.sqrt(math.comb(n, j) * eta ** (n - j) * (1.0 - eta) ** j)
        out += k @ state.rho @ k.T
    return FockState(out)
