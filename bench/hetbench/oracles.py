"""Closed-form expectations and shot-noise widths for the output checks.

Written with numpy and the standard library only, apart from `hettomo`, so
that a change to the package cannot move the yardstick it is checked
against.

Units: z = S / sqrt(G) is a detector outcome in units of the signal mode.
A shot is z = alpha + nu with alpha ~ Q(state) and amplifier noise
nu ~ CN(0, nbar), so a vacuum-reference run has z ~ CN(0, 1 + nbar) and,
for any state with normally ordered moments m(i, j) = <(a^dag)^i a^j>,

    E[conj(z)^p z^q] = sum_k C(p, k) C(q, k) k! (1 + nbar)^k m(p - k, q - k).

Recovered moments are linear in the signal run's sample moments and
polynomial in the vacuum run's, so their shot noise follows exactly, to
first order in the vacuum run, from these closed-form detector moments
(`MomentModel.sigma`). Every acceptance window is SIGMAS of those widths.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

SIGMAS = 5.0
VACUUM = np.array([1.0 + 0j])


# -- states ------------------------------------------------------------------

def amplitudes(spec: dict) -> np.ndarray:
    """Fock amplitudes of a config `state` block (fock or superposition)."""
    kind = spec["kind"]
    if kind == "fock":
        k = int(spec.get("k", 1))
        c = np.zeros(k + 1, dtype=complex)
        c[k] = 1.0
        return c
    if kind == "superposition":
        beta = abs(complex(spec.get("beta", 1.0)))
        phase = float(spec.get("phase", 0.0))
        return np.array([math.sqrt(max(0.0, 1.0 - beta ** 2)),
                         beta * cmath.exp(1j * phase)])
    raise ValueError(f"no closed form for state kind {kind!r}")


def normal_moments(amps: np.ndarray, order: int) -> np.ndarray:
    """m[i, j] = <(a^dag)^i a^j> = <a^i psi | a^j psi> for 0 <= i, j <= order."""
    lowered = [np.asarray(amps, dtype=complex)]
    for _ in range(order):
        v = lowered[-1]
        lowered.append(np.append(v[1:] * np.sqrt(np.arange(1.0, v.size)), 0.0))
    m = np.empty((order + 1, order + 1), dtype=complex)
    for i in range(order + 1):
        for j in range(order + 1):
            m[i, j] = np.vdot(lowered[i], lowered[j])
    return m


def truncated(m: np.ndarray, order: int) -> np.ndarray:
    """Moment matrix restricted to total order i + j <= order."""
    i, j = np.indices(m.shape)
    return np.where(i + j <= order, m, 0.0)[: order + 1, : order + 1]


def detector_moments(m: np.ndarray, nbar: float) -> np.ndarray:
    """mu[p, q] = E[conj(z)^p z^q] for the state with normal moments m."""
    size = m.shape[0]
    noise = 1.0 + nbar
    mu = np.zeros((size, size), dtype=complex)
    for p in range(size):
        for q in range(size):
            mu[p, q] = sum(math.comb(p, k) * math.comb(q, k) * math.factorial(k)
                           * noise ** k * m[p - k, q - k]
                           for k in range(min(p, q) + 1))
    return mu


def vacuum_sigma(gain: float, nbar: float) -> float:
    """Per-quadrature width of a vacuum-reference run, sqrt(G (1 + nbar) / 2)."""
    return math.sqrt(gain * (1.0 + nbar) / 2.0)


# -- moment inversion and its linear response ---------------------------------

def _pairs(order: int):
    return [(n, m) for n in range(order + 1) for m in range(order + 1)
            if n + m <= order]


def invert(s: np.ndarray, nu: np.ndarray, order: int) -> np.ndarray:
    """Solve s(n,m) = sum_{i<=n, j<=m} C(n,i) C(m,j) m(i,j) nu(n-i, m-j)
    for m in increasing total order, with nu(0, 0) = 1 (units of sqrt(G))."""
    out = np.zeros((order + 1, order + 1), dtype=complex)
    for n, m in sorted(_pairs(order), key=sum):
        cross = sum(math.comb(n, i) * math.comb(m, j) * out[i, j] * nu[n - i, m - j]
                    for i in range(n + 1) for j in range(m + 1)
                    if (i, j) != (n, m))
        out[n, m] = s[n, m] - cross
    return out


def _noise_term(m: np.ndarray, a: int, b: int, order: int) -> np.ndarray:
    """d s(n, m) / d nu(a, b) at fixed signal moments m."""
    out = np.zeros((order + 1, order + 1), dtype=complex)
    for n, mm in _pairs(order):
        if n >= a and mm >= b:
            out[n, mm] = math.comb(n, a) * math.comb(mm, b) * m[n - a, mm - b]
    return out


def _real_part_variance(coef: np.ndarray, mu: np.ndarray) -> float:
    """Var(Re g) per shot for g(z) = sum_ab coef[a, b] conj(z)^a z^b."""
    terms = [(a, b, coef[a, b]) for a, b in zip(*np.nonzero(coef))]
    mean = sum(c * mu[a, b] for a, b, c in terms)
    abs2 = sum(c * np.conj(d) * mu[a + dd, b + cc]
               for a, b, c in terms for cc, dd, d in terms)
    square = sum(c * d * mu[a + cc, b + dd]
                 for a, b, c in terms for cc, dd, d in terms)
    var = 0.5 * ((abs2 - abs(mean) ** 2).real + (square - mean ** 2).real)
    return max(float(var), 0.0)


class MomentModel:
    """Shot-noise model of moments recovered from a signal run and a vacuum
    run of the given shot counts, both at the configured noise."""

    def __init__(self, amps: np.ndarray, nbar: float, order: int,
                 signal_shots: int, vacuum_shots: int):
        self.order = order
        full = normal_moments(amps, 2 * order)
        self.truth = truncated(full, order)
        self.mu_signal = detector_moments(full, nbar)
        self.mu_vacuum = detector_moments(normal_moments(VACUUM, 2 * order), nbar)
        self.nu = truncated(self.mu_vacuum, order)
        self.signal_shots = signal_shots
        self.vacuum_shots = vacuum_shots
        self._ds = {}
        self._dnu = {}
        for a, b in _pairs(order):
            unit = np.zeros((order + 1, order + 1), dtype=complex)
            unit[a, b] = 1.0
            self._ds[a, b] = invert(unit, self.nu, order)
            if (a, b) != (0, 0):
                self._dnu[a, b] = -invert(_noise_term(self.truth, a, b, order),
                                          self.nu, order)

    def expected(self, weights: np.ndarray) -> float:
        """Re sum w[n, m] m(n, m) at the closed-form moments."""
        return float(np.sum(weights * self.truth).real)

    def sigma(self, weights: np.ndarray) -> float:
        """Shot-noise standard error of Re sum w[n, m] m_hat(n, m)."""
        size = 2 * self.order + 1
        cs = np.zeros((size, size), dtype=complex)
        cv = np.zeros((size, size), dtype=complex)
        for (a, b), d in self._ds.items():
            cs[a, b] = np.sum(weights * d)
        for (a, b), d in self._dnu.items():
            cv[a, b] = np.sum(weights * d)
        return math.sqrt(_real_part_variance(cs, self.mu_signal) / self.signal_shots
                         + _real_part_variance(cv, self.mu_vacuum) / self.vacuum_shots)

    def gain_allowance(self, weights: np.ndarray, rel_gain_error: float) -> float:
        """Largest shift of Re sum w m when the gain used is off by up to
        rel_gain_error: m(n, m) scales exactly as (G / G_used)^((n+m)/2)."""
        if rel_gain_error <= 0:
            return 0.0
        n, m = np.indices(self.truth.shape)
        base = self.expected(weights)
        worst = 0.0
        for eps in np.linspace(-rel_gain_error, rel_gain_error, 21):
            scaled = self.truth * (1.0 + eps) ** (-(n + m) / 2.0)
            worst = max(worst, abs(float(np.sum(weights * scaled).real) - base))
        return worst


def entry_weights(order: int, n: int, m: int, imag: bool = False) -> np.ndarray:
    """Weights picking Re m(n, m), or Im m(n, m) when imag is set."""
    w = np.zeros((order + 1, order + 1), dtype=complex)
    w[n, m] = -1j if imag else 1.0
    return w


# -- gain self-calibration ----------------------------------------------------

def gain_ratio(amps: np.ndarray) -> float:
    """E[G_est] / G for G_est = (M2 / M1)^2: (m(1,1) / |m(0,1)|)^2."""
    m = normal_moments(amps, 1)
    return float((m[1, 1].real / abs(m[0, 1])) ** 2)


def gain_rel_sigma(amps: np.ndarray, nbar: float, cal_shots: int,
                   vacuum_shots: int) -> float:
    """Relative standard error of G_est from the delta method:
    dG/G = 2 (dM2/M2 - dM1/M1), M1 = |<z>|, M2 = <|z|^2>_cal - <|z|^2>_vac."""
    m = normal_moments(amps, 4)
    m1 = abs(m[0, 1])
    m2 = m[1, 1].real
    u = m[0, 1] / m1
    cal = np.zeros((3, 3), dtype=complex)
    cal[1, 1] = 2.0 / m2
    cal[0, 1] = -np.conj(u) / m1
    cal[1, 0] = -u / m1
    vac = np.zeros((3, 3), dtype=complex)
    vac[1, 1] = -2.0 / m2
    mu_cal = detector_moments(m, nbar)
    mu_vac = detector_moments(normal_moments(VACUUM, 4), nbar)
    return math.sqrt(_real_part_variance(cal, mu_cal) / cal_shots
                     + _real_part_variance(vac, mu_vac) / vacuum_shots)


# -- Wigner function ------------------------------------------------------------

def wigner_weights(alpha: complex, truncation: int, order: int) -> np.ndarray:
    """w[n, m] with W(alpha) = Re sum_{n+m <= truncation} w[n, m] m(n, m).

    w[n, m] = (2/pi) sum_{k >= max(n,m)} (-2)^k / k! C(k,n) C(k,m)
              (-conj(alpha))^(k-n) (-alpha)^(k-m),
    the normally ordered expansion of the displaced parity
    D(alpha) :exp(-2 a^dag a): D(alpha)^dag, summed in closed form.
    """
    w = np.zeros((order + 1, order + 1), dtype=complex)
    r2 = abs(alpha) ** 2
    for n, m in _pairs(truncation):
        poly = sum(2.0 ** (n + m - k)
                   / (math.factorial(k) * math.factorial(n - k) * math.factorial(m - k))
                   * alpha ** (n - k) * (-np.conj(alpha)) ** (m - k)
                   for k in range(min(n, m) + 1))
        w[n, m] = (-1) ** m * (2.0 / math.pi) * math.exp(-2.0 * r2) * poly
    return w


def superposition_wigner(amps: np.ndarray, alpha: complex) -> float:
    """W of c0|0> + c1|1>:
    (2/pi) e^{-2|alpha|^2} [|c0|^2 + |c1|^2 (4|alpha|^2 - 1) + 4 Re(c0 conj(c1) alpha)]."""
    if len(amps) != 2:
        raise ValueError("closed form holds for c0|0> + c1|1> only")
    c0, c1 = complex(amps[0]), complex(amps[1])
    r2 = abs(alpha) ** 2
    return (2.0 / math.pi) * math.exp(-2.0 * r2) * (
        abs(c0) ** 2 + abs(c1) ** 2 * (4.0 * r2 - 1.0)
        + 4.0 * (c0 * np.conj(c1) * alpha).real)
