"""Moment inversion, gain self-calibration and Wigner reconstruction.

The detector moments factorize into signal and noise moments through a
double binomial sum; a vacuum-reference run pins the noise moments, after
which the relation is inverted triangularly in increasing total order.
The Wigner function is then a finite sum of closed-form Gaussian kernels
weighted by the recovered normally ordered moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acquire import RawMomentMatrix
from .moments import ANTINORMAL, NORMAL, MomentMatrix, hermitize, moment_indices

WIGNER_KERNEL_MAX_ORDER = 8


@dataclass(frozen=True)
class InversionReport:
    """Recovered signal moments in units of mode a, with provenance."""

    moments: MomentMatrix
    gain: float
    noise: MomentMatrix
    errors: np.ndarray | None = None

    def __post_init__(self):
        if self.moments.ordering != NORMAL:
            raise ValueError("recovered moments must be normally ordered")
        if self.noise.ordering != ANTINORMAL:
            raise ValueError("noise moments must be antinormally ordered")
        if self.errors is not None:
            errors = np.asarray(self.errors, dtype=float)
            if np.any(errors < 0) or not np.all(np.isfinite(errors)):
                raise ValueError("errors must be finite and >= 0")
            errors.setflags(write=False)
            object.__setattr__(self, "errors", errors)


@dataclass(frozen=True)
class WignerGrid:
    """W(alpha) sampled on a square grid alpha = X + iP, |X|, |P| <= extent."""

    xs: np.ndarray
    ps: np.ndarray
    values: np.ndarray
    extent: float
    truncation: int

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("Wigner grid contains non-finite values")

    def minimum(self) -> tuple[float, complex]:
        i, j = np.unravel_index(np.argmin(self.values), self.values.shape)
        return float(self.values[i, j]), complex(self.xs[i], self.ps[j])

    def integral(self) -> float:
        dx = self.xs[1] - self.xs[0]
        dp = self.ps[1] - self.ps[0]
        return float(np.sum(self.values) * dx * dp)


def _check_orders(*matrices, order: int | None = None) -> int:
    orders = {m.order for m in matrices}
    if order is not None:
        orders.add(order)
    if len(orders) != 1:
        raise ValueError("moment matrices have inconsistent order caps")
    return orders.pop()


def forward_moments(signal: MomentMatrix, noise: MomentMatrix,
                    gain: float) -> RawMomentMatrix:
    """Detector moments from signal and noise moments:

    s(n, m) = G^{(n+m)/2} sum_{i<=n, j<=m} C(n,i) C(m,j)
              <(a^dag)^i a^j> <h^{n-i} (h^dag)^{m-j}>.
    """
    if gain <= 0:
        raise ValueError("gain must be > 0")
    if signal.ordering != NORMAL or noise.ordering != ANTINORMAL:
        raise ValueError("expected normal signal and antinormal noise moments")
    order = _check_orders(signal, noise)
    values = np.zeros((order + 1, order + 1), dtype=complex)
    for n, m in moment_indices(order):
        total = 0.0 + 0.0j
        for i in range(n + 1):
            for j in range(m + 1):
                total += (math.comb(n, i) * math.comb(m, j)
                          * signal.values[i, j] * noise.values[n - i, m - j])
        values[n, m] = gain ** ((n + m) / 2.0) * total
    return RawMomentMatrix(hermitize(values), count=0, provenance="forward-model")


def recover_noise_moments(raw_vacuum: RawMomentMatrix, gain: float,
                          order: int | None = None) -> MomentMatrix:
    """Antinormal noise moments from a vacuum-reference run:
    <h^n (h^dag)^m> = s_vac(n, m) / G^{(n+m)/2}."""
    if gain <= 0:
        raise ValueError("gain must be > 0")
    order = raw_vacuum.order if order is None else _check_orders(raw_vacuum, order=order)
    values = np.zeros((order + 1, order + 1), dtype=complex)
    for n, m in moment_indices(order):
        values[n, m] = raw_vacuum.values[n, m] / gain ** ((n + m) / 2.0)
    values[0, 0] = 1.0
    return MomentMatrix(hermitize(values), ordering=ANTINORMAL)


def _triangular_invert(raw: np.ndarray, noise: np.ndarray, gain: float,
                       order: int) -> np.ndarray:
    signal = np.zeros((order + 1, order + 1), dtype=complex)
    for n, m in moment_indices(order):  # increasing total order
        cross = 0.0 + 0.0j
        for i in range(n + 1):
            for j in range(m + 1):
                if i == n and j == m:
                    continue
                cross += (math.comb(n, i) * math.comb(m, j)
                          * signal[i, j] * noise[n - i, m - j])
        signal[n, m] = raw[n, m] / gain ** ((n + m) / 2.0) - cross
    return hermitize(signal)


def invert_moments(raw_signal: RawMomentMatrix, raw_vacuum: RawMomentMatrix,
                   gain: float, errors: np.ndarray | None = None) -> InversionReport:
    """Recover <(a^dag)^n a^m> from a signal run and its vacuum reference.

    Solves the binomial relation in increasing total order n+m; exact
    algebraic inverse of forward_moments.
    """
    order = _check_orders(raw_signal, raw_vacuum)
    for raw in (raw_signal, raw_vacuum):
        if abs(raw.values[0, 0] - 1.0) > 1e-9:
            raise ValueError("raw moments are not normalized (s(0,0) != 1)")
    noise = recover_noise_moments(raw_vacuum, gain)
    signal = _triangular_invert(raw_signal.values, noise.values, gain, order)
    return InversionReport(moments=MomentMatrix(signal, ordering=NORMAL),
                           gain=gain, noise=noise, errors=errors)


def bootstrap_errors(signal_batches: list[RawMomentMatrix],
                     vacuum_batches: list[RawMomentMatrix],
                     gain: float, n_boot: int = 200, seed: int = 0) -> np.ndarray:
    """Standard errors of the recovered moments by bootstrap over batches.

    Resamples batch-level moment estimates with replacement, reruns the
    inversion and reports the per-entry spread.
    """
    if len(signal_batches) < 2 or len(vacuum_batches) < 2:
        raise ValueError("need at least two batches on each side")
    order = _check_orders(*signal_batches, *vacuum_batches)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    sig = np.array([b.values for b in signal_batches])
    sig_w = np.array([b.count for b in signal_batches], dtype=float)
    vac = np.array([b.values for b in vacuum_batches])
    vac_w = np.array([b.count for b in vacuum_batches], dtype=float)
    replicas = np.empty((n_boot, order + 1, order + 1), dtype=complex)
    for b in range(n_boot):
        i = rng.integers(0, len(sig), len(sig))
        j = rng.integers(0, len(vac), len(vac))
        s = np.average(sig[i], axis=0, weights=sig_w[i])
        v = np.average(vac[j], axis=0, weights=vac_w[j])
        noise = v / gain ** ((np.add.outer(np.arange(order + 1),
                                           np.arange(order + 1))) / 2.0)
        noise[0, 0] = 1.0
        replicas[b] = _triangular_invert(s, noise, gain, order)
    return np.sqrt(np.mean(np.abs(replicas - replicas.mean(axis=0)) ** 2, axis=0))


def estimate_gain(raw_super: RawMomentMatrix, raw_vacuum: RawMomentMatrix,
                  m1_error: float | None = None) -> float:
    """Self-calibrate the amplifier gain from a |0>/|1> superposition run.

    For states with |<a>| = <a^dag a> = x the first moment scales as
    sqrt(G) x and the noise-subtracted second moment as G x, so
    G = (M2 / M1)^2.
    """
    _check_orders(raw_super, raw_vacuum)
    m1 = abs(raw_super.values[0, 1])
    if m1_error is not None and m1 < 5.0 * m1_error:
        raise ValueError("phase reference too weak: |<S>| below 5x its "
                         "standard error")
    if m1 <= 0:
        raise ValueError("degenerate phase reference: |<S>| = 0")
    m2 = (raw_super.values[1, 1] - raw_vacuum.values[1, 1]).real
    if m2 <= 0:
        raise ValueError("noise-subtracted second moment is not positive")
    return (m2 / m1) ** 2


def truncation_order(moments: MomentMatrix,
                     threshold: float | np.ndarray = 0.1) -> int:
    """Moment order retained in the Wigner sum.

    If the smallest N with |m(N, N)| < threshold exists, all moments with
    n+m >= 2N-1 vanish identically, so orders up to 2N-2 are kept;
    otherwise the full order cap is used.  `threshold` is one number or one
    per diagonal index n = 0 .. order // 2.
    """
    if moments.ordering != NORMAL:
        raise ValueError("truncation rule applies to normally ordered moments")
    limits = np.broadcast_to(threshold, (moments.order // 2 + 1,))
    for n in range(1, moments.order // 2 + 1):
        if abs(moments.values[n, n]) < limits[n]:
            return 2 * n - 2
    return moments.order


def wigner_kernel(n: int, m: int, alpha) -> np.ndarray | complex:
    """Closed-form lambda-integral of the (n, m) Wigner term.

    kernel(n, m, alpha) = (-1)^m (2/pi) e^{-2|alpha|^2}
        sum_k n! m! / (k! (n-k)! (m-k)!) 2^{n+m-k} alpha^{n-k} (-alpha*)^{m-k}

    generated by differentiating the base Gaussian integral
    I00 = (2/pi) e^{-2|alpha|^2}.  The (n, m) moment pairs with
    lambda^n (-conj(lambda))^m, the convention under which the exact
    Fock-|1> moments give W(0) = -2/pi and coherent-state moments give a
    displaced vacuum Gaussian.
    """
    if n < 0 or m < 0 or n + m > WIGNER_KERNEL_MAX_ORDER:
        raise ValueError(f"kernel order above supported cap {WIGNER_KERNEL_MAX_ORDER}")
    alpha_arr = np.asarray(alpha, dtype=complex)
    poly = np.zeros_like(alpha_arr)
    for k in range(min(n, m) + 1):
        coeff = (math.factorial(n) * math.factorial(m)
                 // (math.factorial(k) * math.factorial(n - k) * math.factorial(m - k)))
        poly = poly + coeff * 2.0 ** (n + m - k) \
            * alpha_arr ** (n - k) * (-np.conj(alpha_arr)) ** (m - k)
    out = (-1.0) ** m * (2.0 / np.pi) * np.exp(-2.0 * np.abs(alpha_arr) ** 2) * poly
    if np.isscalar(alpha) or np.asarray(alpha).ndim == 0:
        return complex(out)
    return out


def wigner_from_moments(moments: MomentMatrix, alpha,
                        truncation: int | None = None) -> np.ndarray:
    """Evaluate the truncated Wigner moment sum at arbitrary phase-space points."""
    if truncation is None:
        truncation = moments.order
    alpha_arr = np.asarray(alpha, dtype=complex)
    w = np.zeros(alpha_arr.shape, dtype=float)
    for n, m in moment_indices(truncation):
        term = moments.values[n, m] / (math.factorial(n) * math.factorial(m))
        w += np.real(term * wigner_kernel(n, m, alpha_arr))
    return w


def reconstruct_wigner(moments: MomentMatrix, extent: float = 3.0,
                       resolution: int = 121,
                       threshold: float | np.ndarray = 0.1) -> WignerGrid:
    """Wigner function from normally ordered moments on a square grid;
    `threshold` is passed to `truncation_order`."""
    if moments.ordering != NORMAL:
        raise ValueError("reconstruction needs normally ordered moments")
    truncation = truncation_order(moments, threshold)
    xs = np.linspace(-extent, extent, resolution)
    ps = np.linspace(-extent, extent, resolution)
    grid = xs[:, None] + 1j * ps[None, :]
    values = wigner_from_moments(moments, grid, truncation)
    return WignerGrid(xs=xs, ps=ps, values=values, extent=extent,
                      truncation=truncation)
