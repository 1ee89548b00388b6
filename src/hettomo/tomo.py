"""Moment inversion, gain self-calibration and Wigner reconstruction.

The detector moments factorize into signal and noise moments through a
double binomial sum, s = D_G B(h) m over moment_indices: D_G holds the
gain powers and B(h), built from the noise moments h, is unit
lower-triangular.  A vacuum-reference run pins h, after which one
triangular solve recovers the signal moments.
The Wigner function is then a finite sum of closed-form Gaussian kernels
weighted by the recovered normally ordered moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .acquire import RawMomentMatrix, resample_batches
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


@functools.cache
def _binomial_table(order: int) -> tuple[np.ndarray, ...]:
    """Entries of B(h) over moment_indices(order): row (n, m), column (i, j),
    C(n, i) C(m, j) and the flat index of the noise moment h(n-i, m-j)."""
    position = {nm: k for k, nm in enumerate(moment_indices(order))}
    entries = [(position[n, m], position[i, j], math.comb(n, i) * math.comb(m, j),
                (n - i) * (order + 1) + (m - j))
               for n, m in position for i in range(n + 1) for j in range(m + 1)]
    return tuple(np.array(column) for column in zip(*entries))


def _binomial_operator(noise: np.ndarray) -> np.ndarray:
    """Unit lower-triangular B(h) with s = D_G B(h) m over moment_indices,
    stacked over any leading axes of the noise moments h."""
    order = noise.shape[-1] - 1
    rows, cols, coeffs, flat = _binomial_table(order)
    h = noise.reshape(*noise.shape[:-2], -1)
    size = (order + 1) * (order + 2) // 2
    op = np.zeros((*h.shape[:-1], size, size), dtype=complex)
    op[..., rows, cols] = coeffs * h[..., flat]
    return op


def _gain_diagonal(order: int, gain: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices (n, m) of moment_indices(order) and the diagonal G^{(n+m)/2} of D_G."""
    n, m = np.array(moment_indices(order)).T
    return n, m, gain ** ((n + m) / 2.0)


def forward_moments(signal: MomentMatrix, noise: MomentMatrix,
                    gain: float) -> RawMomentMatrix:
    """Detector moments from signal and noise moments, s = D_G B(h) m:

    s(n, m) = G^{(n+m)/2} sum_{i<=n, j<=m} C(n,i) C(m,j)
              <(a^dag)^i a^j> <h^{n-i} (h^dag)^{m-j}>.
    """
    if gain <= 0:
        raise ValueError("gain must be > 0")
    if signal.ordering != NORMAL or noise.ordering != ANTINORMAL:
        raise ValueError("expected normal signal and antinormal noise moments")
    order = _check_orders(signal, noise)
    n, m, g = _gain_diagonal(order, gain)
    values = np.zeros((order + 1, order + 1), dtype=complex)
    values[n, m] = g * (_binomial_operator(noise.values) @ signal.values[n, m])
    return RawMomentMatrix(hermitize(values), count=0, provenance="forward-model")


def recover_noise_moments(raw_vacuum: RawMomentMatrix, gain: float,
                          order: int | None = None) -> MomentMatrix:
    """Antinormal noise moments from a vacuum-reference run:
    <h^n (h^dag)^m> = s_vac(n, m) / G^{(n+m)/2}."""
    if gain <= 0:
        raise ValueError("gain must be > 0")
    order = raw_vacuum.order if order is None else _check_orders(raw_vacuum, order=order)
    n, m, g = _gain_diagonal(order, gain)
    values = np.zeros((order + 1, order + 1), dtype=complex)
    values[n, m] = raw_vacuum.values[n, m] / g
    values[0, 0] = 1.0
    return MomentMatrix(hermitize(values), ordering=ANTINORMAL)


def _solve(op: np.ndarray, raw: np.ndarray, gain: float) -> np.ndarray:
    """Signal moments m from s = D_G B m, given B = op."""
    n, m, g = _gain_diagonal(raw.shape[0] - 1, gain)
    signal = np.zeros_like(raw, dtype=complex)
    signal[n, m] = solve_triangular(op, raw[n, m] / g, lower=True,
                                    unit_diagonal=True)
    return signal


def invert_moments(raw_signal: RawMomentMatrix, raw_vacuum: RawMomentMatrix,
                   gain: float, errors: np.ndarray | None = None) -> InversionReport:
    """Recover <(a^dag)^n a^m> from a signal run and its vacuum reference.

    Solves the unit lower-triangular binomial relation; exact algebraic
    inverse of forward_moments.
    """
    _check_orders(raw_signal, raw_vacuum)
    noise = recover_noise_moments(raw_vacuum, gain)
    signal = _solve(_binomial_operator(noise.values), raw_signal.values, gain)
    return InversionReport(moments=MomentMatrix(hermitize(signal), ordering=NORMAL),
                           gain=gain, noise=noise, errors=errors)


def bootstrap_errors(signal_batches: list[RawMomentMatrix],
                     vacuum_batches: list[RawMomentMatrix],
                     gain: float, n_boot: int = 200, seed: int = 0) -> np.ndarray:
    """Standard errors of the recovered moments by bootstrap over batches.

    Resamples both runs' batches with replacement (`resample_batches`),
    inverts every replica and reports the per-entry spread.
    """
    if len(signal_batches) < 2 or len(vacuum_batches) < 2:
        raise ValueError("need at least two batches on each side")
    _check_orders(*signal_batches, *vacuum_batches)
    replicas = resample_batches([signal_batches, vacuum_batches], n_boot,
                                seed=[seed, 0xB007])
    ops = _binomial_operator(np.array([recover_noise_moments(vac, gain).values
                                      for _, vac in replicas]))
    moments = np.array([_solve(op, sig.values, gain)
                        for op, (sig, _) in zip(ops, replicas)])
    return np.sqrt(np.mean(np.abs(moments - moments.mean(axis=0)) ** 2, axis=0))


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
