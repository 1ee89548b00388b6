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

from .acquire import combine_batches, resample_batches
from .moments import BatchMoments, MomentMatrix, hermitize, moment_indices

WIGNER_KERNEL_MAX_ORDER = 8
WIGNER_EXTENT, WIGNER_RESOLUTION = 3.0, 121   # default grid |X|, |P| <= 3, 121 points a side
BOOTSTRAP_REPLICAS = 200
MAX_FAILED_REPLICA_FRACTION = 0.1   # calibration fails above this share of gainless replicas


@dataclass(frozen=True)
class InversionReport:
    """Recovered normally ordered signal moments in units of mode a, with
    provenance: the gain and the antinormally ordered noise moments."""

    moments: MomentMatrix
    gain: float
    noise: MomentMatrix
    errors: np.ndarray

    def __post_init__(self):
        _check_orders(self.moments, self.noise)
        if not 0 < self.gain < math.inf:
            raise ValueError("gain must be finite and > 0")
        errors = np.asarray(self.errors, dtype=float)
        if errors.shape != self.moments.values.shape \
                or np.any(errors < 0) or not np.all(np.isfinite(errors)):
            raise ValueError("errors must be finite, >= 0 and one per moment")
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


def _check_orders(*matrices) -> int:
    orders = {m.order for m in matrices}
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
    """Unit lower-triangular B(h) with s = D_G B(h) m over moment_indices."""
    order = noise.shape[-1] - 1
    rows, cols, coeffs, flat = _binomial_table(order)
    size = (order + 1) * (order + 2) // 2
    op = np.zeros((size, size), dtype=complex)
    op[rows, cols] = coeffs * noise.reshape(-1)[flat]
    return op


def _gain_diagonal(order: int, gain: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices (n, m) of moment_indices(order) and the diagonal G^{(n+m)/2} of D_G."""
    n, m = np.array(moment_indices(order)).T
    return n, m, gain ** ((n + m) / 2.0)


def forward_moments(signal: MomentMatrix, noise: MomentMatrix,
                    gain: float) -> MomentMatrix:
    """Detector moments from normally ordered signal and antinormally ordered
    noise moments, s = D_G B(h) m:

    s(n, m) = G^{(n+m)/2} sum_{i<=n, j<=m} C(n,i) C(m,j)
              <(a^dag)^i a^j> <h^{n-i} (h^dag)^{m-j}>.
    """
    if gain <= 0:
        raise ValueError("gain must be > 0")
    order = _check_orders(signal, noise)
    n, m, g = _gain_diagonal(order, gain)
    values = np.zeros((order + 1, order + 1), dtype=complex)
    values[n, m] = g * (_binomial_operator(noise.values) @ signal.values[n, m])
    return MomentMatrix(hermitize(values))


def _noise_values(raw_vacuum: np.ndarray, gain: float) -> np.ndarray:
    """<h^n (h^dag)^m> = s_vac(n, m) / G^{(n+m)/2}, over any leading axes of s_vac."""
    if gain <= 0:
        raise ValueError("gain must be > 0")
    n, m, g = _gain_diagonal(raw_vacuum.shape[-1] - 1, gain)
    values = np.zeros_like(raw_vacuum)
    values[..., n, m] = raw_vacuum[..., n, m] / g
    values[..., 0, 0] = 1.0
    return hermitize(values)


def _solve(op: np.ndarray, raw: np.ndarray, gain: float) -> np.ndarray:
    """Signal moments m from s = D_G B m, given B = op, by forward substitution.

    Row dot products, not column updates: LAPACK's unit lower-triangular
    solve rounds in this order, and the tests hold the two equal bit for bit.
    """
    n, m, g = _gain_diagonal(raw.shape[0] - 1, gain)
    x = raw[n, m] / g
    for i in range(1, x.size):
        x[i] -= op[i, :i] @ x[:i]
    signal = np.zeros_like(raw, dtype=complex)
    signal[n, m] = x
    return signal


def invert_moments(raw_signal: MomentMatrix, raw_vacuum: MomentMatrix,
                   gain: float, errors: np.ndarray) -> InversionReport:
    """Recover <(a^dag)^n a^m> from a signal run and its vacuum reference.

    Solves the unit lower-triangular binomial relation; exact algebraic
    inverse of forward_moments.
    """
    _check_orders(raw_signal, raw_vacuum)
    noise = MomentMatrix(_noise_values(raw_vacuum.values, gain))
    signal = _solve(_binomial_operator(noise.values), raw_signal.values, gain)
    return InversionReport(moments=MomentMatrix(hermitize(signal)),
                           gain=gain, noise=noise, errors=errors)


def bootstrap_errors(signal_batches: BatchMoments, vacuum_batches: BatchMoments,
                     gain: float, n_boot: int = BOOTSTRAP_REPLICAS,
                     seed: int = 0) -> np.ndarray:
    """Standard errors of the recovered moments by bootstrap over batches.

    Resamples both runs' batches with replacement (`resample_batches`),
    inverts every replica and reports the per-entry spread.
    """
    _check_orders(signal_batches, vacuum_batches)
    signal, vacuum = resample_batches([signal_batches, vacuum_batches], n_boot,
                                      seed=[seed, 0xB007])
    moments = np.array([_solve(_binomial_operator(h), sig, gain)    # one B(h) at a time
                        for h, sig in zip(_noise_values(vacuum, gain), signal)])
    return np.sqrt(np.mean(np.abs(moments - moments.mean(axis=0)) ** 2, axis=0))


def gain_terms(raw_super: np.ndarray, raw_vacuum: np.ndarray) -> tuple[np.ndarray, ...]:
    """M1 = |s(0, 1)|, M2 = s(1, 1) - s_vac(1, 1) and G = (M2 / M1)^2 over any leading
    axes; hypot and float_power round as scalar abs() and ** do, np.abs and ** 2 may not."""
    s01 = raw_super[..., 0, 1]
    m1 = np.hypot(s01.real, s01.imag)
    m2 = (raw_super[..., 1, 1] - raw_vacuum[..., 1, 1]).real
    return m1, m2, np.float_power(m2 / m1, 2)


def estimate_gain(sup: BatchMoments, vac: BatchMoments) -> dict:
    """Self-calibrate the amplifier gain from a |0>/|1> superposition run and a
    vacuum run, with the errors of G and M1 over bootstrap replicas of their batches.

    For states with |<a>| = <a^dag a> = x the first moment scales as
    sqrt(G) x and the noise-subtracted second moment as G x, so
    G = (M2 / M1)^2 (`gain_terms`). Refuses an M1 below 5 times its error, a gain that
    is not finite and > 0, and one that more than `MAX_FAILED_REPLICA_FRACTION` lack.
    """
    _check_orders(sup, vac)
    replicas = resample_batches([sup, vac], BOOTSTRAP_REPLICAS, seed=[0, 0xCA1])
    # the combined runs lead their replicas, so one test finds where G is no gain
    m1, m2, gains = gain_terms(*(np.concatenate([combine_batches(run).values[None], boot])
                                 for run, boot in zip((sup, vac), replicas)))
    ok = (m1 > 0) & (m2 > 0) & np.isfinite(gains)
    m1_err = float(np.std(m1[1:]))
    if m1[0] < 5.0 * m1_err:
        raise ValueError("phase reference too weak: |<S>| below 5x its "
                         "standard error")
    if not ok[0]:
        raise ValueError("degenerate phase reference: |<S>| = 0" if m1[0] <= 0 else
                         "noise-subtracted second moment is not positive" if m2[0] <= 0 else
                         "gain estimate is not finite")
    failed = BOOTSTRAP_REPLICAS - int(np.count_nonzero(ok[1:]))
    if failed > MAX_FAILED_REPLICA_FRACTION * BOOTSTRAP_REPLICAS:
        raise ValueError(f"gain estimate failed on {failed} of "
                         f"{BOOTSTRAP_REPLICAS} bootstrap replicas")
    return {"gain": gains[0], "gain_stderr": float(np.std(gains[1:][ok[1:]])),
            "m1_stderr": m1_err, "n_bootstrap": BOOTSTRAP_REPLICAS - failed,
            "n_bootstrap_failed": failed}


def truncation_order(moments: MomentMatrix, errors: np.ndarray) -> int:
    """Moment order retained in the Wigner sum of normally ordered moments.

    Each diagonal m(N, N) is tested against its own limit max(0.1, 3 err(N, N)).
    If the smallest N with |m(N, N)| below its limit exists, all moments with
    n+m >= 2N-1 vanish identically, so orders up to 2N-2 are kept; otherwise
    the full order cap is used.
    """
    for n in range(1, moments.order // 2 + 1):
        if abs(moments.values[n, n]) < max(0.1, 3.0 * errors[n, n]):
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
    return complex(out) if np.ndim(alpha) == 0 else out


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


def reconstruct_wigner(moments: MomentMatrix, errors: np.ndarray,
                       extent: float = WIGNER_EXTENT,
                       resolution: int = WIGNER_RESOLUTION) -> WignerGrid:
    """Wigner function from normally ordered moments on a square grid, truncated
    by `truncation_order` against the moments' `errors`."""
    truncation = truncation_order(moments, errors)
    xs = ps = np.linspace(-extent, extent, resolution)
    grid = xs[:, None] + 1j * ps[None, :]
    values = wigner_from_moments(moments, grid, truncation)
    return WignerGrid(xs=xs, ps=ps, values=values, extent=extent,
                      truncation=truncation)
