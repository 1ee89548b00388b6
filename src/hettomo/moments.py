"""Containers for complex moment matrices shared across the pipeline.

Conventions
-----------
A moment matrix of order cap ``K`` stores complex entries ``m(n, m)`` for
all ``0 <= n + m <= K``.  Entries with ``n + m > K`` are kept at zero and
are not part of the contract.  A matrix holds normally ordered signal
moments ``<(a^dag)^n a^m>``, antinormally ordered noise moments
``<h^n (h^dag)^m>`` or estimated detector moments ``<(S*)^n S^m>``, as the
function that makes or takes it names; all three pass the same checks on
construction.  A run's per-batch detector moments travel as one
`BatchMoments` stack, whose matrices pass those checks one by one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

def moment_indices(order: int) -> list[tuple[int, int]]:
    """All (n, m) index pairs with n + m <= order, in increasing total order."""
    return [(n, p - n) for p in range(order + 1) for n in range(p + 1)]


def hermitize(values: np.ndarray) -> np.ndarray:
    """Enforce exact Hermitian symmetry m(n, m) = conj(m(m, n)) from the upper
    triangle, over any leading axes."""
    out = np.array(values, dtype=complex)
    n, m = np.triu_indices(out.shape[-1], 1)
    out[..., m, n] = out[..., n, m].conj()
    d = np.arange(out.shape[-1])
    out[..., d, d] = out[..., d, d].real
    return out


def _checked(values, ndim: int) -> np.ndarray:
    """`values` as read-only complex moment matrices over `ndim` - 2 leading axes,
    each square and finite with m(0, 0) = 1, a real diagonal and Hermitian symmetry
    within 1e-9 of its own largest entry; entries above the order cap are zeroed."""
    values = np.asarray(values, dtype=complex)
    if values.ndim != ndim or values.shape[-1] != values.shape[-2]:
        raise ValueError("moment matrix must be square")
    if not np.all(np.isfinite(values)):
        raise ValueError("moment matrix contains non-finite entries")
    scale = 1e-9 * np.maximum(1.0, np.max(np.abs(values), axis=(-2, -1)))
    if np.any(np.abs(values[..., 0, 0] - 1.0) > 1e-9):
        raise ValueError("m(0, 0) must be 1")
    diagonal = np.diagonal(values, axis1=-2, axis2=-1)
    if np.any(np.max(np.abs(diagonal.imag), axis=-1) > scale):
        raise ValueError("diagonal moments must be real")
    asymmetry = np.abs(values - np.conj(np.swapaxes(values, -2, -1)))
    if np.any(np.max(asymmetry, axis=(-2, -1)) > scale):
        raise ValueError("moment matrix must be Hermitian-symmetric")
    # entries above the order cap are not part of the contract
    r = np.arange(values.shape[-1])
    values = np.where(np.add.outer(r, r) <= r[-1], values, 0.0)
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class MomentMatrix:
    """Moment matrix of a single bosonic mode.

    ``values[n, m]`` is ``<(a^dag)^n a^m>`` for signal moments,
    ``<h^n (h^dag)^m>`` for noise moments or ``<(S*)^n S^m>`` for detector
    moments, checked on construction as `_checked` describes.
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked(self.values, 2))

    @property
    def order(self) -> int:
        return self.values.shape[0] - 1

    def __getitem__(self, nm: tuple[int, int]) -> complex:
        n, m = nm
        if n + m > self.order:
            raise IndexError(f"moment ({n}, {m}) above order cap {self.order}")
        return complex(self.values[n, m])


@dataclass(frozen=True)
class BatchMoments:
    """A run's detector moments <(S*)^n S^m>, one (K+1, K+1) matrix per batch.

    ``values`` has shape (B, K+1, K+1) and each matrix passes the checks of
    `MomentMatrix`; ``counts`` holds each batch's shot count, an integer >= 1.
    """

    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("holds no batches")
        if counts.dtype.kind not in "iu" or np.any(counts < 1):
            raise ValueError("batch counts must be integers >= 1")
        values = _checked(self.values, 3)
        if len(values) != counts.size:
            raise ValueError(f"{counts.size} counts for {len(values)} batches")
        counts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @property
    def order(self) -> int:
        return self.values.shape[-1] - 1
