"""Containers for complex moment matrices shared across the pipeline.

Conventions
-----------
A moment matrix of order cap ``K`` stores complex entries ``m(n, m)`` for
all ``0 <= n + m <= K``.  Entries with ``n + m > K`` are kept at zero and
are not part of the contract.  The ordering tag distinguishes normally
ordered signal moments ``<(a^dag)^n a^m>``, antinormally ordered noise
moments ``<h^n (h^dag)^m>`` and estimated detector moments
``<(S*)^n S^m>``; all three pass the same checks on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

NORMAL = "normal"
ANTINORMAL = "antinormal"
DETECTOR = "detector"

_ORDERINGS = (NORMAL, ANTINORMAL, DETECTOR)


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


@dataclass(frozen=True)
class MomentMatrix:
    """Moment matrix of a single bosonic mode.

    ``values[n, m]`` is ``<(a^dag)^n a^m>`` for normal ordering,
    ``<h^n (h^dag)^m>`` for antinormal ordering or ``<(S*)^n S^m>`` for
    detector moments.  It must be square and finite with m(0, 0) = 1, a real
    diagonal and Hermitian symmetry; entries above the order cap are zeroed.
    """

    values: np.ndarray
    ordering: str = NORMAL

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("moment matrix must be square")
        if self.ordering not in _ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("moment matrix contains non-finite entries")
        scale = max(1.0, float(np.max(np.abs(values))))
        if abs(values[0, 0] - 1.0) > 1e-9:
            raise ValueError("m(0, 0) must be 1")
        if np.max(np.abs(np.diag(values).imag)) > 1e-9 * scale:
            raise ValueError("diagonal moments must be real")
        if np.max(np.abs(values - np.conj(values.T))) > 1e-9 * scale:
            raise ValueError("moment matrix must be Hermitian-symmetric")
        # entries above the order cap are not part of the contract
        r = np.arange(values.shape[0])
        values = np.where(np.add.outer(r, r) <= r[-1], values, 0.0)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return self.values.shape[0] - 1

    def __getitem__(self, nm: tuple[int, int]) -> complex:
        n, m = nm
        if n + m > self.order:
            raise IndexError(f"moment ({n}, {m}) above order cap {self.order}")
        return complex(self.values[n, m])


@dataclass(frozen=True, kw_only=True)
class RawMomentMatrix(MomentMatrix):
    """Estimated detector moments s(n, m) = <(S*)^n S^m> of `count` shots."""

    ordering: str = field(default=DETECTOR, init=False)
    count: int
    provenance: str = "streaming"

