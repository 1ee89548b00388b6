"""Containers for complex moment matrices shared across the pipeline.

Conventions
-----------
A moment matrix of order cap ``K`` stores complex entries ``m(n, m)`` for
all ``0 <= n + m <= K``.  Entries with ``n + m > K`` are kept at zero and
are not part of the contract.  The ordering tag distinguishes normally
ordered signal moments ``<(a^dag)^n a^m>`` from antinormally ordered noise
moments ``<h^n (h^dag)^m>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORMAL = "normal"
ANTINORMAL = "antinormal"

_ORDERINGS = (NORMAL, ANTINORMAL)


def moment_indices(order: int) -> list[tuple[int, int]]:
    """All (n, m) index pairs with n + m <= order, in increasing total order."""
    return [(n, p - n) for p in range(order + 1) for n in range(p + 1)]


def hermitize(values: np.ndarray) -> np.ndarray:
    """Enforce exact Hermitian symmetry m(n, m) = conj(m(m, n))."""
    values = np.asarray(values, dtype=complex)
    out = values.copy()
    k = values.shape[0]
    for n in range(k):
        out[n, n] = complex(values[n, n].real, 0.0)
        for m in range(n + 1, k):
            out[m, n] = np.conj(values[n, m])
    return out


@dataclass(frozen=True)
class MomentMatrix:
    """Exact/analytic moment matrix of a single bosonic mode.

    ``values[n, m]`` is ``<(a^dag)^n a^m>`` for normal ordering or
    ``<h^n (h^dag)^m>`` for antinormal ordering.
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
        if np.max(np.abs(values - np.conj(values.T))) > 1e-9 * scale:
            raise ValueError("moment matrix must be Hermitian-symmetric")
        if np.max(np.abs(np.diag(values).imag)) > 1e-9 * scale:
            raise ValueError("diagonal moments must be real")
        # entries above the order cap are not part of the contract
        k = values.shape[0] - 1
        n, m = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        values = np.where(n + m <= k, values, 0.0)
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

    def indices(self) -> list[tuple[int, int]]:
        return moment_indices(self.order)

    def rotated(self, phi: float) -> "MomentMatrix":
        """Phase rotation a -> a e^{i phi}: m(n, m) -> e^{i(m-n) phi} m(n, m)."""
        k = self.order
        n, m = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        return MomentMatrix(hermitize(self.values * np.exp(1j * (m - n) * phi)),
                            ordering=self.ordering)

