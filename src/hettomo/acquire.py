"""Histogramming and raw-moment extraction from detector outcomes.

Digital counterpart of an on-the-fly hardware acquisition stage: 2D quadrature
histograms, streaming (bin-free) moment accumulation, batch combination and
bootstrap resampling, and vacuum-width extraction.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .moments import BatchMoments, MomentMatrix, hermitize, moment_indices

DEFAULT_BINS = 1024
OVERFLOW_WARN_FRACTION = 1e-3
_BLOCK = 32768  # most shots in a leaf (see leaf_slices)


def _as_samples(data) -> np.ndarray:
    return np.asarray(data, dtype=complex).ravel()


class QuadratureHistogram:
    """B x B counts over the complex S plane, axes [-extent, extent]."""

    def __init__(self, bins: int = DEFAULT_BINS, extent: float = 6.0):
        if bins < 1 or not 0 < extent < math.inf:
            raise ValueError(f"need bins >= 1 and a finite extent > 0, got {extent}")
        self.bins = bins
        self.extent = float(extent)
        self._edges = np.linspace(-self.extent, self.extent, bins + 1)
        self.counts = np.zeros((bins, bins), dtype=np.uint32)   # add() fills a flat view
        self.in_range = self.overflow = 0
        self._warned = False

    @property
    def total(self) -> int:
        return self.in_range + self.overflow

    @property
    def bin_width(self) -> float:
        return 2.0 * self.extent / self.bins

    def edges(self) -> np.ndarray:
        return self._edges.copy()

    def centers(self) -> np.ndarray:
        e = self.edges()
        return 0.5 * (e[:-1] + e[1:])

    def widen_for(self, in_range: int) -> None:
        """Widen the counts to uint64 if `in_range` shots could pass a bin's uint32."""
        if in_range > np.iinfo(self.counts.dtype).max:
            self.counts = self.counts.astype(np.uint64)

    def _bin_index(self, v: np.ndarray) -> np.ndarray:
        # bins as np.histogram2d assigns them: e[i] <= v < e[i+1], +extent in the last
        e, last = self._edges, self.bins - 1
        i = np.minimum(((v + self.extent) / self.bin_width).astype(np.intp), last)
        i -= v < e[i]  # the scaled estimate can be one bin off at an exact edge
        return i + ((v >= e[i + 1]) & (i < last))

    def add(self, data) -> "QuadratureHistogram":
        """Insert samples in place; off-axis, NaN and inf are overflow. The overflow
        fraction is checked apart, by `check_overflow`, so once per batch."""
        s = _as_samples(data)
        inside = (np.abs(s.real) <= self.extent) & (np.abs(s.imag) <= self.extent)
        ix, iy = (self._bin_index(v[inside]) for v in (s.real, s.imag))
        self.widen_for(self.in_range + ix.size)
        np.add.at(self.counts.reshape(-1), ix * self.bins + iy, self.counts.dtype.type(1))
        self.in_range += ix.size
        self.overflow += s.size - ix.size
        return self

    def check_overflow(self) -> None:
        """Warn, once, if the overflow fraction so far exceeds OVERFLOW_WARN_FRACTION."""
        # once: the running fraction in the text defeats Python's duplicate filter
        if not self._warned and self.overflow > OVERFLOW_WARN_FRACTION * self.total:
            self._warned = True
            warnings.warn(f"histogram overflow fraction "
                          f"{self.overflow / self.total:.2e} exceeds "
                          f"{OVERFLOW_WARN_FRACTION:.0e}", stacklevel=2)


def _count_weighted_mean(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    mean = np.average(values, axis=0, weights=counts)
    mean[0, 0] = 1.0
    return mean


def combine_batches(batches: BatchMoments) -> MomentMatrix:
    """A run's detector moments: the count-weighted mean of its batches'."""
    return MomentMatrix(_count_weighted_mean(batches.values, batches.counts))


def resample_batches(runs: list[BatchMoments], n_boot: int,
                     seed: list[int]) -> list[np.ndarray]:
    """`n_boot` bootstrap replicas of each run's combined moments, stacked into
    one (n_boot, K+1, K+1) array per run.

    Replica by replica, and within a replica one run after the other, each
    run's batches are drawn with replacement from `default_rng(SeedSequence(seed))`
    and averaged by count as `combine_batches` does. A run of one batch would
    give every replica the same value, so it is refused.
    """
    if min(run.counts.size for run in runs) < 2:
        raise ValueError("bootstrap needs at least two batches in each run")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    replicas = [np.empty((n_boot, *run.values.shape[1:]), dtype=complex) for run in runs]
    for b in range(n_boot):
        for run, out in zip(runs, replicas):
            drawn = rng.integers(0, run.counts.size, run.counts.size)
            out[b] = _count_weighted_mean(run.values[drawn], run.counts[drawn])
    return replicas


def _power_table(s: np.ndarray, order: int) -> list[np.ndarray]:
    powers = [np.ones_like(s)]
    for _ in range(order):
        powers.append(powers[-1] * s)
    return powers


def _pairwise(n: int, leaf, start: int = 0):
    """`leaf(cut)` at each leaf of numpy's complex pairwise sum over n shots from
    `start`, in order, added up its tree: cut in half, rounded down to a multiple
    of 4, down to at most `_BLOCK` shots."""
    if n <= _BLOCK:
        return leaf(slice(start, start + n))
    half = n // 2 - n // 2 % 4
    return _pairwise(half, leaf, start) + _pairwise(n - half, leaf, start + half)


def leaf_slices(n: int) -> list[slice]:
    """The leaves of a batch of n shots, in order. Each moment sum added up their
    tree equals one np.sum over the batch bit for bit."""
    return _pairwise(n, lambda cut: [cut])


def _leaf_sums(s: np.ndarray, order: int) -> np.ndarray:
    # terms have n >= m and n + m <= order, so S^m is needed only to m = order // 2;
    # S^n, its conjugate and the products reuse 4 rows, S^n two by turns because
    # numpy's in-place complex multiply can round differently (sums stay bit-exact)
    sums = np.zeros((order + 1, order + 1), dtype=complex)
    low, buf = _power_table(s, order // 2), np.empty((4, s.size), dtype=complex)
    for n in range(order + 1):
        power = low[n] if n < len(low) else np.multiply(power, s, out=buf[n % 2])
        conj = np.conjugate(power, out=buf[2])
        for m in range(min(n, order - n) + 1):
            sums[n, m] = np.sum(np.multiply(conj, low[m], out=buf[3]))
    return sums


class StreamingMoments:
    """Single-pass accumulator of each batch's sums of (S*)^n S^m."""

    def __init__(self, order: int = 4):
        self.order = order
        self.sums: list[np.ndarray] = []
        self.counts: list[int] = []

    def update(self, data) -> "StreamingMoments":
        """Add one batch."""
        s = _as_samples(data)
        return self.add_batch(s.size, (s[cut] for cut in leaf_slices(s.size)))

    def add_batch(self, n: int, leaves) -> "StreamingMoments":
        """Add one batch of n shots from the iterable of its leaves, cut as
        `leaf_slices(n)` cuts it, each summed as it is drawn. Only those leaves
        are drawn, so one iterator can feed consecutive batches."""
        leaves = iter(leaves)

        def leaf_sums(cut: slice) -> np.ndarray:
            s = _as_samples(next(leaves, []))
            if s.size != cut.stop - cut.start:
                raise ValueError(f"leaf of {s.size} shots where leaf_slices({n}) "
                                 f"cuts {cut.stop - cut.start}")
            return _leaf_sums(s, self.order)

        sums = _pairwise(n, leaf_sums)
        if not np.isfinite(sums).all():     # refused here, before the next batch
            raise ValueError("moment matrix contains non-finite entries")
        self.sums.append(sums)
        self.counts.append(n)
        return self

    def result(self) -> BatchMoments:
        """The batches' moments, in the order they were added."""
        if not self.counts or min(self.counts) == 0:
            raise ValueError("no samples accumulated")
        counts = np.array(self.counts)
        values = np.array(self.sums) / counts[:, None, None]
        n, m = np.tril_indices(self.order + 1, -1)  # the sums fill n >= m only
        values[:, m, n] = values[:, n, m].conj()
        values[:, 0, 0] = 1.0
        return BatchMoments(values, counts)


def histogram_moments(hist: QuadratureHistogram, order: int = 4) -> MomentMatrix:
    """Detector moments from binned counts at bin centers (midpoint rule); mirrors
    a histogram-based hardware pathway and carries its quantization bias."""
    if hist.in_range == 0:
        raise ValueError("empty histogram")
    occupied, c = np.flatnonzero(hist.counts), hist.centers()   # sums skip empty bins
    s = c[occupied // hist.bins] + 1j * c[occupied % hist.bins]
    w = hist.counts.reshape(-1)[occupied] / hist.in_range
    powers = _power_table(s, order)
    values = np.zeros((order + 1, order + 1), dtype=complex)
    for n, m in moment_indices(order):
        values[n, m] = np.sum(w * powers[n].conj() * powers[m]) if n <= m else 0.0
    values[0, 0] = 1.0
    return MomentMatrix(hermitize(values))


def vacuum_sigma(data) -> float:
    """Per-quadrature width of vacuum-reference samples (X and P pooled)."""
    s = _as_samples(data)
    if s.size < 2:
        raise ValueError("need at least two samples")
    return math.sqrt(0.5 * (float(np.var(s.real)) + float(np.var(s.imag))))
