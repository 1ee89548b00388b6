"""Histogramming and raw-moment extraction from detector outcomes.

Digital counterpart of an on-the-fly hardware acquisition stage: 2D quadrature
histograms, difference histograms, streaming (bin-free) moment accumulation,
batch combination and bootstrap resampling, and batch-means error estimates.
Histograms and accumulators are mergeable, so concurrent workers can fill
private partials and combine them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .moments import moment_indices
from .simulate import ShotBatch

DEFAULT_BINS = 1024
OVERFLOW_WARN_FRACTION = 1e-3


def _as_samples(data) -> np.ndarray:
    if isinstance(data, ShotBatch):
        return data.samples
    return np.asarray(data, dtype=complex).ravel()


class QuadratureHistogram:
    """B x B counts over the complex S plane, axes [-extent, extent]."""

    def __init__(self, bins: int = DEFAULT_BINS, extent: float = 6.0):
        if bins < 1 or extent <= 0:
            raise ValueError("need bins >= 1 and extent > 0")
        self.bins = bins
        self.extent = float(extent)
        self.counts = np.zeros((bins, bins), dtype=np.uint64)
        self.overflow = 0

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @counts.setter
    def counts(self, value: np.ndarray) -> None:
        # add() fills a flat view and keeps in_range current from here on
        self._counts = np.ascontiguousarray(value, dtype=np.uint64)
        self.in_range = int(self._counts.sum())

    @property
    def total(self) -> int:
        return self.in_range + self.overflow

    @property
    def bin_width(self) -> float:
        return 2.0 * self.extent / self.bins

    def edges(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.bins + 1)

    def centers(self) -> np.ndarray:
        e = self.edges()
        return 0.5 * (e[:-1] + e[1:])

    def same_binning(self, other: "QuadratureHistogram") -> bool:
        return self.bins == other.bins and self.extent == other.extent

    def _bin_index(self, v: np.ndarray) -> np.ndarray:
        # bins as np.histogram2d assigns them: e[i] <= v < e[i+1], +extent in the last
        e, last = self.edges(), self.bins - 1
        i = np.minimum(((v + self.extent) / self.bin_width).astype(np.intp), last)
        i -= v < e[i]  # the scaled estimate can be one bin off at an exact edge
        return i + ((v >= e[i + 1]) & (i < last))

    def add(self, data) -> "QuadratureHistogram":
        """Insert a batch of samples in place; off-axis, NaN and inf are overflow."""
        s = _as_samples(data)
        inside = (np.abs(s.real) <= self.extent) & (np.abs(s.imag) <= self.extent)
        ix, iy = (self._bin_index(v[inside]) for v in (s.real, s.imag))
        np.add.at(self._counts.reshape(-1), ix * self.bins + iy, np.uint64(1))
        self.in_range += ix.size
        self.overflow += s.size - ix.size
        if self.total and self.overflow > OVERFLOW_WARN_FRACTION * self.total:
            warnings.warn(f"histogram overflow fraction "
                          f"{self.overflow / self.total:.2e} exceeds "
                          f"{OVERFLOW_WARN_FRACTION:.0e}", stacklevel=2)
        return self

    def merge(self, other: "QuadratureHistogram") -> "QuadratureHistogram":
        if not self.same_binning(other):
            raise ValueError("cannot merge histograms with different binning")
        out = QuadratureHistogram(self.bins, self.extent)
        out.counts = self.counts + other.counts
        out.overflow = self.overflow + other.overflow
        return out

    def density(self) -> np.ndarray:
        """Counts normalized to a probability density over the in-range area."""
        if self.in_range == 0:
            raise ValueError("empty histogram")
        return self.counts / (self.in_range * self.bin_width ** 2)


@dataclass(frozen=True)
class RawMomentMatrix:
    """Estimated detector moments s(n, m) = <(S*)^n S^m>, s(0,0) = 1."""

    values: np.ndarray
    count: int
    provenance: str = "streaming"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError("moment matrix must be square")
        if abs(values[0, 0] - 1.0) > 1e-9:
            raise ValueError("s(0, 0) must be 1 after normalization")
        scale = max(1.0, float(np.max(np.abs(values))))
        if np.max(np.abs(values - values.conj().T)) > 1e-9 * scale:
            raise ValueError("raw moments must be Hermitian-symmetric")
        k = values.shape[0] - 1
        n, m = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        values = np.where(n + m <= k, values, 0.0)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def order(self) -> int:
        return self.values.shape[0] - 1

    def __getitem__(self, nm: tuple[int, int]) -> complex:
        return complex(self.values[nm])


def combine_batches(batches: list[RawMomentMatrix]) -> RawMomentMatrix:
    counts = np.array([b.count for b in batches], dtype=float)
    values = np.average([b.values for b in batches], axis=0, weights=counts)
    values[0, 0] = 1.0
    return RawMomentMatrix(values, count=int(counts.sum()),
                           provenance=batches[0].provenance)


def resample_batches(runs: list[list[RawMomentMatrix]], n_boot: int,
                     seed: list[int]) -> list[tuple[RawMomentMatrix, ...]]:
    """`n_boot` bootstrap replicas of each run's combined moments.

    Each replica draws every run's batches with replacement, one run after
    the other, from `default_rng(SeedSequence(seed))` and combines them with
    `combine_batches`; replica b is a tuple with one entry per run.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [tuple(combine_batches([run[k] for k in rng.integers(0, len(run), len(run))])
                  for run in runs)
            for _ in range(n_boot)]


def _power_table(s: np.ndarray, order: int) -> list[np.ndarray]:
    powers = [np.ones_like(s)]
    for _ in range(order):
        powers.append(powers[-1] * s)
    return powers


class StreamingMoments:
    """Single-pass, mergeable accumulator of sums of (S*)^n S^m."""

    def __init__(self, order: int = 4):
        self.order = order
        self.sums = np.zeros((order + 1, order + 1), dtype=complex)
        self.count = 0

    def update(self, data) -> "StreamingMoments":
        s = _as_samples(data)
        # terms have n >= m and n + m <= order, so S^m is needed only to m = order // 2;
        # S^n, its conjugate and the products reuse 4 rows, S^n two by turns because
        # numpy's in-place complex multiply can round differently (sums stay bit-exact)
        low, buf = _power_table(s, self.order // 2), np.empty((4, s.size), dtype=complex)
        for n in range(self.order + 1):
            power = low[n] if n < len(low) else np.multiply(power, s, out=buf[n % 2])
            conj = np.conjugate(power, out=buf[2])
            for m in range(min(n, self.order - n) + 1):
                self.sums[n, m] += np.sum(np.multiply(conj, low[m], out=buf[3]))
        self.count += s.size
        return self

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        if self.order != other.order:
            raise ValueError("cannot merge accumulators of different order")
        out = StreamingMoments(self.order)
        out.sums = self.sums + other.sums
        out.count = self.count + other.count
        return out

    def result(self) -> RawMomentMatrix:
        if self.count == 0:
            raise ValueError("no samples accumulated")
        values = self.sums / self.count
        n, m = np.tril_indices(self.order + 1, -1)  # update fills n >= m only
        values[m, n] = values[n, m].conj()
        values[0, 0] = 1.0
        return RawMomentMatrix(values, count=self.count, provenance="streaming")


def streaming_moments(batches, order: int = 4) -> RawMomentMatrix:
    """Exact sample averages of (S*)^n S^m over one or more batches."""
    acc = StreamingMoments(order)
    if isinstance(batches, (ShotBatch, np.ndarray)):
        batches = [batches]
    for batch in batches:
        acc.update(batch)
    return acc.result()


def histogram_moments(hist: QuadratureHistogram, order: int = 4) -> RawMomentMatrix:
    """Moments from binned counts at bin centers (midpoint rule); mirrors
    a histogram-based hardware pathway and carries its quantization bias."""
    if hist.in_range == 0:
        raise ValueError("empty histogram")
    c = hist.centers()
    grid = c[:, None] + 1j * c[None, :]
    w = hist.counts / hist.in_range
    powers = _power_table(grid, order)
    conj_powers = [p.conj() for p in powers]
    values = np.zeros((order + 1, order + 1), dtype=complex)
    for n, m in moment_indices(order):
        if n >= m:
            values[n, m] = np.sum(w * conj_powers[n] * powers[m])
            values[m, n] = np.conj(values[n, m])
    values[0, 0] = 1.0
    return RawMomentMatrix(values, count=hist.in_range, provenance="histogram")


def difference_histogram(h_signal: QuadratureHistogram,
                         h_reference: QuadratureHistogram) -> np.ndarray:
    """Per-bin difference of the two normalized densities; sums to zero."""
    if not h_signal.same_binning(h_reference):
        raise ValueError("histograms have different binning or range")
    return h_signal.density() - h_reference.density()


def _gaussian(x, amp, sigma):
    return amp * np.exp(-0.5 * (x / sigma) ** 2)


def vacuum_sigma(data) -> float:
    """Per-quadrature width of a vacuum-reference run (X and P pooled)."""
    if isinstance(data, QuadratureHistogram):
        if data.in_range == 0:
            raise ValueError("empty histogram")
        c = data.centers()
        marg_x = data.counts.sum(axis=1).astype(float)
        marg_p = data.counts.sum(axis=0).astype(float)
        quad_values = np.concatenate([c, c])
        quad_weights = np.concatenate([marg_x, marg_p])
        mean = np.average(quad_values, weights=quad_weights)
        sigma = math.sqrt(np.average((quad_values - mean) ** 2, weights=quad_weights))
        # cross-check against a Gaussian fit of the pooled marginal
        pooled = marg_x + marg_p
        try:
            popt, _ = curve_fit(_gaussian, c, pooled,
                                p0=[float(pooled.max()), sigma])
            if abs(abs(popt[1]) - sigma) > 0.01 * sigma:
                warnings.warn("Gaussian fit width deviates from sample width "
                              "by more than 1%; data may be non-Gaussian",
                              stacklevel=2)
        except RuntimeError:
            warnings.warn("Gaussian fit did not converge", stacklevel=2)
        return sigma
    s = _as_samples(data)
    if s.size < 2:
        raise ValueError("need at least two samples")
    vx = float(np.var(s.real))
    vp = float(np.var(s.imag))
    # variance standard error ~ var * sqrt(2/n) for Gaussian data
    se = math.sqrt(2.0 / s.size) * math.hypot(vx, vp)
    if abs(vx - vp) > 3.0 * se:
        warnings.warn("X and P variances differ by more than 3 standard "
                      "errors; input may not be a vacuum run", stacklevel=2)
    return math.sqrt(0.5 * (vx + vp))


def batch_errors(batches, order: int = 4, n_batches: int = 100) -> np.ndarray:
    """Standard error of each s(n, m) from the spread of per-batch estimates.

    `batches` is either a sequence of ShotBatch/arrays (used as-is) or a
    single batch that gets split into `n_batches` equal chunks.
    """
    if isinstance(batches, (ShotBatch, np.ndarray)):
        s = _as_samples(batches)
        if s.size < n_batches:
            raise ValueError("not enough samples to form the requested batches")
        batches = np.array_split(s, n_batches)
    else:
        batches = list(batches)
    if len(batches) < 2:
        raise ValueError("need at least two batches")
    per_batch = np.array([streaming_moments(b, order).values for b in batches])
    spread = np.sqrt(np.mean(np.abs(per_batch - per_batch.mean(axis=0)) ** 2, axis=0))
    return spread / math.sqrt(len(batches) - 1)
