"""Mergeable running statistics for seat-excess sweeps and Monte Carlo runs.

``RunningMoments`` keeps vector means and the full comoment matrix with a
numerically stable pairwise (Chan) merge, so a sweep can be split into
chunks, processed independently, and recombined associatively.
``SweepStats`` adds per-party histograms, quota violation counts and tie
counts.

The kernels take a batch party-major, as an (m, k) array with one
contiguous row of k values per party, the layout of the sweeps' blocks.
The public ``push_batch`` and ``record_batch`` take (k, m) rows and hand
one transposed copy to the kernels.  The layout moves no bit: a batch's
mean is the sequential sum of each party's row (``_column_means``), the sum
``mean(axis=0)`` forms over (k, m) rows, and its comoment is one matrix
product c @ c.T of the centered rows, which the batch itself holds: the
moments centre it in place, so a batch needs no copy of its size and is
pushed to the moments last.  The histogram (one ``bincount``), the
violation counts (comparisons and an int32 sum per party) and the
running sums of the mean run in tiles of ``_CHUNK`` values.  ``_row_sums``
gives the samplers numpy's ``sum(axis=1)`` of short (k, m) rows from
whole-column adds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InputError

_CHUNK = 1 << 16  # values per tile of the array kernels: a few of them fit in cache
_NARROW = 20  # values per row up to which kernels on whole columns beat numpy's loop per row


def _chunk_rows(m: int) -> int:
    """Rows of m values per chunk."""
    return max(1, _CHUNK // m)


def _chunks(n: int, m: int):
    """Slices of n rows of m values, ``_chunk_rows(m)`` rows each."""
    step = _chunk_rows(m)
    return (slice(a, min(a + step, n)) for a in range(0, n, step))


def _row_sums(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """numpy's ``sum(axis=1)`` of (k, m) row-major rows into out (k,), bit for bit, in any layout.
    Up to ``_NARROW`` values a row it adds whole columns in numpy's pairwise order (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., §4.2) to 0.0, so a row of -0.0 sums to 0.0:
    below 8 values in sequence, else eight strided partial sums, ((r0 + r1) + (r2 + r3)) + ((r4 +
    r5) + (r6 + r7)), then the rest in sequence.  Wider rows go to numpy, as a row-major copy if need be."""
    m = rows.shape[1]
    if m > _NARROW:
        return np.sum(np.ascontiguousarray(rows), axis=1, out=out)
    tail = m - m % 8
    out.fill(0.0)
    if tail:
        r = list(rows[:, :8].T)
        for a in range(8, tail, 8):
            r = [x + y for x, y in zip(r, rows[:, a : a + 8].T)]
        out += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for col in rows[:, tail:].T:
        out += col
    return out


def _party_major(xs, dim: int) -> np.ndarray:
    """(k, dim) rows as the one party-major (dim, k) float copy the kernels take."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise DimensionMismatchError(f"expected (k, {dim}) batch, got {xs.shape}")
    return np.array(xs.T, order="C")


def _column_means(cols: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The means of the rows of a party-major (m, k) batch, bit for bit those
    of ``mean(axis=0)`` over its (k, m) transpose: numpy sums m >= 2 columns
    row after row from 0.0, the last entry of a running sum plus 0.0, and
    one contiguous column pairwise, as ``sum`` does a contiguous row.  The
    running sum goes through ``scratch``, (m, w) for any w >= 1, w columns
    at a time, each tile's first entry carrying the sum before it."""
    m, k = cols.shape
    if m == 1:
        return cols.sum(axis=1) / k
    w = scratch.shape[1]
    np.cumsum(cols[:, :w], axis=1, out=scratch[:, : min(w, k)])
    carry = scratch[:, min(w, k) - 1].copy()
    for a in range(w, k, w):
        tile = scratch[:, : min(w, k - a)]
        np.copyto(tile, cols[:, a : a + tile.shape[1]])
        tile[:, 0] += carry
        np.cumsum(tile, axis=1, out=tile)
        carry = tile[:, -1].copy()
    return (carry + 0.0) / k  # + 0.0: the sum starts from 0.0, so -0.0 sums to 0.0


class RunningMoments:
    """Running mean vector and comoment matrix of vector observations."""

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0.0
        self.mean = np.zeros(dim)
        self.comoment = np.zeros((dim, dim))  # sum of outer(x - mean, x - mean)

    def push_batch(self, xs) -> None:
        """Push (k, dim) rows of observations."""
        self._push(_party_major(xs, self.dim))

    def _push(self, cols: np.ndarray) -> None:
        """The kernel of ``push_batch``: a party-major (dim, k) float batch,
        which it centres in place."""
        m, k = cols.shape
        if k == 0:
            return
        batch_mean = _column_means(cols, np.empty((m, min(k, _chunk_rows(m)))))
        centered = np.subtract(cols, batch_mean[:, None], out=cols)
        self._combine(k, batch_mean, centered @ centered.T)

    def merge(self, other: "RunningMoments") -> None:
        if other.dim != self.dim:
            raise DimensionMismatchError("dimension mismatch in merge")
        self._combine(other.count, other.mean, other.comoment)

    def _combine(self, n2, mean2, como2) -> None:
        n1 = self.count
        n = n1 + n2
        if n2 == 0:
            return
        if n1 == 0:
            self.count, self.mean, self.comoment = n2, np.array(mean2, dtype=float), np.array(como2, dtype=float)
            return
        delta = np.asarray(mean2, dtype=float) - self.mean
        self.mean = self.mean + delta * (n2 / n)
        self.comoment = self.comoment + como2 + np.outer(delta, delta) * (n1 * n2 / n)
        self.count = n

    @property
    def variance(self) -> np.ndarray:
        """Population variance (the sweep average is over the full range)."""
        if self.count == 0:
            return np.full(self.dim, np.nan)
        return np.diag(self.comoment) / self.count

    @property
    def covariance(self) -> np.ndarray:
        if self.count == 0:
            return np.full((self.dim, self.dim), np.nan)
        return self.comoment / self.count


class DeltaHistogram:
    """Fixed-width per-party histograms of the seat excess, clipped to bounds."""

    def __init__(self, bounds, bin_width: float = 0.01):
        self.bin_width = float(bin_width)
        if not 0 < self.bin_width < np.inf:
            raise InputError(f"histogram bin width must be positive and finite, got {bin_width!r}")
        self.low = np.asarray([b[0] for b in bounds], dtype=float)
        high = np.asarray([b[1] for b in bounds], dtype=float)
        if np.any(high <= self.low):
            raise InputError("histogram bounds must have positive width")
        self.n_bins = int(np.ceil((high - self.low).max() / self.bin_width)) + 1
        self.counts = np.zeros((len(bounds), self.n_bins), dtype=np.int64)

    def push_batch(self, xs) -> None:
        """Count (k, m) rows of excesses."""
        self._push(_party_major(xs, self.counts.shape[0]))

    def _push(self, cols: np.ndarray) -> None:
        """The kernel of ``push_batch``: a party-major (m, k) float batch, in tiles of ``_CHUNK`` values."""
        low, offsets = self.low[:, None], np.arange(0, self.counts.size, self.n_bins)[:, None]
        for t in _chunks(cols.shape[1], cols.shape[0]):
            scaled = np.subtract(cols[:, t], low)
            idx = np.divide(scaled, self.bin_width, out=scaled).astype(int)
            np.clip(idx, 0, self.n_bins - 1, out=idx)
            idx += offsets  # party i's bins follow party i - 1's
            self.counts += np.bincount(idx.ravel(), minlength=self.counts.size).reshape(self.counts.shape)

    def merge(self, other: "DeltaHistogram") -> None:
        if (
            other.counts.shape != self.counts.shape
            or other.bin_width != self.bin_width
            or not np.array_equal(other.low, self.low)
        ):
            raise DimensionMismatchError("histogram configurations differ")
        self.counts += other.counts


@dataclass
class SweepStats:
    """Accumulated seat-excess statistics over house sizes or MC trials."""

    moments: RunningMoments
    histogram: DeltaHistogram | None = None
    lower_violations: np.ndarray = None
    upper_violations: np.ndarray = None
    any_violation: float = 0.0
    ties: float = 0.0
    near_ties: float = 0.0
    n_from: int | None = None
    n_to: int | None = None

    @classmethod
    def empty(cls, dim: int, bounds=None, bin_width: float = 0.01) -> "SweepStats":
        hist = DeltaHistogram(bounds, bin_width) if bounds is not None else None
        return cls(
            moments=RunningMoments(dim),
            histogram=hist,
            lower_violations=np.zeros(dim),
            upper_violations=np.zeros(dim),
        )

    @property
    def count(self) -> float:
        return self.moments.count

    @property
    def dim(self) -> int:
        return self.moments.dim

    def record_batch(self, deltas) -> None:
        """Record (k, m) excess rows; party i violates its quota in a row where |delta_i| >= 1."""
        self._record(_party_major(deltas, self.dim))

    def _record(self, cols: np.ndarray) -> None:
        """The kernel of ``record_batch``: a party-major (m, k) float batch,
        which the moments centre in place last."""
        if self.histogram is not None:
            self.histogram._push(cols)
        self._count_violations(cols)
        self.moments._push(cols)

    def _count_violations(self, cols: np.ndarray) -> None:
        """Add the quota violations of a party-major (m, k) batch to the counts, and nothing else."""
        m, k = cols.shape
        for t in _chunks(k, m):
            low, high = cols[:, t] <= -1.0, cols[:, t] >= 1.0  # the sign picks the bound
            self.lower_violations += low.sum(axis=1, dtype=np.int32)  # int32: faster than count_nonzero's int64
            self.upper_violations += high.sum(axis=1, dtype=np.int32)
            self.any_violation += float(np.count_nonzero((low | high).any(axis=0)))  # a house counts once

    def merge(self, other: "SweepStats") -> None:
        """Combine with stats over a disjoint range; associative."""
        self.moments.merge(other.moments)
        if self.histogram is not None and other.histogram is not None:
            self.histogram.merge(other.histogram)
        self.lower_violations = self.lower_violations + other.lower_violations
        self.upper_violations = self.upper_violations + other.upper_violations
        self.any_violation += other.any_violation
        self.ties += other.ties
        self.near_ties += other.near_ties
        if other.n_from is not None:
            self.n_from = other.n_from if self.n_from is None else min(self.n_from, other.n_from)
        if other.n_to is not None:
            self.n_to = other.n_to if self.n_to is None else max(self.n_to, other.n_to)

    @property
    def mean(self) -> np.ndarray:
        return self.moments.mean

    @property
    def variance(self) -> np.ndarray:
        return self.moments.variance

    @property
    def covariance(self) -> np.ndarray:
        return self.moments.covariance

    def violation_frequency(self) -> dict:
        n = max(self.count, 1.0)
        return {
            "lower": self.lower_violations / n,
            "upper": self.upper_violations / n,
            "total": (self.lower_violations + self.upper_violations) / n,
            "any": self.any_violation / n,
        }


# -- comparison against predictions ----------------------------------------


@dataclass(frozen=True)
class Tolerances:
    mean: float = 0.01
    variance: float = 0.01
    covariance: float = 0.01
    violation: float | None = None


@dataclass(frozen=True)
class ComparisonRow:
    statistic: str
    index: tuple
    empirical: float
    predicted: float
    tolerance: float

    @property
    def abs_error(self) -> float:
        return abs(self.empirical - self.predicted)

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tolerance


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self) -> list[ComparisonRow]:
        return [r for r in self.rows if not r.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "rows": [
                {
                    "statistic": r.statistic,
                    "index": list(r.index),
                    "empirical": r.empirical,
                    "predicted": r.predicted,
                    "abs_error": r.abs_error,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }

    def format_table(self) -> str:
        lines = [f"{'statistic':<14}{'index':<10}{'empirical':>14}{'predicted':>14}{'abs err':>12}{'tol':>9}  ok"]
        for r in self.rows:
            idx = ",".join(str(i + 1) for i in r.index)
            lines.append(
                f"{r.statistic:<14}{idx:<10}{r.empirical:>14.6g}{r.predicted:>14.6g}"
                f"{r.abs_error:>12.3g}{r.tolerance:>9.3g}  {'pass' if r.passed else 'FAIL'}"
            )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)
