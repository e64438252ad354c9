"""Signpost (divisor) sequences d(1) <= d(2) <= ... defining divisor methods.

A number x is rounded to the seat count n with d(n) <= x <= d(n+1), so the
signposts are the boundaries between n-1 and n seats.  Families provided:

* ``linear(beta)``        d(n) = n - 1 + beta, beta >= 0
* ``clipped_linear(beta)``d(n) = max(0, n - 1 + beta), beta < 0
* ``power(e)``            d(n) = n**e
* ``geometric(r)``        d(n) = r**(n-1)
* ``sqrt_pair_product()`` d(n) = sqrt(n(n-1))
* ``harmonic_pair()``     d(n) = 2n(n-1)/(2n-1)
* ``table(values, ...)``  explicit values, optionally capped or continued
                          with a linear tail

Each sequence declares an exactness class that decides how comparative
figures v/d(n) are compared:

* RATIONAL           exact ``Fraction`` comparisons
* SQUARED_RATIONAL   figures compared through their exact squares
                     (v/sqrt(n(n-1)) squared is rational)
* FLOAT              float comparisons; callers flag near-ties instead of
                     trusting equality

``closed_pair`` holds the one closed form of the linear, clipped, sqrt and harmonic
families; every evaluator reads it, with d(n) = 0 for every family at n <= ``zero_count()``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .errors import CapExceededError, InputError, InvariantError

INF = math.inf

LINEAR = "linear"
CLIPPED_LINEAR = "clipped_linear"
POWER = "power"
GEOMETRIC = "geometric"
SQRT_PAIR = "sqrt_pair_product"
HARMONIC_PAIR = "harmonic_pair"
TABLE = "table"

_FLOAT_RANGE = "signpost d({}) exceeds the float range; use exact votes"


class Exactness(enum.Enum):
    RATIONAL = "rational"
    SQUARED_RATIONAL = "squared-rational"
    FLOAT = "float"


def _geometric_pairs(ratio: Fraction, ns):
    """(a, b) in lowest terms with d(n) = a/b for the ascending n of ``ns``:
    d(0) = 0 and d(n) = ratio ** (n - 1), one exact product per step."""
    p, q = ratio.numerator, ratio.denominator
    num = den = at = 1
    for n in ns:
        if n:
            num, den, at = num * p ** (n - at), den * q ** (n - at), n
        yield (num, den) if n else (0, 1)


def _quotient(a, b) -> float:
    """a / b rounded once, as ``float(Fraction(a, b))`` is; nan past the float range."""
    try:
        return a / b
    except OverflowError:
        return math.nan


def _seat_indices(ns) -> tuple[np.ndarray, int, int]:
    """Seat indices as int64 with their least and largest (0, 0 if none); a negative raises as ``value``."""
    ns = np.asarray(ns, dtype=np.int64)
    lo, hi = (int(ns.min()), int(ns.max())) if ns.size else (0, 0)
    if lo < 0:
        raise InputError("signposts are indexed from 0")
    return ns, lo, hi


def _exact_or_float(x):
    """Keep ints/Fractions exact; leave finite floats as floats."""
    if isinstance(x, bool):
        raise InputError(f"{x!r} is not a number")
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputError(f"{x!r} is not a finite number")
        return x
    raise InputError(f"{x!r} is not a rational or float")


@dataclass(frozen=True)
class SignpostSequence:
    """One member of the signpost families above; use the classmethods."""

    kind: str
    beta: Fraction | float | None = None
    exponent: float | None = None
    ratio: Fraction | float | None = None
    values: tuple[Fraction | float, ...] | None = None
    cap: int | None = None
    tail_beta: Fraction | float | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def linear(cls, beta) -> "SignpostSequence":
        b = _exact_or_float(beta)
        if b < 0:
            raise InputError("linear signposts need beta >= 0; use clipped_linear")
        return cls(LINEAR, beta=b)

    @classmethod
    def clipped_linear(cls, beta) -> "SignpostSequence":
        b = _exact_or_float(beta)
        if b >= 0:
            raise InputError("clipped_linear is meant for beta < 0")
        return cls(CLIPPED_LINEAR, beta=b)

    @classmethod
    def power(cls, exponent: float) -> "SignpostSequence":
        try:
            e = float(_exact_or_float(exponent))
        except OverflowError:  # an exact exponent past the float range
            e = INF
        if not 0 < e < INF:
            raise InputError("power signposts need a positive finite exponent")
        return cls(POWER, exponent=e)

    @classmethod
    def geometric(cls, ratio) -> "SignpostSequence":
        r = _exact_or_float(ratio)
        if r <= 1:
            raise InputError("geometric signposts need ratio > 1")
        return cls(GEOMETRIC, ratio=r)

    @classmethod
    def sqrt_pair_product(cls) -> "SignpostSequence":
        return cls(SQRT_PAIR)

    @classmethod
    def harmonic_pair(cls) -> "SignpostSequence":
        return cls(HARMONIC_PAIR)

    @classmethod
    def table(cls, values, cap: int | None = None, tail_beta=None) -> "SignpostSequence":
        vals = tuple(_exact_or_float(v) for v in values)
        if not vals:
            raise InputError("table needs at least one signpost")
        if vals[0] < 0:
            raise InputError("signposts must be nonnegative")
        for a, b in zip(vals, vals[1:]):
            if b < a or (a > 0 and b == a):
                raise InputError("signposts must be nondecreasing and strictly increasing once positive")
        if cap is not None:
            if tail_beta is not None:
                raise InputError("cap and tail_beta are mutually exclusive")
            if not 1 <= cap <= len(vals):
                raise InputError("cap must index into the table")
        if tail_beta is not None:
            tb = _exact_or_float(tail_beta)
            first_tail = len(vals) + tb  # d(len+1) = (len+1) - 1 + tail_beta
            if first_tail <= vals[-1] and not (vals[-1] == 0 and first_tail == 0):
                raise InputError("linear tail must continue increasing past the table")
            return cls(TABLE, values=vals, tail_beta=tb)
        return cls(TABLE, values=vals, cap=cap if cap is not None else len(vals))

    # -- evaluation ----------------------------------------------------

    def value(self, n: int):
        """d(n) for n >= 0, with d(0) = 0.  Beyond a capped table: +inf."""
        if n < 0:
            raise InputError("signposts are indexed from 0")
        if n == 0:
            return Fraction(0) if self.exactness is not Exactness.FLOAT else 0.0
        if self.kind in (LINEAR, CLIPPED_LINEAR):
            raw = n - 1 + self.beta
            return raw if raw > 0 else type(raw)(0)
        if self.kind == POWER:
            return float(n) ** self.exponent
        if self.kind == GEOMETRIC:
            return self.ratio ** (n - 1)
        if self.kind == SQRT_PAIR:
            return math.sqrt(n * (n - 1))
        if self.kind == HARMONIC_PAIR:
            return Fraction(2 * n * (n - 1), 2 * n - 1)
        if self.kind == TABLE:
            if n <= len(self.values):
                if self.cap is not None and n > self.cap:
                    return INF
                return self.values[n - 1]
            if self.tail_beta is not None:
                return n - 1 + self.tail_beta
            return INF
        raise InvariantError(f"unknown signpost kind {self.kind!r}")

    def closed_pair(self):
        """n -> (a, b) with d(n) = a / b in figure space for n > ``zero_count()``, or None
        without a closed form.  Plain arithmetic on ints and on float64, int64 and object
        arrays: (n*den + num - den, den) for beta = num/den in lowest terms, (n - 1 + beta, 1)
        for a float beta, (n(n - 1), 1) for the squared sqrt pair and (2n(n - 1), 2n - 1),
        in lowest terms, for the harmonic pair."""
        kind, beta = self.kind, self.beta
        if kind in (LINEAR, CLIPPED_LINEAR) and isinstance(beta, Fraction):
            den, shift = beta.denominator, beta.numerator - beta.denominator
            return lambda n: (n * den + shift, den)
        if kind in (LINEAR, CLIPPED_LINEAR):
            return lambda n: (n - 1 + beta, 1)
        if kind == SQRT_PAIR:
            return lambda n: (n * (n - 1), 1)
        if kind == HARMONIC_PAIR:
            return lambda n: (2 * n * (n - 1), 2 * n - 1)
        return None

    @property
    def exactness(self) -> Exactness:
        if self.kind in (LINEAR, CLIPPED_LINEAR):
            return Exactness.RATIONAL if isinstance(self.beta, Fraction) else Exactness.FLOAT
        if self.kind == HARMONIC_PAIR:
            return Exactness.RATIONAL
        if self.kind == GEOMETRIC:
            return Exactness.RATIONAL if isinstance(self.ratio, Fraction) else Exactness.FLOAT
        if self.kind == SQRT_PAIR:
            return Exactness.SQUARED_RATIONAL
        if self.kind == TABLE:
            entries = list(self.values)
            if self.tail_beta is not None:
                entries.append(self.tail_beta)
            if all(isinstance(v, Fraction) for v in entries):
                return Exactness.RATIONAL
            return Exactness.FLOAT
        return Exactness.FLOAT

    def zero_count(self) -> int:
        """Number of indices n >= 1 with d(n) = 0 (mandatory seats per party)."""
        if self.kind in (LINEAR, CLIPPED_LINEAR):  # d(n) = 0 iff n <= 1 - beta; ceil is exact on floats
            return max(0, 1 - math.ceil(self.beta))
        if self.kind in (SQRT_PAIR, HARMONIC_PAIR):
            return 1
        if self.kind == TABLE:
            return sum(1 for v in self.values if v == 0)
        return 0

    def max_seats(self) -> int | None:
        """Largest per-party seat count (None when unbounded)."""
        if self.kind == TABLE and self.tail_beta is None:
            return self.cap
        return None

    # -- asymptotic / bound metadata ------------------------------------

    def asymptotic_beta(self):
        """beta with d(n) = n - 1 + beta + o(1), or None if not linear-like."""
        if self.kind in (LINEAR, CLIPPED_LINEAR):
            return self.beta
        if self.kind in (SQRT_PAIR, HARMONIC_PAIR):
            return Fraction(1, 2)
        if self.kind == TABLE and self.tail_beta is not None:
            return self.tail_beta
        return None

    def beta_envelope(self):
        """(lo, hi) with n - 1 + lo <= d(n) <= n - 1 + hi for all n >= 1,
        or None when no such finite envelope exists."""
        if self.kind in (LINEAR, CLIPPED_LINEAR):
            return (self.beta, self.beta)
        if self.kind in (SQRT_PAIR, HARMONIC_PAIR):
            # offsets d(n)-(n-1) increase from 0 towards 1/2
            return (Fraction(0), Fraction(1, 2))
        if self.kind == TABLE and self.tail_beta is not None:
            offsets = [v - n for n, v in enumerate(self.values)] + [self.tail_beta]
            return (min(offsets), max(offsets))
        return None

    # -- comparative figures --------------------------------------------
    #
    # figure(v, n) is a value monotone in v/d(n) that compares exactly within
    # one allocation: the plain quotient (RATIONAL/FLOAT) or its square
    # (SQUARED_RATIONAL).  d(n) = 0 maps to +inf, d(n) = +inf maps to 0.

    def figure_weight(self, v):
        """The numerator of v's figures: v, or v * v for the sqrt pair."""
        return v * v if self.kind == SQRT_PAIR else v

    def figure(self, v, n: int):
        try:
            d = self._figure_divisor(n)
            if d == INF:
                return 0
            if d == 0:
                return INF
            w = self.figure_weight(v)
            if isinstance(w, Fraction) and isinstance(d, Rational):
                return w / d
            return float(w) / float(d)
        except OverflowError:  # d(n) beyond the float range
            raise InputError(_FLOAT_RANGE.format(n)) from None

    def figures(self, v, ns) -> np.ndarray:
        """Array form of ``figure`` for float votes v (broadcast to the shape of ns) and seat
        indices ns >= 0, bit for bit; a divisor past the float range raises as ``figure`` does.
        ``_closed_arrays`` below 2**53 are exact floats: d = a / b rounds once, as
        ``float(Fraction)`` does, finite and positive past ``zero_count()``, and v / d
        overwrites a; the one fix-up, +inf at n <= z, runs only where ns reaches z.  Past
        2**53 each d is one ``_quotient`` of ints, and families without a ``closed_pair``
        read ``_float_table``; those divisors get every fix-up (nan, 0, +inf).  Below an
        index per entry, a closed pair is divided once per index and gathered: no bit moves."""
        v = self.figure_weight(np.asarray(v, dtype=float))
        ns, lo, hi = _seat_indices(ns)
        if not self.closed_pair():
            d = self._float_table(hi)[ns]
        else:
            table = ns.ndim > 0 and hi < ns.size  # fewer indices than entries: divide per index
            a, b, zero = self._closed_arrays(np.arange(hi + 1) if table else ns, 0 if table else lo, hi, float, 2**53)
            floats = a.dtype == float  # else Python ints, each d one _quotient (a scalar on 0-d input)
            d = np.divide(a, b, out=a) if floats else np.asarray(np.frompyfunc(_quotient, 2, 1)(a, b), dtype=float)
            if table:
                d, zero = d[ns], (ns <= self.zero_count() if lo <= self.zero_count() else None)
            if floats:
                with np.errstate(divide="ignore", invalid="ignore"):  # only where zero, set below
                    fig = np.divide(v, d, out=d)
                if zero is not None:
                    fig[zero] = INF
                return fig
        if np.isnan(d).any():
            raise InputError(_FLOAT_RANGE.format(ns[np.isnan(d)].min()))
        zero, inf = d == 0, d == INF
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 is set below
            fig = np.divide(v, d, out=d)
        fig[zero] = INF
        fig[inf] = 0.0
        return fig

    def float_limit(self, n_max: int) -> int:
        """The last n <= n_max whose d(n) ``figures`` takes (within the float range)."""
        if self.kind not in (POWER, GEOMETRIC, TABLE):
            return n_max
        return int(np.count_nonzero(~np.isnan(self._float_table(n_max)[: n_max + 1]))) - 1

    def _closed_arrays(self, ns: np.ndarray, lo: int, hi: int, dtype, limit: int):
        """``closed_pair``'s fresh array a and its b over seat indices ns in [lo, hi], and the
        mask of n <= ``zero_count()`` (None if no n is), where a = 0: in ``dtype`` while every
        number the pair forms stays below ``limit`` in magnitude (at hi, |a| and |a(0)| +
        max(hi, 1)*|b| bound them all, constants included), else in Python ints."""
        closed, z = self.closed_pair(), self.zero_count()
        (a0, _), (a, b) = closed(0), closed(hi)
        x = ns.astype(dtype if max(abs(a), abs(a0) + max(hi, 1) * abs(b)) < limit else object, copy=False)
        a, b = closed(x)
        a = np.asarray(a, dtype=x.dtype)  # a 0-d x gives scalars
        if (zero := ns <= z if lo <= z else None) is not None:
            a[zero] = 0
        return a, b, zero

    def _figure_divisor(self, n: int):
        """The divisor of n's figures: d(n), or n(n - 1) for the squared sqrt pair."""
        if n < 0:
            raise InputError("signposts are indexed from 0")
        return n * (n - 1) if self.kind == SQRT_PAIR else self.value(n)

    def _float_table(self, n_max: int) -> np.ndarray:
        """The float divisors of ``figure`` for n = 0 .. at least n_max, nan past the float range.

        The table lives in the instance dict, as ``cached_property`` values
        do, and doubles whenever a longer one is asked for.  The divisors
        never decrease, so the first nan (past the float range) ends the
        evaluation: every later entry is nan too, and a table ending in nan
        grows by nan only.
        """
        table = self.__dict__.get("_d_table", np.empty(0))
        if table.size <= n_max:
            values = np.full(max(n_max + 1, 2 * table.size, 64), math.nan)
            values[: table.size] = table
            ended = table.size > 0 and math.isnan(table[-1])
            fill = np.fromiter(self._float_divisors(table.size, table.size if ended else values.size), float)
            fill = fill[: np.logical_and.accumulate(fill == fill).sum()]  # up to the first nan
            values[table.size : table.size + fill.size] = fill
            table = self.__dict__["_d_table"] = values
        return table

    def _float_divisors(self, start: int, stop: int):
        """``_float_table`` entries for n in range(start, stop) of a power,
        geometric or table family, each from its closed form without the
        dispatch of ``value``; the first n past the float range ends them."""
        ns, r, e, tb = range(max(start, 1), stop), self.ratio, self.exponent, self.tail_beta
        last = self.cap or len(self.values or ())  # a table's last entry, then +inf or its linear tail
        if self.kind == POWER:
            closed = (float(n) ** e for n in ns)
        elif self.kind == GEOMETRIC and isinstance(r, Fraction):
            closed = (num / den for num, den in _geometric_pairs(r, ns))  # correctly rounded, as Fraction's
        elif self.kind == GEOMETRIC:
            closed = (r ** (n - 1) for n in ns)
        else:
            closed = (self.values[n - 1] if n <= last else INF if tb is None else n - 1 + tb for n in ns)
        if start == 0:
            yield 0.0
        try:
            yield from map(float, closed)
        except OverflowError:
            return

    def exact_pair(self, n: int) -> tuple[int, int]:
        """Integers (a, b) with d(n) = a / b in figure space; exact signposts only.

        Figure space squares d(n) for the sqrt pair product, as ``figure``
        does.  A figure is w*b / a with w = ``figure_weight(v)``: d(n) = 0
        gives (0, 1), an infinite figure, and past a capped table the pair
        is (1, 0), a figure of 0.  ``closed_pair`` serves its families past ``zero_count()``.
        """
        if (closed := self.closed_pair()) and self.exactness is not Exactness.FLOAT:
            if n < 0:
                raise InputError("signposts are indexed from 0")
            return closed(n) if n > self.zero_count() else (0, 1)
        d = self._figure_divisor(n)
        if isinstance(d, Rational):
            return d.numerator, d.denominator
        if d == INF:
            return 1, 0
        raise InputError("integer signpost pairs need exact signposts")

    def exact_pairs(self, ns) -> tuple[np.ndarray, np.ndarray]:
        """Array form of ``exact_pair``: arrays a, b with d(n) = a / b entry by entry.

        The families with an exact ``closed_pair`` give ``_closed_arrays``, int64 below
        2**63 and object arrays past that; the others give object arrays of the
        ``exact_pair`` integers, one call per distinct n, or of running products over
        them for a ``Fraction`` geometric ratio.
        """
        ns, lo, hi = _seat_indices(ns)
        if self.closed_pair() and self.exactness is not Exactness.FLOAT:
            a, b, _ = self._closed_arrays(ns, lo, hi, np.int64, 2**63)
            return a, np.where(ns <= self.zero_count(), 1, np.asarray(b, dtype=a.dtype))
        distinct, where = np.unique(ns, return_inverse=True)
        ds, running = distinct.tolist(), self.kind == GEOMETRIC and isinstance(self.ratio, Fraction)
        pairs = list(_geometric_pairs(self.ratio, ds) if running else map(self.exact_pair, ds))
        pairs = np.array(pairs or np.empty((0, 2)), dtype=object)
        return pairs[where, 0].reshape(ns.shape), pairs[where, 1].reshape(ns.shape)

    def divisor_of_figure(self, fig):
        """Map a figure back to a divisor value (float for squared space; sqrt(inf) is inf)."""
        return math.sqrt(fig) if self.kind == SQRT_PAIR else fig

    def seats_for_quotient(self, x) -> tuple[int, int]:
        """(n_strict, n_max): seat counts below/at a quotient value x > 0.

        n_max = max{n : d(n) <= x}; n_strict excludes indices with d(n) = x
        exactly, so a d-rounding of x is any n in [n_strict, n_max].
        """
        if not x > 0:
            raise InputError("quotient must be positive")
        # an exact x compares in figure space, which stays exact for the sqrt pair
        y, div = (self.figure_weight(x), self._figure_divisor) if isinstance(x, Fraction) else (x, self.value)

        def le(n):  # d(n) <= x
            return div(n) <= y

        def eq(n):
            return div(n) == y

        cap = self.max_seats()
        if cap is not None and self.value(cap) < x:
            raise CapExceededError(f"{x!r} lies beyond the last finite signpost d({cap})")
        lo, hi = 0, 1
        while le(hi):
            hi *= 2
            if cap is not None and hi > cap:
                hi = cap + 1
                break
        # invariant: d(lo) <= x < d(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if le(mid):
                lo = mid
            else:
                hi = mid
        n_max = lo
        n_strict = n_max - 1 if (n_max >= 1 and eq(n_max)) else n_max
        return n_strict, n_max
