"""Goodness-of-fit functionals and brute-force minimizer oracles.

Each supported election method minimizes a divergence between seats and
exact proportionality: Webster the share-weighted least squares
sum(excess^2 / p), Hamilton the plain sum of squares as well as max |excess|
(and any convex per-party penalty), Jefferson max(excess / p), Adams
-min(excess / p).  The oracle enumerates every seat vector and returns the
exact argmin set so those identities can be checked instance by instance.
It filters in floats and decides exactly: int64 blocks of seat vectors are
scored in float64 from a table of per-party terms, and only the vectors whose
float could be least are scored again in the terms' own arithmetic.  On exact
weights those are integers: with coprime integer votes V_i and total T, each
functional is a positive multiple of one built from the integer excesses
e_i = s_i*T - N*V_i (``_integer_terms``), so no ``Fraction`` is formed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate
from math import comb, inf, lcm
from operator import add

import numpy as np

from .allocation import Allocation, allocate
from .errors import DimensionMismatchError, InputError, InstanceTooLargeError
from .methods import Method, TiePolicy
from .weights import PartyWeights

SAINTE_LAGUE = "sainte_lague"
SUM_SQUARES = "sum_squares"
MAX_ABS = "max_abs"
MAX_POS = "max_pos"
JEFFERSON = "jefferson"
ADAMS = "adams"
PER_SEAT = "per_seat"
FOURTH_POWER = "fourth_power"

FUNCTIONALS = (SAINTE_LAGUE, SUM_SQUARES, MAX_ABS, MAX_POS, JEFFERSON, ADAMS, FOURTH_POWER)


@dataclass(frozen=True)
class DivergenceValues:
    """The misfit functionals of one allocation (exact for rational input).

    ``per_seat`` is the least-squares misfit weighted per seat instead of per
    voter; it is informational only and infinite when a party with a nonzero
    excess holds no seats.
    """

    sainte_lague: Fraction | float
    sum_squares: Fraction | float
    max_abs: Fraction | float
    max_pos: Fraction | float
    jefferson: Fraction | float
    adams: Fraction | float
    per_seat: Fraction | float


def divergences(weights: PartyWeights, allocation: Allocation) -> DivergenceValues:
    """All misfit functionals of the allocation's primary seat vector."""
    if len(weights) != allocation.m:
        raise DimensionMismatchError("allocation and weights disagree on party count")
    seats, house = allocation.seats, allocation.house_size
    per_seat = Fraction(0) if weights.exact else 0.0
    for s, p in zip(seats, weights.shares):
        d = s - house * p
        if s:
            per_seat += d * d / s
        elif d:
            per_seat = inf
            break
    values = {name: divergence_value(name, seats, weights, house) for name in FUNCTIONALS if name != FOURTH_POWER}
    return DivergenceValues(**values, per_seat=per_seat)


def divergence_value(name: str, seats, weights: PartyWeights, house_size: int):
    """One functional evaluated on a raw seat vector (oracle entry point); its sums run left
    to right, as the built-in ``sum`` of floats did before Python 3.12 compensated it."""
    combine, term, _ = _form(name)
    return combine(term(s - house_size * p, p) for s, p in zip(seats, weights.shares))


_SUM = partial(reduce, add)
# each functional: its combination (sum or max) of per-party terms, the term of the excess d = s - N*p and the
# share p in the weights' own arithmetic, and that of the integer excess e = s*T - N*V and L/V (``_integer_terms``)
_FORMS = {
    SAINTE_LAGUE: (_SUM, lambda d, p: d * d / p, lambda e, w: e * e * w),
    SUM_SQUARES: (_SUM, lambda d, p: d * d, lambda e, w: e * e),
    MAX_ABS: (max, lambda d, p: abs(d), lambda e, w: abs(e)),
    MAX_POS: (max, lambda d, p: d, lambda e, w: e),
    JEFFERSON: (max, lambda d, p: d / p, lambda e, w: e * w),
    ADAMS: (max, lambda d, p: -(d / p), lambda e, w: -e * w),  # -min(d/p), bit for bit
    FOURTH_POWER: (_SUM, lambda d, p: d**4, lambda e, w: e**4),
}


def _form(name: str):
    if name not in _FORMS:
        raise InputError(f"unknown divergence functional {name!r}")
    return _FORMS[name]


def _grow(cols: list, rest: np.ndarray):
    """Prefixes (party-major columns, the seats each leaves), each extended by every count the next party can take."""
    counts = rest + 1
    idx = np.arange(rest.size).repeat(counts)
    new = np.arange(idx.size) - (counts.cumsum() - counts)[idx]
    return [c[idx] for c in cols] + [new], rest[idx] - new


def _composition_blocks(total: int, parts: int, rows: int = 1 << 16):
    """All seat vectors of ``parts`` parties summing to ``total``, in lexicographic order, as party-major
    int64 blocks (parts, n <= rows).  A prefix leaving r seats to k parties has comb(r + k - 1, k - 1)
    completions: a run of prefixes whose completions fit a block is completed at once, and a prefix
    with more is split by its next party's seats."""

    def walk(cols, rest):
        left = parts - len(cols)
        ends = list(accumulate(comb(r + left - 1, left - 1) for r in rest.tolist()))
        i, done = 0, 0
        while i < rest.size:
            j = bisect_right(ends, done + rows)
            if j == i:
                yield from walk(*_grow([c[i : i + 1] for c in cols], rest[i : i + 1]))
                j = i + 1
            else:
                block, last = [c[i:j] for c in cols], rest[i:j]
                while len(block) < parts - 1:
                    block, last = _grow(block, last)
                yield np.array(block + [last])
            i, done = j, ends[j - 1]

    return walk([], np.array([total], dtype=np.int64))


def brute_force_min(
    functional: str,
    weights: PartyWeights,
    house_size: int,
    limit: int = 10_000_000,
) -> set[tuple[int, ...]]:
    """Exact argmin set of a functional over every seat vector.

    The blocks of ``_composition_blocks`` are scored in float64 from the terms of ``_integer_terms``,
    combined in ``divergence_value``'s order.  Rounding is monotone, so a least max has the least float.
    A float sum of m nonnegative terms is rounded 2m - 1 times (m conversions, m - 1 additions), so two
    sums' floats keep their exact ratio within ((1 + u)/(1 - u))**(2m - 1) < 1 + m*2**-51, u = 2**-53;
    the vectors within that factor of the least float are scored again exactly (on float weights, the
    floats decide alone).  Terms past the float range make every vector a candidate.
    """
    m = len(weights)
    if house_size < 0:
        raise InputError("house size must be nonnegative")
    _check_size(m, house_size, limit)
    terms, combine = _integer_terms(functional, weights, house_size)
    try:
        table = np.array(terms, dtype=float)
    except OverflowError:
        table = None
    # m*2**-51 = 2m*2**-52, not (2m - 1)*2**-52: the spare 2**-52 covers u**2 terms and the rounding of low*(1 + slack)
    slack = 0.0 if combine is max or not weights.exact else m * 2.0**-51
    merge = np.maximum if combine is max else np.add
    best, low, argmin = None, inf, set()
    for block in _composition_blocks(house_size, m):
        if table is not None:
            score = table[0][block[0]]
            with np.errstate(over="ignore"):  # a sum past the float range is inf, and stays a candidate if least
                for i in range(1, m):
                    merge(score, table[i][block[i]], out=score)
            low = min(low, score.min())
            block = block[:, score <= low * (1 + slack)]
        for seats in map(tuple, block.T.tolist()):
            val = combine(map(list.__getitem__, terms, seats))
            if best is None or val < best:
                best, argmin = val, {seats}
            elif val == best:
                argmin.add(seats)
    return argmin


def _check_size(m: int, house_size: int, limit: int) -> None:
    if house_size >= 0 and (n_vectors := comb(house_size + m - 1, m - 1)) > limit:  # negative houses: the caller raises
        raise InstanceTooLargeError(f"{n_vectors} seat vectors exceed the enumeration limit {limit}")


def _integer_terms(functional: str, weights: PartyWeights, house_size: int):
    """Per-party terms and their combination (sum or max) ranking seat
    vectors as ``functional`` does: terms[i][s] is party i's term at s seats.

    Float weights take the terms of ``divergence_value``.  On exact weights,
    with coprime integer votes V_i, total T and L = lcm(V), the excess
    e_i = s_i*T - N*V_i is T times s_i - N*p_i, so every functional is a
    positive multiple of one built from integers: sum e_i**2 * (L/V_i)
    (Sainte-Lague), sum e_i**2, max |e_i|, max e_i, max e_i * (L/V_i)
    (Jefferson), max -e_i * (L/V_i) (Adams) and sum e_i**4.
    """
    combine, term, integer_term = _form(functional)
    if weights.exact:
        votes, total = weights.integer_votes
        scale = lcm(*votes)
        term, parties = integer_term, [(total, v, scale // v) for v in votes]
    else:  # s*1 - N*p is s - N*p: the bits of divergence_value
        parties = [(1, p, p) for p in weights.shares]
    return [[term(s * t - house_size * v, w) for s in range(house_size + 1)] for t, v, w in parties], combine


@dataclass(frozen=True)
class MinimizerCheck:
    """Outcome of one method-vs-functional argmin comparison."""

    passed: bool
    method_orbit: frozenset
    argmin: frozenset

    @property
    def witness(self) -> tuple[int, ...] | None:
        """A seat vector in the symmetric difference (None when passed)."""
        return None if self.passed else min(self.method_orbit ^ self.argmin)


def method_orbit(method: Method, weights: PartyWeights, house_size: int) -> frozenset:
    """Every seat vector the method can output (primary plus tie alternatives)."""
    alloc = allocate(method, weights, house_size, TiePolicy.enumerate_all(max_alternatives=10_000_000))
    return frozenset({alloc.seats} | set(alloc.ties))


def verify_minimizer_identity(
    method: Method,
    functional: str,
    weights: PartyWeights,
    house_size: int,
    limit: int = 10_000_000,
) -> MinimizerCheck:
    """Check that the method's tie orbit equals the functional's argmin set."""
    _check_size(len(weights), house_size, limit)  # before allocate: the orbit is a subset of the seat vectors
    orbit = method_orbit(method, weights, house_size)
    argmin = frozenset(brute_force_min(functional, weights, house_size, limit))  # after allocate's own errors
    return MinimizerCheck(orbit == argmin, orbit, argmin)
