"""Goodness-of-fit functionals and brute-force minimizer oracles.

Each supported election method minimizes a divergence between seats and
exact proportionality: Webster the share-weighted least squares
sum(excess^2 / p), Hamilton the plain sum of squares as well as max |excess|
(and any convex per-party penalty), Jefferson max(excess / p), Adams
-min(excess / p).  The oracle enumerates every seat vector and returns the
exact argmin set so those identities can be checked instance by instance.
On exact weights it ranks the vectors by integers: with coprime integer
votes V_i and total T, each functional is a positive multiple of one built
from the integer excesses e_i = s_i*T - N*V_i (``_integer_terms``), so no
``Fraction`` is formed per seat vector.  Float weights rank by
``divergence_value``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, inf, lcm
from operator import add

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


def _delta(seats, weights: PartyWeights, house_size: int):
    return [s - house_size * p for s, p in zip(seats, weights.shares)]


def divergences(weights: PartyWeights, allocation: Allocation) -> DivergenceValues:
    """All misfit functionals of the allocation's primary seat vector."""
    if len(weights) != allocation.m:
        raise DimensionMismatchError("allocation and weights disagree on party count")
    seats, house = allocation.seats, allocation.house_size
    per_seat = Fraction(0) if weights.exact else 0.0
    for d, s in zip(_delta(seats, weights, house), seats):
        if s == 0:
            if d != 0:
                per_seat = inf
                break
            continue
        per_seat += d * d / s
    values = {name: divergence_value(name, seats, weights, house) for name in FUNCTIONALS if name != FOURTH_POWER}
    return DivergenceValues(**values, per_seat=per_seat)


def divergence_value(name: str, seats, weights: PartyWeights, house_size: int):
    """One functional evaluated on a raw seat vector (oracle entry point); its sums run left
    to right, as the built-in ``sum`` of floats did before Python 3.12 compensated it."""
    delta = _delta(seats, weights, house_size)
    shares = weights.shares
    if name == SAINTE_LAGUE:
        return reduce(add, (d * d / p for d, p in zip(delta, shares)))
    if name == SUM_SQUARES:
        return reduce(add, (d * d for d in delta))
    if name == MAX_ABS:
        return max(abs(d) for d in delta)
    if name == MAX_POS:
        return max(delta)
    if name == JEFFERSON:
        return max(d / p for d, p in zip(delta, shares))
    if name == ADAMS:
        return -min(d / p for d, p in zip(delta, shares))
    if name == FOURTH_POWER:
        return reduce(add, (d**4 for d in delta))
    raise InputError(f"unknown divergence functional {name!r}")


def _compositions(total: int, parts: int):
    """All seat vectors of length ``parts`` summing to ``total``, in lexicographic order: the next
    adds a seat to the last party j < parts - 1 with seats after it and moves the rest to the last."""
    seats = [0] * (parts - 1) + [total]
    while True:
        yield tuple(seats)
        j, rest = parts - 2, seats[-1]  # rest: the seats after party j
        while j >= 0 and not rest:
            rest, seats[j] = seats[j], 0
            j -= 1
        if j < 0:
            return
        seats[j] += 1
        seats[-1] = rest - 1


def brute_force_min(
    functional: str,
    weights: PartyWeights,
    house_size: int,
    limit: int = 10_000_000,
) -> set[tuple[int, ...]]:
    """Exact argmin set of a functional over every seat vector.

    Exact weights rank the vectors by ``_integer_terms``; float weights by
    ``divergence_value``.
    """
    m = len(weights)
    if house_size < 0:
        raise InputError("house size must be nonnegative")
    n_vectors = comb(house_size + m - 1, m - 1)
    if n_vectors > limit:
        raise InstanceTooLargeError(
            f"{n_vectors} seat vectors exceed the enumeration limit {limit}"
        )
    if weights.exact:
        terms, combine = _integer_terms(functional, weights, house_size)

        def score(seats):
            return combine(map(list.__getitem__, terms, seats))

    else:

        def score(seats):
            return divergence_value(functional, seats, weights, house_size)

    best = None
    argmin: set[tuple[int, ...]] = set()
    for seats in _compositions(house_size, m):
        val = score(seats)
        if best is None or val < best:
            best = val
            argmin = {seats}
        elif val == best:
            argmin.add(seats)
    return argmin


def _integer_terms(functional: str, weights: PartyWeights, house_size: int):
    """Per-party integer terms and their combination (sum or max) ranking
    seat vectors as ``functional`` does, on exact weights.

    With coprime integer votes V_i, total T and L = lcm(V), the excess
    e_i = s_i*T - N*V_i is T times s_i - N*p_i, so every functional is a
    positive multiple of one built from integers: sum e_i**2 * (L/V_i)
    (Sainte-Lague), sum e_i**2, max |e_i|, max e_i, max e_i * (L/V_i)
    (Jefferson), max -e_i * (L/V_i) (Adams) and sum e_i**4.  terms[i][s]
    is party i's term at s seats.
    """
    votes, total = weights.integer_votes
    scale = lcm(*votes)
    forms = {
        SAINTE_LAGUE: (sum, lambda e, v: e * e * (scale // v)),
        SUM_SQUARES: (sum, lambda e, v: e * e),
        MAX_ABS: (max, lambda e, v: abs(e)),
        MAX_POS: (max, lambda e, v: e),
        JEFFERSON: (max, lambda e, v: e * (scale // v)),
        ADAMS: (max, lambda e, v: -e * (scale // v)),
        FOURTH_POWER: (sum, lambda e, v: e**4),
    }
    if functional not in forms:
        raise InputError(f"unknown divergence functional {functional!r}")
    combine, term = forms[functional]
    return [[term(s * total - house_size * v, v) for s in range(house_size + 1)] for v in votes], combine


@dataclass(frozen=True)
class MinimizerCheck:
    """Outcome of one method-vs-functional argmin comparison."""

    passed: bool
    method_orbit: frozenset
    argmin: frozenset

    @property
    def witness(self) -> tuple[int, ...] | None:
        """A seat vector in the symmetric difference (None when passed)."""
        if self.passed:
            return None
        diff = self.method_orbit.symmetric_difference(self.argmin)
        return min(diff)


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
    orbit = method_orbit(method, weights, house_size)
    argmin = frozenset(brute_force_min(functional, weights, house_size, limit))
    return MinimizerCheck(orbit == argmin, orbit, argmin)
