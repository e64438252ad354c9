"""Seat allocation for divisor and quota methods, with exact tie handling.

Divisor allocation returns the seats of awarding each seat in turn to the
largest comparative figure v_i / d(s_i + 1).  It computes them by
jump-and-step: a float estimate of the seat vector, then steps through the
quotient table, so the cost does not grow with the house size;
``_divisor_cols`` takes the same steps for every column of a party-major
float share matrix at once.  The scalar steps are one loop, ``_step``, over
figures as (num, den) pairs compared by cross-multiplication: (figure, 1.0)
on floats, and on exact weights and signposts integer pairs over coprime
integer votes, which make the seats, the tie class and the support interval
exact.  Each call builds one pair function over the signposts' cached
constants (the closed pair or a table's integer pairs for n > z).  A pass scans up to
_SCAN_MAX parties inline and reads the ends of float keys of the figures past that.
Exact sweeps take the awards their float filter cannot order from its adds.
Quota allocation floors the ideal shares (house + gamma) * p_i and hands
remaining seats to the largest fractional parts, generalized so any real
gamma works even when the raw remainder is negative or exceeds the party
count; ``allocate_quota_rows`` is that rule on floats for every row of a
share matrix, and ``allocate_quota`` runs it on one row unless the
weights and gamma are exact, when ``_largest_remainder`` runs it on integer
ideals.  The float rows and ``_exact_remainder_rows``, the integer rows of
exact quota sweeps, share one kernel, ``_remainder_rows``, on party-major
(m, houses) blocks, and differ only in what they call a tie.  It grants
the t parties ranked ahead, party i ranked behind #{j: r_j > r_i} + #{j <
i: r_j = r_i} others, counted one comparison per pair of parties rather
than by sorting each house (``_ranked``), and reads the cut off the
remainders ranked t - 1 and t.  The exact paths compare integers only;
``Fraction``s appear in their results alone (the support interval and the
orbit mean).

Every path reports a tie as one class (parties, grants, base_seats):
``grants`` of the tied parties get one seat over their base, in any
combination.  The scalar divisor path builds it with ``_tie_class`` and
``_largest_remainder`` from the remainders on the cut; the row
kernel ``_remainder_rows`` gives it as masks over the tied rows, as the
sweeps' award runs do.  It is found exactly on ints and ``Fraction``s
and within a relative NEAR_TIE_RTOL on floats, where an ideal quota seat
count that close to an integer counts as that integer.  The exact rules
return the canonical seats (the lowest indices granted), and
``_policy_seats`` applies the tie policy; a seeded draw at house N uses
``random.Random(f"{seed}:{N}")``.  Float paths flag a near-tie and keep
their seats; they never seed one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import comb, floor
from numbers import Rational

import numpy as np

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InfeasibleHouseSizeError,
    InputError,
    InvariantError,
    NegativeSeatError,
    NonpositiveQuotaError,
    _integer,
)
from .methods import DEFAULT_TIES, DivisorMethod, Method, TiePolicy
from .signposts import _FLOAT_RANGE, INF, Exactness, SignpostSequence
from .stats import _chunks
from .weights import PartyWeights

NEAR_TIE_RTOL = 1e-12
_COUNT_TABLE_MAX = 2**22  # signposts per party in the table of a count start
_SCAN_MAX = 64  # parties up to which a _step pass scans them all; more read the float keys of _KeyEnds


# -- rounding primitives --------------------------------------------------


def alpha_round(x, alpha):
    """Round x to the integer n with x - alpha <= n <= x - alpha + 1.

    Returns the unique n, or the pair (n, n+1) when x - alpha is an integer
    (alpha = 1/2 is standard rounding, 0 rounds up, 1 rounds down).
    """
    shifted = x - alpha
    lo = floor(shifted)
    if shifted == lo:
        return (lo, lo + 1)
    return lo + 1


def d_round(x, signposts: SignpostSequence):
    """Round x > 0 to the seat count n with d(n) <= x <= d(n+1).

    Returns the unique n, or the pair (n-1, n) when x = d(n) exactly.
    Raises CapExceededError for x beyond a capped table's last signpost.
    """
    n_strict, n_max = signposts.seats_for_quotient(x)
    if n_strict != n_max:
        return (n_strict, n_max)
    return n_max


# -- result types ----------------------------------------------------------


@dataclass(frozen=True, init=False)
class TieInfo:
    """One tied rank class: ``grants`` of ``parties`` get one extra seat.

    ``base_seats`` are the tied parties' seat counts excluding the contested grant; ``orbit_size``
    counts every resolution, and ``truncated`` marks ``ties`` that leave one out.  ``near`` marks a
    float near-tie where the class could not be resolved exactly.
    """

    parties: tuple[int, ...]
    grants: int
    base_seats: tuple[int, ...]
    orbit_size: int
    truncated: bool = False
    near: bool = False

    def __init__(self, parties, grants, base_seats, orbit_size, truncated=False, near=False):
        # one dict update: the frozen dataclass __init__ sets each field by object.__setattr__
        self.__dict__.update(parties=parties, grants=grants, base_seats=base_seats, orbit_size=orbit_size,
                             truncated=truncated, near=near)


_NEAR_TIE = TieInfo((), 0, (), 1, near=True)  # a float near-tie: flagged, its class not resolved


@dataclass(frozen=True, init=False)
class Allocation:
    """A seat vector plus tie descriptor and feasible parameter interval.

    ``support_interval`` holds the feasible divisors [D-, D+] for divisor
    methods and the feasible rounding offsets [alpha-, alpha+] for quota
    methods.
    """

    seats: tuple[int, ...]
    house_size: int
    ties: tuple[tuple[int, ...], ...] = ()
    tie_info: TieInfo | None = None
    support_interval: tuple = (None, None)

    def __init__(self, seats, house_size, ties=(), tie_info=None, support_interval=(None, None)):
        if sum(seats) != house_size:
            raise InvariantError("seat vector does not sum to the house size")
        self.__dict__.update(seats=seats, house_size=house_size, ties=ties, tie_info=tie_info,
                             support_interval=support_interval)

    @property
    def m(self) -> int:
        return len(self.seats)

    @property
    def tied(self) -> bool:
        return self.tie_info is not None

    def expected_seats(self) -> tuple:
        """Seat counts averaged uniformly over the tie orbit (exact).

        Each tied party holds its base seats plus grants/len(parties); without
        a resolvable tie this is just the primary vector.
        """
        ti = self.tie_info
        if ti is None or ti.near:
            return self.seats
        mean = list(map(Fraction, self.seats))
        for party, b in zip(ti.parties, ti.base_seats):
            mean[party] = b + Fraction(ti.grants, len(ti.parties))
        return tuple(mean)


@dataclass(frozen=True)
class SeatExcess:
    """Per-party deviation s_i - house_size * p_i; sums to zero exactly."""

    delta: tuple


@dataclass(frozen=True)
class QuotaFlags:
    lower: bool
    upper: bool


def seat_excess(allocation: Allocation, weights: PartyWeights) -> SeatExcess:
    """Seat excess of the primary vector, exact for rational weights."""
    if len(weights) != allocation.m:
        raise DimensionMismatchError("allocation and weights disagree on party count")
    n = allocation.house_size
    return SeatExcess(tuple(s - n * p for s, p in zip(allocation.seats, weights.shares)))


def quota_satisfaction(allocation: Allocation, weights: PartyWeights) -> tuple[QuotaFlags, ...]:
    """Lower/upper quota flags: floor(q_i) <= s_i <= ceil(q_i)."""
    if len(weights) != allocation.m:
        raise DimensionMismatchError("allocation and weights disagree on party count")
    n = allocation.house_size
    flags = []
    for s, p in zip(allocation.seats, weights.shares):
        q = n * p
        flags.append(QuotaFlags(lower=s >= floor(q), upper=s <= -floor(-q)))
    return tuple(flags)


# -- shared tie machinery ---------------------------------------------------


def _is_exact(weights: PartyWeights, sp: SignpostSequence) -> bool:
    return weights.exact and sp.exactness is not Exactness.FLOAT


def _tie_class(seats, on_held, on_next) -> tuple[tuple, int, tuple]:
    """The tie class (parties, grants, base_seats) of a seat vector.

    on_held[i] and on_next[i] say whether party i's figure at its last held
    and at its next seat is the contested figure.  A holder of a seat there
    is a grant, based one seat lower; a taker keeps its seats as its base.
    A holder wins over a taker.
    """
    parties, base, grants = [], [], 0
    for i, (s, h, x) in enumerate(zip(seats, on_held, on_next)):
        if h:
            parties.append(i)
            base.append(s - 1)
            grants += 1
        elif x:
            parties.append(i)
            base.append(s)
    return tuple(parties), grants, tuple(base)


def _members(seats, tie, grants):
    """The orbit members of a tie class that give each grant's parties their extra seat, built
    from one copy of the seats with every tied party at its base."""
    base = list(seats)
    for party, b in zip(tie[0], tie[2]):
        base[party] = b
    for grant in grants:
        vec = base.copy()
        for party in grant:
            vec[party] += 1
        yield tuple(vec)


def _policy_seats(seats, tie, policy: TiePolicy, house: int) -> tuple[int, ...]:
    """The orbit member the tie policy picks as the primary vector: the k lowest tied indices
    granted, or under ``TiePolicy.seeded`` a draw seeded by (seed, house)."""
    parties, k, _ = tie
    grant = random.Random(f"{policy.seed}:{house}").sample(parties, k) if policy.kind == "random" else parties[:k]
    return next(_members(seats, tie, [grant]))


def _resolve_orbit(seats, tie, policy: TiePolicy, house: int):
    """Apply the tie policy to a tie class: the primary vector, the other orbit members in
    ``combinations`` order (at most ``policy.max_alternatives``) and the TieInfo, ``truncated`` when
    one is left out.  The canonical member comes first in that order; only a seeded draw is looked for."""
    parties, k, base = tie
    members = _members(seats, tie, combinations(parties, k))
    if policy.kind == "random":
        primary = _policy_seats(seats, tie, policy, house)
        members = (alt for alt in members if alt != primary)
    else:
        primary = next(members)
    size, cap = comb(len(parties), k), policy.max_alternatives
    return primary, tuple(islice(members, cap)), TieInfo(parties, k, base, size, size - 1 > cap)


# -- divisor allocation -----------------------------------------------------


def _divisor_validate(weights, sp: SignpostSequence, house_size: int) -> int:
    """Check the house against 2**62, the mandatory seats and the cap; return z.

    ``weights`` is anything with one entry per party.
    """
    if _integer(house_size, "house_size") < 0:
        raise InfeasibleHouseSizeError("house size must be nonnegative")
    if house_size >= 2**62:  # the float jump start would miss by about house * 2**-53 seats
        raise InputError("divisor allocation needs a house size below 2**62")
    z, cap, *_ = sp._constants
    m = len(weights)
    if house_size < z * m:
        raise InfeasibleHouseSizeError(
            f"impervious signposts pre-assign {z} seats per party; need house size >= {z * m}"
        )
    if cap is not None and house_size > cap * m:
        raise CapExceededError(f"capped table allows at most {cap * m} seats")
    return z


def allocate_divisor(
    weights: PartyWeights,
    signposts: SignpostSequence,
    house_size: int,
    tie_policy: TiePolicy = DEFAULT_TIES,
) -> Allocation:
    """Highest-averages allocation, computed by jump-and-step.

    The seats are those of awarding each seat in turn to the largest figure
    v_i / d(s_i + 1), the lower party index first on equal figures: the
    top ``house_size - z*m`` entries of the quotient table v_i / d(n), n > z,
    under figure descending, then party index ascending.  Zero signposts
    pre-assign their z mandatory seats, so v/0 is never formed.  On an exact
    tie the canonical vector grants the contested seats to the lowest
    indices; the tie policy then picks the primary vector and lists the rest
    of the orbit.

    Jump: every party starts at ``_jump_start``, a float estimate of its
    seats from the vote shares.  Step: ``_step`` adds the best next entries
    or drops the worst held ones until the seats sum to N, then swaps while
    the best next entry beats the worst held one.  The estimate misses by
    O(m) seats, so the work is O(m) steps, not O(N) (a count start past
    _COUNT_TABLE_MAX seats per party steps the rest), each a few numpy
    operations on float keys past _SCAN_MAX parties.  Float weights or
    signposts rank the entries by ``SignpostSequence.figure``
    (float(w) / (a / b) from ``closed_pair`` where the family has one, +inf
    for n <= z) and flag a near-tie; exact ones go through ``_exact_divisor``, which ranks
    them by integer pairs.  Either way the support interval and the tie
    class come from the figures ``_step`` returns.
    """
    z = _divisor_validate(weights, signposts, house_size)
    if _is_exact(weights, signposts):
        return _exact_divisor(weights, signposts, house_size, z, tie_policy)
    votes, closed, fig = weights.votes, signposts._constants.closed, signposts.figure
    if closed:
        w = [signposts.figure_weight(v) for v in votes]
        def pair(j, n):  # a / b rounds as float(d(n)) does: figure's float, without Fraction arithmetic
            a, b = closed(n) if n > z else (0, 1)
            try:
                return (w[j] / (a / b) if a else INF), 1.0
            except OverflowError:  # an exact beta past the float range
                raise InputError(_FLOAT_RANGE.format(n)) from None
    else:
        def pair(j, n):
            return fig(votes[j], n), 1.0
    seats, held, nxt, i, k = _step(_jump_start(votes, signposts, house_size, z), pair, house_size, z, signposts)
    d_minus, d_plus = nxt[i][0], held[k][0] if k >= 0 else INF
    info = None
    if d_minus != INF and d_plus != INF and d_plus - d_minus <= NEAR_TIE_RTOL * max(abs(d_plus), abs(d_minus)):
        info = _NEAR_TIE
    interval = (signposts.divisor_of_figure(d_minus), signposts.divisor_of_figure(d_plus))
    return Allocation(tuple(seats), house_size, (), info, interval)


def _step(seats: list[int], pair, house_size: int, z: int, sp: SignpostSequence | None = None, adds=None):
    """Step ``seats`` to the top ``house_size - z*m`` entries of the quotient table.

    pair(i, n) is party i's figure at its n-th seat as (num, den), den >= 0,
    and figures compare by cross-multiplication: num/0 is infinite, and a
    numerator of 0 lies past a capped table.  Each pass finds the best next
    entry (figure descending, party ascending) and the worst held entry
    among seats > z (figure ascending, party descending; a scan skips it
    while the seats fall short): by one scan of the pairs for up to
    _SCAN_MAX parties, from ``_KeyEnds`` for more, so a pass there costs a
    few numpy operations on the keys, not m Python steps; ``pair`` gives
    the 2m start pairs and every step's.  It adds the one while the seats
    fall short of ``house_size`` and drops the other while they exceed it,
    then swaps the two while the best next entry beats the worst held one;
    the parties it adds go to the list ``adds``, if given: from a prefix of
    the award order, the awards after it.  Raises CapExceededError when the
    entry to add has numerator 0, and InvariantError past |surplus| +
    house_size - z*m + 1 passes, more than consistent pairs need from a
    start of at least z seats, or, given the signposts ``sp`` of a start
    within ``_bracket`` of the seats, past max(3m + 6, 2*bracket + 2) passes.
    Returns (seats, held, nxt, i, k): the seats, every party's pair at its
    last held and at its next seat, and the best next party i and worst held
    party k of the last pass (k = -1 when none holds a seat over z).
    """
    m = len(seats)
    held = [pair(j, s) for j, s in enumerate(seats)]
    nxt = [pair(j, s + 1) for j, s in enumerate(seats)]
    surplus = sum(seats) - house_size
    ends = m > _SCAN_MAX and _KeyEnds(seats, held, nxt, z)
    bound = abs(surplus) + house_size - z * m + 1
    if sp is not None and bound > 3 * m + 6 and abs(surplus) <= (bracket := _bracket(sp, m, house_size, z)):
        bound = max(3 * m + 6, floor(min(bound, 2 * bracket + 2)))
    for _ in range(bound):
        short, over = surplus < 0, surplus > 0
        if ends:
            i, k = ends(seats, held, nxt, z)
            (xn, xd), (hn, hd) = nxt[i], held[k]  # held[k] is unused when k = -1
        else:
            i, k, (xn, xd) = 0, -1, nxt[0]
            for j in range(1, m):
                a, b = nxt[j]
                if a * xd > xn * b:
                    i, xn, xd = j, a, b
            for j in () if short else range(m):  # short seats only add: the held entries stay put
                a, b = held[j]
                if seats[j] > z and (k < 0 or a * hd <= hn * b):  # the last of equal figures
                    k, hn, hd = j, a, b
        # compare, not subtract: two float figures past the range are inf, and inf - inf is nan
        if not (short or over) and (k < 0 or (a := hn * xd) > (b := xn * hd) or (a == b and i >= k)):
            return seats, held, nxt, i, k
        if not over:
            if not xn:  # all remaining signposts are infinite
                raise CapExceededError("house size unreachable under the table cap")
            seats[i] += 1
            held[i], nxt[i] = nxt[i], pair(i, seats[i] + 1)
            if adds is not None:
                adds.append(i)
        if not short:
            seats[k] -= 1
            held[k], nxt[k] = pair(k, seats[k]), held[k]
        surplus += short - over
    raise InvariantError("step loop overran its pass bound: the figure pairs are inconsistent")


def _key(pair) -> float:
    """num / den of a (num, den) pair, correctly rounded (so in the figures' order); inf at den 0 or past the range."""
    try:
        return pair[0] / pair[1]
    except (ZeroDivisionError, OverflowError):
        return INF


class _KeyEnds:
    """The (i, k) of a ``_step`` pass for many parties, from float64 keys of the next and held pairs.

    A held entry at <= z seats keys inf.  The parties sharing the largest next key, or the smallest
    held one (inf and 0.0 included), are ranked by the scan's cross-multiplications in party order.
    Float pairs (f, 1.0) need none but among held keys of inf, as each key is its figure.  A pass
    moves only the previous (i, k), so each call first rekeys those two (k = -1 rekeys the last
    party, to the key it has)."""

    def __init__(self, seats, held, nxt, z):
        self.next = np.array(list(map(_key, nxt)))
        self.held = np.array([_key(h) if s > z else INF for h, s in zip(held, seats)])
        self.moved, self.figures = (), isinstance(nxt[0][1], float)

    def __call__(self, seats, held, nxt, z):
        for j in self.moved:
            self.next[j] = _key(nxt[j])
            self.held[j] = _key(held[j]) if seats[j] > z else INF
        i, k, keys = -1, -1, self.next
        j = int(keys.argmax())  # the first largest key
        for j in [j] if self.figures else (keys == keys[j]).nonzero()[0].tolist():
            a, b = nxt[j]
            if i < 0 or a * xd > xn * b:
                i, xn, xd = j, a, b
        keys = self.held
        j = len(keys) - 1 - int(keys[::-1].argmin()) if self.figures else int(keys.argmin())
        for j in [j] if self.figures and keys[j] < INF else (keys == keys[j]).nonzero()[0].tolist():
            a, b = held[j]
            if seats[j] > z and (k < 0 or a * hd <= hn * b):  # the last of equal figures
                k, hn, hd = j, a, b
        self.moved = i, k
        return i, k


def _exact_divisor(weights: PartyWeights, sp: SignpostSequence, house_size: int, z: int, policy: TiePolicy):
    """``allocate_divisor`` on exact weights and signposts, in integers.

    With coprime integer votes V_i and d(n) = a/b in figure space (the
    signposts' cached ``integer`` pairs, else ``exact_pair``; (0, 1) for n
    <= z), party i's figure is w_i*b / a with w_i = ``figure_weight(V_i)``.
    ``_step`` ranks the pairs (w_i*b, a) by cross-multiplication, so the
    seats are exact, and the tie class and the support interval are read
    off the pairs it returns.  Only the two interval endpoints become
    ``Fraction``s, in the units of the caller's votes.
    """
    votes, _ = weights.integer_votes
    w = list(map(sp.figure_weight, votes))
    integer = sp._constants.integer or sp.exact_pair

    def pair(i, n):
        a, b = integer(n) if n > z else (0, 1)
        return w[i] * b, a

    seats, held, nxt, i, k = _step(_jump_start(votes, sp, house_size, z), pair, house_size, z, sp)
    (xn, xd), (hn, hd) = nxt[i], held[k]
    # V_i = c * v_i for the caller's votes v_i: integer figures are theirs times figure_weight(c)
    v0 = weights.votes[0]
    c_num, c_den = sp.figure_weight(votes[0] * v0.denominator), sp.figure_weight(v0.numerator)
    d_minus = Fraction(xn * c_den, xd * c_num) if xn else 0  # 0 past a capped table
    d_plus = Fraction(hn * c_den, hd * c_num) if k >= 0 else INF
    alternatives, info = (), None
    if k >= 0 and hn * xd == xn * hd:
        on_held, on_next = [a * xd == xn * b for a, b in held], [a * xd == xn * b for a, b in nxt]
        if any(h and x for h, x in zip(on_held, on_next)):  # excluded by strict monotonicity
            raise InvariantError("signpost sequence not strictly increasing at a tie")
        seats, alternatives, info = _resolve_orbit(seats, _tie_class(seats, on_held, on_next), policy, house_size)
    interval = (sp.divisor_of_figure(d_minus), sp.divisor_of_figure(d_plus))
    return Allocation(tuple(seats), house_size, alternatives, info, interval)


def _divisor_cols(shares: np.ndarray, sp: SignpostSequence, house_size: int) -> np.ndarray:
    """``allocate_divisor``'s canonical seats for every column of party-major
    float shares (m, k): the (m, k) int64 seats.

    Column r gets the seats of allocate_divisor(PartyWeights.of(shares[:, r]), sp,
    house_size), bit for bit, ties included: the same steps, taken for all columns at
    once, from ``_jump_starts`` of the column itself (which should sum to 1).  Each
    round, a column short of the house adds its best next entry (figure descending,
    lower index first), one over it drops its worst held entry (figure ascending, higher
    index first), and any other swaps the two while the best next entry beats the worst
    held one.  A column where it does not holds a prefix of the canonical order, so one
    add or drop ends a column one seat off.  Figures come from ``SignpostSequence.figures``,
    +inf at z seats, each end from one comparison per party (``_ends``), and a move is one
    scatter into the flat seats.  Adds and drops move a column's total toward N, and a
    swap moves a seat from above its final count to below, so columns end within
    2*bracket + 2 rounds (``_bracket``).  Columns that are not finite, whose start misses
    the house by more than the bracket, or that take more rounds raise InvariantError.
    ``harness.allocate_many`` is its row API.
    """
    m, k = shares.shape
    z = _divisor_validate(shares, sp, house_size)  # one entry per party
    if not np.isfinite(shares).all():
        raise InvariantError("jump-and-step bracket needs finite share rows")
    seats = np.ascontiguousarray(_jump_starts(shares.T, sp, house_size, z).T)
    bracket = _bracket(sp, m, house_size, z)
    gap = seats.sum(axis=0) - house_size  # each column's seats past the house
    if (np.abs(gap) > bracket).any():
        raise InvariantError(
            "jump start misses the house size by more than the bracket; "
            "share rows must be finite and sum to 1"
        )
    rows, s, v = np.arange(k), seats, shares  # the rows that may still need a step
    cells, width = seats.reshape(-1), np.intp(k)  # party i's seats in column r are cell i*k + r
    for _ in range(floor(2 * bracket + 2)):
        best, f_best = _ends(sp.figures(v, s + 1), np.greater, np.maximum)
        worst, f_worst = _ends(sp.figures(v, s), np.less_equal, np.minimum)
        short, over = gap < 0, gap > 0
        if (f_best[short] == 0).any():  # all remaining signposts are infinite
            raise CapExceededError("house size unreachable under the table cap")
        cross = (f_best > f_worst) | ((f_best == f_worst) & (best < worst))  # out of canonical order
        swap = cross & (gap == 0)
        add, drop = short | swap, over | swap
        cells[best[add] * width + rows[add]] += 1
        cells[worst[drop] * width + rows[drop]] -= 1
        keep = cross | (gap < -1) | (gap > 1)  # in order, one add or drop ends a row
        rows, gap = rows[keep], (gap + add - drop)[keep]
        if not rows.size:
            return seats
        s, v = seats[:, rows], shares[:, rows]
    raise InvariantError("jump-and-step steps overran the bracket")


def _ends(figs: np.ndarray, better, pick) -> tuple[np.ndarray, np.ndarray]:
    """(party, figure) per column of party-major figures: np.greater and np.maximum give
    ``argmax``'s first maximum, np.less_equal and np.minimum the last minimum.  The party
    is the largest index of a win, in the smallest unsigned type that holds m - 1."""
    won, end = np.zeros(figs.shape, dtype=bool), figs[0].copy()
    for j in range(1, figs.shape[0]):
        better(figs[j], end, out=won[j])
        pick(end, figs[j], out=end)
    return (won * np.arange(figs.shape[0], dtype=np.min_scalar_type(figs.shape[0] - 1))[:, None]).max(axis=0), end


def _bracket(sp: SignpostSequence, m: int, house_size: int, z: int) -> float:
    """How far a jump start may miss the seats of m parties, in seats summed over them.

    With the envelope n - 1 + lo <= d(n) <= n - 1 + hi of ``beta_envelope`` and w =
    max(beta - min(lo, 1), hi - beta), each party's clamped start lies within
    p_i*m(1/2 + w) + 1 + w of its seats, m(3/2 + 2w) in all; the bracket adds
    (m + 4)*N*2**-50 for float error and 2.  Without an envelope, or with w (the cached
    ``width``) past the float range, it is N - z*m.
    """
    if (w := sp._constants.width) is not None and w < INF:
        return m * (1.5 + 2 * w) + (m + 4) * house_size * 2.0**-50 + 2
    return house_size - z * m


def _jump_start(votes, sp: SignpostSequence, house_size: int, z: int) -> list[int]:
    """``_jump_starts`` for one vote vector, as Python ints: for a family with a float beta
    the same formula in pure Python, with the same IEEE operations in the same order, which
    costs less than a one-row array; the others call ``_jump_starts``."""
    total = sum(votes)
    _, cap, _, _, beta, _ = sp._constants
    if beta is None:  # no beta, or an exact one past the float range
        return _jump_starts(np.array([[float(v / total) for v in votes]]), sp, house_size, z)[0].tolist()
    top = house_size if cap is None else min(cap, house_size)
    scale, shift = house_size + len(votes) * (beta - 0.5), 1.0 - beta
    start = [floor(v / total * scale + shift) for v in votes]  # a Fraction share times a float rounds it first
    return start if z <= min(start) and max(start) <= top else [min(max(s, z), top) for s in start]


def _jump_starts(shares: np.ndarray, sp: SignpostSequence, house_size: int, z: int) -> np.ndarray:
    """Int64 estimate of the seats of every row of (k, m) shares, in their layout: for
    families with an asymptotic beta floor(p_i (N + m(beta - 1/2)) + 1 - beta), clamped to
    [z, min(cap, N)] and then truncated (the bounds are integers >= 0); else ``_count_starts``."""
    m = shares.shape[1]
    _, cap, _, _, beta, _ = sp._constants
    if beta is None:  # no beta, or an exact one past the float range, where the steps start at z
        no_beta = sp.asymptotic_beta() is None
        return _count_starts(shares, sp, house_size, z) if no_beta else np.full(shares.shape, z, dtype=np.int64)
    top = house_size if cap is None else min(cap, house_size)
    start = shares * (house_size + m * (beta - 0.5))
    start += 1.0 - beta
    np.maximum(start, z, out=start)  # np.clip costs more on one row
    return np.minimum(start, top, out=start).astype(np.int64)


def _count_starts(shares: np.ndarray, sp: SignpostSequence, house_size: int, z: int) -> np.ndarray:
    """Seat estimate of every row for the families without an asymptotic beta.

    Party i of a row gets z plus its count of signposts d(n), z < n <=
    min(cap, N), with log2 d(n) <= log2 p_i + x: the seats whose figures
    p_i / d(n) reach 2**-x.  The counts grow with x, and x is bisected per
    row over [-2200, 2200], keeping the counts of the largest x found whose
    counts sum to at most N, until every row is within min(m, _SCAN_MAX)
    seats of N (or the bisection is down to 2e-11); the steps then add the
    seats left, one pass each.  The table stops at _COUNT_TABLE_MAX seats,
    so its memory stays bounded; a party owed more starts at the table's
    end and the steps add the rest.
    """
    k, m = shares.shape
    cap = sp.max_seats()
    top = min(house_size if cap is None else min(cap, house_size), _COUNT_TABLE_MAX)
    d = sp._float_table(top)[z + 1 : top + 1]  # nondecreasing and positive
    log_d = np.log2(np.where(np.isnan(d), INF, d))  # past the float range: never counted
    with np.errstate(divide="ignore"):
        log_p = np.log2(shares)
    lo, hi = np.full(k, -2200.0), np.full(k, 2200.0)
    seats = np.full((k, m), z, dtype=np.int64)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        counts = z + np.searchsorted(log_d, log_p + mid[:, None], side="right")
        fits = counts.sum(axis=1) <= house_size
        seats[fits] = counts[fits]
        lo = np.where(fits, mid, lo)
        hi = np.where(fits, hi, mid)
        if (np.einsum("ij->i", seats) >= house_size - min(m, _SCAN_MAX)).all():
            break
    return seats


# -- quota allocation -------------------------------------------------------


def allocate_quota(
    weights: PartyWeights,
    gamma,
    house_size: int,
    tie_policy: TiePolicy = DEFAULT_TIES,
) -> Allocation:
    """Largest-remainder allocation with quota total/(house_size + gamma).

    Floors the ideal seat counts f_i = (house_size + gamma) p_i and writes the
    remainder as q * m + t with 0 <= t < m, so every real gamma is covered:
    each party gets base + q seats and the t largest fractional parts one
    more.  Exact weights with a rational gamma run ``_largest_remainder`` on
    integers and apply the tie policy to its tie class; the others run
    ``allocate_quota_rows`` on one row.  Negative seat counts are reported,
    never clamped.
    """
    if _integer(house_size, "house_size") < 0:
        raise InfeasibleHouseSizeError("house size must be nonnegative")
    if not isinstance(gamma, Fraction) and isinstance(gamma, Rational):
        gamma = Fraction(gamma)
    rational = isinstance(gamma, Fraction)  # then scale = (house_size + gamma) * gamma.denominator
    scale = house_size * gamma.denominator + gamma.numerator if rational else house_size + gamma
    if not scale > 0:
        raise NonpositiveQuotaError(f"need house_size + gamma > 0, got {house_size} + {gamma}")
    alternatives, info = (), None
    if rational and weights.exact:
        votes, total = weights.integer_votes
        ideal, den = [scale * v for v in votes], gamma.denominator * total
        seats, tie = _largest_remainder(ideal, den, house_size, gamma)
        if tie is not None:
            seats, alternatives, info = _resolve_orbit(seats, tie, tie_policy, house_size)
        # ideal_i - s_i = slack_i / den, the integers of _largest_remainder
        slack = [x - s * den for x, s in zip(ideal, seats)]
        interval = (Fraction(max(slack), den), Fraction(min(slack) + den, den))
        return Allocation(tuple(seats), house_size, alternatives, info, interval)
    ideals = _quota_ideals(np.array(weights.shares_float())[:, None], gamma, [house_size])
    ideal = ideals[:, 0].tolist()
    seats = np.empty(ideals.shape, dtype=np.int64)
    tied, _, _ = _float_remainder_rows(ideals, gamma, [house_size], seats, False)
    seats = seats[:, 0].tolist()
    slack = [f - s for f, s in zip(ideal, seats)]
    return Allocation(tuple(seats), house_size, (), _NEAR_TIE if tied.size else None, (max(slack), min(slack) + 1))


def _quota_ideals(shares, gamma, houses) -> np.ndarray:
    """The ideal seat counts float(house + gamma) * p_i of ``allocate_quota_rows``,
    party-major: shares (m, k), or (m, 1) for every house, give (m, len(houses)).

    A Fraction gamma = num/den is rounded once, as the division of exact
    floats (house*den + num) / den while (house + 1)*den + |num| < 2**53.  An
    ideal within NEAR_TIE_RTOL*max(1, |k|) of an integer k is that integer,
    so an exact tie whose fractional parts straddle the wrap (1 - eps, eps)
    is a near-tie at every house size.
    """
    houses = np.asarray(houses)
    if houses.size and not int(houses.max()) + abs(float(gamma)) < 2**62:
        raise InputError("the float largest-remainder rule needs house + |gamma| below 2**62")
    houses = houses.astype(np.int64)
    if not isinstance(gamma, Fraction):
        scale = houses + gamma
    elif not houses.size or (int(houses.max()) + 1) * gamma.denominator + abs(gamma.numerator) < 2**53:
        scale = (houses * gamma.denominator + gamma.numerator) / gamma.denominator
    else:
        scale = np.array([float(h + gamma) for h in houses.tolist()])
    if not (scale > 0).all():
        raise NonpositiveQuotaError(f"need house_size + gamma > 0, got {houses[np.argmin(scale)]} + {gamma}")
    ideal = np.asarray(shares, dtype=float) * scale
    whole = np.rint(ideal)
    tol = np.maximum(whole, 1.0)  # the ideals are nonnegative
    tol *= NEAR_TIE_RTOL
    np.copyto(ideal, whole, where=np.abs(ideal - whole) <= tol)
    return ideal


def allocate_quota_rows(shares, gamma, houses) -> tuple[np.ndarray, np.ndarray]:
    """``allocate_quota``'s rule on floats at houses[r] for every row r of a
    (k, m) share matrix (a single row serves every house).

    Floors the ideal seat counts of ``_quota_ideals``; equal fractional
    parts go to the lower index.  Returns the int64 seats, (k, m), and a
    per-row near-tie flag: the last granted and first refused fractional
    parts lie within NEAR_TIE_RTOL*max(1, house + gamma), the float error of
    ideals that large.  Raises NonpositiveQuotaError when some house + gamma
    <= 0, NegativeSeatError on a negative seat, and InputError when house +
    |gamma| reaches 2**62 (the floors would overflow int64).  The rows run
    party-major, on one transposed copy of ``shares``.
    """
    shares = np.ascontiguousarray(np.asarray(shares, dtype=float).T)
    seats, tied, _, _ = _float_quota_rows(shares, gamma, houses, masks=False)
    near = np.zeros(seats.shape[1], dtype=bool)
    near[tied] = True
    return seats.T, near


def _float_quota_rows(shares, gamma, houses, masks=True):
    """``allocate_quota_rows`` on party-major shares (m, k), or (m, 1) for
    every house, with the tie masks of ``_remainder_rows`` (None unless
    ``masks``): returns the (m, len(houses)) seats, tied, tie and held.  The
    houses run in tiles of ``stats._CHUNK`` values, from the ideals to the
    seats, which every tile writes into one array; its ``tied`` houses are
    offset by its start.
    """
    houses, shares = np.asarray(houses), np.asarray(shares, dtype=float)
    _quota_ideals(shares[:0], gamma, houses)  # check every house before the first tile
    m = shares.shape[0]
    seats = np.empty((m, houses.size), dtype=np.int64)
    none = np.zeros((m, 0), dtype=bool)
    found = [(np.zeros(0, dtype=np.int64), none, none)]  # what zero houses give
    for t in _chunks(houses.size, m):
        ideal = _quota_ideals(shares if shares.shape[1] == 1 else shares[:, t], gamma, houses[t])
        tied, tie, held = _float_remainder_rows(ideal, gamma, houses[t], seats[:, t], masks)
        found.append((tied + t.start, tie, held))
    tied, tie, held = zip(*found)
    masks = (np.concatenate(tie, axis=1), np.concatenate(held, axis=1)) if masks else (None, None)
    return seats, np.concatenate(tied), *masks


def _float_remainder_rows(frac, gamma, houses, seats, masks=True):
    """``_remainder_rows`` on the party-major float ideals ``frac``, which it
    overwrites, with the seats written into ``seats``: returns (tied, tie, held)."""
    houses = np.asarray(houses, dtype=np.int64)
    base = np.floor(frac)
    frac -= base
    seats[...] = base
    tol = NEAR_TIE_RTOL * np.maximum(1.0, houses + float(gamma))
    _, tied, tie, held = _remainder_rows(seats, frac, houses, tol, masks)
    _check_nonnegative(seats, gamma, houses)
    return tied, tie, held


def _exact_remainder_rows(votes, total: int, gamma: Fraction, houses):
    """``_largest_remainder`` at every house of an ascending int64 array:
    returns the party-major (seats, tied, tie, held) of ``_remainder_rows``
    with the remainders equal to the cut as the tie class.

    The ideals (house*g_den + g_num)*V_i over g_den*T, gamma = g_num/g_den,
    are int64 while they fit and Python ints in object arrays beyond.
    Raises NegativeSeatError at the first house where some seat vector of
    the orbit has a negative count.
    """
    den = gamma.denominator * total
    top = (int(houses[-1]) * gamma.denominator + abs(gamma.numerator)) * max(votes)
    dt = np.int64 if top < 2**63 and den < 2**63 else object
    ideal = np.array(votes, dtype=dt)[:, None] * (houses.astype(dt) * gamma.denominator + gamma.numerator)
    base = ideal // den
    seats, tied, tie, held = _remainder_rows(base.astype(np.int64), ideal - base * den, houses, 0)
    orbit_low = np.zeros(houses.size, dtype=bool)
    orbit_low[tied] = (seats[:, tied] - held < 0).any(axis=0)
    _check_nonnegative(seats, gamma, houses, orbit_low)
    return seats, tied, tie, held


def _remainder_rows(base, rem, houses, tol, masks=True):
    """The largest-remainder rule on party-major (m, k) int64 floors
    ``base`` and remainders ``rem`` (floats, or integers over a common
    denominator), house r in column r at houses[r].

    Every party gets its floor plus q, and the t largest remainders one
    seat more, where the seats left over are q*m + t with 0 <= t < m: the
    parties ranked 0 .. t - 1 by ``_ranked``, so equal remainders go to the
    lower index.  The cut is the remainder ranked t - 1, the least granted
    one, and ``refused`` the one ranked t, the largest of the others.  A
    house is tied when t > 0 and the cut lies within ``tol`` (0, or one
    bound per house) of the refused remainder; its class is the remainders
    within ``tol`` of the cut.  Returns the seats (``base``, overwritten),
    the indices ``tied`` of the tied houses, and the (m, len(tied)) masks
    ``tie`` and ``held`` of the parties in each class and of those of them
    granted a seat (None unless ``masks``).
    """
    m = base.shape[0]
    t = houses - np.einsum("ij->j", base)
    q = t // m  # floor division by a scalar is fast, divmod is not
    t -= q * m
    granted, cut, refused = _ranked(rem, t)
    seats = base
    seats += q
    seats += granted
    tol = np.broadcast_to(tol, t.shape)
    tied = np.flatnonzero((t > 0) & (cut - refused <= tol))
    if not masks:
        return seats, tied, None, None
    tie = abs(rem[:, tied] - cut[tied]) <= tol[tied]
    return seats, tied, tie, tie & granted[:, tied]


def _ranked(rem, t):
    """(granted, cut, refused) of party-major (m, k) remainders and t < m
    seats to grant per house.  Party i ranks behind #{j: r_j > r_i} + #{j <
    i: r_j = r_i} parties of its house; ``granted`` marks the t ranked
    ahead, and ``cut`` and ``refused`` are the remainders ranked t - 1 and t
    (any remainder where t = 0).

    With at least 30 houses per pair of parties, no house is sorted: one
    comparison per pair counts every rank at once (a numpy call per pair,
    hence the 30), and m passes find the parties ranked t - 1 and t.  With
    fewer (many parties, or few houses), a sort of each house's remainders
    gives the cut and the refused one, and the parties above the cut are
    granted, then the first of those equal to it.
    """
    m, k = rem.shape
    if 15 * m * (m - 1) > k:
        ranked = np.sort(rem, axis=0)
        cut, refused = ranked[np.minimum(m - t, m - 1), np.arange(k)], ranked[m - 1 - t, np.arange(k)]
        above, equal = rem > cut, rem == cut
        return above | (equal & (np.cumsum(equal, axis=0) <= t - above.sum(axis=0))), cut, refused
    rank = np.zeros((m, k), dtype=np.min_scalar_type(-m))
    for i in range(1, m):
        for j in range(i):
            ahead = np.greater_equal(rem[j], rem[i]).view(np.int8)  # 1 where j ranks ahead of i, 0 where i of j
            rank[i] += ahead
            rank[j] -= ahead
    rank += np.arange(m - 1, -1, -1, dtype=rank.dtype)[:, None]  # the m - 1 - j parties after j, less those behind it
    t = t.astype(rank.dtype)
    who = np.zeros((2, k), dtype=np.intp)  # the parties ranked t - 1 and t
    for i in range(1, m):
        who[0] += np.multiply(rank[i] == t - 1, i, dtype=rank.dtype)
        who[1] += np.multiply(rank[i] == t, i, dtype=rank.dtype)
    who *= k
    who += np.arange(k)  # their flat indices in ``rem``
    cut, refused = np.take(rem.ravel(), who)
    return rank < t, cut, refused


def _check_nonnegative(seats, gamma, houses, orbit_low=None) -> None:
    """Raise NegativeSeatError at the first house of the party-major
    ``seats`` with a negative count, or flagged in ``orbit_low`` (a member of
    its tie orbit has one)."""
    low = (seats < 0).any(axis=0)
    if orbit_low is not None:
        low |= orbit_low
    if low.any():
        r = int(np.argmax(low))
        what = "in the tie orbit" if orbit_low is not None and orbit_low[r] else tuple(seats[:, r].tolist())
        raise NegativeSeatError(f"gamma={gamma} yields negative seats {what} at house size {houses[r]}")


def _largest_remainder(ideal, den: int, house_size: int, gamma):
    """The exact largest-remainder rule on integer ideals: ideal_i / den is
    the ideal seat count (house_size + gamma) V_i / T of integer votes V_i
    with total T, over den = gamma.denominator * T.

    Every party gets its floor plus q, and the t largest remainders one seat more,
    where the seats left over are q * m + t with 0 <= t < m.  Returns
    the canonical seats, which grant the lowest indices among equal
    remainders, and the tie class (parties, grants, base_seats), or None
    when the granted and the refused remainders differ.  Raises
    NegativeSeatError when any seat vector of the orbit has a negative count.
    """
    m = len(ideal)
    base = [x // den for x in ideal]
    rem = [x % den for x in ideal]
    q, t = divmod(house_size - sum(base), m)
    seats = [b + q for b in base]
    tie = None
    if t > 0:
        order = sorted(range(m), key=rem.__getitem__, reverse=True)  # stable: lower index first
        cut = rem[order[t - 1]]
        if rem[order[t]] == cut:  # the tie class, based on the seats before the grants
            parties = tuple(i for i, r in enumerate(rem) if r == cut)
            tie = parties, sum(rem[i] == cut for i in order[:t]), tuple(seats[i] for i in parties)
        for i in order[:t]:
            seats[i] += 1
    orbit_low = tie is not None and min(tie[2]) < 0
    if orbit_low or min(seats) < 0:
        _check_nonnegative(np.array(seats)[:, None], gamma, [house_size], np.array([orbit_low]))
    return seats, tie


# -- method dispatch ---------------------------------------------------------


def allocate(
    method: Method,
    weights: PartyWeights,
    house_size: int,
    tie_policy: TiePolicy = DEFAULT_TIES,
) -> Allocation:
    if isinstance(method, DivisorMethod):
        return allocate_divisor(weights, method.signposts, house_size, tie_policy)
    return allocate_quota(weights, method.gamma, house_size, tie_policy)
