"""Empirical verification harness: house-size sweeps, Monte Carlo over random
party sizes, rational-share period analysis, and equidistribution diagnostics.

A sweep allocates at every house size in a range and accumulates seat-excess
statistics; averaged over a long range this realizes the uniform-random-house
model the asymptotic formulas describe.  Rational shares are periodic in the
house size, so their exact bias is the average over one period.

Float and exact sweeps share their block kernels, and every block is
party-major: seats, excesses, tie masks and exact sums are (m, houses)
arrays, one contiguous row per party, which the kernels of ``stats`` take
as they are.  A divisor sweep reads its seats off the seat-award sequence,
which one loop sorts (``_award_sequence``): every party's table of figures
from the seats it starts at, taken in figure space from
``SignpostSequence.figures`` as ``allocate`` takes them (the tables
concatenated, one call per tile), sorted stably, the tables doubled within
the float range only while the final awards stop short.
``_divisor_blocks`` reads every house size off cumulative counts.  The
input picks the path: exact weights and signposts always take the exact
kernels, float input the float ones.  Exact sweeps and period averages run
on the votes scaled once to coprime integers, and certify each window of
the float award sequence of the shares in integers (``_exact_awards``),
unless a kept figure is subnormal: adjacent awards are compared by
cross-multiplication, and only runs of float figures within their rounding
bound may be re-ordered.  Quota houses run the
largest-remainder rule of ``allocation._remainder_rows`` on a block of
houses at once, on float ideals or, exactly, on integer ones, ranking the
remainders without sorting each house.  The exact rows of a block (seat
excess, violation counts) are array operations on int64 while the
integers fit and on Python ints beyond.  One integer
accumulator sums every row's seats and violation counts over its tie
orbit, so the violation totals and the mean excess (and a period average,
that mean over one period) are exact, each converted to float once.

Float input has one source of seat blocks, ``_float_seat_blocks``, which
``sweep``'s float path and ``apparentement_sweep`` (the full, the merged
and the pair's party lists) read; exact input has ``_exact_seat_blocks``.
Divisor methods are house monotone, so the awards of a range are the table
entries between the seats at its two ends: both sources pull one window
of about _FLOAT_BLOCK awards at a time through ``_divisor_blocks``, each
from the seats the window before ended on, and the first from
``allocate``'s seats at a house just below the range's first whose last
award is not close (float, ``_float_start``) or not tied (exact) to the
next (``_start``).  So neither the peak of a divisor sweep nor its cost
grows with where its range ends or starts.  A float sweep records its
moments per block and runs the quota rows, seat matrix and histogram in
cache-sized ``stats._CHUNK``-value tiles, which change no bit.  Both
seat-block sources refuse more than MAX_TRIALS houses, as Monte Carlo
refuses more trials.

Ties follow ``allocation``'s contract: one class (parties, grants,
base_seats) and one orbit mean, base + grants/k (``_orbit_parts``; exact
rows divide it out in integers).  Every sweep reads the class off the
masks of its block kernel: a divisor class is a run of adjacent awards
whose figures are equal (exact) or within NEAR_TIE_RTOL of each other,
relatively (float); a quota class is the remainders equal to the cut
(exact) or within NEAR_TIE_RTOL*max(1, house + gamma) of it (float).
Exact sweeps take a per-row step only for tied rows under
``TiePolicy.seeded``, for the draw from (seed, house) that ``allocate``
makes.  Float sweeps count a near-tie, record the orbit mean under the
averaging policy, and never seed a tie.

Monte Carlo runs one loop for ordered-party statistics and random-mode
violation frequencies: batches of shares drawn uniformly on the simplex, party-major,
sorted by a compare-exchange network (``_descending``), allocated by ``allocate_many``'s
kernels (``allocation._divisor_cols`` or ``_float_quota_rows``, ``allocate``'s canonical
seats, ties included) and recorded in ``SweepStats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb

import numpy as np

from .allocation import (
    NEAR_TIE_RTOL,
    _exact_remainder_rows,
    _float_quota_rows,
    _is_exact,
    _policy_seats,
    _divisor_cols,
    _scan_awards,
    allocate_divisor,
)
from .asymptotics import excess_bounds, moment_prediction
from .errors import InputError, InvariantError, UnsupportedMethodError, _integer
from .methods import DivisorMethod, Method, QuotaMethod, TiePolicy, small_n_guard
from .samplers import sample_uniform_simplex
from .signposts import _FLOAT_RANGE, INF, Exactness, SignpostSequence
from .stats import ComparisonReport, ComparisonRow, SweepStats, RunningMoments, Tolerances, _NARROW, _chunks
from .violation import violation_probability
from .weights import PartyWeights

_FLOAT_BLOCK = 65536  # houses per block of a float sweep, and awards per window: its moments merge per block
MAX_TRIALS = 10**9  # Monte Carlo trials per run, and houses per sweep or period

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def sqrt_shares(m: int) -> tuple[float, ...]:
    """Rationally independent test shares: normalized (sqrt 2, ..., sqrt p_{m-1}, 1)."""
    if not 2 <= m <= len(_PRIMES) + 1:
        raise InputError(f"sqrt shares support 2..{len(_PRIMES) + 1} parties")
    raw = [math.sqrt(q) for q in _PRIMES[: m - 1]] + [1.0]
    total = sum(raw)
    return tuple(x / total for x in raw)


def _award_sequence(shares: np.ndarray, sp: SignpostSequence, count: int, rtol: float, start=None):
    """The first ``count`` awards past the seats ``start`` (default z for
    every party), on to the end of the run of close awards holding award
    ``count - 1``: the winners, their figures (``SignpostSequence.figures``,
    nonincreasing), and the flags ``close`` of adjacent awards within
    ``rtol`` of each other, relatively.  ``start`` must be a prefix of the
    award order, the seats of some house (``_float_start``).

    This is the table-of-quotients reading of highest averages.  Party i's
    table holds its figures for n = start[i]+1 .. budget[i]; the tables, in
    party order, are sorted stably by descending figure, so equal figures go
    to the lower party, then the lower seat.  An entry is final when its
    figure lies above the last figure of every table not ending in 0 (past a
    cap, or after underflow): later entries lie at or below their table's
    last, so the final entries are the first awards, and the sorted entry
    after them has the next award's figure.  A round keeps the final awards
    up to ``count`` and on to the first gap wider than ``rtol`` at or after
    award ``count - 1``.  If they stop short, each table whose last figure is
    at least the sorted figure at position max(final, count) doubles in
    length, up to the float range (``float_limit``), and the tables are
    sorted again; with every such table at that limit, ``figure``'s
    float-range InputError is raised.  Too few positive figures raise
    InputError (the table cap).
    """
    m, z, cap = shares.size, sp.zero_count(), sp.max_seats()
    if count <= 0:
        return np.empty(0, dtype=np.int32), np.empty(0), np.empty(0, dtype=bool)
    start = np.full(m, z, dtype=np.int64) if start is None else np.asarray(start, dtype=np.int64)
    done = int(start.sum()) - z * m  # the awards before the start
    if cap is not None and count > (cap - z) * m - done:  # past the awards of a full house
        raise InputError("house size unreachable under the table cap")
    # its share of the awards and of m, plus 16, from z and from the start: O(count + m) entries,
    # and at least m + 8 each up to m = 8
    want = np.maximum(shares * (done + count + 2 + (z + 1) * m), start + shares * (count + 2 + m))
    want = want.astype(np.int64) + 16
    while True:
        limit = sp.float_limit(int(want.max()))
        lengths = np.minimum(want, np.maximum(limit, start + 1)) - start  # the table sizes, clamped at the limit
        ends = np.cumsum(lengths)
        first, edges = ends - lengths - start - 1, np.concatenate(([0], ends))  # offset less first n; table edges
        figs = np.empty(int(ends[-1]))
        for t in _chunks(figs.size, 1):  # the tables, concatenated, one ``figures`` call per tile
            counts = np.diff(np.clip(edges, t.start, t.stop))  # each table's entries in the tile
            figs[t] = sp.figures(np.repeat(shares, counts), np.arange(t.start, t.stop) - np.repeat(first, counts))
        order = np.argsort(np.negative(figs, out=figs), kind="stable")
        np.negative(figs, out=figs)
        last = figs[ends - 1]
        bound = last.max()  # entries above it are final; a table ending in 0 bounds nothing
        keep = 0
        for t in _chunks(figs.size - count, 1):  # the gaps after awards count - 1, count, ...
            f = figs[order[count - 1 + t.start : count + t.stop]]
            wide = np.flatnonzero(f[:-1] - f[1:] > rtol * f[:-1])
            if wide.size:  # the first wide gap closes the run if the award before it is final
                keep = count + t.start + int(wide[0]) if f[wide[0]] > bound else 0
                break
        if keep:
            break
        if bound == 0:
            raise InputError("house size unreachable under the table cap")
        # the sorted figure at max(final, count): that of award count, or bound itself
        short = (last >= min(bound, figs[order[min(count, figs.size - 1)]])) & (last > 0)
        grow = short & (lengths == want - start)  # the short tables below the float limit
        if not grow.any():
            raise InputError(_FLOAT_RANGE.format(limit + 1))
        want[grow] += want[grow] - start[grow]
    party = np.repeat(np.arange(m, dtype=np.min_scalar_type(m - 1)), lengths)  # one byte per entry
    winners, figures = np.empty(keep, dtype=np.int32), order[:keep].view(float)
    for t in _chunks(keep, 1):  # the sorted figures overwrite order, each tile once read
        winners[t], figures[t] = party[order[t]], figs[order[t]]
    del figs, party  # the flags take the tables' place
    close = np.empty(keep - 1, dtype=bool)
    for t in _chunks(close.size, 1):
        np.less_equal(figures[t] - figures[t.start + 1 : t.stop + 1], rtol * figures[t], out=close[t])
    return winners, figures, close


def _divisor_blocks(awards, start, done: int, m: int, z: int, n_from: int, n_to: int, block: int, masks: bool = True):
    """Yield (houses, seats, tied, tie, held) per ``block`` houses of
    [n_from, n_to], n_from >= z*m, off the award sequence, in which award k
    is the last award of house z*m + k + 1.  ``start`` holds the seats
    before award ``done``, which is 0 or follows a gap that is not close,
    and done < n_from - z*m unless both are 0.  awards(count, seats) returns
    the next window: at least ``count`` awards after ``seats``, their
    winners and the flags ``close`` of adjacent ones, the gap after the last
    not close.  A window runs max(block, _FLOAT_BLOCK) houses from its
    block's first house, or to n_to, keeping the run that holds that house.

    ``seats`` (m, k) holds each house's seats party-major, column r for
    houses[r]; ``tied`` indexes the tied houses, and the (m, len(tied))
    masks ``tie`` and ``held`` (None without ``masks``) mark the parties of
    each tie class and those of them holding a contested seat.  A house is
    tied when its last award is close to the next one, and its class is that
    run of close awards, the awards up to the house holding and the later
    ones taking.
    """
    winners, close = np.empty(0, dtype=np.int64), np.zeros(0, dtype=bool)  # awards done .. done + size - 1
    first = last = np.empty(0, dtype=np.int64)
    base, at = start, done  # the seats before award ``at``
    for houses in _house_blocks(n_from, n_to, block):
        lo, hi = int(houses[0]) - z * m, int(houses[-1]) - z * m  # the awards before each end
        if done + winners.size < hi:
            # keep the awards from the run holding award k = lo - 1, the first house's last, on; drop the rest first
            r = np.searchsorted(first, k := lo - 1 - done, side="right") - 1  # the last run starting at k or before
            cut = int(first[r]) if r >= 0 and last[r] >= k else min(max(k, 0), winners.size)
            winners, close, done, first, last = winners[cut:].copy(), close[cut:].copy(), done + cut, None, None
            end = min(lo + max(block, _FLOAT_BLOCK), n_to - z * m + 1) - 1  # the window's last award
            new, flags = awards(end - done - winners.size, base + np.bincount(winners[at - done :], minlength=m))
            winners = np.concatenate((winners, new)) if winners.size else new
            close = np.concatenate((close, flags, [False]))  # close[k]: awards k and k + 1
            flagged = np.flatnonzero(close)
            first = flagged[np.diff(flagged, prepend=-2) != 1]  # the first award of each run
            last = flagged[np.diff(flagged, append=-2) != 1] + 1  # and its last award
            del new, flags, flagged
        base = base + np.bincount(winners[at - done : lo - done], minlength=m)  # the seats at house houses[0]
        award = houses - z * m - 1 - done  # each house's last award, in ``winners``
        tied = np.flatnonzero(award >= -done)
        tied = tied[close[award[tied]]]
        at_k, tie, held = award[tied], None, None
        del award
        if masks:
            run = np.searchsorted(first, at_k, side="right") - 1
            lo_k, size = first[run], last[run] - first[run] + 1
            col = np.repeat(np.arange(tied.size), size)
            entry = np.arange(size.sum()) + np.repeat(lo_k - np.cumsum(size) + size, size)
            tie = np.zeros((m, tied.size), dtype=bool)
            held = np.zeros((m, tied.size), dtype=bool)
            tie[winners[entry], col] = True
            holds = entry <= np.repeat(at_k, size)
            held[winners[entry[holds]], col[holds]] = True
        # the seats go out unnamed: the consumer alone holds them, and may drop them before the next block
        yield houses, _seat_matrix(base, winners[lo - done : hi - done]), tied, tie, held
        base, at = base + np.bincount(winners[lo - done : hi - done], minlength=m), hi


def _seat_matrix(base: np.ndarray, winners: np.ndarray) -> np.ndarray:
    """Seats after each prefix of an award sequence, party-major: column r
    holds ``base`` plus the awards winners[:r], for r = 0 .. len(winners),
    built in tiles of ``stats._CHUNK`` values on the last column of the
    tile before."""
    m = base.size
    seats = np.empty((m, winners.size + 1), dtype=np.int64)
    seats[:, 0] = base
    for t in _chunks(winners.size, m):
        tile = seats[:, t.start + 1 : t.stop + 1]
        np.cumsum(winners[t] == np.arange(m)[:, None], axis=1, out=tile)  # the one-hot's running sums
        tile += seats[:, t.start, None]
    return seats


def _orbit_parts(seats, tie, held):
    """(base, k, grants) of the party-major seats of tied houses with the
    masks of a block generator: the seats less the held grants, and per
    house, as a row, the number k of tied parties and the number of grants.
    The orbit mean gives each tied party base + grants/k."""
    return seats - held.astype(seats.dtype), tie.sum(axis=0), held.sum(axis=0)


def _house_blocks(n_from: int, n_to: int, block: int):
    """The houses of [n_from, n_to] as int64 arrays of ``block`` houses."""
    for start in range(n_from, n_to + 1, block):
        yield np.arange(start, min(start + block - 1, n_to) + 1)


def _float_seat_blocks(method, shares: np.ndarray, n_from: int, n_to: int, masks: bool = False):
    """``_exact_seat_blocks`` on float shares: per _FLOAT_BLOCK houses of
    [n_from, n_to], ``allocate``'s canonical seats (m, k), the near-tied
    houses and, if ``masks``, their class masks (else None).  Divisor
    houses, n_from >= z*m, come off ``_award_sequence`` one window of about
    _FLOAT_BLOCK awards per block, the first window's tables starting at the
    seats of ``_float_start`` and each later one's at the seats the window
    before ended on.  Quota houses come off ``_float_quota_rows``.  Houses
    are checked as in the exact source (``_check_houses``).
    """
    _check_houses(n_from, n_to, method, shares.size)
    if not isinstance(method, DivisorMethod):
        blocks = _house_blocks(n_from, n_to, _FLOAT_BLOCK)
        return ((h, *_float_quota_rows(shares[:, None], method.gamma, h, masks)) for h in blocks)
    sp = method.signposts
    seats, done = _float_start(shares, sp, n_from)

    def awards(count, after):  # one window's winners and close flags
        return _award_sequence(shares, sp, count, NEAR_TIE_RTOL, after)[::2]

    return _divisor_blocks(awards, seats, done, shares.size, sp.zero_count(), n_from, n_to, _FLOAT_BLOCK, masks)


def _float_start(shares: np.ndarray, sp: SignpostSequence, house: int):
    """``_start`` on ``allocate``'s seats for the float shares; award k - 1,
    the worst held entry, ranked after award k, the best next one, raises
    InvariantError: the seats are then no prefix of the float award order."""
    z, votes = sp.zero_count(), PartyWeights.of(shares.tolist())

    def seats_at(h):
        seats = np.array(allocate_divisor(votes, sp, h).seats, dtype=np.int64)
        held = np.where(seats > z, sp.figures(shares, np.maximum(seats, z + 1)), INF)
        nxt = sp.figures(shares, seats + 1)
        k, i = shares.size - 1 - int(np.argmin(held[::-1])), int(np.argmax(nxt))
        if held[k] < nxt[i] or (held[k] == nxt[i] and k > i):
            raise InvariantError("allocate's seats are no prefix of the float award order")
        return seats if held[k] - nxt[i] > NEAR_TIE_RTOL * held[k] else None

    return _start(house, shares.size, z, seats_at)


def _start(house: int, m: int, z: int, seats_at):
    """(seats, k) at the first house h = house - 1, house - 2, house - 4,
    ... above z*m where seats_at(h) gives its seats, not None: where award
    k - 1 = h - z*m - 1, its last, is not close to award k, so that no run
    holding a later house reaches back past them; z seats and k = 0 from
    house z*m down."""
    back = 1
    while (h := house - back) > z * m:
        if (seats := seats_at(h)) is not None:
            return np.asarray(seats, dtype=np.int64), h - z * m
        back *= 2
    return np.full(m, z, dtype=np.int64), 0


def _check_houses(n_from: int, n_to: int, method=None, m: int = 0) -> None:
    """Refuse more than MAX_TRIALS houses, and houses past a divisor
    ``method``'s table cap on m parties; every source of rows checks first."""
    if n_to - n_from + 1 > MAX_TRIALS:
        raise InputError(f"at most {MAX_TRIALS} houses per run, got {n_to - n_from + 1}")
    cap = method.signposts.max_seats() if isinstance(method, DivisorMethod) else None
    if cap is not None and n_to > cap * m:
        raise InputError("house size unreachable under the table cap")


# -- exact sweeps -------------------------------------------------------------

_EXACT_BLOCK = 4096  # houses per block of an exact sweep
_CERTIFY_RTOL = 8 * 2.0**-52  # adjacent float figures closer than this, relatively, may be misordered
_TINY = np.finfo(float).tiny  # the smallest normal float


def _exact_awards(votes, total: int, sp: SignpostSequence, count: int, start):
    """The first ``count`` awards past the seats ``start`` of integer votes
    V_i with total T, in exact order: figure descending, then party
    ascending; ``start``, the seats of a house without a tie, is a prefix of
    it.  Returns the winner of each award and, for each pair of adjacent
    awards, whether their figures are equal; the awards go on past ``count``
    to the end of the run of equal figures that holds award ``count - 1``.

    Award k's figure is num/den = w_i*b / a for d(n) = a/b in figure space
    (``SignpostSequence.exact_pairs``) and w_i = ``figure_weight(V_i)``.

    Filter.  ``_award_sequence`` sorts the float figures of the shares
    p_i = V_i/T.  With u = 2**-53 and every value a normal float, each
    rounding multiplies by some 1 + d, |d| <= u.  A float figure rounds p_i
    once (Python's int / int), the divisor once (a closed form is exact up
    to its last operation, another signpost is float() of an exact
    rational) and the quotient once: within (1 + u)**2 / (1 - u), a
    relative e < 3.01u, of the exact figure.  The sqrt pair squares the
    rounded p_i and rounds the square, so its figures carry (1 + u)**4 /
    (1 - u), e < 5.01u.  Two adjacent float figures f >= g with
    f - g > 2e*f >= e*(f + g) have exact figures in the same order, and
    _CERTIFY_RTOL = 16u > 2 * 5.01u ensures it for every family.  Such a
    gap is certified: every award before it has a larger exact figure than
    every award after it, and than every entry missing from the float
    tables, which lies at or below its table's last entry, after the gap.
    ``_award_sequence`` keeps the awards up to the first certified gap at or
    after award ``count - 1``.  The figure g after the last kept one, f, may
    be subnormal or 0: as f >= 2**-1022, half a subnormal ulp is 2**-1075 <=
    u*f, and f - g > 16u*f still exceeds the rounding of both figures,
    5.01u*(f + g) + 2**-1075.  Every adjacent pair is then compared by
    cross-multiplication, in int64 while w*b*a stays below 2**63 and in
    Python ints otherwise; a misordered pair can only lie in a run of
    uncertified gaps, and an odd-even transposition sort swaps misordered
    pairs until every pair is in exact order.

    Fallback.  Where a kept figure leaves the normal float range (an exact
    geometric ratio at large n: d(n) past 1.8e308, or figures below
    2**-1022), the awards and their equal pairs come from the integer scan
    ``allocation._scan_awards``, one ``_step`` pass per award.  Raises
    InputError when ``count`` passes the finite entries of a capped table.
    """
    m, z = len(votes), sp.zero_count()
    w = [sp.figure_weight(v) for v in votes]
    shares = np.array([v / total for v in votes])
    smallest = 0.0  # the integer scan runs unless every float figure kept is normal
    if sp.figure_weight(shares).min() >= _TINY and float(sp.value(z + 1)) >= _TINY:
        try:
            winners, figures, close = _award_sequence(shares, sp, count, _CERTIFY_RTOL, start)
            smallest, figures = figures[-1], None  # free the figures before the exact pairs
        except InputError:  # a table reached the float range, or figures underflowed to 0
            pass
    if smallest < _TINY:  # the scan's order is exact, and it flags the equal pairs itself
        return _scan_awards(w, sp, z, count, start)
    # award k is seat n[k] of its party: its earlier awards counted from the party's start + 1
    winners, keep = winners.astype(np.int64), winners.size
    per_party = np.bincount(winners, minlength=m)
    n = np.empty(keep, dtype=np.int64)
    n[np.argsort(winners, kind="stable")] = np.arange(keep) - np.repeat(np.cumsum(per_party) - per_party, per_party)
    a, b = sp.exact_pairs(n + start[winners] + 1)
    if a.dtype == object or max(w) * int(b.max()) * int(a.max()) >= 2**63:
        a, b, weight = a.astype(object), b.astype(object), np.array(w, dtype=object)
    else:
        weight = np.array(w, dtype=np.int64)
    num, den = weight[winners] * b, a

    def compare():
        lhs, rhs = num[:-1] * den[1:], num[1:] * den[:-1]
        equal = lhs == rhs
        return (lhs < rhs) | (equal & (winners[:-1] > winners[1:])), equal

    bad, equal = compare()
    if (bad & ~close).any():
        raise InvariantError("a float figure left its error bound")
    # odd-even transposition sort: swap the misordered adjacent pairs of one
    # parity, then of the other; only pairs inside uncertified runs ever swap
    parity = 0
    while bad.any():
        k = 2 * np.flatnonzero(bad[parity::2]) + parity
        for x in (winners, num, den):
            x[k], x[k + 1] = x[k + 1], x[k]
        bad, equal = compare()
        parity ^= 1
    return winners, equal


def _exact_seat_blocks(method, weights, n_from: int, n_to: int):
    """Yield (houses, seats, tied, tie, held) per _EXACT_BLOCK houses of
    [n_from, n_to] on exact weights (and signposts); a divisor sweep starts
    at its first feasible house z*m at the earliest.

    ``seats`` (m, k) holds each house's canonical seats party-major, which
    grant the contested seats of a tie to the lowest indices; ``tied``
    indexes the tied houses, and the (m, len(tied)) masks ``tie`` and
    ``held`` mark the parties of each tie class and those of them holding a
    contested seat.

    Divisor houses read their seats and tie classes off windows of
    ``_exact_awards`` with ``_divisor_blocks``, from ``allocate``'s seats at
    a house just below n_from without a tie (``_start``): a tie is a run of
    equal figures.  Quota houses run ``allocation._exact_remainder_rows`` on
    each block.  Houses are checked as in the float source.
    """
    if not (_is_exact(weights, method.signposts) if isinstance(method, DivisorMethod) else weights.exact):
        raise InputError("exact sweep requires exact weights and signposts")
    _check_houses(n_from, n_to, method, len(weights))
    votes, total = weights.integer_votes
    if isinstance(method, DivisorMethod):
        sp = method.signposts
        z, m = sp.zero_count(), len(votes)
        start, done = _start(n_from, m, z, lambda h: None if (a := allocate_divisor(weights, sp, h)).tied else a.seats)
        awards = partial(_exact_awards, votes, total, sp)
        yield from _divisor_blocks(awards, start, done, m, z, max(n_from, z * m), n_to, _EXACT_BLOCK)
    else:
        gamma = Fraction(method.gamma)  # a float gamma with exact weights is taken exactly
        for houses in _house_blocks(n_from, n_to, _EXACT_BLOCK):
            yield houses, *_exact_remainder_rows(votes, total, gamma, houses)


def _tie_tuple(seats, tie, held) -> tuple[tuple, int, tuple]:
    """The tie class (parties, grants, base_seats) of one house's masks."""
    parties = np.flatnonzero(tie)
    return tuple(parties.tolist()), int(held.sum()), tuple((seats[parties] - held[parties]).tolist())


def _policy_rows(houses, seats, tied, tie, held, policy: TiePolicy) -> np.ndarray:
    """The party-major seats the tie policy picks: the canonical ones, but
    under ``TiePolicy.seeded`` each tied house draws from (seed, house)."""
    if policy.kind != "random" or not tied.size:
        return seats
    seats = seats.copy()
    for j, r in enumerate(tied.tolist()):
        col = seats[:, r]
        seats[:, r] = _policy_seats(col.tolist(), _tie_tuple(col, tie[:, j], held[:, j]), policy, int(houses[r]))
    return seats


def _combs(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """comb(n, k) entry by entry for small 0 <= k <= n, one ``comb`` call per
    distinct pair: int64 while every value stays below 2**62, else Python ints."""
    width = int(n.max(initial=0)) + 1
    key = n * width + k
    keys = np.flatnonzero(np.bincount(key))
    values = [comb(*divmod(x, width)) for x in keys.tolist()]
    table = np.zeros(width * width, dtype=np.int64 if max(values, default=0) < 2**62 else object)
    table[keys] = values
    return table[key]


def _excess_rows(houses, seats, tied, tie, held, votes, total: int, average: bool):
    """(delta, sums, orbit) of a party-major block of exact houses, column r
    for houses[r].

    delta (m, k) holds the seat excesses s_i - house*p_i as floats.  sums
    (3m + 1, k) holds integer sums over each house's ``orbit`` of equally
    likely seat vectors: party i's seats summed over the members, the
    members in which it violates its lower quota, those in which it
    violates its upper quota, and last the members in which some party
    violates one.  Under the averaging policy the orbit of a tied house has
    comb(k, grants) members, in which ``grants`` of its k tied parties get
    one seat over their base: a tied party's seats sum to base*comb(k,
    grants) + comb(k - 1, grants - 1), and its orbit mean is (base*k +
    grants)/k (``_orbit_parts``); otherwise a house is the one seat vector
    ``seats``, orbit 1.  The sums are int64 while house*orbit*houses < 2**63,
    a bound on their sums over the block, and Python ints beyond.

    Each excess is one division (S*T - house*V_i*k) / (k*T) of integers,
    S the mean seats times k.  While house*T*m < 2**63 the integers are
    int64; numpy divides them as float64s, so a house whose numerator or
    k*T reaches 2**53 is divided again as Python ints, whose int / int is
    correctly rounded.  Past 2**63 the same code runs on object arrays of
    Python ints.  The quota cuts floor(house*p_i) and ceil(house*p_i) come
    from the same integers.  The orbit sizes of the tied houses take one
    ``comb`` per distinct argument pair (``_combs``).
    """
    m, k_rows = seats.shape
    dt = np.int64 if int(houses[-1]) * total * m < 2**63 else object
    s = seats.astype(dt)
    x = np.array(votes, dtype=dt)[:, None] * houses.astype(dt)
    lo_cut = x // total  # lower quota violated iff s < floor(house*p)
    hi_cut = lo_cut + (x - lo_cut * total > 0).astype(dt)  # upper violated iff s > ceil(house*p)
    lower, upper = s < lo_cut, s > hi_cut
    scaled, k, orbit = s, np.ones(k_rows, dtype=dt), np.ones(k_rows, dtype=np.int64)  # mean seats times k
    averaged = average and tied.size
    if averaged:
        base, kt, gt = _orbit_parts(s[:, tied], tie, held)  # a tied party holds base or base + 1 seats
        big = _combs(kt, gt)
        orbit = orbit.astype(big.dtype)
        orbit[tied] = big
    st = np.int64 if int(houses[-1]) * int(orbit.max()) * k_rows < 2**63 else object
    sums = np.vstack((s, lower, upper, (lower | upper).any(axis=0))).astype(st, copy=False)
    if averaged:
        big = big.astype(st)
        granted = _combs(kt - 1, gt - 1).astype(st)  # members granting a party
        tm = tie.astype(dt)
        scaled = s.copy()
        scaled[:, tied] = base * kt + tm * gt
        k[tied] = kt
        lo_t, hi_t = lo_cut[:, tied], hi_cut[:, tied]
        lo_g, lo_n = base + tm < lo_t, base < lo_t  # the violations with and without the grant
        hi_g, hi_n = base + tm > hi_t, base > hi_t
        sums[:m, tied] = base * big + tie * granted
        sums[m : 2 * m, tied] = granted * lo_g + (big - granted) * lo_n
        sums[2 * m : -1, tied] = granted * hi_g + (big - granted) * hi_n
        with_grant, without = lo_g | hi_g, lo_n | hi_n
        fixed = (with_grant & without).any(axis=0)
        only_without = (without & ~with_grant).sum(axis=0)
        free, short = kt - (with_grant & ~without).sum(axis=0) - only_without, gt - only_without
        # the members avoiding every violation grant all of ``without`` and none of ``with_grant``
        good = np.zeros(tied.size, dtype=st)
        some = (short >= 0) & (short <= free) & ~fixed
        good[some] = _combs(free[some], short[some])
        sums[-1, tied] = big - good
    num, den = scaled * total - x * k, k * total
    delta = (num / den).astype(float, copy=False)
    if dt is np.int64:
        wide = (np.abs(num) >= 2**53).any(axis=0) | (den >= 2**53)  # not exact as float64s
        if wide.any():
            delta[:, wide] = (num[:, wide].astype(object) / den[wide].astype(object)).astype(float)
    return delta, sums, orbit


def _exact_sweep(method, weights, n_from, n_to, tie_policy, stats) -> tuple[Fraction, ...]:
    """Record the rows of ``_exact_seat_blocks`` in ``stats``; return their
    exact mean seat excess as ``Fraction``s.

    Each block pushes its float excesses to the moments and the histogram,
    and adds the ``sums`` of ``_excess_rows`` into one integer accumulator
    keyed by orbit size.  After the last block the totals divide by their
    orbit sizes exactly, once: the violation totals and the mean excess
    (sum of seats/size - p_i * sum of houses) / count become floats, the
    latter in place of the moments' merged mean, so neither depends on the
    block size.
    """
    votes, total = weights.integer_votes
    m = len(votes)
    average = tie_policy.kind == "average"
    totals = {}  # orbit size -> the rows' summed sums, as Python ints
    for houses, seats, tied, tie, held in _exact_seat_blocks(method, weights, n_from, n_to):
        if not average:
            seats = _policy_rows(houses, seats, tied, tie, held, tie_policy)
        delta, sums, orbit = _excess_rows(houses, seats, tied, tie, held, votes, total, average)
        if stats.histogram is not None:
            stats.histogram._push(delta)
        stats.moments._push(delta)  # last: it centres the excesses in place
        stats.ties += tied.size
        for size in set(orbit.tolist()):
            summed = sums[:, orbit == size].sum(axis=1).tolist()
            totals[size] = [a + b for a, b in zip(totals.get(size, [0] * (3 * m + 1)), summed)]
    lcm = math.lcm(*totals)  # every total over one denominator, in Python ints
    exact = [sum(c[j] * (lcm // size) for size, c in totals.items()) for j in range(3 * m + 1)]
    houses, den = sum(exact[:m]), lcm * total * int(stats.count)  # each member's seats sum to its house
    num = [s * total - houses * v for s, v in zip(exact, votes)]
    stats.moments.mean = np.array([x / den for x in num])  # int / int rounds correctly
    floats = np.array([x / lcm for x in exact[m:]])
    stats.lower_violations, stats.upper_violations, stats.any_violation = floats[:m], floats[m:-1], float(floats[-1])
    return tuple(Fraction(x, den) for x in num)


# -- public sweep -------------------------------------------------------------


def sweep(
    method: Method,
    weights: PartyWeights,
    n_from: int,
    n_to: int,
    tie_policy: TiePolicy = TiePolicy.average(),
    bin_width: float | None = 0.01,
    workers: int = 1,
    force_exact: bool = False,
) -> SweepStats:
    """Allocate at every house size in [n_from, n_to] and accumulate excess stats.

    The range is clamped below at the method's small-house guard; the stats
    record the effective range.  The input picks the path: exact weights
    (and, for divisor methods, exact signposts) run the exact path (exact
    ties, honoring the tie policy), whatever the range; float input runs the
    vectorized float path, where near-ties are counted and, under the
    averaging policy, contribute the class average.  ``force_exact`` raises
    InputError unless the input is exact.

    ``workers`` must be at least 1; every sweep runs in one pass over the
    range, whatever its value.  A range of more than MAX_TRIALS houses,
    after the guard, raises InputError.
    """
    if workers < 1:
        raise InputError("workers must be at least 1")
    if n_to < n_from:
        raise InputError("empty sweep range")
    guard = small_n_guard(method, weights)
    n_from = max(n_from, guard)
    if n_to < n_from:
        raise InputError(f"sweep range lies entirely below the small-house guard {guard}")
    m = len(weights)
    exact = _is_exact(weights, method.signposts) if isinstance(method, DivisorMethod) else weights.exact
    if force_exact and not exact:
        raise InputError("exact sweep requires exact weights and signposts")
    stats = SweepStats.empty(m, _histogram_bounds(method, weights), bin_width) if bin_width else SweepStats.empty(m)
    stats.n_from, stats.n_to = n_from, n_to
    if exact:
        _exact_sweep(method, weights, n_from, n_to, tie_policy, stats)
        return stats
    shares = np.asarray(weights.shares_float())
    column = shares[:, None]
    average = tie_policy.kind == "average"  # the other policies only count the near-ties
    for houses, seats, tied, tie, held in _float_seat_blocks(method, shares, n_from, n_to, average):
        if average and tied.size:  # a near-tied house holds its orbit mean
            base, k, grants = _orbit_parts(seats[:, tied], tie, held)
            orbit = base + tie * (grants / k) - column * houses[tied]
        deltas = seats.view(float)  # the excesses overwrite the int64 seats, one tile at a time
        for t in _chunks(houses.size, m):
            excess = np.multiply(column, houses[t])
            deltas[:, t] = np.subtract(seats[:, t], excess, out=excess)
        if average and tied.size:
            deltas[:, tied] = orbit
        stats._record(deltas)
        stats.near_ties += float(tied.size)
        del seats, deltas, tie, held  # the next block is built without this one
    return stats


def _histogram_bounds(method, weights):
    """``excess_bounds``, or +-m without them; a zero-width bound (one party's excess is
    always 0) widens by 1 on each side, since a histogram needs a positive width."""
    try:
        bounds = excess_bounds(method, weights.shares_float())
    except UnsupportedMethodError:
        return [(-float(len(weights)), float(len(weights)))] * len(weights)
    return [(lo, hi) if hi > lo else (lo - 1.0, hi + 1.0) for lo, hi in bounds]


def compare(
    stats: SweepStats,
    method: Method,
    p,
    tolerances: Tolerances = Tolerances(),
) -> ComparisonReport:
    """Pair sweep statistics with the asymptotic predictions."""
    p = [float(x) for x in p]
    m = len(p)
    if stats.dim != m:
        raise InputError("stats and shares disagree on the number of parties")
    pred, cov = moment_prediction(method, p), stats.covariance
    rows = [ComparisonRow("mean", (i,), float(stats.mean[i]), float(pred.mean[i]), tolerances.mean) for i in range(m)]
    rows += [
        ComparisonRow("variance", (i,), float(stats.variance[i]), float(pred.variance[i]), tolerances.variance)
        for i in range(m)
    ]
    rows += [
        ComparisonRow("covariance", (i, j), float(cov[i, j]), float(pred.covariance[i, j]), tolerances.covariance)
        for i in range(m)
        for j in range(i + 1, m)
    ]
    if tolerances.violation is not None:
        freq = stats.violation_frequency()
        for i in range(m):
            lo, up = violation_probability(method, p[i], m)
            rows.append(ComparisonRow("violation", (i,), float(freq["total"][i]), lo + up, tolerances.violation))
    return ComparisonReport(tuple(rows))


# -- rational shares: periods -------------------------------------------------


def detect_period(weights: PartyWeights) -> int:
    """Period of the seat-excess sequence: the shares' common denominator.

    From the small-house guard on for quota methods and d(n) = n - 1 + beta;
    other signposts (Huntington-Hill, Dean, a table off that line) reach it
    only eventually."""
    return weights.share_denominator()


def period_average_bias(method: Method, weights: PartyWeights) -> tuple[Fraction, ...]:
    """Exact average seat excess over one period above the small-house guard:
    the mean of one ``_exact_sweep`` under ``TiePolicy.average()``, so ties
    contribute their exact orbit average.  A divisor method whose
    ``beta_envelope()`` is not one point is periodic only eventually
    (``detect_period``) and raises UnsupportedMethodError.  A period of more
    than MAX_TRIALS houses raises InputError.
    """
    if not weights.exact:
        raise InputError("period averaging requires exact rational weights")
    if isinstance(method, DivisorMethod):
        if method.signposts.exactness is Exactness.FLOAT:
            raise InputError("period averaging requires exact signposts")
        envelope = method.signposts.beta_envelope()
        if envelope is None or envelope[0] != envelope[1]:
            raise UnsupportedMethodError("period averaging supports divisor methods with d(n) = n - 1 + beta")
    elif not isinstance(method.gamma, Fraction):
        raise InputError("period averaging requires a rational quota offset")
    start = max(small_n_guard(method, weights), 1)
    end = start + detect_period(weights) - 1
    return _exact_sweep(method, weights, start, end, TiePolicy.average(), SweepStats.empty(len(weights)))


# -- equidistribution ----------------------------------------------------------


def equidistribution_ks(p, gamma: float = 0.0, n_from: int = 1, n_to: int = 10_000) -> np.ndarray:
    """Per-party KS distance of frac((house + gamma) * p_i) from U(0,1), over at most MAX_TRIALS houses."""
    _check_houses(n_from, n_to)
    if n_to - n_from + 1 < 2:
        raise InputError("range too short")
    shares = np.asarray([float(x) for x in p], dtype=float)
    houses = np.arange(n_from, n_to + 1, dtype=float) + float(gamma)
    out = np.empty(shares.size)
    n = houses.size
    grid = (np.arange(n, dtype=float)) / n
    for i, pi in enumerate(shares):
        vals = np.sort((houses * pi) % 1.0)
        out[i] = max(np.max(vals - grid), np.max(grid + 1.0 / n - vals))
    return out


# -- Monte Carlo over random party sizes ---------------------------------------


def allocate_many(method: Method, shares: np.ndarray, house: int) -> np.ndarray:
    """Allocate one house size across many float share rows; rows = trials.

    Divisor methods of every signpost family give ``allocate``'s canonical
    seat vector per row, ties included, through the vectorized
    jump-and-step of ``allocation._divisor_cols``; houses outside
    [z*m, cap*m] raise as ``allocate`` does.  Quota methods run the
    largest-remainder rule of ``allocation.allocate_quota_rows``, which
    raises as ``allocate`` does on house + gamma <= 0.  Seats are returned
    as floats.  Both run party-major (``_allocate_cols``) on one transposed
    copy of ``shares``.
    """
    shares = np.ascontiguousarray(np.asarray(shares, dtype=float).T)
    return _allocate_cols(method, shares, _integer(house, "house")).T.astype(float)


def _allocate_cols(method: Method, cols: np.ndarray, house: int) -> np.ndarray:
    """``allocate_many`` on party-major shares (m, k): the (m, k) int64 seats."""
    if isinstance(method, QuotaMethod):
        return _float_quota_rows(cols, method.gamma, np.full(cols.shape[1], house), masks=False)[0]
    return _divisor_cols(cols, method.signposts, house)


@dataclass
class McSimplexResult:
    """Ordered-party excess statistics plus the ordered-share moments."""

    delta: SweepStats
    shares: RunningMoments
    house_size: int
    trials: int


def _simplex_trials(method: Method, m: int, house_size: int, trials: int, seed: int, batch: int, ordered: bool):
    """The one Monte Carlo loop: yield (shares, deltas) per batch of shares
    drawn uniformly on the simplex (sorted descending when ``ordered``) and
    allocated at one house size, both party-major (m, k), as the kernels of
    ``SweepStats`` and ``RunningMoments`` take them."""
    house_size, trials, batch = map(_integer, (house_size, trials, batch), ("house_size", "trials", "batch"))
    if trials < 1:
        raise InputError("need at least one trial")
    if trials > MAX_TRIALS:
        raise InputError(f"at most {MAX_TRIALS} trials, got {trials}")
    if house_size < 0:
        raise InputError("house size must be nonnegative")
    if batch < 1:
        raise InputError(f"batch size must be at least 1, got {batch}")
    rng = np.random.default_rng(seed)
    done = 0
    while done < trials:
        k = min(batch, trials - done)
        cols = sample_uniform_simplex(m, k, rng).T  # party-major as drawn
        if ordered:
            cols = _descending(cols)
        quotas = house_size * cols
        yield cols, np.subtract(_allocate_cols(method, cols, house_size), quotas, out=quotas)
        done += k


def _descending(cols: np.ndarray) -> np.ndarray:
    """Party-major shares (m, k), each column sorted descending: the bits of ``-np.sort(-p,
    axis=1)`` over the (k, m) rows, as sorting only moves values.  Up to ``stats._NARROW``
    parties an odd-even transposition network of np.maximum/np.minimum on whole rows."""
    if len(cols) > _NARROW:
        return -np.sort(-cols, axis=0)
    rows = list(cols)
    for i in [i for r in range(len(rows)) for i in range(r % 2, len(rows) - 1, 2)]:
        rows[i], rows[i + 1] = np.maximum(rows[i], rows[i + 1]), np.minimum(rows[i], rows[i + 1])
    return np.array(rows)


def mc_ordered_simplex(
    method: Method,
    m: int,
    house_size: int,
    trials: int,
    seed: int = 0,
    bin_width: float | None = None,
    batch: int = 8192,
) -> McSimplexResult:
    """Sample shares uniformly on the simplex, sort descending, allocate, and
    accumulate the excess of the j-th largest party."""
    if _integer(m, "m") < 2:
        raise InputError("need at least two parties")
    bounds = None if bin_width is None else [(-float(m), float(m))] * m
    delta_stats = SweepStats.empty(m, bounds, bin_width or 0.01)
    share_moms = RunningMoments(m)
    for p, deltas in _simplex_trials(method, m, house_size, trials, seed, batch, ordered=True):
        delta_stats._record(deltas)
        share_moms._push(p)
    return McSimplexResult(delta_stats, share_moms, house_size, trials)


@dataclass
class ViolationFrequency:
    lower: np.ndarray
    upper: np.ndarray
    total: np.ndarray
    any: float
    count: int
    n_from: int | None = None
    n_to: int | None = None


def quota_violation_frequency(
    method: Method,
    weights: PartyWeights | None = None,
    n_from: int | None = None,
    n_to: int | None = None,
    m: int | None = None,
    house_size: int | None = None,
    trials: int | None = None,
    seed: int = 0,
    batch: int = 8192,
) -> ViolationFrequency:
    """Frequency of lower/upper quota violations.

    Fixed-share mode sweeps house sizes (pass weights + range); random mode
    samples shares uniformly on the simplex at one house size (pass m,
    house_size, trials).  Both count violations in ``SweepStats``.
    """
    if weights is not None:
        if n_from is None or n_to is None:
            raise InputError("fixed mode needs a house-size range")
        stats = sweep(method, weights, n_from, n_to, TiePolicy.average(), bin_width=None)
    elif m is None or house_size is None or trials is None:
        raise InputError("random mode needs m, house_size, and trials")
    else:
        stats = SweepStats.empty(_integer(m, "m"))
        for _, deltas in _simplex_trials(method, m, house_size, trials, seed, batch, ordered=False):
            stats._record(deltas)
    freq = stats.violation_frequency()
    return ViolationFrequency(
        freq["lower"], freq["upper"], freq["total"], freq["any"],
        int(stats.count), stats.n_from, stats.n_to,
    )


# -- apparentements -------------------------------------------------------------


@dataclass
class ApparentementStats:
    """Sweep-averaged seat gains from pooling two parties' votes.

    ``moments`` tracks (joint gain, gain of party i, gain of party j), where
    the per-party gains come from re-dividing the pooled seats by the same
    method (the sub-apportionment).
    """

    moments: RunningMoments
    party_i: int
    party_j: int
    n_from: int
    n_to: int

    @property
    def joint_mean(self) -> float:
        return float(self.moments.mean[0])

    @property
    def party_means(self) -> tuple[float, float]:
        return float(self.moments.mean[1]), float(self.moments.mean[2])


def apparentement_sweep(
    method: Method,
    weights: PartyWeights,
    party_i: int,
    party_j: int,
    n_from: int,
    n_to: int,
) -> ApparentementStats:
    """Sweep house sizes comparing separate vs pooled entries for two parties.

    Until exact apparentements exist it runs on the float shares, whatever
    the input, so exact votes get their canonical seats and no tie average.
    The seats of the full and the merged lists fill one party-major (3,
    houses) buffer, one more ``_float_seat_blocks`` call splits every pooled
    seat count between the pair (the sub-apportionment), and the buffer
    turns into the gains in place.  More than MAX_TRIALS houses raise
    InputError.
    """
    m = len(weights)
    if m < 3:
        raise InputError("need at least one party outside the coalition")
    if not (0 <= party_i < m and 0 <= party_j < m) or party_i == party_j:
        raise InputError("invalid coalition parties")
    merged, im = weights.merged(party_i, party_j)
    guard = max(small_n_guard(method, weights), small_n_guard(method, merged))
    shares, mshares = np.asarray(weights.shares_float()), np.asarray(merged.shares_float())
    pair = np.array([shares[party_i], shares[party_j]])
    pair_shares = pair / pair.sum()

    # the sub-apportionment needs its own minimum house size
    if isinstance(method, DivisorMethod):
        sub_min = 2 * method.signposts.zero_count()
    else:
        sub_min = max(0, math.floor(-float(method.gamma))) + 1
    lo_bound = excess_bounds(method, mshares)[im][0]
    n_from = max(n_from, guard, math.ceil((sub_min + 1 - lo_bound) / mshares[im]))
    if n_to < n_from:
        raise InputError("range lies below the feasible coalition sweep start")
    full = _float_seat_blocks(method, shares, n_from, n_to)
    pooled = _float_seat_blocks(method, mshares, n_from, n_to)
    gains = np.empty((3, n_to - n_from + 1))  # the pooled seats, then the seats of party i and party j
    for houses, seats, *_ in full:  # one block at a time: each is copied and dropped before the next
        cols = slice(int(houses[0]) - n_from, int(houses[-1]) - n_from + 1)
        gains[1, cols], gains[2, cols] = seats[party_i], seats[party_j]
        del seats
        _, seats, *_ = next(pooled)
        gains[0, cols] = seats[im]
        del seats
    pool = gains[0].astype(np.int64)
    lo, hi = int(pool.min()), int(pool.max())
    if lo < sub_min:  # so that the quota sub-apportionment has house + gamma > 0
        raise InvariantError("pooled seat count below the sub-apportionment minimum")
    sub = np.concatenate([s for _, s, *_ in _float_seat_blocks(method, pair_shares, lo, hi)], axis=1)
    pool -= lo
    gains[0] -= gains[1]  # the joint gain: pooled seats less the separate ones
    gains[0] -= gains[2]
    for r in (1, 2):  # each party's share of the pool less its seats
        np.subtract(sub[r - 1, pool], gains[r], out=gains[r])
    del pool, sub
    moments = RunningMoments(3)
    moments._push(gains)
    return ApparentementStats(moments, party_i, party_j, n_from, n_to)
