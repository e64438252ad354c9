"""Empirical verification harness: house-size sweeps, Monte Carlo over random
party sizes, rational-share period analysis, and equidistribution diagnostics.

A sweep allocates at every house size in a range and accumulates seat-excess
statistics; averaged over a long range this realizes the uniform-random-house
model the asymptotic formulas describe.  Rational shares are periodic in the
house size, so their exact bias is the average over one period.

Float and exact sweeps share their block kernels.  A divisor sweep builds
the seat-award sequence once, as a stable sort of every party's table of
figures, taken in figure space from ``SignpostSequence.figures`` as
``allocate`` takes them, with each table long enough by a bound on the
figure of the last award and no longer than the float range
(``_award_sequence``), and ``_divisor_blocks`` reads every house size off
cumulative counts, in one pass over the range.  The input picks the path:
exact weights and signposts always take the exact kernels, float input the
float ones.  Exact sweeps and period averages run on the votes scaled once
to coprime integers, and certify the float award sequence of the shares in
integers (``_exact_awards``): adjacent awards are compared by
cross-multiplication, and only runs of float figures within their rounding
bound may be re-ordered.  Quota houses run the largest-remainder rule of
``allocation._remainder_rows`` on a block of houses at once, on float
ideals or, exactly, on integer ones.  The exact rows of a block (seat
excess, violation counts) are array operations on int64 while the integers
fit and on Python ints beyond; the rows are recorded in blocks, and the
violation totals are exact sums, converted to float once.

Float input has one source of seat blocks, ``_float_seat_blocks``, which
``sweep``'s float path and ``apparentement_sweep`` (the full, the merged
and the pair's party lists) read.  A float sweep records its moments per
``_FLOAT_BLOCK`` houses and runs the quota rows, seat matrix and histogram
in cache-sized ``stats._CHUNK``-value tiles, which change no bit; the award
sequence (21 bytes each) sets its peak.  Both seat-block sources refuse
more than MAX_TRIALS houses, as Monte Carlo refuses more trials.

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
violation frequencies: batches of shares drawn uniformly on the simplex,
allocated by ``allocate_many`` (``allocation.allocate_divisor_rows`` or
``allocate_quota_rows``, ``allocate``'s canonical seats on every row, ties
included) and recorded in ``SweepStats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .allocation import (
    NEAR_TIE_RTOL,
    _exact_remainder_rows,
    _float_quota_rows,
    _is_exact,
    _policy_seats,
    _scan_awards,
    allocate_divisor_rows,
    allocate_quota_rows,
)
from .asymptotics import excess_bounds, moment_prediction
from .errors import InputError, InvariantError, UnsupportedMethodError
from .methods import DivisorMethod, Method, QuotaMethod, TiePolicy, small_n_guard
from .samplers import sample_uniform_simplex
from .signposts import _FLOAT_RANGE, Exactness, SignpostSequence
from .stats import ComparisonReport, ComparisonRow, SweepStats, RunningMoments, Tolerances, _chunks
from .violation import violation_probability
from .weights import PartyWeights

_FLOAT_BLOCK = 65536  # houses per record_batch call of a float sweep: its moments merge per block
MAX_TRIALS = 10**9  # Monte Carlo trials per run, and houses per sweep or period

_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def sqrt_shares(m: int) -> tuple[float, ...]:
    """Rationally independent test shares: normalized (sqrt 2, ..., sqrt p_{m-1}, 1)."""
    if not 2 <= m <= len(_PRIMES) + 1:
        raise InputError(f"sqrt shares support 2..{len(_PRIMES) + 1} parties")
    raw = [math.sqrt(q) for q in _PRIMES[: m - 1]] + [1.0]
    total = sum(raw)
    return tuple(x / total for x in raw)


def _winner_sequence(shares: np.ndarray, sp: SignpostSequence, steps: int):
    """Award ``steps`` seats past the mandatory ones; return winners and figures.

    winners[k] is the party taking award k, figures[k] its figure as
    ``SignpostSequence.figures`` gives it; figures are nonincreasing.

    This is the table-of-quotients reading of highest averages.  Party i's
    table holds its figures for n = z+1 .. budget[i], from its own
    ``figures`` call; the tables are concatenated in party order and sorted
    stably by descending figure, so equal figures go to the lower party
    index, then the lower seat.  The budgets come from a bound, not a guess:
    let ``cut`` be the figure of the last award.  A table whose last entry
    lies strictly below ``cut`` holds every entry of that party that can
    reach the first ``steps`` awards, since later entries are smaller still.
    A table ending in 0 (past a capped table, or after underflow) is complete
    too; then ``cut`` is 0 only when too few positive figures exist, and the
    house size is unreachable.  Each other table has its budget doubled, up
    to the last signpost within the float range (``float_limit``), and the
    sort runs again; once every short table sits at that limit, the
    float-range InputError of ``figure`` is raised.
    """
    m = shares.size
    z = sp.zero_count()
    if steps <= 0:
        return np.empty(0, dtype=np.int32), np.empty(0)
    want = np.maximum((shares * (steps + z * m)).astype(np.int64) + m + 8, z + 2)
    while True:
        limit = sp.float_limit(int(want.max()))
        lengths = np.minimum(want, max(limit, z + 1)) - z  # the table sizes, clamped at the limit
        ends = np.cumsum(lengths)
        figs = np.empty(int(ends[-1]))
        for i, (a, b) in enumerate(zip((ends - lengths).tolist(), ends.tolist())):
            figs[a:b] = sp.figures(shares[i], np.arange(z + 1, z + 1 + b - a))
        order = np.argsort(np.negative(figs, out=figs), kind="stable")[:steps]
        np.negative(figs, out=figs)
        cut = figs[order[-1]] if order.size == steps else 0.0
        last = figs[ends - 1]
        short = (last >= cut) & (last > 0)
        if not short.any():
            break
        grow = short & (lengths == want - z)  # the short tables below the float limit
        if not grow.any():
            raise InputError(_FLOAT_RANGE.format(limit + 1))
        want[grow] *= 2
    if cut == 0:
        raise InputError("house size unreachable under the table cap")
    party = np.repeat(np.arange(m, dtype=np.min_scalar_type(m - 1)), lengths)  # one byte per entry
    winners, sorted_figs = np.empty(order.size, dtype=np.int32), order.view(float)
    for tile in _chunks(order.size, 1):  # the sorted figures overwrite order, each tile once read
        winners[tile], sorted_figs[tile] = party[order[tile]], figs[order[tile]]
    return winners, sorted_figs


def _award_sequence(shares: np.ndarray, sp: SignpostSequence, count: int, rtol: float):
    """The first ``count`` awards past the mandatory seats, from
    ``_winner_sequence``: returns the winners, the flags ``close`` of the
    adjacent awards whose figures lie within ``rtol`` of each other,
    relatively, and the smallest figure sorted.

    The awards go on past ``count`` to the end of the run of close awards
    that holds award ``count - 1``, or to the last award of a capped table:
    the float sequence is extended, 2, 4, 8, ... awards past ``count``,
    until a wider gap closes that run.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=bool), np.inf
    cap = sp.max_seats()
    finite = None if cap is None else (cap - sp.zero_count()) * shares.size  # the awards of a full house
    if finite is not None and count > finite:
        raise InputError("house size unreachable under the table cap")
    extra = 2
    while True:
        want = count + extra if finite is None else min(count + extra, finite)
        winners, figs = _winner_sequence(shares, sp, want)
        close = np.empty(figs.size - 1, dtype=bool)
        for t in _chunks(close.size, 1):
            np.less_equal(figs[t] - figs[t.start + 1 : t.stop + 1], rtol * figs[t], out=close[t])
        closing = np.flatnonzero(~close[count - 1 :])
        if closing.size or want == finite:
            keep = count + int(closing[0]) if closing.size else want
            return winners[:keep], close[: keep - 1], figs[-1]
        extra *= 2


def _divisor_blocks(winners, close, m: int, z: int, n_from: int, n_to: int, block: int, masks: bool = True):
    """Yield (houses, seats, tied, tie, held) per ``block`` houses of
    [n_from, n_to], n_from >= z*m, off an award sequence: winners[k] takes
    award k, the last award of house z*m + k + 1, and close[k] ties awards k
    and k + 1.

    ``seats`` (k, m) holds each house's seats, carried from block to block;
    ``tied`` indexes the tied rows, and the (len(tied), m) masks ``tie`` and
    ``held`` (None without ``masks``) mark the parties of each tie class and
    those of them holding a contested seat.  A house is tied when its last
    award is close to the next one, and its class is that run of close
    awards, the awards up to the house holding and the later ones taking.
    """
    flagged = np.flatnonzero(close)
    first = flagged[np.diff(flagged, prepend=-2) != 1]  # the first award of each run
    last = flagged[np.diff(flagged, append=-2) != 1] + 1  # and its last award
    base = z + np.bincount(winners[: n_from - z * m], minlength=m)  # the seats at house n_from
    for houses in _house_blocks(n_from, n_to, block):
        done = int(houses[0]) - z * m  # awards taken at the block's first house
        seats = _seat_matrix(base, winners[done : done + houses.size - 1])
        base = seats[-1].copy()
        if houses[-1] < n_to:
            base[winners[done + houses.size - 1]] += 1
        award = houses - z * m - 1  # each house's last award
        ok = (award >= 0) & (award < close.size)
        tied = np.flatnonzero(ok)[close[award[ok]]]
        if not masks:
            yield houses, seats, tied, None, None
            continue
        at = award[tied]
        run = np.searchsorted(first, at, side="right") - 1
        lo, size = first[run], last[run] - first[run] + 1
        row = np.repeat(np.arange(tied.size), size)
        entry = np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)
        tie = np.zeros((tied.size, m), dtype=bool)
        held = np.zeros((tied.size, m), dtype=bool)
        tie[row, winners[entry]] = True
        holds = entry <= np.repeat(at, size)
        held[row[holds], winners[entry[holds]]] = True
        yield houses, seats, tied, tie, held


def _seat_matrix(base: np.ndarray, winners: np.ndarray) -> np.ndarray:
    """Seats after each prefix of an award sequence: row r holds ``base``
    plus the awards winners[:r], for r = 0 .. len(winners), built in tiles
    of ``stats._CHUNK`` values on the last row of the tile before."""
    m = base.size
    seats = np.empty((winners.size + 1, m), dtype=np.int64)
    seats[0] = base
    for rows in _chunks(winners.size, m):
        tile = seats[rows.start + 1 : rows.stop + 1]
        # the (m, k) one-hot's running sums, written straight into the transpose
        np.cumsum(winners[rows] == np.arange(m)[:, None], axis=1, out=tile.T)
        tile += seats[rows.start]
    return seats


def _orbit_parts(seats, tie, held):
    """(base, k, grants) of tied rows with the masks of a block generator:
    the seats less the held grants, and per row, as a column, the number k
    of tied parties and the number of grants.  The orbit mean gives each
    tied party base + grants/k."""
    return seats - held.astype(seats.dtype), tie.sum(axis=1)[:, None], held.sum(axis=1)[:, None]


def _house_blocks(n_from: int, n_to: int, block: int):
    """The houses of [n_from, n_to] as int64 arrays of ``block`` houses."""
    for start in range(n_from, n_to + 1, block):
        yield np.arange(start, min(start + block - 1, n_to) + 1)


def _float_seat_blocks(method, shares: np.ndarray, n_from: int, n_to: int, masks: bool = False):
    """``_exact_seat_blocks`` on float shares: per _FLOAT_BLOCK houses of
    [n_from, n_to], ``allocate``'s canonical seats, the near-tied rows and,
    if ``masks``, their class masks (else None).  Divisor houses, n_from >=
    z*m, come off ``_award_sequence``, quota houses off ``_float_quota_rows``.
    More than MAX_TRIALS houses raise InputError, as in the exact source.
    """
    _check_houses(n_from, n_to)
    if isinstance(method, DivisorMethod):
        sp, m = method.signposts, shares.size
        winners, close, _ = _award_sequence(shares, sp, n_to - sp.zero_count() * m, NEAR_TIE_RTOL)
        return _divisor_blocks(winners, close, m, sp.zero_count(), n_from, n_to, _FLOAT_BLOCK, masks)
    blocks = _house_blocks(n_from, n_to, _FLOAT_BLOCK)
    return ((h, *_float_quota_rows(shares[None, :], method.gamma, h, masks)) for h in blocks)


def _check_houses(n_from: int, n_to: int) -> None:
    """Refuse more than MAX_TRIALS houses; both seat-block sources check first."""
    if n_to - n_from + 1 > MAX_TRIALS:
        raise InputError(f"at most {MAX_TRIALS} houses per run, got {n_to - n_from + 1}")


# -- exact sweeps -------------------------------------------------------------

_EXACT_BLOCK = 4096  # houses per record_batch call of an exact sweep
_CERTIFY_RTOL = 8 * 2.0**-52  # adjacent float figures closer than this, relatively, may be misordered
_TINY = np.finfo(float).tiny  # the smallest normal float


def _exact_awards(votes, total: int, sp: SignpostSequence, count: int):
    """The first ``count`` awards past the mandatory seats of integer votes
    V_i with total T, in exact order: figure descending, then party
    ascending.  Returns the winner of each award and, for each pair of
    adjacent awards, whether their figures are equal; the awards go on past
    ``count`` to the end of the run of equal figures that holds award
    ``count - 1``.

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
    tables, which lies below its table's last entry and so below the cut.
    ``_award_sequence`` extends the float sequence until a certified gap
    closes the run that holds award ``count - 1``.  Every adjacent pair is
    then compared by cross-multiplication, in int64 while w*b*a stays below
    2**63 and in Python ints otherwise; a misordered pair can only lie in a
    run of uncertified gaps, and an odd-even transposition sort swaps
    misordered pairs until every pair is in exact order.

    Fallback.  Where a figure leaves the normal float range (an exact
    geometric ratio at large n: d(n) past 1.8e308, or figures that
    underflow), the awards and their figures come from the integer scan
    ``allocation._scan_awards``, one ``_step`` pass per award.  Raises
    InputError when ``count`` passes the finite entries of a capped table.
    """
    m, z = len(votes), sp.zero_count()
    if count <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    w = [sp.figure_weight(v) for v in votes]
    shares = np.array([v / total for v in votes])
    close = None
    if sp.figure_weight(shares).min() >= _TINY and float(sp.value(z + 1)) >= _TINY:
        try:
            winners, close, smallest = _award_sequence(shares, sp, count, _CERTIFY_RTOL)
        except InputError:  # a table reached the float range, or figures underflowed to 0
            pass
        else:
            winners = winners.astype(np.int64)
            if smallest < _TINY:
                close = None
    if close is None:
        winners, num, den = _scan_awards(w, sp, z, count)
        close = np.zeros(winners.size - 1, dtype=bool)  # the scan's order is exact: no pair may swap
    else:  # award k is seat n[k] of its party: the party's earlier awards counted from z + 1
        keep = winners.size
        per_party = np.bincount(winners, minlength=m)
        n = np.empty(keep, dtype=np.int64)
        n[np.argsort(winners, kind="stable")] = np.arange(keep) - np.repeat(np.cumsum(per_party) - per_party, per_party)
        a, b = sp.exact_pairs(n + z + 1)
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

    ``seats`` (k, m) holds each house's canonical seats, which grant the
    contested seats of a tie to the lowest indices; ``tied`` indexes the
    tied rows, and the (len(tied), m) masks ``tie`` and ``held`` mark the
    parties of each tie class and those of them holding a contested seat.

    Divisor houses read their seats and tie classes off the exact award
    sequence of ``_exact_awards`` with ``_divisor_blocks``: a tie is a run
    of equal figures.  Quota houses run ``allocation._exact_remainder_rows``
    on each block.  More than MAX_TRIALS houses raise InputError.
    """
    if not (_is_exact(weights, method.signposts) if isinstance(method, DivisorMethod) else weights.exact):
        raise InputError("exact sweep requires exact weights and signposts")
    _check_houses(n_from, n_to)
    votes, total = weights.integer_votes
    if isinstance(method, DivisorMethod):
        sp = method.signposts
        z, m = sp.zero_count(), len(votes)
        cap = sp.max_seats()
        winners, equal = _exact_awards(votes, total, sp, n_to - z * m + (cap is None or n_to < cap * m))
        yield from _divisor_blocks(winners, equal, m, z, max(n_from, z * m), n_to, _EXACT_BLOCK)
    else:
        gamma = Fraction(method.gamma)  # a float gamma with exact weights is taken exactly
        for houses in _house_blocks(n_from, n_to, _EXACT_BLOCK):
            yield houses, *_exact_remainder_rows(votes, total, gamma, houses)


def _tie_tuple(seats, tie, held) -> tuple[tuple, int, tuple]:
    """The tie class (parties, grants, base_seats) of one row's masks."""
    parties = np.flatnonzero(tie)
    return tuple(parties.tolist()), int(held.sum()), tuple((seats[parties] - held[parties]).tolist())


def _policy_rows(houses, seats, tied, tie, held, policy: TiePolicy) -> np.ndarray:
    """The seats the tie policy picks: the canonical ones, but under
    ``TiePolicy.seeded`` each tied row draws from (seed, house)."""
    if policy.kind != "random" or not tied.size:
        return seats
    seats = seats.copy()
    for j, r in enumerate(tied.tolist()):
        seats[r] = _policy_seats(seats[r].tolist(), _tie_tuple(seats[r], tie[j], held[j]), policy, int(houses[r]))
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
    """(delta, lower, upper, violating, orbit) of a block of exact rows.

    delta (k, m) holds the seat excesses s_i - house*p_i as floats.  The
    rest are integer counts over each row's ``orbit`` of equally likely seat
    vectors: lower[r, i] and upper[r, i] count the members in which party i
    violates its lower or upper quota, violating[r] those in which some
    party does.  Under the averaging policy the orbit of a tied row has
    comb(k, grants) members, in which ``grants`` of its k tied parties get
    one seat over their base, and the orbit mean seats are (base*k +
    grants)/k (``_orbit_parts``); otherwise a row is the one seat vector
    ``seats``, k = 1.

    Each excess is one division (S*T - house*V_i*k) / (k*T) of integers,
    S the mean seats times k.  While house*T*m < 2**63 the integers are
    int64; numpy divides them as float64s, so a row whose numerator or k*T
    reaches 2**53 is divided again as Python ints, whose int / int is
    correctly rounded.  Past 2**63 the same code runs on object arrays of
    Python ints.  The quota cuts floor(house*p_i) and ceil(house*p_i) come
    from the same integers.  The orbit sizes of the tied rows take one
    ``comb`` per distinct argument pair (``_combs``).
    """
    k_rows, m = seats.shape
    dt = np.int64 if int(houses[-1]) * total * m < 2**63 else object
    s = seats.astype(dt)
    x = houses.astype(dt)[:, None] * np.array(votes, dtype=dt)
    lo_cut = x // total  # lower quota violated iff s < floor(house*p)
    hi_cut = lo_cut + (x - lo_cut * total > 0).astype(dt)  # upper violated iff s > ceil(house*p)
    lower, upper = s < lo_cut, s > hi_cut
    violating = (lower | upper).any(axis=1)
    scaled, k = s, np.ones((k_rows, 1), dtype=dt)  # the mean seats times k, and k
    orbit = np.ones(k_rows, dtype=np.int64)
    if average and tied.size:
        base, kt, gt = _orbit_parts(s[tied], tie, held)  # a tied party holds base or base + 1 seats
        ka, ga = kt[:, 0], gt[:, 0]
        big = _combs(ka, ga)[:, None]
        ct = big.dtype
        granted = _combs(ka - 1, ga - 1).astype(ct)[:, None]  # members granting a party
        tm = tie.astype(dt)
        scaled = s.copy()
        scaled[tied] = base * kt + tm * gt
        k[tied] = kt
        lo_t, hi_t = lo_cut[tied], hi_cut[tied]
        lo_g, lo_n = base + tm < lo_t, base < lo_t  # the violations with and without the grant
        hi_g, hi_n = base + tm > hi_t, base > hi_t
        orbit, lower, upper, violating = (y.astype(ct) for y in (orbit, lower, upper, violating))
        orbit[tied] = big[:, 0]
        lower[tied] = granted * lo_g + (big - granted) * lo_n
        upper[tied] = granted * hi_g + (big - granted) * hi_n
        with_grant, without = lo_g | hi_g, lo_n | hi_n
        fixed = (with_grant & without).any(axis=1)
        only_without = (without & ~with_grant).sum(axis=1)
        free, short = ka - (with_grant & ~without).sum(axis=1) - only_without, ga - only_without
        # the members avoiding every violation grant all of ``without`` and none of ``with_grant``
        good = np.zeros(tied.size, dtype=ct)
        some = (short >= 0) & (short <= free) & ~fixed
        good[some] = _combs(free[some], short[some])
        violating[tied] = big[:, 0] - good
    num, den = scaled * total - x * k, k * total
    delta = (num / den).astype(float)
    if dt is np.int64:
        wide = (np.abs(num) >= 2**53).any(axis=1) | (den[:, 0] >= 2**53)  # not exact as float64s
        if wide.any():
            delta[wide] = (num[wide].astype(object) / den[wide].astype(object)).astype(float)
    return delta, lower, upper, violating, orbit


def _exact_sweep(method, weights, n_from, n_to, tie_policy, stats) -> None:
    """Record the rows of ``_exact_seat_blocks`` in ``stats``, one
    ``record_batch`` per block.

    The violation totals are exact sums, converted to float once, so they
    do not depend on the block size: the rows of one-member orbits add
    integer counts through ``record_batch``, and the others add their
    counts, divided by their orbit size, as one rational per orbit size.
    A block sums those counts per orbit size in int64 while size * rows <
    2**63 (no count exceeds its orbit size), and as Python ints beyond.
    """
    votes, total = weights.integer_votes
    m = len(votes)
    average = tie_policy.kind == "average"
    shared = {}  # orbit size -> summed (lower..., upper..., violating) counts, as Python ints
    for houses, seats, tied, tie, held in _exact_seat_blocks(method, weights, n_from, n_to):
        if not average:
            seats = _policy_rows(houses, seats, tied, tie, held, tie_policy)
        delta, lower, upper, violating, orbit = _excess_rows(houses, seats, tied, tie, held, votes, total, average)
        one = orbit == 1
        if not one.all():
            rows = np.flatnonzero(~one)
            rows = rows[np.argsort(orbit[rows], kind="stable")]  # grouped by orbit size
            sizes = orbit[rows]
            starts = np.flatnonzero(np.r_[True, sizes[1:] != sizes[:-1]])
            counts = np.column_stack((lower[rows], upper[rows], violating[rows]))
            if int(sizes[-1]) * rows.size >= 2**63:
                counts = counts.astype(object)
            for size, summed in zip(sizes[starts].tolist(), np.add.reduceat(counts, starts).tolist()):
                old = shared.get(size)
                shared[size] = summed if old is None else [a + b for a, b in zip(old, summed)]
            lower[rows] = upper[rows] = 0
            lower, upper = lower.astype(np.int64, copy=False), upper.astype(np.int64, copy=False)
        stats.record_batch(delta, lower=lower, upper=upper, any_violation=float(violating[one].sum()))
        stats.ties += tied.size
    if shared:
        # stats started empty, so its float totals so far are exact integer sums
        totals = [*stats.lower_violations.tolist(), *stats.upper_violations.tolist(), stats.any_violation]
        for j, x in enumerate(totals):
            totals[j] = float(int(x) + sum(Fraction(c[j], size) for size, c in shared.items()))
        stats.lower_violations, stats.upper_violations = np.array(totals[:m]), np.array(totals[m : 2 * m])
        stats.any_violation = totals[-1]


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
    average = tie_policy.kind == "average"  # the other policies only count the near-ties
    for houses, seats, tied, tie, held in _float_seat_blocks(method, shares, n_from, n_to, average):
        deltas = np.multiply(houses[:, None], shares)
        np.subtract(seats, deltas, out=deltas)
        if average and tied.size:  # a near-tied row holds its orbit mean
            base, k, grants = _orbit_parts(seats[tied], tie, held)
            deltas[tied] = base + tie * (grants / k) - houses[tied, None] * shares
        stats.record_batch(deltas)
        stats.near_ties += float(tied.size)
    return stats


def _histogram_bounds(method, weights):
    try:
        return excess_bounds(method, weights.shares_float())
    except UnsupportedMethodError:
        return [(-float(len(weights)), float(len(weights)))] * len(weights)


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
    """Period of the seat-excess sequence: the shares' common denominator."""
    return weights.share_denominator()


def period_average_bias(method: Method, weights: PartyWeights) -> tuple[Fraction, ...]:
    """Exact average seat excess over one period above the small-house guard.

    Ties contribute their exact average over the tie orbit.  A period of
    more than MAX_TRIALS houses raises InputError.
    """
    if not weights.exact:
        raise InputError("period averaging requires exact rational weights")
    if isinstance(method, DivisorMethod):
        if method.signposts.exactness is Exactness.FLOAT:
            raise InputError("period averaging requires exact signposts")
        if method.signposts.asymptotic_beta() is None:
            raise UnsupportedMethodError("period averaging supports linear-like methods")
    elif not isinstance(method.gamma, Fraction):
        raise InputError("period averaging requires a rational quota offset")
    period = detect_period(weights)
    start = max(small_n_guard(method, weights), 1)
    votes, total = weights.integer_votes
    sums = [0] * len(votes)  # seats summed over the period
    shift = {}  # k -> grants*tie - held*k summed over the tied rows of k parties
    for _, seats, tied, tie, held in _exact_seat_blocks(method, weights, start, start + period - 1):
        sums = [a + s for a, s in zip(sums, seats.sum(axis=0).tolist())]
        # a tied house holds its orbit mean: its seats plus (grants*tie - held*k)/k
        _, k, grants = _orbit_parts(seats[tied], tie, held)
        terms = tie * grants - held * k
        for size in set(k[:, 0].tolist()):
            shift[size] = shift.get(size, 0) + terms[k[:, 0] == size].sum(axis=0)
    mean = [s + sum(Fraction(int(c[i]), size) for size, c in shift.items()) for i, s in enumerate(sums)]
    houses = period * start + period * (period - 1) // 2  # sum of the house sizes
    return tuple((s - Fraction(houses * v, total)) / period for s, v in zip(mean, votes))


# -- equidistribution ----------------------------------------------------------


def equidistribution_ks(p, gamma: float = 0.0, n_from: int = 1, n_to: int = 10_000) -> np.ndarray:
    """Per-party KS distance of frac((house + gamma) * p_i) from U(0,1)."""
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
    seat vector per row, ties included, through the row-vectorized
    jump-and-step of ``allocation.allocate_divisor_rows``; houses outside
    [z*m, cap*m] raise as ``allocate`` does.  Quota methods run the
    largest-remainder rule of ``allocation.allocate_quota_rows``, which
    raises as ``allocate`` does on house + gamma <= 0.  Seats are returned
    as floats.
    """
    shares = np.asarray(shares, dtype=float)
    if isinstance(method, QuotaMethod):
        seats, _ = allocate_quota_rows(shares, method.gamma, np.full(shares.shape[0], house))
    else:
        seats = allocate_divisor_rows(shares, method.signposts, house)
    return seats.astype(float)


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
    allocated at one house size."""
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
        p = sample_uniform_simplex(m, k, rng)
        if ordered:
            p = -np.sort(-p, axis=1)
        seats = allocate_many(method, p, house_size)
        yield p, seats - house_size * p
        done += k


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
    if m < 2:
        raise InputError("need at least two parties")
    bounds = None if bin_width is None else [(-float(m), float(m))] * m
    delta_stats = SweepStats.empty(m, bounds, bin_width or 0.01)
    share_moms = RunningMoments(m)
    for p, deltas in _simplex_trials(method, m, house_size, trials, seed, batch, ordered=True):
        delta_stats.record_batch(deltas)
        share_moms.push_batch(p)
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
        stats = SweepStats.empty(m)
        for _, deltas in _simplex_trials(method, m, house_size, trials, seed, batch, ordered=False):
            stats.record_batch(deltas)
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
    The seats of the full and the merged lists fill one (houses, 3) buffer,
    one more ``_float_seat_blocks`` call splits every pooled seat count
    between the pair (the sub-apportionment), and the buffer turns into the
    gains in place.  More than MAX_TRIALS houses raise InputError.
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
    gains = np.empty((n_to - n_from + 1, 3))  # the pooled seats, then the seats of party i and party j
    for (houses, s_full, *_), (_, s_pooled, *_) in zip(full, pooled):
        rows = slice(int(houses[0]) - n_from, int(houses[-1]) - n_from + 1)
        gains[rows, 0], gains[rows, 1], gains[rows, 2] = s_pooled[:, im], s_full[:, party_i], s_full[:, party_j]
    pool = gains[:, 0].astype(np.int64)
    lo, hi = int(pool.min()), int(pool.max())
    if lo < sub_min:  # so that the quota sub-apportionment has house + gamma > 0
        raise InvariantError("pooled seat count below the sub-apportionment minimum")
    sub = np.concatenate([s for _, s, *_ in _float_seat_blocks(method, pair_shares, lo, hi)])
    pool -= lo
    gains[:, 0] -= gains[:, 1]  # the joint gain: pooled seats less the separate ones
    gains[:, 0] -= gains[:, 2]
    np.subtract(sub[pool], gains[:, 1:], out=gains[:, 1:])  # each party's share of the pool less its seats
    moments = RunningMoments(3)
    moments.push_batch(gains)
    return ApparentementStats(moments, party_i, party_j, n_from, n_to)
