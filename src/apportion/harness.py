"""Empirical verification harness: house-size sweeps, Monte Carlo over random
party sizes, rational-share period analysis, and equidistribution diagnostics.

A sweep allocates at every house size in a range and accumulates seat-excess
statistics; averaged over a long range this realizes the uniform-random-house
model the asymptotic formulas describe.  Rational shares are periodic in the
house size, so their exact bias is the average over one period.

Float sweeps run on vectorized fast paths.  The divisor path builds the
seat-award sequence once, as a stable sort of every party's table of
figures, taken in figure space from ``SignpostSequence.figures`` as
``allocate`` takes them, with each table long enough by a bound on the
figure of the last award and no longer than the float range; it reads every
house size off cumulative counts, and chunks on worker threads all slice
that one sequence.  The quota path
runs ``allocation.allocate_quota_rows`` on blocks of houses.  Exact sweeps
and period averages run one integer kernel: the votes are scaled once to
coprime integers, a divisor scan adds one seat per house size and compares
figures by integer cross-multiplication, quota houses floor integer ideal
seats, and ties are found exactly and averaged over their orbits; the rows
of an exact sweep are recorded in blocks, and its violation totals are
exact sums, converted to float once.

Ties follow ``allocation``'s contract: one class from ``_tie_class`` and
one orbit mean, base + grants/k (exact rows divide it out in integers).  A
seeded exact sweep draws each tied house from (seed, house), as ``allocate``
does.  Float sweeps find the class within NEAR_TIE_RTOL, count a near-tie,
record the orbit mean under the averaging policy, and never seed a tie.

Monte Carlo runs one loop for ordered-party statistics and random-mode
violation frequencies: batches of shares drawn uniformly on the simplex,
allocated by ``allocate_many`` and recorded in ``SweepStats``.  For divisor
methods of every signpost family ``allocate_many`` is the row-vectorized
jump-and-step of ``allocation.allocate_divisor_rows``, so each row gets
``allocate``'s canonical seat vector, ties included; quota methods run
``allocation.allocate_quota_rows``.
"""

from __future__ import annotations

import math
import os
from array import array
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb
from operator import add

import numpy as np

from .allocation import (
    NEAR_TIE_RTOL,
    _is_exact,
    _largest_remainder,
    _orbit_mean,
    _policy_seats,
    _quota_ideals,
    _tie_class,
    allocate_divisor_rows,
    allocate_quota_rows,
)
from .asymptotics import excess_bounds, moment_prediction
from .errors import InputError, InvariantError, UnsupportedMethodError
from .methods import DivisorMethod, Method, QuotaMethod, TiePolicy, small_n_guard
from .samplers import sample_uniform_simplex
from .signposts import _FLOAT_RANGE, Exactness, SignpostSequence
from .stats import ComparisonReport, ComparisonRow, SweepStats, RunningMoments, Tolerances
from .violation import violation_probability
from .weights import PartyWeights

EXACT_SWEEP_LIMIT = 20_000

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
    table holds its figures for n = z+1 .. budget[i], all from one
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
        # entry k of the concatenated tables is seat k - (ends - lengths - z - 1) of its party
        figs = sp.figures(np.repeat(shares, lengths), np.arange(ends[-1]) - np.repeat(ends - lengths - z - 1, lengths))
        order = np.argsort(-figs, kind="stable")[:steps]
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
    winners = np.repeat(np.arange(m, dtype=np.int32), lengths)[order]
    return winners, figs[order]


def _award_sequence(shares: np.ndarray, sp: SignpostSequence, n_to: int):
    """Winners of every award up to house n_to, and per-award near-tie flags.

    near[a] flags award a as tied with award a+1, i.e. house z*m+a+1 as
    near-tied; one extra award gives the flag at n_to, unless n_to fills a
    capped table.
    """
    cap = sp.max_seats()
    full = cap is not None and n_to == cap * shares.size
    steps = n_to - sp.zero_count() * shares.size
    winners, figures = _winner_sequence(shares, sp, steps + (not full))
    near = figures[:-1] - figures[1:] <= NEAR_TIE_RTOL * np.abs(figures[:-1])
    return winners, np.append(near, False) if full else near


def _divisor_sweep_float(
    shares: np.ndarray,
    sp: SignpostSequence,
    winners: np.ndarray,
    near: np.ndarray,
    n_from: int,
    n_to: int,
    stats: SweepStats,
    average_ties: bool,
    block: int = 65536,
) -> None:
    """Sweep [n_from, n_to] off an award sequence from ``_award_sequence``
    computed for any house size >= n_to."""
    m = shares.size
    z = sp.zero_count()

    # tie flag per house in [n_from, n_to]
    award_of = np.arange(n_from, n_to + 1) - z * m - 1
    house_tied = np.zeros(n_to - n_from + 1, dtype=bool)
    ok = award_of >= 0
    house_tied[ok] = near[award_of[ok]]

    consumed = n_from - z * m  # awards already counted at house n_from
    base = z + np.bincount(winners[: max(consumed, 0)], minlength=m).astype(np.int64)
    for start in range(n_from, n_to + 1, block):
        stop = min(start + block - 1, n_to)
        # house start+r consumes awards [0, start+r-z*m)
        seats = _seat_matrix(base, winners[start - z * m : stop - z * m])
        base = seats[-1].copy()
        nxt = stop - z * m  # award consumed by house stop+1
        if nxt < winners.size and stop < n_to:
            base[winners[nxt]] += 1
        houses = np.arange(start, stop + 1, dtype=float)
        deltas = seats - houses[:, None] * shares[None, :]
        tied = house_tied[start - n_from : stop - n_from + 1]
        if average_ties:
            for row in np.flatnonzero(tied):
                deltas[row] = _near_tie_average_divisor(shares, sp, seats[row], int(houses[row]))
        stats.record_batch(deltas)
        stats.near_ties += float(tied.sum())


def _seat_matrix(base: np.ndarray, winners: np.ndarray) -> np.ndarray:
    """Seats after each prefix of an award sequence: row r holds ``base``
    plus the awards winners[:r], for r = 0 .. len(winners)."""
    m = base.size
    seats = np.empty((winners.size + 1, m), dtype=np.int64)
    seats[0] = 0
    # the (m, k) one-hot's running sums, written straight into the transpose
    np.cumsum(winners[None, :] == np.arange(m)[:, None], axis=1, out=seats[1:].T)
    seats += base
    return seats


def _near_tie_average_divisor(shares, sp, seats, house) -> np.ndarray:
    """Average the excess over the tie class found within 4*NEAR_TIE_RTOL of
    the worst held figure."""
    cur, nxt = sp.figures(shares, seats), sp.figures(shares, seats + 1)
    f = cur[np.isfinite(cur)].min()
    tol = NEAR_TIE_RTOL * abs(f) * 4
    tie = _tie_class(seats, cur, nxt, lambda x: abs(x - f) <= tol)  # an infinite figure is never near f
    return np.array(_orbit_mean(seats, tie, exact=False), dtype=float) - house * shares


def _quota_sweep_float(
    shares: np.ndarray,
    gamma,
    n_from: int,
    n_to: int,
    stats: SweepStats,
    average_ties: bool,
    block: int = 65536,
) -> None:
    for start in range(n_from, n_to + 1, block):
        stop = min(start + block - 1, n_to)
        houses = np.arange(start, stop + 1)
        seats, near = allocate_quota_rows(shares[None, :], gamma, houses)
        deltas = seats - houses[:, None] * shares[None, :]
        if average_ties:
            for row in np.flatnonzero(near):
                deltas[row] = _near_tie_average_quota(shares, gamma, int(houses[row]), seats[row])
        stats.record_batch(deltas)
        stats.near_ties += float(near.sum())


def _near_tie_average_quota(shares, gamma, house: int, seats) -> np.ndarray:
    """Average the excess over the tie class within 4*NEAR_TIE_RTOL*max(1,
    house + gamma) of the last granted fractional part of ``_quota_ideals``."""
    ideal = _quota_ideals(shares[None, :], gamma, [house])[0]
    floors = np.floor(ideal)
    frac = ideal - floors
    granted = seats > floors + (house - int(floors.sum())) // shares.size
    c = frac[granted].min()
    tol = NEAR_TIE_RTOL * 4 * max(1.0, house + float(gamma))
    held, nxt = np.where(granted, frac, np.nan), np.where(granted, np.nan, frac)
    tie = _tie_class(seats, held, nxt, lambda x: abs(x - c) <= tol)
    return np.array(_orbit_mean(seats, tie, exact=False), dtype=float) - house * shares


# -- exact sweeps -------------------------------------------------------------

_EXACT_BLOCK = 4096  # houses per record_batch call of an exact sweep


def _exact_divisor_scan(weights, sp, n_to: int):
    """Yield (house, seats, tie_class) incrementally for every feasible house.

    tie_class is (parties, grants, base_seats) when the allocation at that
    house is tied, else None; ``seats`` is one branch of the orbit, the one
    that grants the contested seats to the lowest indices.

    The arithmetic is integer: with integer votes V_i and d(n) = a/b in
    figure space (``SignpostSequence.exact_pair``), party i's figure is
    w_i*b/a with w_i = ``figure_weight(V_i)``, and figures compare by
    cross-multiplication.  Each house awards one seat to the largest next
    figure, the lower index first among equal figures.
    """
    if not _is_exact(weights, sp):
        raise InputError("exact scan requires exact weights and signposts")
    votes, _ = weights.integer_votes
    w = [sp.figure_weight(v) for v in votes]
    m = len(w)
    z = sp.zero_count()
    pairs = [sp.exact_pair(n) for n in range(z + 2)]  # pairs[n] for d(n), grown on demand
    seats = [z] * m
    a, b = pairs[z + 1]
    num = [x * b for x in w]  # party i's next figure is num[i] / den[i]
    den = [a] * m

    def top():
        best, b_num, b_den = 0, num[0], den[0]
        for j in range(1, m):
            if num[j] * b_den > b_num * den[j]:
                best, b_num, b_den = j, num[j], den[j]
        return best, b_num, b_den

    i, f_num, f_den = top()
    yield z * m, tuple(seats), None
    for house in range(z * m + 1, n_to + 1):
        if f_num == 0:  # all remaining signposts are infinite
            raise InputError("house size unreachable under the table cap")
        seats[i] += 1
        n = seats[i] + 1
        if n == len(pairs):
            pairs.append(sp.exact_pair(n))
        a, b = pairs[n]
        num[i] = w[i] * b
        den[i] = a
        best, b_num, b_den = top()
        tie = None
        if b_num * f_den == f_num * b_den:
            held = [(w[j] * pairs[seats[j]][1], pairs[seats[j]][0]) for j in range(m)]
            tie = _tie_class(seats, held, list(zip(num, den)), lambda x: x[0] * f_den == f_num * x[1])
        yield house, tuple(seats), tie
        i, f_num, f_den = best, b_num, b_den


def _exact_houses(method, weights, n_from: int, n_to: int, tie_policy):
    """Yield (house, seats, tie_class) for every house in [n_from, n_to];
    the seats of a tied house are the tie policy's pick from its class."""
    if isinstance(method, DivisorMethod):
        rows = (row for row in _exact_divisor_scan(weights, method.signposts, n_to) if row[0] >= n_from)
    else:
        votes, total = weights.integer_votes
        gamma = Fraction(method.gamma)  # a float gamma with exact weights is taken exactly
        rows = ((h, *_largest_remainder(votes, total, gamma, h)) for h in range(n_from, n_to + 1))
    for house, seats, tie in rows:
        yield house, tuple(seats) if tie is None else _policy_seats(seats, tie, tie_policy, house), tie


def _exact_rows(method, weights, n_from: int, n_to: int, tie_policy):
    """Yield (house, tie_class, delta, lower, upper, violating, orbit) per house.

    delta holds the seat excesses s_i - house*p_i as floats.  The rest are
    integer counts over the house's ``orbit`` of equally likely seat
    vectors: lower[i] and upper[i] count the members in which party i
    violates its lower or upper quota, ``violating`` those in which some
    party does.  Under the averaging policy the orbit of a tied house has
    comb(k, grants) members, in which ``grants`` of the k tied parties get
    one seat over their base; otherwise it is the one seat vector.  With
    integer votes V_i and total T every delta is one int division, which
    Python rounds correctly, so it equals float() of the exact rational.
    """
    average = tie_policy.kind == "average"
    votes, total = weights.integer_votes
    for house, seats, tie in _exact_houses(method, weights, n_from, n_to, tie_policy):
        parties, grants, base_seats = tie if average and tie is not None else ((), 0, ())
        k = len(parties) or 1  # an untied house is an orbit of one member
        orbit = comb(k, grants)
        granted = comb(k - 1, grants - 1) if grants else 0  # members granting a given tied party
        base = dict(zip(parties, base_seats))
        delta, lower, upper = [], [], []
        viol_if_granted = viol_if_not = 0
        fixed_violation = False
        for i, (s, v) in enumerate(zip(seats, votes)):
            x = house * v
            lo_cut, r = divmod(x, total)  # lower quota violated iff s < floor(house*p)
            hi_cut = lo_cut + (r > 0)  # upper violated iff s > ceil(house*p)
            # a tied party holds b + 1 seats in ``granted`` of the members, else b
            b, up = (base[i], 1) if i in base else (s, 0)
            delta.append(((b * k + grants * up) * total - x * k) / (k * total))
            lo_g, lo_n, hi_g, hi_n = b + up < lo_cut, b < lo_cut, b + up > hi_cut, b > hi_cut
            lower.append(granted * lo_g + (orbit - granted) * lo_n)
            upper.append(granted * hi_g + (orbit - granted) * hi_n)
            if (lo_g or hi_g) and (lo_n or hi_n):
                fixed_violation = True
            elif lo_g or hi_g:
                viol_if_granted += 1
            elif lo_n or hi_n:
                viol_if_not += 1
        # orbit members avoiding every violation grant all of viol_if_not
        # and none of viol_if_granted
        free, need = k - viol_if_granted - viol_if_not, grants - viol_if_not
        good = comb(free, need) if 0 <= need <= free and not fixed_violation else 0
        yield house, tie, delta, lower, upper, orbit - good, orbit


def _exact_sweep(method, weights, n_from, n_to, tie_policy, stats) -> None:
    """Record ``_exact_rows`` in ``stats``, _EXACT_BLOCK houses per
    ``record_batch``.

    The violation totals are exact sums, converted to float once, so they
    do not depend on the block size: the houses of one-member orbits add
    integer counts through ``record_batch``, and the others add their
    counts, divided by their orbit size, as one rational per orbit size.
    """
    m = len(weights)
    rows = _exact_rows(method, weights, n_from, n_to, tie_policy)
    shared = {}  # orbit size -> summed (lower..., upper..., violating) counts
    none = [0] * (2 * m)
    while True:
        buf, any_v, ties = array("d"), 0, 0
        for _, tie, delta, lower, upper, violating, orbit in islice(rows, _EXACT_BLOCK):
            ties += tie is not None
            if orbit == 1:
                buf.extend(delta + lower + upper)
                any_v += violating
            else:
                buf.extend(delta + none)
                counts = shared.setdefault(orbit, [0] * (2 * m + 1))
                counts[:] = map(add, counts, lower + upper + [violating])
        if not buf:
            break
        block = np.frombuffer(buf).reshape(-1, 3, m)
        stats.record_batch(block[:, 0], lower=block[:, 1], upper=block[:, 2], any_violation=float(any_v))
        stats.ties += ties
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
    force_exact: bool | None = None,
) -> SweepStats:
    """Allocate at every house size in [n_from, n_to] and accumulate excess stats.

    The range is clamped below at the method's small-house guard; the stats
    record the effective range.  Exact weights on a desk-scale range run the
    exact per-house path (honoring the tie policy); longer ranges and float
    weights use the vectorized float path, where near-ties are counted and,
    under the averaging policy, contribute the class average.

    ``workers`` (at least 1) splits a float sweep into that many chunks run
    on threads, clamped to the CPU count and to the number of houses; divisor
    chunks all read one award sequence computed for ``n_to``.
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
    bounds = _histogram_bounds(method, weights)
    divisor = isinstance(method, DivisorMethod)
    exact = _is_exact(weights, method.signposts) if divisor else weights.exact
    if force_exact is None:
        use_exact = exact and (n_to - n_from + 1) <= EXACT_SWEEP_LIMIT
    else:
        use_exact = force_exact
        if use_exact and not exact:
            raise InputError("exact sweep requires exact weights and signposts")

    def make_stats(a: int, b: int) -> SweepStats:
        stats = SweepStats.empty(m, bounds, bin_width) if bin_width else SweepStats.empty(m)
        stats.n_from, stats.n_to = a, b
        return stats

    if use_exact:
        stats = make_stats(n_from, n_to)
        _exact_sweep(method, weights, n_from, n_to, tie_policy, stats)
        return stats

    shares = np.asarray(weights.shares_float())
    average = tie_policy.kind == "average"
    if divisor:
        winners, near = _award_sequence(shares, method.signposts, n_to)  # every chunk slices it

    def run_chunk(ab: tuple[int, int]) -> SweepStats:
        a, b = ab
        chunk = make_stats(a, b)
        if divisor:
            _divisor_sweep_float(shares, method.signposts, winners, near, a, b, chunk, average)
        else:
            _quota_sweep_float(shares, method.gamma, a, b, chunk, average)
        return chunk

    workers = min(workers, os.cpu_count() or 1, n_to - n_from + 1)
    if workers == 1:
        return run_chunk((n_from, n_to))
    edges = np.linspace(n_from, n_to + 1, workers + 1).astype(int)
    spans = [(int(a), int(b - 1)) for a, b in zip(edges, edges[1:]) if b > a]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        chunks = list(pool.map(run_chunk, spans))
    stats = chunks[0]
    for other in chunks[1:]:
        stats.merge(other)
    return stats


def _histogram_bounds(method, weights):
    try:
        return excess_bounds(method, weights.shares_float())
    except UnsupportedMethodError:
        m = len(weights)
        return [(-float(m), float(m))] * m


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
    pred = moment_prediction(method, p)
    rows = []
    for i in range(m):
        rows.append(ComparisonRow("mean", (i,), float(stats.mean[i]), float(pred.mean[i]), tolerances.mean))
    for i in range(m):
        rows.append(
            ComparisonRow("variance", (i,), float(stats.variance[i]), float(pred.variance[i]), tolerances.variance)
        )
    cov = stats.covariance
    for i in range(m):
        for j in range(i + 1, m):
            rows.append(
                ComparisonRow(
                    "covariance", (i, j), float(cov[i, j]), float(pred.covariance[i, j]), tolerances.covariance
                )
            )
    if tolerances.violation is not None:
        freq = stats.violation_frequency()
        for i in range(m):
            lo, up = violation_probability(method, p[i], m)
            rows.append(
                ComparisonRow("violation", (i,), float(freq["total"][i]), lo + up, tolerances.violation)
            )
    return ComparisonReport(tuple(rows))


# -- rational shares: periods -------------------------------------------------


def detect_period(weights: PartyWeights) -> int:
    """Period of the seat-excess sequence: the shares' common denominator."""
    return weights.share_denominator()


def period_average_bias(method: Method, weights: PartyWeights) -> tuple[Fraction, ...]:
    """Exact average seat excess over one period above the small-house guard.

    Ties contribute their exact average over the tie orbit.
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
    sums = [0] * len(votes)  # expected seats summed over the period
    for _, seats, tie in _exact_houses(method, weights, start, start + period - 1, TiePolicy.average()):
        sums = [a + s for a, s in zip(sums, seats if tie is None else _orbit_mean(seats, tie))]
    houses = period * start + period * (period - 1) // 2  # sum of the house sizes
    return tuple((s - Fraction(houses * v, total)) / period for s, v in zip(sums, votes))


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
    if house_size < 0:
        raise InputError("house size must be nonnegative")
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
    """Sweep house sizes comparing separate vs pooled entries for two parties."""
    m = len(weights)
    if m < 3:
        raise InputError("need at least one party outside the coalition")
    if not (0 <= party_i < m and 0 <= party_j < m) or party_i == party_j:
        raise InputError("invalid coalition parties")
    merged, im = weights.merged(party_i, party_j)
    guard = max(small_n_guard(method, weights), small_n_guard(method, merged))
    shares = np.asarray(weights.shares_float())
    mshares = np.asarray(merged.shares_float())
    p_pool = mshares[im]
    pair = np.array([shares[party_i], shares[party_j]])
    pair_shares = pair / pair.sum()

    # the sub-apportionment needs its own minimum house size
    if isinstance(method, DivisorMethod):
        z = method.signposts.zero_count()
        sub_min = 2 * z
    else:
        sub_min = max(0, math.floor(-float(method.gamma))) + 1
    lo_bound = excess_bounds(method, mshares)[im][0]
    n_from = max(n_from, guard, math.ceil((sub_min + 1 - lo_bound) / p_pool))
    if n_to < n_from:
        raise InputError("range lies below the feasible coalition sweep start")

    moments = RunningMoments(3)
    houses = np.arange(n_from, n_to + 1)
    if isinstance(method, DivisorMethod):
        full = _cumulative_seats(shares, method.signposts, n_to)
        pooled = _cumulative_seats(mshares, method.signposts, n_to)
        s_i = full[houses, party_i]
        s_j = full[houses, party_j]
        s_pool = pooled[houses, im]
        if s_pool.min() < sub_min:
            raise InvariantError("pooled seat count below the sub-apportionment minimum")
        sub = _cumulative_seats(pair_shares, method.signposts, int(s_pool.max()))
        sub_i = sub[s_pool, 0]
        sub_j = sub[s_pool, 1]
    else:
        gamma = method.gamma
        s_full, _ = allocate_quota_rows(shares[None, :], gamma, houses)
        s_pooled, _ = allocate_quota_rows(mshares[None, :], gamma, houses)
        s_i = s_full[:, party_i]
        s_j = s_full[:, party_j]
        s_pool = s_pooled[:, im]
        if not s_pool.min() + gamma > 0:
            raise InvariantError("pooled seat count leaves a nonpositive sub-apportionment quota")
        sub, _ = allocate_quota_rows(pair_shares[None, :], gamma, s_pool)
        sub_i = sub[:, 0]
        sub_j = sub[:, 1]
    joint = s_pool - s_i - s_j
    gains = np.stack([joint, sub_i - s_i, sub_j - s_j], axis=1)
    moments.push_batch(gains)
    return ApparentementStats(moments, party_i, party_j, n_from, n_to)


def _cumulative_seats(shares: np.ndarray, sp, n_to: int) -> np.ndarray:
    """Seat matrix s[house, party] for house sizes 0..n_to (divisor methods)."""
    m = shares.size
    z = sp.zero_count()
    steps = n_to - z * m
    if steps < 0:
        raise InputError("house size below the mandatory seats")
    winners, _ = _winner_sequence(shares, sp, steps)
    seats = np.zeros((n_to + 1, m), dtype=np.int64)  # sizes below z*m infeasible
    seats[z * m :] = _seat_matrix(np.full(m, z), winners)
    return seats
