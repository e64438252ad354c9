"""Shared test helpers: independent oracles and corpus generators.

The divisor oracle enumerates every seat vector and keeps those whose
comparative figures satisfy max_i v_i/d(s_i+1) <= min_i v_i/d(s_i); the
quota oracle enumerates rounding offsets directly.  Both are deliberately
independent of the production allocators.  ``heap_divisor`` is the
sequential highest-averages heap, one pop per seat, kept as the reference
that the jump-and-step ``allocate_divisor`` must reproduce.  The
``fraction_*`` helpers are the exact sweep in ``Fraction`` arithmetic, one
heap pop and one moments push per house, kept as the reference that the
integer kernel of ``apportion.harness`` must reproduce.
``exact_houses``, ``exact_divisor_scan`` and ``exact_rows`` flatten the
array kernels of exact sweeps, ``harness._exact_seat_blocks`` and
``harness._excess_rows``, into the oracles' per-house tuples.
``float_largest_remainder`` is the float largest-remainder rule one party at
a time, kept as the reference that the row kernel
``apportion.allocation.allocate_quota_rows`` must reproduce, and
``argsort_remainder_rows`` is the block rule by two stable argsorts, the
reference of its kernel ``apportion.allocation._remainder_rows``.
``fraction_finalize_divisor`` builds ``heap_divisor``'s tie class and
support interval from ``Fraction`` figures, and ``fraction_brute_force_min``
enumerates ``divergence_value`` in ``Fraction``s: the references of the
integer pair ranking of ``allocate_divisor`` and of the integer functionals
of ``apportion.analysis.brute_force_min``.
"""

import heapq
import random
from fractions import Fraction
from math import comb, floor, inf
from numbers import Rational

import numpy as np
import pytest

from apportion import CapExceededError, DivisorMethod, NegativeSeatError, PartyWeights, SignpostSequence
from apportion.stats import SweepStats
from apportion.analysis import divergence_value
from apportion.allocation import (
    _NEAR_TIE,
    NEAR_TIE_RTOL,
    Allocation,
    _divisor_validate,
    _is_exact,
    _resolve_orbit,
    _tie_class,
)
from apportion.errors import InputError
from apportion.harness import _excess_rows, _exact_seat_blocks, _policy_rows, _tie_tuple
from apportion.methods import DEFAULT_TIES


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def divd_orbit(weights: PartyWeights, sp: SignpostSequence, house: int) -> set:
    """All seat vectors passing the min/max comparative-figure condition."""
    votes = weights.votes
    m = len(votes)
    out = set()
    for seats in compositions(house, m):
        hi = max(sp.figure(votes[i], seats[i] + 1) for i in range(m))
        lo = min(sp.figure(votes[i], seats[i]) for i in range(m))
        if hi == inf:
            continue
        if lo == inf or hi <= lo:
            out.add(seats)
    return out


def heap_divisor(weights: PartyWeights, sp: SignpostSequence, house: int, tie_policy=DEFAULT_TIES):
    """Award each seat to the largest v/d(s+1), lower index first on ties."""
    z = _divisor_validate(weights, sp, house)
    votes = weights.votes
    m = len(votes)
    seats = [z] * m
    heap = [(-sp.figure(votes[i], z + 1), i) for i in range(m)]
    heapq.heapify(heap)
    for _ in range(house - z * m):
        negfig, i = heapq.heappop(heap)
        if negfig == 0:  # all remaining signposts are infinite
            raise CapExceededError("house size unreachable under the table cap")
        seats[i] += 1
        heapq.heappush(heap, (-sp.figure(votes[i], seats[i] + 1), i))
    return fraction_finalize_divisor(weights, sp, seats, house, tie_policy)


def fraction_finalize_divisor(weights: PartyWeights, sp: SignpostSequence, seats, house: int, tie_policy):
    """The Allocation of a canonical divisor seat vector, from ``sp.figure``:
    ``Fraction`` figures on exact input (an exact tie class and interval),
    float figures otherwise (a near-tie flag)."""
    cur = [sp.figure(v, s) for v, s in zip(weights.votes, seats)]
    nxt = [sp.figure(v, s + 1) for v, s in zip(weights.votes, seats)]
    d_minus_fig = max(nxt)
    d_plus_fig = min(cur)
    interval = (sp.divisor_of_figure(d_minus_fig), sp.divisor_of_figure(d_plus_fig))
    alternatives, info = (), None
    if d_minus_fig != inf and d_plus_fig != inf:
        if not _is_exact(weights, sp):
            gap = float(d_plus_fig) - float(d_minus_fig)
            if gap <= NEAR_TIE_RTOL * max(abs(float(d_plus_fig)), abs(float(d_minus_fig))):
                info = _NEAR_TIE
        elif d_minus_fig == d_plus_fig:
            f = d_plus_fig
            tie = _tie_class(seats, cur, nxt, lambda x: x == f)
            seats, alternatives, info = _resolve_orbit(seats, tie, tie_policy, house)
    return Allocation(tuple(seats), house, alternatives, info, interval)


def float_largest_remainder(weights: PartyWeights, gamma, house: int):
    """(seats, near, support_interval) of the largest-remainder rule on the
    float ideal seat counts (house + gamma) p_i, party by party; ``near``
    flags last granted and first refused fractional parts within
    NEAR_TIE_RTOL*max(1, house + gamma).  An ideal seat count within
    NEAR_TIE_RTOL*max(1, |k|) of an integer k counts as that integer."""
    if isinstance(gamma, Rational):
        gamma = Fraction(gamma)
    m = len(weights)
    ideal = [(house + gamma) * p for p in weights.shares_float()]
    ideal = [float(round(f)) if abs(f - round(f)) <= NEAR_TIE_RTOL * max(1, abs(round(f))) else f for f in ideal]
    base = [floor(f) for f in ideal]
    fracs = [f - b for f, b in zip(ideal, base)]
    q, t = divmod(house - sum(base), m)
    seats = [b + q for b in base]
    near = False
    if t > 0:
        order = sorted(range(m), key=lambda i: (-fracs[i], i))
        near = fracs[order[t - 1]] - fracs[order[t]] <= NEAR_TIE_RTOL * max(1, house + float(gamma))  # 0 < t < m
        for i in order[:t]:
            seats[i] += 1
    if min(seats) < 0:
        raise NegativeSeatError(f"gamma={gamma} yields negative seats {tuple(seats)} at house size {house}")
    lo = max(f - s for f, s in zip(ideal, seats))
    hi = min(f - s for f, s in zip(ideal, seats)) + 1
    return tuple(seats), near, (lo, hi)


def argsort_remainder_rows(base, rem, houses, tol):
    """The largest-remainder row rule by two stable argsorts, the reference
    of ``apportion.allocation._remainder_rows``: the ranks of the negated
    remainders grant equal remainders to the lower index.  Returns (seats,
    tied, tie, held) as the kernel does, row-major where the kernel is
    party-major (one row per house), with ``base`` overwritten."""
    q, t = np.divmod(houses - base.sum(axis=1), base.shape[1])
    order = np.argsort(-rem, axis=1, kind="stable")
    granted = np.argsort(order, axis=1, kind="stable") < t[:, None]
    seats = base
    seats += q[:, None]
    seats += granted
    rows = np.arange(t.size)
    cut = rem[rows, order[rows, t - 1]]
    tol = np.broadcast_to(tol, t.shape)
    tied = np.flatnonzero((t > 0) & (cut - rem[rows, order[rows, t]] <= tol))
    tie = abs(rem[tied] - cut[tied, None]) <= tol[tied, None]
    return seats, tied, tie, tie & granted[tied]


def quota_orbit(weights: PartyWeights, gamma, house: int) -> set:
    """All seat vectors realizable as an offset-rounding of (house+gamma)p."""
    ideal = [(house + Fraction(gamma)) * p for p in weights.shares]
    m = len(weights)
    out = set()
    for seats in compositions(house, m):
        # feasible offset alpha: ideal - s <= alpha <= ideal - s + 1 for all i
        lo = max(f - s for f, s in zip(ideal, seats))
        hi = min(f - s + 1 for f, s in zip(ideal, seats))
        if lo <= hi:
            out.add(seats)
    return out


def policy_grant(tied, k, policy, house):
    """The k of the tied parties granted a contested seat: the lowest
    indices, or under a seeded policy a draw seeded by (seed, house)."""
    if policy.kind == "random":
        return set(random.Random(f"{policy.seed}:{house}").sample(tied, k))
    return set(tied[:k])


def fraction_divisor_scan(weights, sp, n_to, policy=DEFAULT_TIES):
    """(house, seats, tie_class) for houses z*m..n_to from a heap of
    ``Fraction`` figures; tie_class is (parties, grants, base_seats) or None.
    The seats of a tied house grant the parties of ``policy_grant``."""
    votes = weights.votes
    m = len(votes)
    z = sp.zero_count()
    seats = [z] * m
    heap = [(-sp.figure(votes[i], z + 1), i) for i in range(m)]
    heapq.heapify(heap)
    yield z * m, tuple(seats), None
    for house in range(z * m + 1, n_to + 1):
        negfig, i = heapq.heappop(heap)
        if negfig == 0:
            raise InputError("house size unreachable under the table cap")
        f = -negfig
        seats[i] += 1
        heapq.heappush(heap, (-sp.figure(votes[i], seats[i] + 1), i))
        tie, picked = None, list(seats)
        if -heap[0][0] == f:
            parties, base, grants = [], [], 0
            for idx in range(m):
                holds = sp.figure(votes[idx], seats[idx]) == f
                takes = sp.figure(votes[idx], seats[idx] + 1) == f
                if holds:
                    parties.append(idx)
                    base.append(seats[idx] - 1)
                    grants += 1
                elif takes:
                    parties.append(idx)
                    base.append(seats[idx])
            tie = (tuple(parties), grants, tuple(base))
            grant = policy_grant(tie[0], grants, policy, house)
            for p, b in zip(parties, base):
                picked[p] = b + (p in grant)
        yield house, tuple(picked), tie


def _exact_blocks(method, weights, n_from, n_to, policy):
    """The blocks of ``_exact_seat_blocks`` with the policy's seats and each
    row's tie class (or None)."""
    for houses, seats, tied, tie, held in _exact_seat_blocks(method, weights, n_from, n_to):
        ties = [None] * houses.size
        for j, r in enumerate(tied.tolist()):
            ties[r] = _tie_tuple(seats[:, r], tie[:, j], held[:, j])
        picked = _policy_rows(houses, seats, tied, tie, held, policy)
        yield houses, seats, picked, tied, tie, held, ties


def exact_houses(method, weights, n_from, n_to, policy=DEFAULT_TIES):
    """(house, seats, tie_class) per house of the exact sweep kernel; the
    seats of a tied house are the tie policy's pick from its class."""
    out = []
    for houses, _, picked, _, _, _, ties in _exact_blocks(method, weights, n_from, n_to, policy):
        out += [(h, tuple(s), t) for h, s, t in zip(houses.tolist(), picked.T.tolist(), ties)]
    return out


def exact_divisor_scan(weights, sp, n_to, policy=DEFAULT_TIES):
    """``exact_houses`` of a divisor method from its first feasible house z*m."""
    return exact_houses(DivisorMethod(sp), weights, sp.zero_count() * len(weights), n_to, policy)


def exact_rows(method, weights, n_from, n_to, policy):
    """(house, tie_class, delta, lower, upper, violating, orbit) per house of
    ``_excess_rows``, in the layout of ``fraction_rows``."""
    votes, total = weights.integer_votes
    m, average = len(votes), policy.kind == "average"
    for houses, seats, picked, tied, tie, held, ties in _exact_blocks(method, weights, n_from, n_to, policy):
        delta, sums, orbit = _excess_rows(houses, seats if average else picked, tied, tie, held, votes, total, average)
        lower, upper, violating = sums[m : 2 * m].T, sums[2 * m : -1].T, sums[-1]
        rows = (delta.T, lower, upper, violating, orbit)
        yield from zip(houses.tolist(), ties, *(x.tolist() for x in rows))


def fraction_quota(weights, gamma, house, policy):
    """(seats, tie_class) of the largest-remainder rule on ``Fraction`` ideals;
    a tie grants the lowest indices, or a seeded random choice."""
    gamma = Fraction(gamma)
    m = len(weights)
    ideal = [(house + gamma) * p for p in weights.shares]
    base = [floor(f) for f in ideal]
    fracs = [f - b for f, b in zip(ideal, base)]
    q, t = divmod(house - sum(base), m)
    seats = [b + q for b in base]
    tie = None
    if t > 0:
        order = sorted(range(m), key=lambda i: (-fracs[i], i))
        cut = fracs[order[t - 1]]
        tied = [i for i in range(m) if fracs[i] == cut]
        k = t - sum(1 for i in range(m) if fracs[i] > cut)
        if len(tied) > k:
            tie = (tuple(tied), k, tuple(seats[i] for i in tied))
            grant = policy_grant(tuple(tied), k, policy, house)
            for i in range(m):
                seats[i] += fracs[i] > cut or i in grant
        else:
            for i in order[:t]:
                seats[i] += 1
    return tuple(seats), tie


def fraction_houses(method, weights, n_from, n_to, policy):
    """(house, seats, tie_class) for every house in [n_from, n_to]."""
    if isinstance(method, DivisorMethod):
        return [r for r in fraction_divisor_scan(weights, method.signposts, n_to, policy) if r[0] >= n_from]
    return [(h, *fraction_quota(weights, method.gamma, h, policy)) for h in range(n_from, n_to + 1)]


def fraction_rows(method, weights, n_from, n_to, policy):
    """(house, tie_class, delta, lower, upper, violating, orbit) per house:
    the indicators are counts over the ``orbit`` equally likely members."""
    average = policy.kind == "average"
    for house, seats, tie in fraction_houses(method, weights, n_from, n_to, policy):
        if average and tie is not None:
            parties, grants, base = tie
            orbit = comb(len(parties), grants)
            expected = list(map(Fraction, seats))
            for party, b in zip(parties, base):
                expected[party] = b + Fraction(grants, len(parties))
        else:
            expected, orbit = seats, 1
        delta = [float(s - house * p) for s, p in zip(expected, weights.shares)]
        lower, upper, any_v = fraction_indicators(weights, house, seats, tie if average else None)
        yield house, tie, delta, [x * orbit for x in lower], [x * orbit for x in upper], any_v * orbit, orbit


def fraction_indicators(weights, house, seats, tie):
    """Per-party expected quota-violation indicators, as ``Fraction``s over tie orbits."""
    m = len(weights)
    lo_cut = [floor(house * p) for p in weights.shares]
    hi_cut = [-floor(-(house * p)) for p in weights.shares]
    if tie is None:
        lower = [s < c for s, c in zip(seats, lo_cut)]
        upper = [s > c for s, c in zip(seats, hi_cut)]
        return [Fraction(x) for x in lower], [Fraction(x) for x in upper], Fraction(any(lower) or any(upper))
    parties, k, base_seats = tie
    base = dict(zip(parties, base_seats))
    tsize = len(parties)
    p_grant = Fraction(k, tsize)
    lower, upper = [], []
    viol_if_granted, viol_if_not = set(), set()
    fixed_violation = False
    for i in range(m):
        if i in base:
            lo_g = base[i] + 1 < lo_cut[i]
            lo_n = base[i] < lo_cut[i]
            hi_g = base[i] + 1 > hi_cut[i]
            hi_n = base[i] > hi_cut[i]
            lower.append(p_grant * lo_g + (1 - p_grant) * lo_n)
            upper.append(p_grant * hi_g + (1 - p_grant) * hi_n)
            if (lo_g or hi_g) and (lo_n or hi_n):
                fixed_violation = True
            elif lo_g or hi_g:
                viol_if_granted.add(i)
            elif lo_n or hi_n:
                viol_if_not.add(i)
        else:
            lo = seats[i] < lo_cut[i]
            hi = seats[i] > hi_cut[i]
            lower.append(Fraction(lo))
            upper.append(Fraction(hi))
            fixed_violation = fixed_violation or lo or hi
    if fixed_violation:
        return lower, upper, Fraction(1)
    free = tsize - len(viol_if_granted) - len(viol_if_not)
    need = k - len(viol_if_not)
    good = comb(free, need) if 0 <= need <= free else 0
    return lower, upper, 1 - Fraction(good, comb(tsize, k))


def fraction_sweep(method, weights, n_from, n_to, policy, bounds):
    """SweepStats of the exact sweep over [n_from, n_to], one row per push
    to the moments and the histogram; the violation totals are summed in
    ``Fraction``s and converted to float at the end."""
    m = len(weights)
    stats = SweepStats.empty(m, bounds)
    lower_total, upper_total, any_total = [Fraction(0)] * m, [Fraction(0)] * m, Fraction(0)
    for _, tie, delta, lower, upper, any_v, orbit in fraction_rows(method, weights, n_from, n_to, policy):
        stats.moments.push_batch(np.array([delta]))
        stats.histogram.push_batch(np.array([delta]))
        lower_total = [t + Fraction(x, orbit) for t, x in zip(lower_total, lower)]
        upper_total = [t + Fraction(x, orbit) for t, x in zip(upper_total, upper)]
        any_total += Fraction(any_v, orbit)
        if tie is not None:
            stats.ties += 1
    stats.lower_violations = np.array([float(x) for x in lower_total])
    stats.upper_violations = np.array([float(x) for x in upper_total])
    stats.any_violation = float(any_total)
    stats.n_from, stats.n_to = n_from, n_to
    return stats


def fraction_brute_force_min(functional, weights: PartyWeights, house: int) -> set:
    """Argmin set of ``divergence_value`` over every seat vector, in the
    weights' own arithmetic: ``Fraction``s for exact weights."""
    best, argmin = None, set()
    for seats in compositions(house, len(weights)):
        val = divergence_value(functional, seats, weights, house)
        if best is None or val < best:
            best, argmin = val, {seats}
        elif val == best:
            argmin.add(seats)
    return argmin


def random_weights(rng: random.Random, m: int, lo: int = 1, hi: int = 9) -> PartyWeights:
    return PartyWeights.of([rng.randint(lo, hi) for _ in range(m)])


@pytest.fixture
def rng():
    return random.Random(20260809)
