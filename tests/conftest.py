"""Shared test helpers: independent oracles and corpus generators.

The divisor oracle enumerates every seat vector and keeps those whose
comparative figures satisfy max_i v_i/d(s_i+1) <= min_i v_i/d(s_i); the
quota oracle enumerates rounding offsets directly.  Both are deliberately
independent of the production allocators.  ``heap_divisor`` is the
sequential highest-averages heap, one pop per seat, kept as the reference
that the jump-and-step ``allocate_divisor`` must reproduce.
"""

import heapq
import random
from fractions import Fraction
from math import inf

import pytest

from apportion import CapExceededError, PartyWeights, SignpostSequence
from apportion.allocation import _divisor_validate, _finalize_divisor
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
    return _finalize_divisor(weights, sp, seats, house, tie_policy)


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


def random_weights(rng: random.Random, m: int, lo: int = 1, hi: int = 9) -> PartyWeights:
    return PartyWeights.of([rng.randint(lo, hi) for _ in range(m)])


@pytest.fixture
def rng():
    return random.Random(20260809)
