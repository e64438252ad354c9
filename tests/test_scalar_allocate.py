"""``allocate`` on one vote vector against the oracles, compared by ``repr``.

The scalar paths read the signposts' cached constants, build one pair
function per call and read the tie class and the support interval off the
final pairs of ``allocation._step``.  The sequential heap (``heap_divisor``)
and the largest-remainder rule in ``Fraction``s (``fraction_quota``) or, on
float votes, party by party (``float_largest_remainder``) build their
results on their own.  ``repr`` compares the types as well as the values (a
``Fraction`` endpoint against an int or a float), and an input the oracle
refuses must raise the same exception type.  The corpora are those of the
benchmark's ``allocate`` jobs (tie-heavy small votes and 50-party
censuses) and hypothesis draws.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from apportion import DivisorMethod, PartyWeights, TiePolicy, allocate
from apportion.allocation import _NEAR_TIE, Allocation, _resolve_orbit
from apportion.methods import DEFAULT_TIES, method_by_name, quota_method
from conftest import float_largest_remainder, fraction_quota, heap_divisor
from test_jump_and_step import FAMILIES

METHODS = {name: DivisorMethod(sp) for name, sp in FAMILIES.items()}
METHODS.update({name: method_by_name(name) for name in ("hamilton", "droop")})
METHODS["quota1/2"] = quota_method(Fraction(1, 2))
POLICIES = [TiePolicy.enumerate_all(), TiePolicy.seeded(7), TiePolicy.average(), TiePolicy.enumerate_all(1)]


def oracle(method, weights, house, policy):
    if isinstance(method, DivisorMethod):
        return heap_divisor(weights, method.signposts, house, policy)
    if not weights.exact:
        seats, near, interval = float_largest_remainder(weights, method.gamma, house)
        return Allocation(seats, house, (), _NEAR_TIE if near else None, interval)
    seats, tie = fraction_quota(weights, method.gamma, house, DEFAULT_TIES)  # the canonical member
    alternatives, info = (), None
    if tie is not None:
        seats, alternatives, info = _resolve_orbit(seats, tie, policy, house)
    slack = [(house + method.gamma) * p - s for p, s in zip(weights.shares, seats)]
    return Allocation(tuple(seats), house, alternatives, info, (max(slack), min(slack) + 1))


def outcome(function, *args):
    try:
        return repr(function(*args))
    except Exception as error:  # the type is the outcome
        return type(error).__name__


def assert_same(method, weights, house, policy):
    got, want = outcome(allocate, method, weights, house, policy), outcome(oracle, method, weights, house, policy)
    assert got == want, (method, weights, house, policy)


@pytest.mark.parametrize("name", sorted(METHODS))
def test_tie_corpus(name):
    # few small vote values: exact ties at most houses, under every tie policy
    method, rng = METHODS[name], random.Random(name)
    for _ in range(12):
        weights = PartyWeights.of([rng.randint(1, 4) for _ in range(rng.randint(1, 6))])
        for house in range(1, 13):
            for policy in POLICIES:
                assert_same(method, weights, house, policy)


@pytest.mark.parametrize("name", sorted(METHODS))
def test_census_corpus(name):
    rng = np.random.default_rng(0)
    for _ in range(2):
        weights = PartyWeights.of([int(v) for v in rng.integers(1_000, 1_000_000, size=50)])
        for policy in POLICIES[:2]:
            assert_same(METHODS[name], weights, 435, policy)


votes = st.one_of(
    st.lists(st.integers(1, 9), min_size=1, max_size=5),
    st.lists(st.fractions(Fraction(1, 7), 12, max_denominator=7), min_size=1, max_size=5),
    st.lists(st.integers(1, 9).map(float), min_size=1, max_size=5),
)


@given(st.sampled_from(sorted(METHODS)), votes, st.integers(0, 40), st.sampled_from(POLICIES))
@settings(max_examples=400, deadline=None)
def test_hypothesis_corpus(name, vote_list, house, policy):
    method = METHODS[name]
    if not isinstance(method, DivisorMethod):
        house = max(house, 1)  # house + gamma > 0 for every gamma here
    assert_same(method, PartyWeights.of(vote_list), house, policy)
