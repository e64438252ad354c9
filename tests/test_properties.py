"""Structural invariants under randomly generated instances.

The acceptance suite re-runs these at 10^4 cases each with a plain seeded
generator; here hypothesis shrinks useful counterexamples during development.
"""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from apportion import (
    PartyWeights,
    SignpostSequence,
    TiePolicy,
    allocate_divisor,
    allocate_quota,
    seat_excess,
)
from apportion.methods import linear_divisor, quota_method, small_n_guard
from conftest import exact_divisor_scan
from conftest import heap_divisor

votes_lists = st.lists(st.integers(1, 9), min_size=1, max_size=4)
betas = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2)])
gammas = st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)])


def orbit(a):
    return {a.seats} | set(a.ties)


@given(votes_lists, betas, st.integers(0, 14))
@settings(max_examples=300, deadline=None)
def test_formulation_equivalence(votes, beta, house):
    w = PartyWeights.of(votes)
    sp = SignpostSequence.linear(beta)
    house = max(house, len(votes) * sp.zero_count())
    a = allocate_divisor(w, sp, house)
    b = heap_divisor(w, sp, house)
    assert a.seats == b.seats
    assert orbit(a) == orbit(b)


@given(votes_lists, betas, st.integers(0, 20))
@settings(max_examples=300, deadline=None)
def test_shift_relation(votes, beta, house):
    # with every party seated, the beta method equals one free seat each
    # plus the (beta+1) method on the rest
    w = PartyWeights.of(votes)
    m = len(votes)
    sp = SignpostSequence.linear(beta)
    house = max(house, m * sp.zero_count())
    a = allocate_divisor(w, sp, house)
    if min(a.seats) < 1 or a.ties:
        return
    b = allocate_divisor(w, SignpostSequence.linear(beta + 1), house - m)
    assert a.seats == tuple(s + 1 for s in b.seats)


@given(votes_lists, betas, gammas, st.integers(1, 12))
@settings(max_examples=300, deadline=None)
def test_periodicity(votes, beta, gamma, house):
    w = PartyWeights.of(votes)
    period = w.share_denominator()
    step = [int(period * p) for p in w.shares]
    div = linear_divisor(beta)
    house = max(house, small_n_guard(div, w))
    a0 = allocate_divisor(w, div.signposts, house)
    a1 = allocate_divisor(w, div.signposts, house + period)
    assert a1.seats == tuple(s + d for s, d in zip(a0.seats, step))
    assert orbit(a1) == {tuple(s + d for s, d in zip(v, step)) for v in orbit(a0)}
    q = quota_method(gamma)
    house_q = max(house, small_n_guard(q, w))
    b0 = allocate_quota(w, gamma, house_q)
    b1 = allocate_quota(w, gamma, house_q + period)
    assert b1.seats == tuple(s + d for s, d in zip(b0.seats, step))


@given(st.lists(st.integers(1, 9), min_size=2, max_size=2), betas, st.integers(0, 16))
@settings(max_examples=300, deadline=None)
def test_two_party_divisor_equals_quota(votes, beta, house):
    w = PartyWeights.of(votes)
    sp = SignpostSequence.linear(beta)
    gamma = 2 * beta - 1
    house = max(house, 2 * sp.zero_count(), small_n_guard(quota_method(gamma), w))
    a = allocate_divisor(w, sp, house)
    b = allocate_quota(w, gamma, house)
    assert a.seats == b.seats
    assert orbit(a) == orbit(b)


@given(votes_lists, betas, st.integers(0, 14), st.integers(1, 60), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_homogeneity(votes, beta, house, num, den):
    w = PartyWeights.of(votes)
    sp = SignpostSequence.linear(beta)
    house = max(house, len(votes) * sp.zero_count())
    scaled = w.scaled(Fraction(num, den))
    a = allocate_divisor(w, sp, house)
    b = allocate_divisor(scaled, sp, house)
    assert a.seats == b.seats and orbit(a) == orbit(b)
    c = allocate_quota(w, 1, max(house, 1))
    d = allocate_quota(scaled, 1, max(house, 1))
    assert orbit(c) == orbit(d)


@given(votes_lists, betas, st.integers(1, 30))
@settings(max_examples=300, deadline=None)
def test_deterministic_bounds_and_zero_sum(votes, beta, house):
    from apportion.asymptotics import excess_bounds

    w = PartyWeights.of(votes)
    div = linear_divisor(beta)
    house = max(house, small_n_guard(div, w))
    a = allocate_divisor(w, div.signposts, house)
    delta = seat_excess(a, w).delta
    assert sum(delta) == 0
    for d, (lo, hi) in zip(delta, excess_bounds(div, w.shares_float())):
        assert lo - 1e-9 <= float(d) <= hi + 1e-9
    q = quota_method(Fraction(1))
    b = allocate_quota(w, 1, house)
    deltaq = seat_excess(b, w).delta
    assert sum(deltaq) == 0
    for d, (lo, hi) in zip(deltaq, excess_bounds(q, w.shares_float())):
        assert lo - 1e-9 <= float(d) <= hi + 1e-9


@given(votes_lists, betas, st.integers(2, 40))
@settings(max_examples=200, deadline=None)
def test_house_monotonicity_along_scan(votes, beta, n_to):
    w = PartyWeights.of(votes)
    sp = SignpostSequence.linear(beta)
    prev = None
    for house, seats, _tie in exact_divisor_scan(w, sp, n_to):
        if prev is not None:
            assert all(a >= b for a, b in zip(seats, prev))
        prev = seats


@given(votes_lists, gammas, st.integers(1, 25))
@settings(max_examples=300, deadline=None)
def test_quota_expected_seats_sum(votes, gamma, house):
    w = PartyWeights.of(votes)
    if house + gamma <= 0 or house < small_n_guard(quota_method(gamma), w):
        return
    a = allocate_quota(w, gamma, house, TiePolicy.average())
    assert sum(a.expected_seats()) == house


def test_alabama_paradox_witness_exists():
    # quota methods are not house monotone: the classic staircase
    found = None
    for votes in [(6, 6, 1), (5, 3, 2), (7, 5, 1), (6, 5, 2)]:
        w = PartyWeights.of(list(votes))
        prev = None
        for house in range(1, 51):
            seats = allocate_quota(w, 0, house).seats
            if prev is not None and any(a < b for a, b in zip(seats, prev)):
                found = (votes, house)
                break
            prev = seats
        if found:
            break
    assert found is not None


@given(votes_lists, betas, st.integers(1, 16), st.data())
@settings(max_examples=300, deadline=None)
def test_subset_consistency(votes, beta, house, data):
    # re-dividing any subset's combined seats by the same method reproduces
    # their individual counts, modulo ties
    w = PartyWeights.of(votes)
    m = len(votes)
    sp = SignpostSequence.linear(beta)
    house = max(house, m * sp.zero_count())
    a = allocate_divisor(w, sp, house)
    k = data.draw(st.integers(1, m))
    subset = data.draw(st.permutations(range(m))).__getitem__(slice(k))
    subset = sorted(subset)
    sub_house = sum(a.seats[i] for i in subset)
    if sub_house < sp.zero_count() * k:
        return
    sub = allocate_divisor(PartyWeights.of([votes[i] for i in subset]), sp, sub_house)
    sub_orbit = {s.seats for s in [sub]} | set(sub.ties)
    full_orbit = orbit(a)
    restricted = {
        tuple(v[i] for i in subset)
        for v in full_orbit
        if sum(v[i] for i in subset) == sub_house
    }
    assert restricted & sub_orbit, (votes, beta, house, subset)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_weak_proportionality(votes, mult, data):
    # integral ideal shares are reproduced exactly for 0 <= beta <= 1 and
    # the plain-quota method
    w = PartyWeights.of(votes)
    house = mult * sum(votes)
    q = [house * p for p in w.shares]
    assert all(x.denominator == 1 for x in q)
    beta = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
    a = allocate_divisor(w, SignpostSequence.linear(beta), house)
    expected = tuple(int(x) for x in q)
    assert expected in orbit(a)
    b = allocate_quota(w, 0, house)
    assert expected in orbit(b)
    for sp in (SignpostSequence.sqrt_pair_product(), SignpostSequence.harmonic_pair()):
        c = allocate_divisor(w, sp, house)
        assert expected in orbit(c)
