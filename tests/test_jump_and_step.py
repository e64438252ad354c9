"""Jump-and-step ``allocate_divisor`` against the sequential heap oracle.

The oracle awards one seat per heap pop; jump-and-step must return the same
top entries of the quotient table (figure descending, then party index
ascending), so seats, ties, tie info and support interval are equal, and
float seat vectors are bit-identical.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from apportion import (
    Allocation,
    CapExceededError,
    InvariantError,
    PartyWeights,
    SignpostSequence,
    TiePolicy,
    allocate_divisor,
)
from apportion.allocation import _jump_start, _jump_starts
from apportion.harness import allocate_many
from apportion.methods import DivisorMethod, method_by_name
from conftest import heap_divisor

FAMILIES = {
    "linear0": SignpostSequence.linear(0),
    "linear1/4": SignpostSequence.linear(Fraction(1, 4)),
    "linear1/2": SignpostSequence.linear(Fraction(1, 2)),
    "linear1": SignpostSequence.linear(1),
    "linear2": SignpostSequence.linear(2),
    "linear0.5-float": SignpostSequence.linear(0.5),
    "clipped-1/2": SignpostSequence.clipped_linear(Fraction(-1, 2)),
    "cambridge": method_by_name("cambridge").signposts,
    "huntington": method_by_name("huntington").signposts,
    "dean": method_by_name("dean").signposts,
    "estonia": method_by_name("estonia").signposts,
    "macau": method_by_name("macau").signposts,
    "geometric1.1": SignpostSequence.geometric(1.1),
    "capped600": SignpostSequence.table([Fraction(k, 3) + 1 for k in range(600)], cap=600),
    "adjusted-sainte-lague": method_by_name("adjusted-sainte-lague").signposts,
}


def assert_same(a: Allocation, b: Allocation):
    assert a.seats == b.seats
    assert a.ties == b.ties
    assert a.tie_info == b.tie_info
    assert a.support_interval == b.support_interval


def tie_heavy(rng):
    return PartyWeights.of([rng.randint(1, 4) for _ in range(rng.randint(1, 6))])


def near_ties(rng):
    # integer-valued float votes, some nudged by ~1e-13: float figures that
    # are equal across parties, or nearly so
    base = [float(rng.randint(1, 9)) for _ in range(rng.randint(2, 6))]
    return PartyWeights.of([v * (1 + rng.choice((0, 0, 1, -1)) * 1e-13) for v in base])


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("corpus", [tie_heavy, near_ties])
def test_matches_heap(name, corpus):
    sp = FAMILIES[name]
    rng = random.Random(f"{name}-{corpus.__name__}")
    z = sp.zero_count()
    for case in range(150):
        w = corpus(rng)
        m = len(w)
        house = rng.randint(z * m, z * m + rng.choice((6, 30, 300)))
        policy = TiePolicy.seeded(case) if case % 2 else TiePolicy.enumerate_all()
        assert_same(allocate_divisor(w, sp, house, policy), heap_divisor(w, sp, house, policy))


def test_overshooting_and_undershooting_starts():
    # the jump start of a tie-heavy corpus lands on both sides of the house
    rng = random.Random(3)
    sides = {-1: 0, 0: 0, 1: 0}
    for name in ("linear0", "linear1/2", "linear1", "linear2", "huntington", "dean", "cambridge"):
        sp = FAMILIES[name]
        z = sp.zero_count()
        for _ in range(200):
            w = tie_heavy(rng)
            house = rng.randint(z * len(w), z * len(w) + 20)
            start = sum(_jump_start(w.votes, sp, house, z))
            sides[(start > house) - (start < house)] += 1
            assert_same(allocate_divisor(w, sp, house), heap_divisor(w, sp, house))
    assert min(sides.values()) >= 50, sides


def _array_start(votes, sp, house, z):
    """The one-row ``_jump_starts`` the scalar ``_jump_start`` stands for."""
    total = sum(votes)
    return [int(s) for s in _jump_starts(np.array([[float(v / total) for v in votes]]), sp, house, z)[0].tolist()]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_scalar_start_equals_array_start(name):
    # the corpora and houses of test_matches_heap
    sp = FAMILIES[name]
    z = sp.zero_count()
    for corpus in (tie_heavy, near_ties):
        rng = random.Random(f"{name}-{corpus.__name__}")
        for case in range(150):
            w = corpus(rng)
            house = rng.randint(z * len(w), z * len(w) + rng.choice((6, 30, 300)))
            assert _jump_start(w.votes, sp, house, z) == _array_start(w.votes, sp, house, z)
    if sp.asymptotic_beta() is not None:
        w = PartyWeights.of([7, 5, 3, 2])
        house = 2**64 + 12345
        start = _jump_start(w.votes, sp, house, z)
        assert start == _array_start(w.votes, sp, house, z)
        assert all(isinstance(s, int) for s in start) and abs(sum(start) - house) < 2**13


def test_overshoot_drains_a_tie():
    # Jefferson starts every party at one seat: two must be dropped again
    w = PartyWeights.of([1, 1, 1, 1])
    sp = FAMILIES["linear1"]
    assert sum(_jump_start(w.votes, sp, 2, 0)) == 4
    a = allocate_divisor(w, sp, 2, TiePolicy.enumerate_all())
    assert_same(a, heap_divisor(w, sp, 2, TiePolicy.enumerate_all()))
    assert a.seats == (1, 1, 0, 0) and a.tie_info.orbit_size == 6


@pytest.mark.parametrize(
    "name, votes, house, seats",
    [
        ("huntington", (1.0, 2.0, 6.0), 13, (2, 3, 8)),
        ("dean", (3.0, 5.0, 9.0), 5, (1, 2, 2)),
        ("adjusted-sainte-lague", (5.0, 1.0, 1.0), 4, (4, 0, 0)),
    ],
)
def test_equal_float_figures_at_the_cut_go_to_the_lower_index(name, votes, house, seats):
    # the jump start holds the higher party's entry; a swap must hand it over
    w = PartyWeights.of(votes)
    a = allocate_divisor(w, FAMILIES[name], house)
    assert a.seats == seats and a.tie_info.near
    assert_same(a, heap_divisor(w, FAMILIES[name], house))


def test_fifty_parties_at_house_1e5():
    rng = random.Random(50)
    votes = [rng.randint(1_000, 1_000_000) for _ in range(50)]
    exact = PartyWeights.of(votes)
    a = allocate_divisor(exact, FAMILIES["linear1/2"], 100_000)
    assert_same(a, heap_divisor(exact, FAMILIES["linear1/2"], 100_000))
    floats = PartyWeights.of([float(v) for v in votes])
    b = allocate_divisor(floats, FAMILIES["huntington"], 100_000)
    assert_same(b, heap_divisor(floats, FAMILIES["huntington"], 100_000))


def test_allocate_many_fallback_rows_match_heap():
    sp = FAMILIES["huntington"]
    rng = np.random.default_rng(9)
    shares = rng.dirichlet(np.ones(4), size=40)
    seats = allocate_many(DivisorMethod(sp), shares, 1000)
    for row, got in zip(shares, seats):
        w = PartyWeights.of([float(x) for x in row])
        assert np.array_equal(got, np.array(heap_divisor(w, sp, 1000).seats, dtype=float))


@pytest.mark.parametrize("sp", [FAMILIES["capped600"], SignpostSequence.table([1, 2, 3], cap=3)])
def test_cap_boundary(sp):
    w = PartyWeights.of([5, 3, 1])
    cap = sp.max_seats()
    a = allocate_divisor(w, sp, cap * 3)
    assert a.seats == (cap, cap, cap)
    assert_same(a, heap_divisor(w, sp, cap * 3))
    with pytest.raises(CapExceededError):
        allocate_divisor(w, sp, cap * 3 + 1)


def test_seat_vector_with_wrong_sum_rejected():
    with pytest.raises(InvariantError):
        Allocation((2, 1), 4)
