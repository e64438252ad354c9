from fractions import Fraction

import pytest

from apportion import (
    CapExceededError,
    InfeasibleHouseSizeError,
    InputError,
    PartyWeights,
    SignpostSequence,
    TiePolicy,
    allocate_divisor,
)
from apportion.harness import sqrt_shares
from conftest import divd_orbit, heap_divisor, random_weights

W21 = PartyWeights.of([2, 1])
LIN1 = SignpostSequence.linear(1)


def orbit(alloc):
    return {alloc.seats} | set(alloc.ties)


def test_two_party_tie():
    a = allocate_divisor(W21, LIN1, 2)
    assert orbit(a) == {(2, 0), (1, 1)}
    assert a.tie_info.orbit_size == 2
    assert a.expected_seats() == (Fraction(3, 2), Fraction(1, 2))


def test_exact_proportions_with_interior_beta():
    a = allocate_divisor(W21, SignpostSequence.linear(Fraction(1, 2)), 3)
    assert a.seats == (2, 1) and not a.ties


def test_derived_value_against_divd_oracle():
    # brute-force over all seat vectors using the min/max figure condition
    assert divd_orbit(W21, LIN1, 4) == {(3, 1)}
    a = allocate_divisor(W21, LIN1, 4)
    assert a.seats == (3, 1) and not a.ties


@pytest.mark.parametrize("house", range(0, 13))
def test_oracle_equality_small_instances(house):
    w = PartyWeights.of([6, 3, 1])
    assert orbit(allocate_divisor(w, LIN1, house)) == divd_orbit(w, LIN1, house)


def test_full_symmetry():
    w = PartyWeights.of([1, 1, 1, 1])
    for sp in (LIN1, SignpostSequence.sqrt_pair_product(), SignpostSequence.linear(0)):
        a = allocate_divisor(w, sp, 4)
        assert a.seats == (1, 1, 1, 1)


def test_support_interval_brackets_quotients():
    # quotients: 5, 2.5, 5/3, 1.25 | 3, 1.5, 1 | 1, 0.5 -> top 4 give (3, 1, 0)
    w = PartyWeights.of([5, 3, 1])
    a = allocate_divisor(w, LIN1, 4)
    assert a.seats == (3, 1, 0)
    lo, hi = a.support_interval
    assert (lo, hi) == (Fraction(3, 2), Fraction(5, 3))
    # any divisor strictly inside reproduces the seats by plain flooring
    for d in (Fraction(31, 20), Fraction(33, 20)):
        assert tuple(v // d for v in (5, 3, 1)) == a.seats


def test_mandatory_seats_and_infeasible_house():
    w = PartyWeights.of([9, 1])
    adams = SignpostSequence.linear(0)
    with pytest.raises(InfeasibleHouseSizeError):
        allocate_divisor(w, adams, 1)
    a = allocate_divisor(w, adams, 2)
    assert a.seats == (1, 1)
    cambridge = SignpostSequence.clipped_linear(-5)
    with pytest.raises(InfeasibleHouseSizeError):
        allocate_divisor(w, cambridge, 11)
    a = allocate_divisor(w, cambridge, 13)
    assert a.seats == (7, 6)


def test_table_cap_errors():
    sp = SignpostSequence.table([1, 2], cap=2)
    w = PartyWeights.of([4, 1])
    with pytest.raises(CapExceededError):
        allocate_divisor(w, sp, 5)
    a = allocate_divisor(w, sp, 3)
    assert a.seats == (2, 1)


def test_seeded_random_ties_reproducible():
    pol = TiePolicy.seeded(7)
    a = allocate_divisor(W21, LIN1, 2, pol)
    b = allocate_divisor(W21, LIN1, 2, pol)
    assert a.seats == b.seats
    assert orbit(a) == {(2, 0), (1, 1)}


def test_tie_alternatives_capped():
    w = PartyWeights.of([1] * 6)
    pol = TiePolicy.enumerate_all(max_alternatives=3)
    a = allocate_divisor(w, LIN1, 3)  # choose 3 of 6: orbit size 20
    assert a.tie_info.orbit_size == 20
    a = allocate_divisor(w, LIN1, 3, pol)
    assert len(a.ties) == 3 and a.tie_info.truncated


def test_near_tie_flagged_for_float_weights():
    w = PartyWeights.of([2.0, 1.0])
    a = allocate_divisor(w, SignpostSequence.linear(1.0), 2)
    assert a.tie_info is not None and a.tie_info.near
    assert a.ties == ()


@pytest.mark.parametrize("spname", ["linear1", "webster", "adams", "sqrt", "harmonic", "geometric"])
def test_by_search_matches_sequential(spname, rng):
    sp = {
        "linear1": LIN1,
        "webster": SignpostSequence.linear(Fraction(1, 2)),
        "adams": SignpostSequence.linear(0),
        "sqrt": SignpostSequence.sqrt_pair_product(),
        "harmonic": SignpostSequence.harmonic_pair(),
        "geometric": SignpostSequence.geometric(2),
    }[spname]
    z = sp.zero_count()
    for _ in range(120):
        m = rng.randint(1, 4)
        w = random_weights(rng, m)
        house = rng.randint(z * m, 14)
        a = allocate_divisor(w, sp, house)
        b = heap_divisor(w, sp, house)
        assert a.seats == b.seats, (w.votes, house)
        assert orbit(a) == orbit(b)
        assert a.support_interval == b.support_interval


def test_by_search_handles_exact_tie_point():
    # feasible divisor interval degenerates to one point
    b = allocate_divisor(W21, LIN1, 2)
    assert orbit(b) == {(2, 0), (1, 1)}
    lo, hi = b.support_interval
    assert lo == hi == 1


def test_float_votes_past_the_float_range_of_exact_signposts():
    # Macau: d(n) = 2**(n-1) is an exact Fraction that float() cannot hold
    w = PartyWeights.of(sqrt_shares(4))
    with pytest.raises(InputError, match="float range"):
        allocate_divisor(w, SignpostSequence.geometric(2), 5000)
