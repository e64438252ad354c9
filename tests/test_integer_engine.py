"""The integer scalar engine against the ``Fraction`` oracles.

Exact ``allocate_divisor`` ranks entries by float keys and certifies the
seats by integer cross-multiplication; its seats, tie class and support
interval must equal ``heap_divisor``'s, which finalizes from ``Fraction``
figures, also where the float keys cannot order the figures: figures past
the float range, and votes whose figures round to one float.
``brute_force_min`` ranks exact seat vectors by integer functionals; its
argmin sets must equal the ``Fraction`` enumeration of
``fraction_brute_force_min``.
"""

import random
from fractions import Fraction

import pytest

import apportion.analysis as analysis
from apportion import PartyWeights, SignpostSequence, TiePolicy, allocate_divisor
from apportion.analysis import FUNCTIONALS, brute_force_min
from apportion.methods import method_by_name

from conftest import fraction_brute_force_min, heap_divisor

POLICIES = (TiePolicy.enumerate_all(), TiePolicy.seeded(3))


def assert_same(a, b):
    assert a.seats == b.seats
    assert a.ties == b.ties
    assert a.tie_info == b.tie_info
    assert a.support_interval == b.support_interval


@pytest.mark.parametrize("policy", POLICIES, ids=("enumerate_all", "seeded"))
@pytest.mark.parametrize("votes, house", [((1, 2), 4000), ((3, 5, 7), 3000)])
def test_geometric_figures_past_the_float_range(votes, house, policy):
    # (2/3)**1999 underflows a float: the keys of both parties read 0.0
    sp = SignpostSequence.geometric(Fraction(3, 2))
    w = PartyWeights.of(votes)
    assert_same(allocate_divisor(w, sp, house, policy), heap_divisor(w, sp, house, policy))


ONE_FLOAT_VOTES = {
    "2**53+1": (2**53 + 1, 2**53),
    "2**53+1-mid": (2**53, 2**53 + 1, 3),
    "10**12+1": (10**12 + 1, 10**12),
    "fractions": (Fraction(1, 3), Fraction(5, 7), 2),
    "fraction-thirds": (Fraction(10**12 + 1, 3), Fraction(10**12, 3)),
}


@pytest.mark.parametrize("name", ["webster", "dhondt", "huntington", "adams", "dean"])
@pytest.mark.parametrize("corpus", sorted(ONE_FLOAT_VOTES))
def test_figures_that_round_to_one_float(corpus, name):
    sp = method_by_name(name).signposts
    w = PartyWeights.of(ONE_FLOAT_VOTES[corpus])
    for house in range(sp.zero_count() * len(w), 41):
        for policy in POLICIES:
            assert_same(allocate_divisor(w, sp, house, policy), heap_divisor(w, sp, house, policy))


def test_interval_is_in_the_callers_units():
    sp = method_by_name("webster").signposts
    a = allocate_divisor(PartyWeights.of([Fraction(1, 3), Fraction(5, 7), 2]), sp, 7)
    b = allocate_divisor(PartyWeights.of([7, 15, 42]), sp, 7)  # the same votes times 21
    assert a.seats == b.seats
    assert tuple(21 * x for x in a.support_interval) == b.support_interval


def _vote_sets(rng, m):
    yield [rng.randint(1, 4) for _ in range(m)]  # many equal functional values
    yield [rng.randint(1, 10**6) for _ in range(m)]
    yield [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(m)]


@pytest.mark.parametrize("functional", FUNCTIONALS)
def test_integer_functionals_match_fraction_enumeration(functional):
    rng = random.Random(functional)
    for m in range(1, 5):
        for votes in _vote_sets(rng, m):
            w = PartyWeights.of(votes)
            for house in range(13):
                assert brute_force_min(functional, w, house) == fraction_brute_force_min(functional, w, house)


def test_float_weights_rank_by_divergence_value(monkeypatch):
    calls = []
    real = analysis.divergence_value

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(analysis, "divergence_value", counted)
    w = PartyWeights.of([0.4, 0.35, 0.25])
    for functional in FUNCTIONALS:
        calls.clear()
        got = brute_force_min(functional, w, 9)
        assert len(calls) == 55  # one call per seat vector: comb(11, 2)
        assert got == fraction_brute_force_min(functional, w, 9)
    calls.clear()
    brute_force_min(FUNCTIONALS[0], PartyWeights.of([4, 3, 2]), 9)
    assert calls == []  # exact weights rank by integers


@pytest.mark.parametrize("m", [64, 65, 200])
@pytest.mark.parametrize("name", ["webster", "dhondt", "adams", "huntington", "dean"])
def test_heap_keys_that_round_to_one_float(name, m):
    # past _SCAN_MAX the heaps key entries by rounded float figures; votes near 2**53 round
    # to few floats, so equal keys must fall back to the exact entries' cross-multiplication
    sp = method_by_name(name).signposts
    rng = random.Random(f"{name}/{m}")
    w = PartyWeights.of([Fraction(2**53 + rng.randint(0, 3), 7) for _ in range(m)])  # caller's units: sevenths
    z = sp.zero_count()
    for house in (z * m + 1, (z + 1) * m + m // 3, (z + 3) * m - 1):
        for policy in POLICIES:
            assert_same(allocate_divisor(w, sp, house, policy), heap_divisor(w, sp, house, policy))
