"""One implementation per allocation rule, shared by scalar and row callers.

The float largest-remainder rule of ``allocate_quota`` and ``allocate_many``
must equal the party-by-party oracle ``float_largest_remainder``, and both
must refuse a house with house + gamma <= 0.  Scalar divisor allocation of
the families without an asymptotic beta starts from a count of signposts,
so it takes O(m) figure steps, not one per seat, and reaches the same seats
when the count's table is shorter than the seats owed.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from apportion import (
    InputError,
    NegativeSeatError,
    NonpositiveQuotaError,
    PartyWeights,
    SignpostSequence,
    TieInfo,
    allocate,
    allocate_quota,
)
from apportion import allocation
from apportion.harness import allocate_many
from apportion.methods import DivisorMethod, method_by_name, quota_method
from conftest import float_largest_remainder, heap_divisor

GAMMAS = [0, 1, 2, Fraction(-1, 2), Fraction(1, 3)]


def tie_heavy(rng, m):
    return [float(rng.randint(1, 4)) for _ in range(m)]


def near_ties(rng, m):
    # integer-valued float votes, some nudged by ~1e-13: fractional parts
    # that are equal across parties, or nearly so
    return [rng.randint(1, 9) * (1 + rng.choice((0, 0, 1, -1)) * 1e-13) for _ in range(m)]


@pytest.mark.parametrize("gamma", GAMMAS, ids=str)
@pytest.mark.parametrize("corpus", [tie_heavy, near_ties])
def test_float_quota_matches_the_party_by_party_rule(gamma, corpus):
    rng = random.Random(f"{gamma}-{corpus.__name__}")
    method = quota_method(gamma)
    seen_near = 0
    for _ in range(200):
        m = rng.randint(1, 6)
        w = PartyWeights.of(corpus(rng, m))
        house = rng.choice((rng.randint(1, 12), rng.randint(1, 400)))
        try:
            seats, near, interval = float_largest_remainder(w, gamma, house)
        except NegativeSeatError:
            with pytest.raises(NegativeSeatError):
                allocate_quota(w, gamma, house)
            with pytest.raises(NegativeSeatError):
                allocate_many(method, np.array([w.shares_float()]), house)
            continue
        a = allocate_quota(w, gamma, house)
        assert a.seats == seats
        assert a.tie_info == (TieInfo((), 0, (), 1, near=True) if near else None)
        assert a.support_interval == interval
        rows = allocate_many(method, np.array([w.shares_float()] * 3), house)
        assert np.array_equal(rows, np.array([seats] * 3, dtype=float))
        seen_near += near
    assert seen_near >= 10


def test_float_quota_flags_exact_ties_at_integral_ideal_seats():
    # Droop on (3, 8) at house 54: ideal seats 15 and 40 come out as 15 - eps
    # and 40 + eps in floats, fractional parts that straddle the wrap
    a = allocate(quota_method(1.0), PartyWeights.of([3.0, 8.0]), 54)
    assert a.seats == allocate(quota_method(1), PartyWeights.of([3, 8]), 54).seats == (15, 39)
    assert a.tie_info.near
    rng = random.Random(1)
    ties = 0
    for _ in range(3000):
        gamma = rng.choice((0, 1, 2))
        votes = [rng.randint(1, 12) for _ in range(rng.randint(2, 4))]
        house = rng.randint(1, 59)
        try:
            exact = allocate(quota_method(gamma), PartyWeights.of(votes), house)
        except NegativeSeatError:
            continue
        fl = allocate(quota_method(float(gamma)), PartyWeights.of([float(v) for v in votes]), house)
        assert fl.tied == exact.tied
        assert fl.seats in {exact.seats, *exact.ties}  # a near-tie may grant another member
        ties += exact.tied
    assert ties > 100


def test_float_quota_flags_exact_ties_at_large_houses():
    # an ideal seat count near 10**6 carries a float error near 10**-10, so
    # the near-tie tolerances scale with the house: Droop on (3, 8) ties
    # exactly at every house 54 + 10967k
    houses = 54 + 10_967 * np.arange(2000)
    _, near = allocation.allocate_quota_rows([PartyWeights.of([3.0, 8.0]).shares_float()], 1, houses)
    assert near.all()
    assert all(allocate(quota_method(1), PartyWeights.of([3, 8]), int(h)).tied for h in houses[::97])
    rng = random.Random(2)
    ties = 0
    for _ in range(600):
        gamma = rng.choice((0, 1))
        votes = [rng.randint(1, 12) for _ in range(rng.randint(2, 4))]
        house = rng.randint(10**6, 10**7)
        exact = allocate(quota_method(gamma), PartyWeights.of(votes), house)
        fl = allocate(quota_method(float(gamma)), PartyWeights.of([float(v) for v in votes]), house)
        assert fl.tied == exact.tied, (votes, gamma, house)
        ties += exact.tied
    assert ties > 50


def test_float_quota_computes_the_ideals_once(monkeypatch):
    calls = []
    ideals = allocation._quota_ideals
    monkeypatch.setattr(allocation, "_quota_ideals", lambda *args: calls.append(args) or ideals(*args))
    a = allocate(quota_method(1.0), PartyWeights.of([3.0, 8.0]), 54)
    assert len(calls) == 1
    assert a.support_interval == float_largest_remainder(PartyWeights.of([3.0, 8.0]), 1.0, 54)[2]


def test_fraction_gamma_is_rounded_once():
    houses = np.arange(1, 5000)
    for gamma in (Fraction(2, 3), Fraction(-1, 7), Fraction(1, 3**40)):  # the last one past 2**53
        ideal = allocation._quota_ideals([[1.0]], gamma, houses)[0]
        want = [float(h + gamma) for h in houses.tolist()]
        want = [round(x) if abs(x - round(x)) <= allocation.NEAR_TIE_RTOL else x for x in want]
        assert ideal.tolist() == want


def test_allocate_many_refuses_a_nonpositive_quota():
    rows = np.random.default_rng(0).dirichlet(np.ones(3), size=5)
    with pytest.raises(NonpositiveQuotaError):
        allocate_many(quota_method(-2), rows, 1)


def test_random_violations_refuse_a_nonpositive_quota():
    proc = subprocess.run(
        [sys.executable, "-m", "apportion.cli", "violations", "--method", "quota:-2", "--random-simplex", "3",
         "--house", "1", "--trials", "10"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"]["kind"] == "NonpositiveQuotaError"


@pytest.mark.parametrize(
    "sp",
    [
        method_by_name("estonia").signposts,
        method_by_name("macau").signposts,
        SignpostSequence.table([Fraction(k, 3) + 1 for k in range(2000)], cap=2000),
    ],
    ids=["estonia", "macau", "capped2000"],
)
def test_scalar_allocation_without_beta_takes_O_m_figure_steps(sp, monkeypatch):
    rng = random.Random(20)
    w = PartyWeights.of([rng.randint(1_000, 1_000_000) for _ in range(20)])
    house = 10_000
    calls = 0
    figure = SignpostSequence.figure

    def counted(self, v, n):
        nonlocal calls
        calls += 1
        return figure(self, v, n)

    monkeypatch.setattr(SignpostSequence, "figure", counted)
    a = allocate(DivisorMethod(sp), w, house)
    monkeypatch.undo()
    # one step per seat would be 10 000 calls
    assert calls <= 10 * len(w), calls
    assert a.seats == heap_divisor(w, sp, house).seats


def test_count_start_past_its_table_steps_the_rest(monkeypatch):
    # a table shorter than the seats owed: the start stops at its end and the
    # exact steps add the rest, to the same seats
    monkeypatch.setattr(allocation, "_COUNT_TABLE_MAX", 50)
    sp = method_by_name("estonia").signposts
    w = PartyWeights.of([7, 3, 1])
    assert allocate(DivisorMethod(sp), w, 1000).seats == heap_divisor(w, sp, 1000).seats
    rows = np.random.default_rng(3).dirichlet(np.ones(3), size=20)
    want = [heap_divisor(PartyWeights.of([float(x) for x in row]), sp, 1000).seats for row in rows]
    assert np.array_equal(allocate_many(DivisorMethod(sp), rows, 1000), np.array(want, dtype=float))


def test_float_quota_refuses_a_house_past_int64_floors():
    with pytest.raises(InputError):
        allocate_quota(PartyWeights.of([1.5, 2.5]), 0, 2**63)
