"""Row-vectorized ``allocate_many`` against the sequential heap oracle.

``allocate_many`` takes ``allocate_divisor``'s jump-and-step for every row of
a share matrix at once, so each row must hold the seats of ``heap_divisor``
on the same float shares, ties included, for every signpost family.  Its
figures come from ``SignpostSequence.figures``, which must give the floats of
``SignpostSequence.figure`` bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from apportion import (
    CapExceededError,
    InfeasibleHouseSizeError,
    InputError,
    InvariantError,
    PartyWeights,
    SignpostSequence,
    allocate,
)
from apportion.allocation import _count_starts
from apportion.harness import allocate_many
from apportion.methods import DivisorMethod, method_by_name
from conftest import heap_divisor
from test_jump_and_step import FAMILIES


def heap_rows(sp, shares, house):
    return np.array([heap_divisor(PartyWeights.of([float(x) for x in row]), sp, house).seats for row in shares])


def tie_heavy_rows(rng, k, m):
    # small integers, normalized: equal shares and equal figures are common
    raw = rng.integers(1, 5, size=(k, m)).astype(float)
    return raw / raw.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("corpus", ["dirichlet", "tie-heavy"])
def test_matches_heap(name, corpus):
    sp = FAMILIES[name]
    z, cap = sp.zero_count(), sp.max_seats()
    rng = np.random.default_rng(sorted(FAMILIES).index(name) + (100 if corpus == "tie-heavy" else 0))
    for m in (2, 3, 5):
        for extra in (0, 1, 7, 60, 400):
            house = z * m + extra
            if cap is not None:
                house = min(house, cap * m)
            if corpus == "dirichlet":
                shares = rng.dirichlet(np.ones(m), size=25)
            else:
                shares = tie_heavy_rows(rng, 25, m)
            got = allocate_many(DivisorMethod(sp), shares, house)
            assert got.dtype == float
            assert np.array_equal(got, heap_rows(sp, shares, house)), (m, house)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_houses_at_the_mandatory_seats_and_the_cap(name):
    sp = FAMILIES[name]
    z, cap = sp.zero_count(), sp.max_seats()
    shares = tie_heavy_rows(np.random.default_rng(1), 30, 3)
    method = DivisorMethod(sp)
    assert np.array_equal(allocate_many(method, shares, 3 * z), np.full((30, 3), z))
    if z > 0:
        with pytest.raises(InfeasibleHouseSizeError):
            allocate_many(method, shares, 3 * z - 1)
    if cap is not None:
        assert np.array_equal(allocate_many(method, shares, 3 * cap), np.full((30, 3), cap))
        with pytest.raises(CapExceededError):
            allocate_many(method, shares, 3 * cap + 1)


def test_infeasible_house_raises_like_allocate():
    adams = method_by_name("adams")
    with pytest.raises(InfeasibleHouseSizeError):
        allocate(adams, PartyWeights.of([5, 3, 2]), 1)
    with pytest.raises(InfeasibleHouseSizeError):
        allocate_many(adams, np.array([[0.5, 0.3, 0.2]]), 1)


def test_exact_tie_goes_to_the_lower_index():
    dhondt = method_by_name("dhondt")
    assert allocate(dhondt, PartyWeights.of([1, 1]), 5).seats == (3, 2)
    assert allocate_many(dhondt, np.array([[0.5, 0.5]]), 5).tolist() == [[3.0, 2.0]]


def test_power_and_geometric_step_from_the_mandatory_seats():
    # no jump start: one round per seat, still the heap's seats
    rng = np.random.default_rng(4)
    shares = rng.dirichlet(np.ones(4), size=40)
    for name in ("estonia", "geometric1.1", "capped600"):
        sp = FAMILIES[name]
        assert np.array_equal(allocate_many(DivisorMethod(sp), shares, 900), heap_rows(sp, shares, 900))


@pytest.mark.parametrize("name", ["estonia", "macau", "geometric1.1", "capped600", "zeros-table"])
def test_count_start_families(name):
    # families without a beta start from counted signposts, then step
    if name == "zeros-table":
        sp, houses = SignpostSequence.table([0, 0, 1, 3, 4, 9, 10, 12], cap=8), (8, 9, 11, 14)
    else:
        sp, houses = FAMILIES[name], (4, 37, 1000, 2000)
    rng = np.random.default_rng(8)
    lopsided = [[0.5, 0.5 - 2e-12, 1e-12, 1e-12], [1 - 3e-300, 1e-300, 1e-300, 1e-300]]
    shares = np.vstack([rng.dirichlet(np.ones(4), size=12), tie_heavy_rows(rng, 12, 4), lopsided])
    for house in houses:
        if sp.max_seats() is not None and house > 2 * sp.max_seats():
            continue  # past the cap of the two parties with most votes
        rows = shares
        if name == "macau" and house > 1000:
            # the signposts past d(1025) = 2**1024 overflow a float: the last
            # two rows would reach them, the others stay near 500 seats
            rows = shares[:24]
        got = allocate_many(DivisorMethod(sp), rows, house)
        assert np.array_equal(got, heap_rows(sp, rows, house)), house


def test_count_start_lands_within_m_seats():
    # a start near the house size keeps the steps to a few rounds
    shares = np.random.default_rng(9).dirichlet(np.ones(5), size=200)
    for name in ("estonia", "macau", "geometric1.1", "capped600"):
        sp = FAMILIES[name]
        for house in (50, 1000):
            gap = house - _count_starts(shares, sp, house, sp.zero_count()).sum(axis=1)
            assert (gap >= 0).all() and (gap <= 5).all(), (name, house, gap.max())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rows_that_are_not_finite_raise(bad):
    for name in ("linear1", "huntington", "estonia"):
        with pytest.raises(InvariantError, match="bracket"):
            allocate_many(DivisorMethod(FAMILIES[name]), np.array([[0.5, 0.5], [bad, 0.5]]), 20)


def test_rows_far_from_the_simplex_raise():
    for name in ("linear1/2", "huntington", "cambridge"):
        with pytest.raises(InvariantError, match="bracket"):
            allocate_many(DivisorMethod(FAMILIES[name]), np.array([[0.6, 0.3, 0.1], [3.0, 2.0, 1.0]]), 500)


def test_a_wide_beta_envelope_widens_the_bracket():
    # beta = 1/2 and a linear tail, but d(n) = n**2/1000 below it: the
    # envelope is (-249, 1/2), and the jump start (900, 100) lies 150 seats
    # per party from the seats
    sp = SignpostSequence.table([0.001 * k * k for k in range(1, 1000)], tail_beta=0.5)
    method = DivisorMethod(sp)
    assert sp.beta_envelope() == (-249.0, 0.5)
    assert allocate(method, PartyWeights.of([0.9, 0.1]), 1000).seats == (750, 250)
    assert allocate_many(method, np.array([[0.9, 0.1]]), 1000).tolist() == [[750, 250]]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_figures_equal_figure_bit_for_bit(name):
    sp = FAMILIES[name]
    ns = np.concatenate([np.arange(0, 700), [1_000, 4_321, 99_999]])
    if sp.kind == "geometric":
        ns = ns[ns < 1_000]  # 2 ** n overflows a float past n = 1024
    for v in (1.0, 0.3, 1 / 3, math.sqrt(2) / 7, 123456.789):
        want = np.array([float(sp.figure(v, int(n))) for n in ns])
        got = sp.figures(np.full(ns.size, v), ns)
        assert got.dtype == float
        assert got.tobytes() == want.tobytes()


def test_figures_on_a_matrix_and_the_table_cache():
    sp = SignpostSequence.table([0, 1, 2.5, 4], cap=4)
    fresh = SignpostSequence.table([0, 1, 2.5, 4], cap=4)
    v = np.array([[0.5, 0.25], [0.125, 1.0]])
    ns = np.array([[0, 2], [4, 5]])
    assert sp.figures(v, ns).tolist() == [[math.inf, 0.25], [0.125 / 4, 0.0]]
    # the cached table of values is not part of the signposts' value
    assert sp == fresh and hash(sp) == hash(fresh)


def test_figures_past_the_float_range():
    with pytest.raises(InputError, match="float range"):
        SignpostSequence.geometric(1.1).figures(np.array([1.0]), np.array([10_000]))


@pytest.mark.parametrize("beta", [Fraction("0.3333333333333333"), Fraction(1, 3) + Fraction(1, 2**70)])
def test_fraction_beta_with_a_large_denominator(beta):
    # den * (n - 1) passes 2**53, and for the second beta den passes 2**63:
    # the figures come from the exact scalars, not the int64 closed form
    sp = SignpostSequence.linear(beta)
    shares = np.random.default_rng(5).dirichlet(np.ones(3), size=20)
    for house in (30, 3000):
        assert np.array_equal(allocate_many(DivisorMethod(sp), shares, house), heap_rows(sp, shares, house))
    method = method_by_name("linear:0.3333333333333333")
    assert np.array_equal(allocate_many(method, shares, 3000), heap_rows(method.signposts, shares, 3000))


@pytest.mark.parametrize(
    "sp, ns",
    [
        # the exact-range check den * max(n, 1) + |num| < 2**53 fails from n = 2**20
        (SignpostSequence.linear(Fraction(2**33 - 1, 2**33)), [2**20 - 2, 2**20 - 1, 2**20, 2**20 + 1, 2**21]),
        (SignpostSequence.clipped_linear(Fraction(-(2**40 + 1), 2**33)), [0, 1, 2, 200, 2**20, 2**20 + 7]),
        (SignpostSequence.linear(Fraction(10**20 + 1, 3)), [0, 1, 2, 5]),
        # den near 2**60: den + num fits an int64 but not a float's 53 bits
        (SignpostSequence.linear(Fraction(641548150931237105, 983676056647681211)), [0, 1, 2, 3, 5]),
        # 2n(n - 1) crosses 2**53 near n = 2**26
        (method_by_name("dean").signposts, [2**26 - 3, 2**26 - 1, 2**26, 2**26 + 1, 3 * 2**26 + 5]),
        # n(n - 1) crosses 2**63 near n = 3.04e9
        (method_by_name("huntington").signposts, [3_037_000_499, 3_037_000_500, 3_037_000_501, 2**33]),
    ],
)
def test_figures_past_the_exact_closed_form(sp, ns):
    ns = np.array(ns)
    for v in (1.0, 0.3, 1 / 3, math.sqrt(2) / 7, 123456.789):
        want = np.array([float(sp.figure(v, int(n))) for n in ns])
        assert sp.figures(np.full(ns.size, v), ns).tobytes() == want.tobytes()
        # one entry at a time: the closed form below its bound, the scalars past it
        for n, f in zip(ns, want):
            assert sp.figures(np.array([v]), np.array([n])).tobytes() == np.array([f]).tobytes()
