"""The sorted quotient table behind float divisor sweeps, against a heap oracle.

``heap_winner_sequence`` is the per-seat heap that ``harness._winner_sequence``
replaced: it pops the largest comparative figure ``float(sp.figure(share, n))``
once per award, breaking ties by the lower party index.  The sort-based
sequence must reproduce its winners and figures bit for bit.
"""

import heapq
from fractions import Fraction

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from apportion import InputError, InvariantError, PartyWeights, SignpostSequence, allocate
from apportion.harness import _float_seat_blocks, _winner_sequence, allocate_many, sqrt_shares, sweep
from apportion.methods import DivisorMethod, linear_divisor, method_by_name


def heap_winner_sequence(shares: np.ndarray, sp: SignpostSequence, steps: int):
    m = shares.size
    seats = [sp.zero_count()] * m
    heap = [(-float(sp.figure(shares[i], seats[i] + 1)), i) for i in range(m)]
    heapq.heapify(heap)
    winners = np.empty(steps, dtype=np.int32)
    figures = np.empty(steps, dtype=float)
    for k in range(steps):
        negfig, i = heapq.heappop(heap)
        if negfig == 0.0:
            raise InputError("house size unreachable under the table cap")
        winners[k] = i
        figures[k] = -negfig
        seats[i] += 1
        heapq.heappush(heap, (-float(sp.figure(shares[i], seats[i] + 1)), i))
    return winners, figures


FAMILIES = {
    "jefferson": method_by_name("jefferson").signposts,
    "webster": method_by_name("webster").signposts,
    "adams": method_by_name("adams").signposts,
    "imperiali": method_by_name("imperiali").signposts,
    "danish": method_by_name("danish").signposts,
    "cambridge": method_by_name("cambridge").signposts,  # clipped beta = -5
    "clipped-half": linear_divisor(Fraction(-1, 2)).signposts,
    "huntington": method_by_name("huntington").signposts,
    "dean": method_by_name("dean").signposts,
    "estonia": method_by_name("estonia").signposts,
    "macau": method_by_name("macau").signposts,
    "geometric-1.1": SignpostSequence.geometric(1.1),
    "adjusted-sainte-lague": method_by_name("adjusted-sainte-lague").signposts,
    "capped-table": SignpostSequence.table([k + 0.5 for k in range(600)], cap=600),
}

SHARES = {f"sqrt{m}": sqrt_shares(m) for m in (2, 4, 8, 12)}
SHARES["tied"] = (0.5, 0.25, 0.25)  # exact figure ties between parties 1 and 2

STEPS = 3000


def outcome(fn, shares, sp, steps):
    """(winners, figures), or the InputError message when unreachable."""
    try:
        return fn(np.asarray(shares, dtype=float), sp, steps)
    except InputError as exc:
        return str(exc)


def assert_same(shares, sp, steps):
    want = outcome(heap_winner_sequence, shares, sp, steps)
    got = outcome(_winner_sequence, shares, sp, steps)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("shares_name", sorted(SHARES))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_sorted_table_matches_heap(family, shares_name):
    assert_same(SHARES[shares_name], FAMILIES[family], STEPS)


@given(
    raw=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
    family=st.sampled_from(sorted(FAMILIES)),
    steps=st.integers(0, 1500),
)
@settings(max_examples=150, deadline=None)
def test_sorted_table_matches_heap_generated(raw, family, steps):
    total = sum(raw)
    assert_same(tuple(x / total for x in raw), FAMILIES[family], steps)


def test_capped_table_unreachable_on_both_sides():
    sp = SignpostSequence.table([0.5, 1.5, 2.5], cap=3)
    shares = np.asarray(sqrt_shares(3))
    for fn in (heap_winner_sequence, _winner_sequence):
        assert np.array_equal(fn(shares, sp, 9)[0], heap_winner_sequence(shares, sp, 9)[0])
        with pytest.raises(InputError, match="unreachable under the table cap"):
            fn(shares, sp, 10)


def test_budgets_stop_at_the_float_range():
    # Macau's d(n) = 2**(n - 1) leaves the float range at n = 1025: 3000
    # awards need no table past it, 5000 do, and both sides raise alike
    shares = np.asarray(sqrt_shares(4))
    assert_same(shares, FAMILIES["macau"], 3000)
    assert_same(shares, FAMILIES["macau"], 5000)
    with pytest.raises(InputError, match=r"d\(1025\) exceeds the float range"):
        _winner_sequence(shares, FAMILIES["macau"], 5000)


def test_figure_and_figures_raise_alike_past_the_float_range():
    sp = SignpostSequence.geometric(1.1)  # d(n) = 1.1**(n - 1) overflows a float from n = 7449
    want = "signpost d(8000) exceeds the float range; use exact votes"
    for evaluate in (lambda: sp.figure(1.0, 8000), lambda: sp.figures(np.ones(2), np.array([7448, 8000]))):
        with pytest.raises(InputError) as err:
            evaluate()
        assert str(err.value) == want


def test_sweep_reaches_a_full_capped_house():
    # the near-tie flag of house cap*m would need an award past the last one
    method = DivisorMethod(SignpostSequence.table([0.5, 1.5, 2.5], cap=3))
    w = PartyWeights.of(sqrt_shares(3))
    assert sweep(method, w, 1, 9).count == 9
    full = sweep(method, w, 9, 9)
    assert allocate(method, w, 9).seats == (3, 3, 3)
    assert full.count == 1 and full.near_ties == 0
    assert np.array_equal(full.mean, 3 - 9 * np.asarray(sqrt_shares(3)))


@pytest.mark.parametrize("m", [4, 8, 12])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_float_sweep_seats_equal_allocate(family, m):
    sp, shares = FAMILIES[family], sqrt_shares(m)
    method, w = DivisorMethod(sp), PartyWeights.of(shares)
    blocks = list(_float_seat_blocks(method, np.asarray(shares), sp.zero_count() * m, 600))
    houses = np.concatenate([b[0] for b in blocks]).tolist()
    assert houses == list(range(sp.zero_count() * m, 601))
    for h, row in zip(houses, np.concatenate([b[1] for b in blocks]).tolist()):
        assert tuple(row) == allocate(method, w, h).seats, h


def test_budget_grows_past_a_proportional_guess():
    # Estonia favours large parties beyond proportion, so the initial
    # per-party budget is too short and must grow from the bound
    shares = np.asarray(sqrt_shares(4))
    assert_same(shares, FAMILIES["estonia"], 200_000)


# -- divisor sweeps split into ranges ------------------------------------------


def _assert_split_merges(method, w, edges):
    """Sweeps over the ranges between ``edges``, merged, against one sweep
    over the whole range; returns the whole sweep."""
    whole = sweep(method, w, edges[0], edges[-1] - 1)
    parts = [sweep(method, w, a, b - 1) for a, b in zip(edges, edges[1:])]
    merged = parts[0]
    for part in parts[1:]:
        merged.merge(part)
    assert (merged.n_from, merged.n_to) == (whole.n_from, whole.n_to)
    assert merged.count == whole.count
    assert merged.near_ties == whole.near_ties
    assert np.array_equal(merged.histogram.counts, whole.histogram.counts)
    assert np.allclose(merged.mean, whole.mean, atol=1e-12)
    assert np.allclose(merged.covariance, whole.covariance, atol=1e-10)
    return whole


def test_divisor_sweep_workers_agree_at_a_tied_chunk_edge():
    # under Webster, shares (1/2, 1/4, 1/4) tie parties 1 and 2 at every house
    # 2 mod 4, so the second range starts at a tied house, 5002
    w = PartyWeights.of((0.5, 0.25, 0.25))
    method = linear_divisor(0.5)
    assert sweep(method, w, 5002, 5002).near_ties == 1
    serial = _assert_split_merges(method, w, (1, 5002, 10_003))
    assert serial.near_ties == 2501
    _assert_split_merges(method, w, (1, 3335, 6669, 10_003))
    for workers in (2, 3):  # every sweep runs in one pass, whatever ``workers`` says
        par = sweep(method, w, 1, 10_002, workers=workers)
        assert np.array_equal(par.mean, serial.mean)
        assert np.array_equal(par.covariance, serial.covariance)
        assert np.array_equal(par.histogram.counts, serial.histogram.counts)
        assert par.near_ties == serial.near_ties


def test_divisor_sweep_workers_agree_nonlinear():
    w = PartyWeights.of(sqrt_shares(4))
    for name in ("huntington", "estonia"):
        _assert_split_merges(method_by_name(name), w, (1, 10_001, 20_001, 30_001))


def test_workers_rejected_below_one():
    w = PartyWeights.of(sqrt_shares(3))
    for workers in (0, -2):
        with pytest.raises(InputError, match="workers"):
            sweep(linear_divisor(0.5), w, 1, 100, workers=workers)


# -- runtime invariants ----------------------------------------------------------


def test_linear_bracket_invariant_raises():
    # rows that do not sum to 1 leave the bisection bracket short of the house
    with pytest.raises(InvariantError, match="bracket"):
        allocate_many(linear_divisor(1.0), np.array([[0.25, 0.25]]), 100)
