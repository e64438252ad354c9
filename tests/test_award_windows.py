"""Float divisor sweeps pull their awards one window at a time.

``harness._float_seat_blocks`` sorts one ``_award_sequence`` window of about
``_FLOAT_BLOCK`` awards per block of houses, each window's tables starting at
the seats the window before ended on; a range that starts past the
mandatory seats takes its first seats from ``allocate``
(``harness._float_start``).  A late
range must give the matching columns of the whole-range blocks, bit for bit:
seats, tied houses and tie masks, also where a run of close awards crosses a
window edge or reaches back past the first house.  The traced peak of a
float sweep must not grow with its range.

Exact divisor sweeps pull certified windows of ``_exact_awards`` the same
way, from the seats of exact ``allocate`` at a house just below the range
whose allocation has no tie: a late exact range must equal per-house
``allocate`` (seats, tie classes and orbit means) and the matching columns
of the whole-range blocks, also where a tie run crosses a window edge, and
where the windows come from the exact step loop, whose awards equal the
certified ones wherever both run.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apportion.harness as harness
from apportion import InvariantError, PartyWeights, SignpostSequence, allocate, method_by_name
from apportion.allocation import _SCAN_MAX, NEAR_TIE_RTOL
from apportion.harness import (
    _award_sequence,
    _exact_seat_blocks,
    _float_seat_blocks,
    _float_start,
    _orbit_parts,
    _tie_tuple,
    sqrt_shares,
    sweep,
)
from apportion.methods import DivisorMethod

CASES = {
    "webster-sqrt4": ("webster", sqrt_shares(4)),
    "huntington-sqrt4": ("huntington", sqrt_shares(4)),
    "estonia-sqrt4": ("estonia", sqrt_shares(4)),
    "webster-tied": ("webster", (0.5, 0.25, 0.25)),
    "dhondt-tied": ("dhondt", (0.4, 0.2, 0.2, 0.2)),
}
N_TO = 6000


def _columns(blocks):
    """The concatenated houses, seats, tied houses and masks of a block source."""
    houses, seats, tied, tie, held = [], [], [], [], []
    for h, s, t, a, b in blocks:
        houses.append(h)
        seats.append(s)
        tied.append(h[t])
        tie.append(a)
        held.append(b)
    cat = np.concatenate
    return cat(houses), cat(seats, axis=1), cat(tied), cat(tie, axis=1), cat(held, axis=1)


def _whole(method, shares):
    """The blocks of z*m .. N_TO: one window, as one whole-range award sequence."""
    z = method.signposts.zero_count()
    assert N_TO < harness._FLOAT_BLOCK
    return _columns(_float_seat_blocks(method, shares, z * shares.size, N_TO, masks=True))


def _late(monkeypatch, method, shares, n_from, block):
    monkeypatch.setattr(harness, "_FLOAT_BLOCK", block)
    return _columns(_float_seat_blocks(method, shares, n_from, N_TO, masks=True))


def _assert_late_equals_whole(whole, late, n_from):
    houses, seats, tied, tie, held = whole
    l_houses, l_seats, l_tied, l_tie, l_held = late
    z_m = int(houses[0])
    assert l_houses.tolist() == list(range(n_from, N_TO + 1))
    assert np.array_equal(l_seats, seats[:, n_from - z_m :])
    keep = tied >= n_from
    assert l_tied.tolist() == tied[keep].tolist()
    assert np.array_equal(l_tie, tie[:, keep]) and np.array_equal(l_held, held[:, keep])


@pytest.mark.parametrize("block", [37, 500])
@pytest.mark.parametrize("case", sorted(CASES))
def test_late_range_equals_the_whole_range_columns(monkeypatch, case, block):
    name, shares = CASES[case]
    method, shares = method_by_name(name), np.asarray(shares)
    whole = _whole(method, shares)
    for n_from in (5, block + 2, 1001, 2 * block + 777, 4093):
        _assert_late_equals_whole(whole, _late(monkeypatch, method, shares, n_from, block), n_from)


@pytest.mark.parametrize("case", ["webster-tied", "dhondt-tied"])
def test_tie_runs_across_window_edges_and_the_first_house(monkeypatch, case):
    # a tie class holds the awards of a run of close figures: the run of a
    # block's last house goes on into the next window, and the run of the
    # first house may start before it, so the seeded start backs off
    name, shares = CASES[case]
    method, shares = method_by_name(name), np.asarray(shares)
    whole = _whole(method, shares)
    houses, _, tied, tie, held = whole
    # D'Hondt's classes of four parties may hold two awards up to the house:
    # the run of such a first house starts at or before the last award of the
    # house before it; Webster's classes of two hold one
    back = tied[(tie & held).sum(axis=0) >= 2]
    assert back.size > 100 if case == "dhondt-tied" else back.size == 0
    block = 41
    starts = back if back.size else tied
    for n_from in starts[starts > block + 1][:25].tolist():
        # the first house is tied, and a block edge falls on a tied house
        late = _late(monkeypatch, method, shares, n_from, block)
        _assert_late_equals_whole(whole, late, n_from)
        ends = np.arange(n_from + block - 1, N_TO + 1, block)
        assert np.isin(ends, tied).any()


@pytest.mark.parametrize("case", sorted(CASES))
def test_windows_from_a_start_continue_the_award_sequence(case):
    name, shares = CASES[case]
    sp, shares = method_by_name(name).signposts, np.asarray(shares)
    z, m = sp.zero_count(), shares.size
    winners, figures, close = _award_sequence(shares, sp, 5000, NEAR_TIE_RTOL)
    wide = np.flatnonzero(~close)  # a window may start after any gap that is not close
    for k in wide[wide < 4000][::97].tolist():
        start = z + np.bincount(winners[: k + 1], minlength=m)
        w, f, c = _award_sequence(shares, sp, 5000 - k - 1, NEAR_TIE_RTOL, start)
        assert w.tobytes() == winners[k + 1 :].tobytes()
        assert f.tobytes() == figures[k + 1 :].tobytes()
        assert c.tobytes() == close[k + 1 :].tobytes()


@pytest.mark.parametrize("name", ["webster", "dhondt", "huntington", "adams"])
def test_a_start_past_ten_million_houses_equals_allocate(name):
    method, w = method_by_name(name), PartyWeights.of(sqrt_shares(8))
    n_from, n_to = 10**7, 10**7 + 300
    houses, seats, tied, _, _ = _columns(_float_seat_blocks(method, np.asarray(w.shares_float()), n_from, n_to, True))
    for h, row in zip(houses.tolist(), seats.T.tolist()):
        a = allocate(method, w, h)
        assert tuple(row) == a.seats, h
        assert (h in set(tied.tolist())) == a.tied, h


def test_the_start_is_allocate_after_a_wide_gap():
    method, shares = method_by_name("webster"), np.asarray((0.5, 0.25, 0.25))
    w = PartyWeights.of(shares.tolist())
    winners, figures, close = _award_sequence(shares, method.signposts, 5000, NEAR_TIE_RTOL)
    for house in range(2, 5000, 7):
        seats, done = _float_start(shares, method.signposts, house)
        assert done < house and (done == 0 or not close[done - 1])
        assert tuple(seats.tolist()) == allocate(method, w, done).seats  # z = 0: award k ends house k


def test_a_start_off_the_award_order_raises(monkeypatch):
    method, shares = method_by_name("webster"), np.asarray(sqrt_shares(4))

    def off_by_one(weights, sp, house, *_):
        a = allocate(method, weights, house)
        seats = list(a.seats)
        seats[0], seats[1] = seats[0] + 1, seats[1] - 1
        return type(a)(tuple(seats), house)

    monkeypatch.setattr(harness, "allocate_divisor", off_by_one)
    with pytest.raises(InvariantError, match="prefix"):
        _float_start(shares, method.signposts, 10**6)


def test_exact_signposts_on_float_shares_take_windows(monkeypatch):
    # a Fraction beta with float votes runs the float path, seeded by allocate's float steps
    method, shares = DivisorMethod(SignpostSequence.linear(Fraction(1, 3))), np.asarray(sqrt_shares(4))
    whole = _whole(method, shares)
    _assert_late_equals_whole(whole, _late(monkeypatch, method, shares, 3000, 300), 3000)


def _traced_peak(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_float_sweep_peak_does_not_grow_with_the_range():
    # one seat block, which then holds the excesses, one window of awards
    # and the tiles: under two (m, _FLOAT_BLOCK) float blocks, whatever the range
    method, w = method_by_name("webster"), PartyWeights.of(sqrt_shares(8))
    block = 8 * harness._FLOAT_BLOCK * 8
    short = _traced_peak(lambda: sweep(method, w, 1, 4 * harness._FLOAT_BLOCK))
    long = _traced_peak(lambda: sweep(method, w, 1, 16 * harness._FLOAT_BLOCK))
    assert long <= 1.2 * short, (long, short)
    assert long <= 2.5 * block, long / block


@pytest.mark.parametrize("votes", [(1, 1, 1), (2, 2, 2, 2, 2), (1.0, 1.0, 1.0)])
def test_a_late_sweep_of_equal_parties_starts_near_its_range(votes):
    # equal parties from a multiple of m: every house that is not one is tied, and
    # house - 1, - 2, - 4, ... never are, so the start must step back through the m below
    method, w, n_from = method_by_name("webster"), PartyWeights.of(list(votes)), 12 * 10**4
    late = _traced_peak(lambda: sweep(method, w, n_from, n_from + 1000))
    later = _traced_peak(lambda: sweep(method, w, n_from + 1, n_from + 1001))
    assert late <= 1.2 * later, (late, later)


# "equal": both starts are multiples of 4, so the house below each is tied and the start is its tie's base
EXACT_VOTES = {"census": (7, 5, 3, 2), "equal": (1, 1, 1, 1), "tie-heavy": (2, 1, 1)}
EXACT_METHODS = ("webster", "dhondt", "huntington", "adams")


# from 2**49 houses on no float gap certifies, and the windows come from the step loop
@pytest.mark.parametrize("n_from", [10**7, 10**11, 10**15, 2**61])
@pytest.mark.parametrize("votes", sorted(EXACT_VOTES))
@pytest.mark.parametrize("name", EXACT_METHODS)
def test_a_late_exact_range_equals_allocate(name, votes, n_from):
    method, w = method_by_name(name), PartyWeights.of(list(EXACT_VOTES[votes]))
    houses, seats, tied, tie, held = _columns(_exact_seat_blocks(method, w, n_from, n_from + 300))
    assert houses.tolist() == list(range(n_from, n_from + 301))
    column = {h: j for j, h in enumerate(tied.tolist())}
    for r, h in enumerate(houses.tolist()):
        a, s = allocate(method, w, h), seats[:, r]
        assert tuple(s.tolist()) == a.seats, h
        if h not in column:
            assert a.tie_info is None, h
            continue
        j = column[h]
        info = a.tie_info
        assert _tie_tuple(s, tie[:, j], held[:, j]) == (info.parties, info.grants, info.base_seats), h
        base, k, grants = _orbit_parts(s, tie[:, j], held[:, j])
        mean = tuple(int(b) + Fraction(int(g) * int(grants), int(k)) for b, g in zip(base, tie[:, j]))
        assert mean == a.expected_seats(), h
    if votes == "tie-heavy" and name != "huntington":
        assert tied.size > 50


N_EXACT = 3000
EXACT_WINDOWS = {  # _EXACT_BLOCK, _FLOAT_BLOCK: windows ending inside blocks, and windows of one block
    "spanning": (16, 41),
    "block": (50, 37),
}


def _exact_whole(method, w, n_to):
    z = method.signposts.zero_count()
    assert n_to - z * len(w) < harness._FLOAT_BLOCK  # one window from the mandatory seats on
    return _columns(_exact_seat_blocks(method, w, z * len(w), n_to))


@pytest.mark.parametrize("windows", sorted(EXACT_WINDOWS))
@pytest.mark.parametrize("votes", sorted(EXACT_VOTES))
@pytest.mark.parametrize("name", EXACT_METHODS)
def test_a_late_exact_range_equals_the_whole_range_columns(monkeypatch, name, votes, windows):
    method, w = method_by_name(name), PartyWeights.of(list(EXACT_VOTES[votes]))
    whole = _exact_whole(method, w, N_EXACT)
    block, window = EXACT_WINDOWS[windows]
    monkeypatch.setattr(harness, "_EXACT_BLOCK", block)
    monkeypatch.setattr(harness, "_FLOAT_BLOCK", window)
    z_m, tied = int(whole[0][0]), whole[2]
    crossed = 0
    for n_from in (z_m + 1, 7, 100, 1001, 2 * window + 3, N_EXACT - 5):
        late = _columns(_exact_seat_blocks(method, w, max(n_from, z_m), N_EXACT))
        houses, seats, l_tied, l_tie, l_held = late
        n_from = int(houses[0])
        assert houses.tolist() == list(range(n_from, N_EXACT + 1))
        assert np.array_equal(seats, whole[1][:, n_from - z_m :])
        keep = tied >= n_from
        assert l_tied.tolist() == tied[keep].tolist()
        assert np.array_equal(l_tie, whole[3][:, keep]) and np.array_equal(l_held, whole[4][:, keep])
        # a window's nominal last award is that of house lo + size + z*m, lo the awards before its first house;
        # a tie there runs on into the window after
        size = max(block, window)
        crossed += np.isin(np.arange(n_from + size - 1, N_EXACT, size), tied).sum()
    if votes == "tie-heavy" and name != "huntington":
        assert crossed > 0


@pytest.mark.parametrize("votes", [(1, 2), (1, 3)])
def test_late_exact_windows_off_the_integer_scan(monkeypatch, votes):
    # geometric(3) figures turn subnormal near house 1290: the windows there come from the
    # step loop, each from the seats the window before ended on; (1, 3) ties at every other award
    method, w = DivisorMethod(SignpostSequence.geometric(Fraction(3))), PartyWeights.of(list(votes))
    whole = _columns(_exact_seat_blocks(method, w, 0, 1330))
    scans = []
    scan = harness._stepped_awards
    monkeypatch.setattr(harness, "_stepped_awards", lambda *a: scans.append(a[-1]) or scan(*a))
    monkeypatch.setattr(harness, "_EXACT_BLOCK", 16)
    monkeypatch.setattr(harness, "_FLOAT_BLOCK", 23)
    houses, seats, tied, tie, held = _columns(_exact_seat_blocks(method, w, 1250, 1330))
    assert len(scans) > 1
    assert np.array_equal(seats, whole[1][:, 1250:])
    keep = whole[2] >= 1250
    assert tied.tolist() == whole[2][keep].tolist()
    assert np.array_equal(tie, whole[3][:, keep]) and np.array_equal(held, whole[4][:, keep])


def _awards_both_ways(method, votes, houses, count=40):
    """``_exact_awards`` from the seats of each house, or of the base of its tie run, certified and
    off the step loop (``_TINY`` = inf sends every window there): asserts equal (winners, equal)."""
    sp, (ints, total) = method.signposts, PartyWeights.of(list(votes)).integer_votes
    z, m = sp.zero_count(), len(ints)
    zeros = np.full(m, z, dtype=np.int64)
    winners, equal = harness._exact_awards(ints, total, sp, max(houses) - z * m + 1, zeros)
    steps = []
    for house in houses:
        k = max(house - z * m, 0)  # the awards before the house; a start must end a run of equal figures
        while k > 0 and equal[k - 1]:
            k -= 1
        start = zeros + np.bincount(winners[:k], minlength=m)
        certified = harness._exact_awards(ints, total, sp, count, start)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_TINY", np.inf)
            stepped = harness._stepped_awards
            mp.setattr(harness, "_stepped_awards", lambda *a: steps.append(a) or stepped(*a))
            got = harness._exact_awards(ints, total, sp, count, start)
        assert got[0].size >= count and got[1].size == got[0].size - 1
        assert np.array_equal(got[0], certified[0]) and np.array_equal(got[1], certified[1]), house
    assert len(steps) == len(houses)


@pytest.mark.parametrize("votes", sorted(EXACT_VOTES))
@pytest.mark.parametrize("name", EXACT_METHODS)
def test_the_step_loop_gives_the_certified_awards(name, votes):
    _awards_both_ways(method_by_name(name), EXACT_VOTES[votes], [4, 5, 17, 100, 1001])


@given(st.lists(st.integers(1, 60), min_size=2, max_size=6), st.sampled_from(EXACT_METHODS), st.integers(4, 500))
@settings(max_examples=60, deadline=None)
def test_the_step_loop_gives_the_certified_awards_on_drawn_votes(votes, name, house):
    _awards_both_ways(method_by_name(name), votes, [house, house + 7], count=25)


@pytest.mark.parametrize("name", EXACT_METHODS)
def test_the_step_loop_past_scan_max_gives_the_certified_awards(name):
    # 65 equal parties, past _SCAN_MAX: every run of equal figures holds 65 awards, read off _KeyEnds
    assert 65 > _SCAN_MAX
    _awards_both_ways(method_by_name(name), [1] * 65, [130, 200, 333], count=100)
