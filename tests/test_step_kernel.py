"""The one step loop of ``allocate_divisor``: ``allocation._step``.

``_step`` ranks (num, den) figure pairs by cross-multiplication, integer
pairs on exact input and (figure, 1.0) on float input.  From any start
between the mandatory seats and the house it must reach the canonical seats
of the sequential heap, and the best next and worst held parties it returns
must be those of the ``Fraction`` figures, whether a pass scans the parties
or, past ``_SCAN_MAX`` of them, reads two heaps.  Pairs that are not
nonincreasing in the seat count must raise, not loop.
"""

import random
from fractions import Fraction

import pytest

from apportion import CapExceededError, DivisorMethod, InvariantError, PartyWeights, SignpostSequence, allocate
from apportion import allocation
from apportion.allocation import _step
from apportion.methods import method_by_name
from conftest import heap_divisor

FAMILIES = {
    "webster": method_by_name("webster").signposts,
    "adams": method_by_name("adams").signposts,
    "huntington": method_by_name("huntington").signposts,
    "dean": method_by_name("dean").signposts,
    "macau": method_by_name("macau").signposts,
    "capped": SignpostSequence.table([Fraction(k + 1) for k in range(8)], cap=8),
}


def exact_pair(weights, sp):
    votes, _ = weights.integer_votes
    w = [sp.figure_weight(v) for v in votes]

    def pair(i, n):
        a, b = sp.exact_pair(n)
        return w[i] * b, a

    return pair


def float_pair(weights, sp):
    def pair(i, n):
        return sp.figure(float(weights.votes[i]), n), 1.0

    return pair


@pytest.mark.parametrize("scan_max", [64, 0], ids=["scan", "heaps"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
@pytest.mark.parametrize("make_pair", [exact_pair, float_pair])
def test_any_start_reaches_the_heap_seats(name, make_pair, scan_max, monkeypatch):
    monkeypatch.setattr(allocation, "_SCAN_MAX", scan_max)
    sp = FAMILIES[name]
    z = sp.zero_count()
    top = sp.max_seats() or 40
    rng = random.Random(name)
    for _ in range(60):
        w = PartyWeights.of([rng.randint(1, 5) for _ in range(rng.randint(1, 5))])
        m = len(w)
        house = rng.randint(z * m, min(top, 30) * m)
        start = [rng.randint(z, min(top, house)) for _ in range(m)]
        pair = make_pair(w, sp)
        seats, held, nxt, i, k = _step(start, pair, house, z)
        assert tuple(seats) == heap_divisor(w, sp, house).seats
        assert held == [pair(j, s) for j, s in enumerate(seats)]
        assert nxt == [pair(j, s + 1) for j, s in enumerate(seats)]
        figs = [sp.figure(v, s + 1) for v, s in zip(w.votes, seats)]
        assert i == figs.index(max(figs))  # figure descending, then party ascending
        owned = [(sp.figure(v, s), -j) for j, (v, s) in enumerate(zip(w.votes, seats)) if s > z]
        assert k == (-min(owned)[1] if owned else -1)  # figure ascending, then party descending


@pytest.mark.parametrize("name", ["webster", "huntington", "macau"])
@pytest.mark.parametrize("exact", [True, False])
def test_many_parties_step_by_heaps_to_the_heap_seats(name, exact):
    # 300 parties: past _SCAN_MAX, and a jump start that misses by many seats
    sp = FAMILIES[name]
    rng = random.Random(300)
    votes = [rng.randint(1, 20) for _ in range(300)]  # many equal figures
    w = PartyWeights.of(votes if exact else [float(v) for v in votes])
    for house in (300, 600, 3000):
        assert allocate(DivisorMethod(sp), w, house).seats == heap_divisor(w, sp, house).seats


INF = float("inf")
SIXTH = 1e308 / 1.5  # the Webster figure of 1e308 at its second seat


@pytest.mark.parametrize(
    "house, seats, interval",
    [
        (1, (1, 0), (INF, INF)),
        (2, (1, 1), (SIXTH, INF)),
        (3, (2, 1), (SIXTH, SIXTH)),
        (4, (2, 2), (1e308 / 2.5, SIXTH)),
    ],
)
@pytest.mark.parametrize("scan_max", [64, 0], ids=["scan", "heaps"])
def test_figures_past_the_float_range_tie_as_equal(house, seats, interval, scan_max, monkeypatch):
    # 1e308 / d(1) = 2e308 overflows to inf for both parties: the step loop
    # must treat inf against inf as a tie (lower index first), not loop
    monkeypatch.setattr(allocation, "_SCAN_MAX", scan_max)
    a = allocate(method_by_name("webster"), PartyWeights.of([1e308, 1e308]), house)
    assert a.seats == seats
    assert a.support_interval == interval
    assert a.tied == (house == 3)  # equal finite figures: a near-tie


def test_unreachable_house_raises_on_the_zero_numerator():
    sp = FAMILIES["capped"]
    w = PartyWeights.of([3, 1])
    with pytest.raises(CapExceededError):
        _step([8, 8], exact_pair(w, sp), 17, 0)


@pytest.mark.parametrize("scan_max", [64, 0], ids=["scan", "heaps"])
def test_inconsistent_pairs_raise_instead_of_looping(scan_max, monkeypatch):
    # figures that grow with the seat count: the worst held entry never
    # beats the best next one, so the swaps would go on forever
    monkeypatch.setattr(allocation, "_SCAN_MAX", scan_max)
    for start, house in (([1, 1], 2), ([0, 5, 2], 7), ([9, 0], 3)):
        with pytest.raises(InvariantError, match="pass bound"):
            _step(start, lambda i, n: (n + i, 1), house, 0)


@pytest.mark.parametrize("scan_max", [64, 0], ids=["scan", "heaps"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_extreme_starts_stay_within_the_pass_bound(name, scan_max, monkeypatch):
    # every party at its mandatory seats, or at the whole house (the cap)
    monkeypatch.setattr(allocation, "_SCAN_MAX", scan_max)
    sp = FAMILIES[name]
    z, top = sp.zero_count(), sp.max_seats() or 60
    w = PartyWeights.of([7, 1, 3, 3, 12])
    for house in (z * 5, z * 5 + 1, min(top, 12) * 5, min(top, 40) * 5):
        for start in ([z] * 5, [min(top, house)] * 5):
            seats = _step(start, exact_pair(w, sp), house, z)[0]
            assert tuple(seats) == heap_divisor(w, sp, house).seats


PAIR_FAMILIES = {
    name: method_by_name(name).signposts
    for name in ("webster", "dhondt", "adams", "cambridge", "huntington", "dean", "adjusted-sainte-lague",
                 "macau", "estonia")
}
PAIR_FAMILIES["capped"] = FAMILIES["capped"]


@pytest.mark.parametrize("m", [2, 5, 64, 65, 200])
@pytest.mark.parametrize("name", sorted(PAIR_FAMILIES))
@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_each_pair_function_reaches_the_heap_allocation(kind, name, m):
    # allocate_divisor picks one pair function per call: a closed form (the linear, clipped,
    # sqrt and harmonic families), exact_pair (tables, geometric) or figure (power); m
    # crosses _SCAN_MAX.  The seats, tie class and support interval, in the caller's
    # units and of the same types, must be the heap oracle's.  Mixed float and Fraction
    # votes become floats when the weights are built.
    sp = PAIR_FAMILIES[name]
    z = sp.zero_count()
    top = sp.max_seats() or z + 4
    rng = random.Random(f"{name}/{m}")
    votes = [Fraction(rng.randint(1, 12), rng.choice((1, 3, 7))) for _ in range(m)]  # many equal figures
    if kind != "exact":
        votes = [v if kind == "mixed" and j % 2 else float(v) for j, v in enumerate(votes)]
    w = PartyWeights.of(votes)
    assert w.exact == (kind == "exact") and all(isinstance(v, float) for v in w.votes) == (kind != "exact")
    for house in sorted({z * m, z * m + 1, (z + 1) * m, min(top, z + 2) * m + 3, rng.randint(z * m, top * m)}):
        a, b = allocate(DivisorMethod(sp), w, house), heap_divisor(w, sp, house)
        assert (a.seats, a.ties, a.tie_info, a.support_interval) == (b.seats, b.ties, b.tie_info, b.support_interval)
        assert list(map(type, a.support_interval)) == list(map(type, b.support_interval))


CLOSED_FLOAT_FAMILIES = {
    name: PAIR_FAMILIES[name] for name in ("webster", "dhondt", "adams", "cambridge", "huntington", "dean")
}
CLOSED_FLOAT_FAMILIES["linear0.3"] = SignpostSequence.linear(0.3)
CLOSED_FLOAT_FAMILIES["clipped-2.5"] = SignpostSequence.clipped_linear(-2.5)


@pytest.mark.parametrize("name", sorted(CLOSED_FLOAT_FAMILIES))
def test_closed_float_figures_equal_figure_bit_for_bit(name):
    # the float path divides float(w) by a / b, which rounds as float(d(n)) does;
    # closed_pair holds for n > zero_count(); below, figure is +inf, as the step loops' pairs give
    sp = CLOSED_FLOAT_FAMILIES[name]
    closed, z = sp.closed_pair(), sp.zero_count()
    rng = random.Random(name)
    for v in [rng.uniform(1e-3, 1e7) for _ in range(20)] + [1.0, 3.0, 1e308, 5e-324]:
        w = sp.figure_weight(v)
        for n in list(range(z + 1, 60)) + [rng.randint(60, 2**40) for _ in range(20)]:
            a, b = closed(n)
            assert w / (a / b) == sp.figure(v, n)
        for n in range(z + 1):
            assert sp.figure(v, n) == INF
