"""The integer kernel of exact sweeps against the ``Fraction`` oracle.

``harness._exact_seat_blocks`` and ``harness._excess_rows`` compute each
house's seats, tie class, seat excess and quota-violation indicators from
integer votes V_i with total T; conftest's ``exact_houses``, ``exact_rows``
and ``exact_divisor_scan`` read them house by house.  The
``fraction_*`` helpers of conftest compute the same in ``Fraction``
arithmetic, one heap pop and one moments push per house.  Rows must be
equal (``==``); whole sweeps must agree in count, ties, histogram counts and
violation totals, and in the moments to 1e-12, and their mean must equal
float() of the exact mean at every block size.

The corpora: few small votes (many exact ties), ``Fraction`` votes with large
denominators (a large T), and int votes near 10**12, whose products pass
2**63, so an int64 overflow anywhere would show.
"""

import random
import re
import time
from fractions import Fraction
from math import inf

import numpy as np
import pytest

from apportion import (
    DivisorMethod,
    InputError,
    NegativeSeatError,
    NonRationalWeightsError,
    PartyWeights,
    SignpostSequence,
    TiePolicy,
    UnsupportedMethodError,
    allocate,
    linear_divisor,
    quota_method,
)
import apportion.harness as harness
from apportion.harness import _EXACT_BLOCK, _histogram_bounds, period_average_bias, sweep
from apportion.methods import small_n_guard

from conftest import (
    exact_divisor_scan,
    exact_houses,
    exact_rows,
    fraction_divisor_scan,
    fraction_houses,
    fraction_rows,
    fraction_sweep,
    random_weights,
)

CAP = 8
FAMILIES = {
    "webster": linear_divisor(Fraction(1, 2)),
    "dhondt": linear_divisor(1),
    "adams": linear_divisor(0),
    "danish": linear_divisor(Fraction(1, 3)),
    "imperiali": linear_divisor(2),
    "cambridge": linear_divisor(-5),
    "adjusted-sainte-lague": DivisorMethod(SignpostSequence.table([Fraction(7, 10)], tail_beta=Fraction(1, 2))),
    "huntington": DivisorMethod(SignpostSequence.sqrt_pair_product()),
    "dean": DivisorMethod(SignpostSequence.harmonic_pair()),
    "geometric-3/2": DivisorMethod(SignpostSequence.geometric(Fraction(3, 2))),
    "capped-table": DivisorMethod(
        SignpostSequence.table([0, 1, Fraction(5, 2), 4, Fraction(11, 2), 7, 9, 12], cap=CAP)
    ),
    "hamilton": quota_method(0),
    "droop": quota_method(1),
    "imperiali-quota": quota_method(2),
    "quota-1/3": quota_method(Fraction(1, 3)),
}

CORPORA = {
    "tie-heavy": lambda rng, m: [rng.randint(1, 4) for _ in range(m)],
    "fraction": lambda rng, m: [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**9)) for _ in range(m)],
    "big-int": lambda rng, m: [rng.randint(10**12, 2 * 10**12) for _ in range(m)],
}

POLICIES = (TiePolicy.average(), TiePolicy.enumerate_all(), TiePolicy.seeded(3))


def _house_range(name, method, weights, rng, span):
    n_from = small_n_guard(method, weights)
    n_to = n_from + span(rng)
    if name == "capped-table":
        n_to = min(n_to, CAP * len(weights))
    return n_from, n_to


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_rows_equal_fraction_oracle(name, corpus):
    method = FAMILIES[name]
    rng = random.Random(f"{name}/{corpus}")
    ties = 0
    for _ in range(6):
        w = PartyWeights.of(CORPORA[corpus](rng, rng.randint(1, 5)))
        n_from, n_to = _house_range(name, method, w, rng, lambda r: r.randint(0, 40))
        for policy in POLICIES:
            houses = list(exact_houses(method, w, n_from, n_to, policy))
            assert houses == fraction_houses(method, w, n_from, n_to, policy)
            assert list(exact_rows(method, w, n_from, n_to, policy)) == list(
                fraction_rows(method, w, n_from, n_to, policy)
            )
            ties += sum(tie is not None for _, _, tie in houses)
    if corpus == "tie-heavy":
        assert ties > 0


def _assert_same_stats(stats, ref):
    assert stats.count == ref.count
    assert stats.ties == ref.ties
    assert (stats.n_from, stats.n_to) == (ref.n_from, ref.n_to)
    assert np.array_equal(stats.histogram.counts, ref.histogram.counts)
    assert np.array_equal(stats.lower_violations, ref.lower_violations)
    assert np.array_equal(stats.upper_violations, ref.upper_violations)
    assert stats.any_violation == ref.any_violation
    np.testing.assert_allclose(stats.mean, ref.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stats.covariance, ref.covariance, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_whole_sweep_equals_fraction_oracle(name):
    method = FAMILIES[name]
    rng = random.Random(name)
    for corpus in sorted(CORPORA):
        w = PartyWeights.of(CORPORA[corpus](rng, rng.randint(2, 5)))
        n_from, n_to = _house_range(name, method, w, rng, lambda r: r.randint(100, 300))
        for policy in (TiePolicy.average(), TiePolicy.enumerate_all()):
            stats = sweep(method, w, n_from, n_to, policy, force_exact=True)
            ref = fraction_sweep(method, w, n_from, n_to, policy, _histogram_bounds(method, w))
            _assert_same_stats(stats, ref)


@pytest.mark.parametrize("name", ["webster", "dhondt", "droop"])
def test_sweep_over_several_blocks(name):
    method = FAMILIES[name]
    w = PartyWeights.of([1, 1, 4, 3, 2])
    n_to = 2 * _EXACT_BLOCK + 100
    stats = sweep(method, w, 1, n_to, TiePolicy.average(), force_exact=True)
    ref = fraction_sweep(method, w, 1, n_to, TiePolicy.average(), _histogram_bounds(method, w))
    _assert_same_stats(stats, ref)
    # the first block alone is summed in the oracle's order
    first = sweep(method, w, 1, _EXACT_BLOCK, TiePolicy.average(), force_exact=True)
    _assert_same_stats(first, fraction_sweep(method, w, 1, _EXACT_BLOCK, TiePolicy.average(),
                                             _histogram_bounds(method, w)))


@pytest.mark.parametrize("name", ["webster", "adams", "huntington", "hamilton", "droop"])
def test_seeded_sweep_picks_the_orbit_member_of_allocate(name):
    # each tied house draws from (seed, house), as allocate does at that house
    method = FAMILIES[name]
    w = PartyWeights.of([2, 2, 1])
    n_from = small_n_guard(method, w)
    means = set()
    for seed in range(4):
        policy = TiePolicy.seeded(seed)
        rows = list(exact_houses(method, w, n_from, 60, policy))
        assert [seats for _, seats, _ in rows] == [allocate(method, w, h, policy).seats for h, _, _ in rows]
        means.add(tuple(sweep(method, w, n_from, 60, policy, force_exact=True).mean))
    assert len(means) == 4


def test_fifty_parties_scan_matches_and_is_no_slower():
    rng = random.Random(50)
    w = PartyWeights.of([rng.randint(10**3, 10**6) for _ in range(50)])
    sp = FAMILIES["webster"].signposts
    started = time.perf_counter()
    rows = list(exact_divisor_scan(w, sp, 20_000))
    kernel_s = time.perf_counter() - started
    started = time.perf_counter()
    ref = list(fraction_divisor_scan(w, sp, 20_000))
    heap_s = time.perf_counter() - started
    assert rows == ref
    assert kernel_s <= heap_s


def test_capped_table_past_the_cap():
    method = FAMILIES["capped-table"]
    w = PartyWeights.of([3, 2])
    with pytest.raises(InputError, match="unreachable"):
        list(exact_divisor_scan(w, method.signposts, CAP * 2 + 1))
    with pytest.raises(InputError, match="unreachable"):
        list(fraction_divisor_scan(w, method.signposts, CAP * 2 + 1))


def test_scan_needs_exact_inputs():
    with pytest.raises(InputError):
        list(exact_divisor_scan(PartyWeights.of([3, 2]), SignpostSequence.linear(0.5), 5))
    with pytest.raises(InputError):
        list(exact_divisor_scan(PartyWeights.of([3.0, 2.0]), FAMILIES["webster"].signposts, 5))


def test_integer_votes():
    w = PartyWeights.of([Fraction(1, 2), Fraction(1, 3), 1])
    assert w.integer_votes == ((3, 2, 6), 11)
    assert PartyWeights.of([4, 6, 10]).integer_votes == ((2, 3, 5), 10)
    with pytest.raises(NonRationalWeightsError):
        PartyWeights.of([1.0, 2.0]).integer_votes


def test_exact_pair():
    assert FAMILIES["webster"].signposts.exact_pair(3) == (5, 2)
    assert FAMILIES["adams"].signposts.exact_pair(1) == (0, 1)  # d = 0: an infinite figure
    assert FAMILIES["cambridge"].signposts.exact_pair(2) == (0, 1)
    assert FAMILIES["huntington"].signposts.exact_pair(4) == (12, 1)  # d(4)**2
    assert FAMILIES["dean"].signposts.exact_pair(2) == (4, 3)
    assert FAMILIES["geometric-3/2"].signposts.exact_pair(3) == (9, 4)
    assert FAMILIES["capped-table"].signposts.exact_pair(CAP + 1) == (1, 0)  # a figure of 0
    with pytest.raises(InputError):
        SignpostSequence.power(0.9).exact_pair(2)


def _fraction_pair(sp, n):
    """(a, b) of d(n) in figure space from the ``Fraction`` signpost value."""
    d = n * (n - 1) if sp.kind == "sqrt_pair_product" else sp.value(n)
    if d == inf:
        return 1, 0
    d = Fraction(d)
    return d.numerator, d.denominator


@pytest.mark.parametrize("name", sorted(n for n, m in FAMILIES.items() if isinstance(m, DivisorMethod)))
def test_exact_pair_equals_fraction_pair(name):
    sp = FAMILIES[name].signposts
    assert [sp.exact_pair(n) for n in range(2001)] == [_fraction_pair(sp, n) for n in range(2001)]
    for beta in (Fraction(7, 3), Fraction(-7, 3), Fraction(3)):  # d(0) = 0 while (0-1)*den + num > 0
        sp = SignpostSequence.linear(beta) if beta > 0 else SignpostSequence.clipped_linear(beta)
        assert [sp.exact_pair(n) for n in range(50)] == [_fraction_pair(sp, n) for n in range(50)]


def _exact_mean(method, w, n_from, n_to):
    """float() of the exact mean excess under the averaging policy, from the
    seats and tie classes of ``exact_houses``: a tied party holds base +
    grants/k."""
    seats_sum, houses = [Fraction(0)] * len(w), 0
    rows = exact_houses(method, w, n_from, n_to)
    for house, seats, tie in rows:
        seats = list(seats)
        if tie is not None:
            parties, grants, base = tie
            for party, b in zip(parties, base):
                seats[party] = b + Fraction(grants, len(parties))
        seats_sum = [t + x for t, x in zip(seats_sum, seats)]
        houses += house
    return [float((t - houses * p) / len(rows)) for t, p in zip(seats_sum, w.shares)]


def _exact_totals(method, w, n_from, n_to, policy):
    """float() of the exact violation totals, summed from the rows' counts."""
    lower, upper, any_v = [Fraction(0)] * len(w), [Fraction(0)] * len(w), Fraction(0)
    for _, _, _, lo, up, violating, orbit in exact_rows(method, w, n_from, n_to, policy):
        lower = [t + Fraction(x, orbit) for t, x in zip(lower, lo)]
        upper = [t + Fraction(x, orbit) for t, x in zip(upper, up)]
        any_v += Fraction(violating, orbit)
    return [float(x) for x in lower], [float(x) for x in upper], float(any_v)


def _block_cases():
    yield FAMILIES["adams"], PartyWeights.of([1, 1, 1, 1, 1, 1, 9]), 1, 20_000
    rng = random.Random(1)
    for k in range(9):
        method = FAMILIES[("dhondt", "adams", "webster")[k % 3]]
        w = PartyWeights.of([rng.randint(1, 6) for _ in range(rng.randint(3, 7))])
        yield method, w, small_n_guard(method, w), 3000
    yield FAMILIES["droop"], PartyWeights.of([1, 1, 1, 2, 2]), 1, 3000


@pytest.mark.parametrize("case", range(11))
def test_violation_totals_do_not_depend_on_the_block(case, monkeypatch):
    method, w, n_from, n_to = list(_block_cases())[case]
    lower, upper, any_v = _exact_totals(method, w, n_from, n_to, TiePolicy.average())
    mean = _exact_mean(method, w, n_from, n_to)
    for block in (7, 1000, 4096):
        monkeypatch.setattr(harness, "_EXACT_BLOCK", block)
        stats = sweep(method, w, n_from, n_to, TiePolicy.average(), force_exact=True)
        assert stats.lower_violations.tolist() == lower
        assert stats.upper_violations.tolist() == upper
        assert stats.any_violation == any_v
        assert stats.mean.tolist() == mean


def test_orbit_sizes_past_int64(monkeypatch):
    # a 66-way tie with 33 grants has comb(66, 33) > 2**62 members: object
    # counts, and seat sums with house * comb(66, 33) past 2**63
    method, w = FAMILIES["webster"], PartyWeights.of([1] * 66)
    ref = fraction_sweep(method, w, 1, 140, TiePolicy.average(), _histogram_bounds(method, w))
    stats = sweep(method, w, 1, 140, TiePolicy.average(), force_exact=True)
    _assert_same_stats(stats, ref)
    assert stats.mean.tolist() == _exact_mean(method, w, 1, 140)
    # Adams ties all 65 parties once a round, and the large party then misses
    # its lower quota in comb(65, g) < 2**62 members per row: int64 counts
    # whose sums over a block pass 2**63
    method, w = FAMILIES["adams"], PartyWeights.of([1] * 64 + [100])
    n_from = small_n_guard(method, w)
    ref = fraction_sweep(method, w, n_from, 600, TiePolicy.average(), _histogram_bounds(method, w))
    assert ref.any_violation > 0
    for block in (7, 4096):
        monkeypatch.setattr(harness, "_EXACT_BLOCK", block)
        stats = sweep(method, w, n_from, 600, TiePolicy.average(), force_exact=True)
        _assert_same_stats(stats, ref)



@pytest.mark.parametrize("votes", [(1, 1, 4), (1, 3, 3), (52, 47, 1)])
def test_negative_seats_raised_as_allocate_raises(votes):
    # (1, 1, 4) has a negative seat only in its tie orbit at house 1
    method, w = quota_method(3), PartyWeights.of(list(votes))
    raised = 0
    for house in range(1, 12):
        try:
            allocate(method, w, house)
        except NegativeSeatError as e:
            raised += 1
            with pytest.raises(NegativeSeatError, match=re.escape(str(e))):
                exact_houses(method, w, house, house + 5)
    assert raised


# -- period averages --------------------------------------------------------------


def _period_by_allocate(method, w, later=0):
    """The exact period average from ``allocate`` at every house, over the
    first period above the guard or ``later`` periods on."""
    period = w.share_denominator()
    start = max(small_n_guard(method, w), 1) + later * period
    total = [Fraction(0)] * len(w)
    for house in range(start, start + period):
        seats = allocate(method, w, house, TiePolicy.average()).expected_seats()
        for i, (s, p) in enumerate(zip(seats, w.shares)):
            total[i] += s - house * p
    return tuple(t / period for t in total)


# the excess is periodic from the guard on only where d(n) = n - 1 + beta from the first seat
TRANSIENT_FAMILIES = ("adjusted-sainte-lague", "dean", "huntington")
PERIOD_FAMILIES = [n for n in sorted(FAMILIES) if n not in ("geometric-3/2", "capped-table", *TRANSIENT_FAMILIES)]


@pytest.mark.parametrize("name", PERIOD_FAMILIES)
def test_period_average_equals_allocate_path(name):
    method = FAMILIES[name]
    rng = random.Random(name)
    for _ in range(6):
        w = PartyWeights.of([rng.randint(1, 12) for _ in range(rng.randint(1, 4))])
        avg = period_average_bias(method, w)
        assert avg == _period_by_allocate(method, w)
        assert all(isinstance(x, Fraction) for x in avg)
    w = PartyWeights.of([Fraction(7, 3), Fraction(5, 4), 2])
    assert period_average_bias(method, w) == _period_by_allocate(method, w)


@pytest.mark.parametrize("name", PERIOD_FAMILIES)
def test_period_average_equals_a_later_period(name):
    # the first period above the guard is no transient
    method = FAMILIES[name]
    rng = random.Random(f"later/{name}")
    for w in [PartyWeights.of([7, 5, 3, 2])] + [random_weights(rng, rng.randint(2, 4), 1, 12) for _ in range(3)]:
        assert period_average_bias(method, w) == _period_by_allocate(method, w, later=rng.randint(3, 9))


@pytest.mark.parametrize("name", TRANSIENT_FAMILIES)
def test_transient_families_differ_over_the_first_period(name):
    # why period_average_bias refuses them: the first period is a transient
    w = PartyWeights.of([7, 5, 3, 2])
    assert _period_by_allocate(FAMILIES[name], w) != _period_by_allocate(FAMILIES[name], w, later=3)


def test_period_average_input_errors():
    w = PartyWeights.of([3, 2])
    with pytest.raises(InputError):
        period_average_bias(FAMILIES["webster"], PartyWeights.of([3.0, 2.0]))
    with pytest.raises(InputError):
        period_average_bias(linear_divisor(0.5), w)
    with pytest.raises(InputError):
        period_average_bias(quota_method(1.0), w)
    with pytest.raises(UnsupportedMethodError):
        period_average_bias(FAMILIES["geometric-3/2"], w)
    with pytest.raises(UnsupportedMethodError):
        period_average_bias(FAMILIES["capped-table"], w)
    for name in TRANSIENT_FAMILIES:  # only eventually periodic
        with pytest.raises(UnsupportedMethodError):
            period_average_bias(FAMILIES[name], w)
