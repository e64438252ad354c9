import math
import random
from fractions import Fraction

import numpy as np
import pytest

from apportion import InputError, PartyWeights, TiePolicy, allocate
from apportion.analysis import FOURTH_POWER, SAINTE_LAGUE, SUM_SQUARES, divergence_value
from apportion.asymptotics import excess_bounds
from apportion.harness import (
    _PRIMES,
    allocate_many,
    apparentement_sweep,
    compare,
    detect_period,
    equidistribution_ks,
    mc_ordered_simplex,
    period_average_bias,
    quota_violation_frequency,
    sqrt_shares,
    sweep,
)
from apportion.methods import linear_divisor, method_by_name, quota_method, small_n_guard
from apportion.stats import RunningMoments, Tolerances

from conftest import exact_rows, fraction_rows

W21 = PartyWeights.of([2, 1])
W221 = PartyWeights.of([2, 2, 1])


def test_detect_period():
    assert detect_period(W21) == 3
    assert detect_period(W221) == 5
    assert detect_period(PartyWeights.of([1, 1])) == 2


def test_detect_period_rejects_floats():
    from apportion import NonRationalWeightsError

    with pytest.raises(NonRationalWeightsError):
        detect_period(PartyWeights.of([1.5, 2.5]))


def test_period_average_bias_two_parties():
    for beta in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        assert period_average_bias(linear_divisor(beta), W21) == (0, 0)
    assert period_average_bias(linear_divisor(1), W21) == (Fraction(1, 6), Fraction(-1, 6))


def test_period_average_bias_droop_deviates_from_formula():
    avg = period_average_bias(quota_method(1), W221)
    assert avg[2] == Fraction(-1, 15)  # the limit formula would give -2/15
    assert sum(avg) == 0


def test_webster_and_hamilton_unbiased_for_rationals(rng):
    for _ in range(20):
        m = rng.randint(2, 4)
        w = PartyWeights.of([rng.randint(1, 9) for _ in range(m)])
        assert all(x == 0 for x in period_average_bias(linear_divisor(Fraction(1, 2)), w))
        assert all(x == 0 for x in period_average_bias(quota_method(0), w))


def test_jefferson_rational_bias_matches_formula(rng):
    for _ in range(20):
        m = rng.randint(2, 4)
        w = PartyWeights.of([rng.randint(1, 9) for _ in range(m)])
        avg = period_average_bias(linear_divisor(1), w)
        assert avg == tuple((m * p - 1) / 2 for p in w.shares)


def test_exact_sweep_matches_known_sequence():
    stats = sweep(quota_method(1), W221, 1, 5, TiePolicy.average())
    seq = [Fraction(-1, 5), Fraction(-2, 5), Fraction(2, 5), Fraction(-2, 15), Fraction(0)]
    assert stats.mean[2] == pytest.approx(float(sum(seq) / 5), abs=1e-12)
    assert stats.ties == 2  # house sizes 1 and 4


def test_sweep_clamps_to_guard():
    stats = sweep(linear_divisor(0), PartyWeights.of([3.0, 2.0, 1.0]), 1, 500)
    assert stats.n_from == 3  # mandatory seats
    stats = sweep(quota_method(2.0), PartyWeights.of(sqrt_shares(3)), 1, 500)
    assert stats.n_from == small_n_guard(quota_method(2.0), PartyWeights.of(sqrt_shares(3)))


def _assert_float_agrees_with_exact(method, votes, n_to, workers=1):
    """A float sweep of ``votes`` as floats over [1, n_to] against the exact
    sweep of the integer votes; returns the exact tie count."""
    exact = sweep(method, PartyWeights.of(votes), 1, n_to, TiePolicy.average(), force_exact=True)
    fl = sweep(method, PartyWeights.of([float(v) for v in votes]), 1, n_to, TiePolicy.average(), workers=workers)
    assert (fl.n_from, fl.n_to) == (exact.n_from, exact.n_to)
    np.testing.assert_allclose(fl.mean, exact.mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fl.covariance, exact.covariance, rtol=0, atol=1e-12)
    assert fl.near_ties == exact.ties
    return exact.ties


@pytest.mark.parametrize("name", ["webster", "dhondt", "adams", "dean", "huntington", "hamilton", "droop"])
def test_float_sweep_agrees_with_exact(name):
    # tie-heavy votes: the float near-ties must be the exact ties, averaged alike
    method = method_by_name(name)
    rng = random.Random(name)
    cases = [[5, 3, 2], [3, 1, 4, 3]] + [[rng.randint(1, 4) for _ in range(rng.randint(2, 5))] for _ in range(6)]
    cases = [(votes, 300, 1) for votes in cases]
    # m equal votes: house 4m + 1 takes the first award of a class of m, so
    # its run goes on past n_to (the float twin of
    # test_a_tie_class_past_the_first_awards_is_read_whole)
    cases += [([1] * m, 4 * m + 1, 1) for m in (3, 6)]
    # tied runs across the 65 536-house block; two workers run the same one
    # pass, through the tied house 35 002
    assert allocate(method, PartyWeights.of([2, 1, 1]), 35_002).tied
    cases += [([2, 1, 1], 70_004, 1), ([2, 1, 1], 70_004, 2)]
    ties = 0
    for votes, n_to, workers in cases:
        ties += _assert_float_agrees_with_exact(method, votes, n_to, workers)
    assert ties > 0


def test_float_quota_sweep_agrees_with_exact():
    assert _assert_float_agrees_with_exact(quota_method(1), [5, 3, 2], 60) > 0
    # Droop on (3, 8) ties at every house 11k - 1, where both ideals are whole
    assert _assert_float_agrees_with_exact(method_by_name("droop"), [3, 8], 70_000) > 6000


@pytest.mark.parametrize(
    "name, votes, n_to",
    [("webster", (7, 5, 3, 2), 20_001), ("droop", (10**12 + 1, 10**12, 3 * 10**11 + 7), 100_000)],
)
def test_exact_input_takes_the_exact_path_at_any_range(name, votes, n_to):
    # on the float path the 10**12 votes would count 34 783 false near-ties
    # and shift Droop's means
    method, w = method_by_name(name), PartyWeights.of(votes)
    default = sweep(method, w, 1, n_to)
    forced = sweep(method, w, 1, n_to, force_exact=True)
    assert default.near_ties == 0 and default.ties == forced.ties
    assert default.count == forced.count == n_to - default.n_from + 1
    for a, b in (
        (default.mean, forced.mean),
        (default.covariance, forced.covariance),
        (default.histogram.counts, forced.histogram.counts),
        (default.lower_violations, forced.lower_violations),
        (default.upper_violations, forced.upper_violations),
    ):
        assert a.tobytes() == b.tobytes()
    assert default.any_violation == forced.any_violation
    with pytest.raises(InputError, match="exact sweep"):
        sweep(method, PartyWeights.of([float(v) for v in votes]), 1, 100, force_exact=True)


def test_int64_rows_divide_wide_integers_exactly():
    # votes near 1e16: house*T*m stays below 2**63 up to house 354, so the
    # rows are int64, but T and the excess numerators pass 2**53, where a
    # float64 division would round both sides first
    w = PartyWeights.of([8102650219695173, 4891809806296154])
    _, total = w.integer_votes
    assert 300 * total * 2 < 2**63 and total >= 2**53
    for name in ("webster", "droop"):
        for policy in (TiePolicy.average(), TiePolicy.enumerate_all()):
            method = method_by_name(name)
            assert list(exact_rows(method, w, 1, 300, policy)) == list(fraction_rows(method, w, 1, 300, policy))


def test_sweep_merge_and_workers():
    p = sqrt_shares(4)
    w = PartyWeights.of(p)
    whole = sweep(quota_method(1.0), w, 1, 20_000)
    a = sweep(quota_method(1.0), w, 1, 7_000)
    b = sweep(quota_method(1.0), w, 7_001, 20_000)
    a.merge(b)
    assert a.count == whole.count
    assert np.allclose(a.mean, whole.mean, atol=1e-12)
    assert np.allclose(a.covariance, whole.covariance, atol=1e-10)
    threaded = sweep(quota_method(1.0), w, 1, 20_000, workers=3)
    assert np.allclose(threaded.mean, whole.mean, atol=1e-12)


def test_sweep_period_replication_is_exact():
    period = detect_period(W221)
    one = sweep(quota_method(1), W221, 1, period, TiePolicy.average())
    three = sweep(quota_method(1), W221, 1, 3 * period, TiePolicy.average())
    assert np.allclose(one.mean, three.mean, atol=1e-15)
    assert np.allclose(one.covariance, three.covariance, atol=1e-15)


def test_sweep_deltas_respect_bounds():
    p = sqrt_shares(3)
    w = PartyWeights.of(p)
    for method in (linear_divisor(1.0), linear_divisor(0.0), quota_method(1.0)):
        stats = sweep(method, w, 1, 3_000, bin_width=0.01)
        bounds = excess_bounds(method, p)
        hist = stats.histogram
        for i, (lo, hi) in enumerate(bounds):
            filled = np.nonzero(hist.counts[i])[0]
            vals = hist.low[i] + (filled + 1) * hist.bin_width  # right bin edges
            assert vals.min() >= lo - 0.02 and (hist.low[i] + filled.min() * hist.bin_width) >= lo - 0.02
            assert (hist.low[i] + filled.max() * hist.bin_width) <= hi + 0.02


def test_compare_pass_and_negative_control():
    p = sqrt_shares(4)
    w = PartyWeights.of(p)
    stats = sweep(linear_divisor(1.0), w, 1, 100_000)
    rep = compare(stats, linear_divisor(1.0), p)
    assert rep.passed
    wrong = compare(stats, linear_divisor(0.0), p)
    assert not wrong.passed


def test_compare_with_violation_rows():
    p = sqrt_shares(3)
    w = PartyWeights.of(p)
    stats = sweep(linear_divisor(1.0), w, 1, 150_000)
    rep = compare(stats, linear_divisor(1.0), p, Tolerances(violation=0.01))
    assert rep.passed
    assert any(r.statistic == "violation" for r in rep.rows)


def test_equidistribution_ks():
    ks = equidistribution_ks([math.sqrt(2) - 1, 0.5], 0.0, 1, 100_000)
    assert ks[0] < 0.01
    assert ks[1] == pytest.approx(0.5, abs=0.01)


def test_joint_equidistribution_chi_square():
    import scipy.stats as st

    p = sqrt_shares(3)
    houses = np.arange(1, 100_001)
    u = np.stack([(houses * p[0]) % 1.0, (houses * p[1]) % 1.0], axis=1)
    counts, _, _ = np.histogram2d(u[:, 0], u[:, 1], bins=10, range=[[0, 1], [0, 1]])
    chi = st.chisquare(counts.ravel())
    assert chi.pvalue > 0.001


def test_allocate_many_matches_scalar():
    from apportion.allocation import allocate

    rng = np.random.default_rng(5)
    p = rng.dirichlet(np.ones(3), size=40)
    for method in (linear_divisor(1.0), linear_divisor(0.0), linear_divisor(0.5), quota_method(1.0)):
        seats = allocate_many(method, p, 57)
        for row in range(p.shape[0]):
            w = PartyWeights.of([float(x) for x in p[row]])
            direct = allocate(method, w, 57).seats
            assert tuple(int(s) for s in seats[row]) == direct, (method, row)


def test_mc_ordered_simplex_share_moments():
    from apportion.asymptotics import ordered_simplex_moments

    res = mc_ordered_simplex(quota_method(0.0), 4, 5_000, 4_000, seed=6)
    expect = [float(ordered_simplex_moments(4, j).mean) for j in (1, 2, 3, 4)]
    assert np.allclose(res.shares.mean, expect, atol=0.01)
    assert res.delta.count == 4_000


def test_violation_frequency_fixed_vs_random():
    vf = quota_violation_frequency(quota_method(0.0), m=3, house_size=50_000, trials=5_000, seed=7)
    assert vf.any == 0.0
    w = PartyWeights.of(sqrt_shares(3))
    vf = quota_violation_frequency(linear_divisor(1.0), weights=w, n_from=1, n_to=50_000)
    # matching the closed-form marginal probabilities
    from apportion.violation import violation_probability

    for i, p in enumerate(sqrt_shares(3)):
        lo, up = violation_probability(linear_divisor(1.0), p, 3)
        assert vf.total[i] == pytest.approx(lo + up, abs=0.01)


def test_apparentement_sweep_small():
    p = sqrt_shares(4)
    w = PartyWeights.of(p)
    stats = apparentement_sweep(linear_divisor(1.0), w, 2, 3, 1, 60_000)
    from apportion.asymptotics import apparentement_joint_gain

    target = apparentement_joint_gain(linear_divisor(1.0), p[2], p[3], 4)
    assert stats.joint_mean == pytest.approx(target, abs=0.02)
    gi, gj = stats.party_means
    assert gi + gj == pytest.approx(stats.joint_mean, abs=1e-9)


def _apparentement_gains(method, weights, i, j, n_from, n_to) -> np.ndarray:
    """The (joint, party i, party j) gain of each house from ``allocate`` on
    the float shares of the full, the merged and the pair's lists."""
    merged, im = weights.merged(i, j)
    full = PartyWeights.of(weights.shares_float())
    pooled = PartyWeights.of(merged.shares_float())
    pair = np.array([full.votes[i], full.votes[j]])
    pair = PartyWeights.of((pair / pair.sum()).tolist())
    gains = []
    for n in range(n_from, n_to + 1):
        s, pool = allocate(method, full, n).seats, allocate(method, pooled, n).seats[im]
        sub = allocate(method, pair, pool).seats
        gains.append((pool - s[i] - s[j], sub[0] - s[i], sub[1] - s[j]))
    return np.array(gains, dtype=float)


@pytest.mark.parametrize("name", ["webster", "huntington", "adams", "hamilton", "droop", "quota:1.9"])
def test_apparentement_gains_equal_allocate_house_by_house(name):
    method, w = method_by_name(name), PartyWeights.of(sqrt_shares(5))
    for (i, j), (lo, hi) in (((0, 4), (1, 300)), ((3, 1), (150, 400))):
        stats = apparentement_sweep(method, w, i, j, lo, hi)
        assert stats.n_to == hi and stats.moments.count == hi - stats.n_from + 1
        assert lo <= stats.n_from < hi - 200
        want = RunningMoments(3)
        want.push_batch(_apparentement_gains(method, w, i, j, stats.n_from, hi))
        assert stats.moments.mean.tobytes() == want.mean.tobytes()
        assert stats.moments.comoment.tobytes() == want.comoment.tobytes()


def test_apparentement_requires_outside_party():
    with pytest.raises(InputError):
        apparentement_sweep(linear_divisor(1.0), W21, 0, 1, 1, 100)


def test_sqrt_shares_are_normalized():
    for m in (2, 4, 8):
        p = sqrt_shares(m)
        assert len(p) == m
        assert sum(p) == pytest.approx(1.0, abs=1e-12)


def _left_sum(values):
    total = 0
    for x in values:
        total += x
    return total


@pytest.mark.parametrize("m", range(2, len(_PRIMES) + 2))
def test_float_sums_run_left_to_right(m):
    # from Python 3.12 on the built-in sum of floats is compensated, so totals taken with it
    # would depend on the interpreter; these must be the plain left-to-right sums on every one
    raw = [math.sqrt(q) for q in _PRIMES[: m - 1]] + [1.0]
    assert sqrt_shares(m) == tuple(x / _left_sum(raw) for x in raw)
    w = PartyWeights.of(sqrt_shares(m))
    assert w.total == _left_sum(w.votes)
    seats = [round(7 * p) for p in w.shares[:-1]]
    seats.append(7 - sum(seats))
    delta = [s - 7 * p for s, p in zip(seats, w.shares)]
    assert divergence_value(SAINTE_LAGUE, seats, w, 7) == _left_sum(d * d / p for d, p in zip(delta, w.shares))
    assert divergence_value(SUM_SQUARES, seats, w, 7) == _left_sum(d * d for d in delta)
    assert divergence_value(FOURTH_POWER, seats, w, 7) == _left_sum(d**4 for d in delta)


def test_float_sweep_nonlinear_families():
    # the general heap path serves Huntington/Dean sweeps; bias matches the
    # half-offset family they converge to
    p = sqrt_shares(3)
    w = PartyWeights.of(p)
    for name in ("huntington", "dean"):
        method = method_by_name(name)
        stats = sweep(method, w, 1, 50_000)
        assert np.all(np.abs(stats.mean) < 0.01), (name, stats.mean)
        bounds = excess_bounds(method, p)
        hist = stats.histogram
        for i, (lo, hi) in enumerate(bounds):
            filled = np.nonzero(hist.counts[i])[0]
            assert hist.low[i] + filled.min() * hist.bin_width >= lo - 0.02
            assert hist.low[i] + (filled.max() + 1) * hist.bin_width <= hi + 0.02


def _simplex_batches(m, house, trials, seed, batch, ordered):
    # the draws of both Monte Carlo functions, batch by batch
    from apportion.samplers import sample_uniform_simplex

    rng = np.random.default_rng(seed)
    done = 0
    while done < trials:
        k = min(batch, trials - done)
        p = sample_uniform_simplex(m, k, rng)
        yield -np.sort(-p, axis=1) if ordered else p
        done += k


@pytest.mark.parametrize("name", ["dhondt", "huntington", "hamilton"])
def test_random_violation_counts_match_a_direct_count(name):
    # the counter the random mode had before it recorded through SweepStats
    method = method_by_name(name)
    lower, upper, any_count = np.zeros(4), np.zeros(4), 0.0
    for p in _simplex_batches(4, 300, 5_000, 13, 1024, ordered=False):
        deltas = allocate_many(method, p, 300) - 300 * p
        lo, up = deltas <= -1.0, deltas >= 1.0
        lower += lo.sum(axis=0)
        upper += up.sum(axis=0)
        any_count += float(np.logical_or(lo, up).any(axis=1).sum())
    vf = quota_violation_frequency(method, m=4, house_size=300, trials=5_000, seed=13, batch=1024)
    assert vf.count == 5_000 and vf.n_from is None and vf.n_to is None
    assert np.array_equal(vf.lower, lower / 5_000)
    assert np.array_equal(vf.upper, upper / 5_000)
    assert np.array_equal(vf.total, (lower + upper) / 5_000)
    assert vf.any == any_count / 5_000


def test_mc_ordered_simplex_records_the_sorted_draws():
    method = method_by_name("webster")
    res = mc_ordered_simplex(method, 3, 200, 3_000, seed=8, batch=1000)
    p = np.concatenate(list(_simplex_batches(3, 200, 3_000, 8, 1000, ordered=True)))
    deltas = allocate_many(method, p, 200) - 200 * p
    assert res.delta.count == 3_000
    assert np.allclose(res.delta.mean, deltas.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(res.shares.mean, p.mean(axis=0), rtol=0, atol=1e-12)
    assert np.array_equal(res.delta.lower_violations, (deltas <= -1.0).sum(axis=0))
