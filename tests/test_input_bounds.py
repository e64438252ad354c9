"""Inputs the library refuses with InputError instead of overflowing,
raising a raw numpy or Python error, or looping without end: divisor houses
of 2**62 and more, non-finite parameters and votes, Monte Carlo batches
below 1, histogram bin widths that are not positive and finite, and sweeps
and periods of more than MAX_TRIALS houses."""

import math
from fractions import Fraction

import numpy as np
import pytest

from apportion import InputError, PartyWeights, SignpostSequence, allocate
from apportion import harness
from apportion.harness import allocate_many, apparentement_sweep, mc_ordered_simplex, period_average_bias
from apportion.harness import quota_violation_frequency, sqrt_shares, sweep
from apportion.methods import linear_divisor, method_by_name, quota_method
from apportion.stats import DeltaHistogram

WEBSTER = method_by_name("webster")


@pytest.mark.parametrize("votes", [(1, 2), (1.0, 2.0)])
def test_divisor_house_of_2_62_rejected(votes):
    with pytest.raises(InputError, match="2\\*\\*62"):
        allocate(WEBSTER, PartyWeights.of(votes), 2**62)
    with pytest.raises(InputError, match="2\\*\\*62"):
        allocate_many(WEBSTER, np.array([[1 / 3, 2 / 3]]), 2**62)


def test_exact_divisor_house_below_2_62():
    house = 2**62 - 1  # a multiple of 3: the exact shares are whole seats
    a = allocate(WEBSTER, PartyWeights.of([1, 2]), house)
    assert a.seats == (house // 3, 2 * house // 3)
    assert not a.tied


NON_FINITE = [math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("x", NON_FINITE)
def test_non_finite_parameters_rejected(x):
    for make in (
        lambda: linear_divisor(x),
        lambda: quota_method(x),
        lambda: SignpostSequence.linear(x),
        lambda: SignpostSequence.clipped_linear(x),
        lambda: SignpostSequence.geometric(x),
        lambda: SignpostSequence.power(x),
        lambda: SignpostSequence.table([1.0, x]),
        lambda: SignpostSequence.table([Fraction(1)], tail_beta=x),
        lambda: method_by_name(f"linear:{x}"),
    ):
        with pytest.raises(InputError):
            make()


@pytest.mark.parametrize("e", [10**400, Fraction(1, 10**400), True])
def test_power_exponent_past_the_float_range_rejected(e):
    with pytest.raises(InputError):
        SignpostSequence.power(e)


@pytest.mark.parametrize("x", NON_FINITE)
def test_non_finite_votes_rejected(x):
    with pytest.raises(InputError):
        PartyWeights.of([x, 1.0])
    with pytest.raises(InputError):
        PartyWeights([x, 1.0])


def test_scaling_past_the_float_range_rejected():
    with pytest.raises(InputError, match="finite"):
        PartyWeights.of([1e300, 2.0]).scaled(1e300)
    assert PartyWeights.of([Fraction(10**400), 1]).total == 10**400 + 1  # exact votes have no float range


@pytest.mark.parametrize("batch", [0, -1])
def test_batch_below_one_rejected(batch):
    with pytest.raises(InputError, match="batch"):
        mc_ordered_simplex(WEBSTER, 3, 100, 10, batch=batch)
    with pytest.raises(InputError, match="batch"):
        quota_violation_frequency(WEBSTER, m=3, house_size=100, trials=10, batch=batch)


@pytest.mark.parametrize("width", [-0.01, 0.0, math.nan, math.inf])
def test_bad_bin_width_rejected(width):
    with pytest.raises(InputError, match="bin width"):
        DeltaHistogram([(-1.0, 1.0)], width)
    if width:  # 0 means no histogram to sweep and the default width to mc_ordered_simplex
        with pytest.raises(InputError, match="bin width"):
            sweep(WEBSTER, PartyWeights.of([1.0, 2.0]), 1, 10, bin_width=width)
        with pytest.raises(InputError, match="bin width"):
            mc_ordered_simplex(WEBSTER, 3, 100, 10, bin_width=width)


def test_runs_past_max_trials_houses_rejected(monkeypatch):
    w = PartyWeights.of(sqrt_shares(4))
    too_many = 2 * harness.MAX_TRIALS  # past the bound whatever the guard takes off
    for method in (WEBSTER, method_by_name("hamilton")):
        for run in (lambda: sweep(method, w, 1, too_many), lambda: apparentement_sweep(method, w, 0, 1, 1, too_many)):
            with pytest.raises(InputError, match=f"at most {harness.MAX_TRIALS} houses"):
                run()
    with pytest.raises(InputError, match=f"at most {harness.MAX_TRIALS} houses"):
        period_average_bias(WEBSTER, PartyWeights.of([10**9, 10**9 + 1]))  # a period of 2*10**9 + 1 houses
    # the bound counts the houses after the guard
    monkeypatch.setattr(harness, "MAX_TRIALS", 100)
    assert sweep(WEBSTER, w, 1, 100).count == 100
    assert sweep(method_by_name("adams"), w, 1, 103).count == 100  # the guard starts Adams at house 4
    assert apparentement_sweep(WEBSTER, w, 0, 1, 1, 100).moments.count <= 100
    assert len(period_average_bias(WEBSTER, PartyWeights.of([60, 40]))) == 2  # a period of 5 houses
    for run in (lambda: sweep(WEBSTER, w, 1, 101), lambda: apparentement_sweep(WEBSTER, w, 0, 1, 1, 200)):
        with pytest.raises(InputError, match="at most 100 houses"):
            run()
