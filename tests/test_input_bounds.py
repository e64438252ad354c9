"""Inputs the library refuses with InputError instead of overflowing,
raising a raw numpy or Python error, or looping without end: divisor houses
of 2**62 and more, non-finite parameters and votes, float votes under a
linear beta past the float range (exact votes get their exact seats), Monte
Carlo batches below 1, histogram bin widths that are not positive and
finite, sweeps and periods of more than MAX_TRIALS houses, party names
that repeat or do not match the votes one to one, and Monte Carlo counts
(houses, parties, trials, batches) that are not integers."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from apportion import InputError, PartyWeights, SignpostSequence, allocate
from apportion import cli, harness
from apportion.harness import allocate_many, apparentement_sweep, mc_ordered_simplex, period_average_bias
from apportion.harness import equidistribution_ks, quota_violation_frequency, sqrt_shares, sweep
from apportion.methods import DivisorMethod, linear_divisor, method_by_name, quota_method
from apportion.samplers import sample_excess_marginal, sample_uniform_simplex
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


BIG_BETA = {
    "signposts": lambda: DivisorMethod(SignpostSequence.linear(Fraction(10**400))),
    "name": lambda: method_by_name("linear:1e400"),
}


@pytest.mark.parametrize("make", BIG_BETA.values(), ids=BIG_BETA.keys())
def test_linear_beta_past_the_float_range(make):
    method = make()
    # d(n) = n - 1 + 10**400: 9/(n - 1 + beta) > 5/beta while 4*beta > 5(n - 1),
    # so the largest party takes every seat, exactly
    assert allocate(method, PartyWeights.of([3, 5, 9]), 50).seats == (0, 0, 50)
    float_runs = (
        lambda: allocate(method, PartyWeights.of([3.0, 5.0, 9.0]), 50),
        lambda: allocate_many(method, np.array([[0.2, 0.3, 0.5]]), 50),
    )
    for run in float_runs:
        with pytest.raises(InputError, match=r"d\(1\) exceeds the float range"):
            run()
    with pytest.raises(InputError, match="small-house guard"):  # the guard lies past 10**400 houses
        sweep(method, PartyWeights.of([3.0, 5.0, 9.0]), 1, 50)


def test_cli_linear_beta_past_the_float_range(capsys):
    argv = ["allocate", "--method", "linear:1e400", "--seats", "50"]
    assert cli.run(argv + ["--votes", "A=3,B=5,C=9"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["seats"] == [0, 0, 50]
    assert cli.run(argv + ["--shares", "sqrt:4"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["kind"] == "InputError" and "float range" in err["message"]


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
    with pytest.raises(InputError, match="float range"):  # mixed votes become floats
        PartyWeights.of([Fraction(10**400), 1.5])


@pytest.mark.parametrize("batch", [0, -1])
def test_batch_below_one_rejected(batch):
    with pytest.raises(InputError, match="batch"):
        mc_ordered_simplex(WEBSTER, 3, 100, 10, batch=batch)
    with pytest.raises(InputError, match="batch"):
        quota_violation_frequency(WEBSTER, m=3, house_size=100, trials=10, batch=batch)


@pytest.mark.parametrize("bad", [10.5, 3.0, True, "4"])
def test_monte_carlo_counts_must_be_integers(bad):
    # a house of 10.5 once gave Webster seats that sum to 11; each refusal names its argument
    hamilton, rng = method_by_name("hamilton"), np.random.default_rng(0)
    calls = {
        "house": [lambda: allocate_many(WEBSTER, [[0.5, 0.3, 0.2]], bad),
                  lambda: allocate_many(hamilton, [[0.5, 0.3, 0.2]], bad)],
        "house_size": [
            lambda: allocate(WEBSTER, PartyWeights.of([5, 3, 2]), bad),
            lambda: allocate(hamilton, PartyWeights.of([5, 3, 2]), bad),
            lambda: mc_ordered_simplex(WEBSTER, 3, bad, 10),
            lambda: quota_violation_frequency(WEBSTER, m=3, house_size=bad, trials=10),
        ],
        "m": [
            lambda: mc_ordered_simplex(WEBSTER, bad, 10, 5),
            lambda: quota_violation_frequency(WEBSTER, m=bad, house_size=10, trials=5),
            lambda: sample_uniform_simplex(bad, 3, rng),
            lambda: sample_excess_marginal(WEBSTER, 0.5, bad, seed=0, size=3),
        ],
        "trials": [lambda: mc_ordered_simplex(WEBSTER, 3, 10, bad),
                   lambda: quota_violation_frequency(WEBSTER, m=3, house_size=10, trials=bad)],
        "batch": [lambda: mc_ordered_simplex(WEBSTER, 3, 10, 5, batch=bad)],
    }
    for name, runs in calls.items():
        for run in runs:
            with pytest.raises(InputError, match=f"^{name} must be an? "):
                run()


def test_monte_carlo_counts_take_numpy_integers():
    i = np.int64
    res = mc_ordered_simplex(WEBSTER, i(3), i(100), i(50), batch=i(16))
    assert (res.trials, res.house_size, res.delta.count) == (50, 100, 50)
    assert quota_violation_frequency(WEBSTER, m=i(3), house_size=i(100), trials=i(40), batch=i(7)).count == 40
    assert allocate_many(WEBSTER, [[0.5, 0.3, 0.2]], i(10)).tolist() == [[5.0, 3.0, 2.0]]
    assert allocate(WEBSTER, PartyWeights.of([5, 3, 2]), i(10)).seats == (5, 3, 2)
    assert sample_uniform_simplex(i(3), i(4), np.random.default_rng(0)).shape == (4, 3)


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
    with pytest.raises(InputError, match=f"at most {harness.MAX_TRIALS} houses"):
        equidistribution_ks(sqrt_shares(4), 0.0, 1, too_many)  # before its arange of every house
    # the bound counts the houses after the guard
    monkeypatch.setattr(harness, "MAX_TRIALS", 100)
    assert sweep(WEBSTER, w, 1, 100).count == 100
    assert sweep(method_by_name("adams"), w, 1, 103).count == 100  # the guard starts Adams at house 4
    assert apparentement_sweep(WEBSTER, w, 0, 1, 1, 100).moments.count <= 100
    assert len(period_average_bias(WEBSTER, PartyWeights.of([60, 40]))) == 2  # a period of 5 houses
    assert equidistribution_ks(sqrt_shares(4), 0.0, 1, 100).shape == (4,)
    for run in (
        lambda: sweep(WEBSTER, w, 1, 101),
        lambda: apparentement_sweep(WEBSTER, w, 0, 1, 1, 200),
        lambda: equidistribution_ks(sqrt_shares(4), 0.0, 1, 101),
    ):
        with pytest.raises(InputError, match="at most 100 houses"):
            run()


@pytest.mark.parametrize("names", [("A", "A"), ("A", "A", "B"), ("A",)])
def test_party_names_one_distinct_name_per_party(names):
    with pytest.raises(InputError, match="distinct name"):
        PartyWeights.of([1, 2], names)
    assert PartyWeights.of([1, 2], ("A", "B")).names == ("A", "B")
