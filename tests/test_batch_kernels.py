"""The batch kernels of Monte Carlo: ``figures``, ``allocation._divisor_cols``'s rounds, the
joint sampler's categories, and the pass bound of the scalar step loop.

``SignpostSequence.figures`` evaluates a closed form below 2**53 in one pass and
fixes up only the entries at n <= ``zero_count()``; the row kernel finds each
row's best and worst entries by one comparison per party; the joint sampler
counts cdf entries instead of searching them.  Each must give the numbers of
the plain formula it replaces, bit for bit.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from apportion import InvariantError, PartyWeights, SignpostSequence, allocate, allocation
from apportion.allocation import _bracket, _ends, _step
from apportion.harness import allocate_many, sweep
from apportion.methods import DivisorMethod, method_by_name
from apportion.samplers import _category_rows
from conftest import heap_divisor

CLOSED = {
    name: method_by_name(name).signposts
    for name in ("webster", "dhondt", "adams", "cambridge", "huntington", "dean")
}
CLOSED["linear0.3"] = SignpostSequence.linear(0.3)
CLOSED["clipped-2.5"] = SignpostSequence.clipped_linear(-2.5)
CLOSED["clipped-3/2"] = SignpostSequence.clipped_linear(Fraction(-3, 2))


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_figures_across_the_mandatory_seats_equal_figure(name):
    # one call whose seat indices span zero_count(), with 0.0 weights among the votes
    sp = CLOSED[name]
    assert sp.closed_pair()
    rng = np.random.default_rng(sorted(CLOSED).index(name))
    ns = rng.integers(0, sp.zero_count() + 40, size=(50, 6))
    ns[0, :] = np.arange(6)
    v = rng.choice([0.0, 0.25, 1 / 3, 7.0, 1e-300], size=ns.shape)
    want = np.array([[float(sp.figure(x, int(n))) for x, n in zip(vr, nr)] for vr, nr in zip(v, ns)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sp.figures(v, ns)
    assert got.dtype == float and got.tobytes() == want.tobytes()
    assert np.isinf(got[ns <= sp.zero_count()]).all()


def test_exact_pairs_of_a_huge_denominator_at_seat_zero():
    # n_max = 0 once kept the int64 closed form, whose den alone passes int64
    sp = SignpostSequence.linear(Fraction(10**20 + 1, 10**20))
    a, b = sp.exact_pairs([0, 0])
    assert a.tolist() == [0, 0] and b.tolist() == [1, 1]
    assert sp.figures(np.array([0.5]), np.array([0])).tolist() == [math.inf]


@pytest.mark.parametrize("name", ["webster", "dhondt", "huntington", "adams", "estonia"])
def test_allocate_many_warns_nothing_at_the_mandatory_seats(name):
    # many rows hold a party at z seats: tiny and zero shares, a house of z per party
    method = method_by_name(name)
    z, m = method.signposts.zero_count(), 4
    rng = np.random.default_rng(3)
    shares = rng.dirichlet(np.full(m, 0.2), size=200)
    shares[:20, 0] = 0.0
    shares /= shares.sum(axis=1, keepdims=True)
    for house in (z * m, z * m + 1, z * m + 9, 400):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = allocate_many(method, shares, house)
        assert (got == z).any()
        rows = range(20, 200, 37)  # the oracle takes positive votes only
        assert np.array_equal(got[rows], [heap_divisor(PartyWeights.of(list(shares[r])), method.signposts, house).seats
                                          for r in rows])


def test_ends_are_argmax_first_and_argmin_last():
    rng = np.random.default_rng(1)
    figs = rng.integers(0, 4, size=(5, 300)).astype(float)  # many equal figures per column
    figs[2, :10] = math.inf
    at, top = _ends(figs, np.greater, np.maximum)
    assert np.array_equal(at, figs.argmax(axis=0)) and np.array_equal(top, figs.max(axis=0))
    at, low = _ends(figs, np.less_equal, np.minimum)
    assert np.array_equal(at, 4 - figs[::-1].argmin(axis=0)) and np.array_equal(low, figs.min(axis=0))


@pytest.mark.parametrize("p", [(0.2, 0.5, 0.3), (0.5, 1e-300, 0.5), (1e-300, 0.25, 0.75 - 1e-300), (1.0,)])
@pytest.mark.parametrize("n", [1, 5000, 30_000])
def test_categories_equal_generator_choice(p, n):
    # a share of 1e-300 leaves two cdf entries equal; counting must pick as searchsorted does
    p = np.asarray(p)
    want = np.random.default_rng(9).choice(p.size, size=n, p=p)
    got = np.concatenate([j.copy() for _, _, j, _ in _category_rows(p, np.random.default_rng(9), n)])
    assert got.dtype == np.intp and np.array_equal(got, want)


def test_categories_of_many_parties_equal_generator_choice():
    p = np.random.default_rng(4).dirichlet(np.ones(40))
    p /= p.sum()
    want = np.random.default_rng(2).choice(40, size=5000, p=p)
    got = np.concatenate([j.copy() for _, _, j, _ in _category_rows(p, np.random.default_rng(2), 5000)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("scan_max", [64, 0], ids=["scan", "heaps"])
def test_the_pass_bound_of_a_jump_start_does_not_grow_with_the_house(scan_max, monkeypatch):
    # figures that grow with the seat count never settle; at house 10**12 the old bound of
    # |surplus| + N + 1 passes would run for days, the bracket's stops after a dozen
    monkeypatch.setattr(allocation, "_SCAN_MAX", scan_max)
    sp, house, calls = method_by_name("webster").signposts, 10**12, []

    def pair(i, n):
        calls.append(n)
        if len(calls) > 1000:
            raise AssertionError("the step loop ran past its bracket")
        return n + i, 1

    bracket = _bracket(sp, 2, house, 0)
    assert bracket < 6
    with pytest.raises(InvariantError, match="pass bound"):
        _step([house // 2, house // 2], pair, house, 0, sp)
    assert len(calls) <= 2 * 2 + 2 * math.floor(2 * bracket + 2)


@pytest.mark.parametrize("scan_max", [64, 0], ids=["scan", "heaps"])
def test_votes_whose_total_overflows_keep_the_pass_bound_of_the_house(scan_max, monkeypatch):
    # the total 2e308 is inf, so the jump start is [0, 0], farther from the seats than the
    # bracket: the bracket must not cap the passes there
    monkeypatch.setattr(allocation, "_SCAN_MAX", scan_max)
    method, w = method_by_name("webster"), PartyWeights.of([1e308, 1e308])
    for house in (13, 20, 57, 300, 301):
        assert allocate(method, w, house).seats == heap_divisor(w, method.signposts, house).seats


def test_a_beta_past_the_float_range_builds_and_brackets_without_an_envelope():
    for sp in (SignpostSequence.linear(Fraction(10**400)), method_by_name("linear:1e400").signposts):
        assert sp.value(2) == 10**400 + 1
        assert sp.exact_pairs(np.arange(3))[0].tolist() == [0, 10**400, 10**400 + 1]
        assert _bracket(sp, 3, 100, 0) == 100


@pytest.mark.parametrize("method", ["webster", "hamilton"])
@pytest.mark.parametrize("votes", [[1.0], [7]], ids=["float", "exact"])
def test_one_party_sweeps_with_the_default_histogram(method, votes):
    stats = sweep(method_by_name(method), PartyWeights.of(votes), 1, 3000)
    assert stats.count == 3000
    assert stats.mean.tolist() == [0.0]
    assert stats.histogram.counts.sum() == 3000
    assert (stats.lower_violations + stats.upper_violations).tolist() == [0]


def test_divisor_rows_at_a_house_of_one_seat_per_party_and_an_empty_batch():
    method = DivisorMethod(method_by_name("huntington").signposts)
    assert np.array_equal(allocate_many(method, np.full((3, 4), 0.25), 4), np.ones((3, 4)))
    assert allocate_many(method, np.empty((0, 4)), 9).shape == (0, 4)
