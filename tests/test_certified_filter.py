"""The certified float filter of exact divisor sweeps and the bounds of the
exact row kernel, against the ``Fraction`` oracles of conftest.

``harness._exact_awards`` sorts float figures and certifies the order in
integers; ``harness._excess_rows`` runs on int64 while house*T*m < 2**63
and on Python ints beyond, and divides as float64 only below 2**53.  The
corpora here sit where those shortcuts would go wrong: float figures a few
ulps apart without an exact tie, rows on both sides of 2**53 and of 2**63,
award cross-products on both sides of 2**63, and
figures past the float range, where the awards come from the fallback: the
adds of one exact ``allocation._step`` run (``harness._stepped_awards``).
"""

from fractions import Fraction

import numpy as np
import pytest

import apportion.allocation as allocation
import apportion.harness as harness
from apportion import DivisorMethod, InvariantError, PartyWeights, SignpostSequence, TiePolicy, method_by_name
from apportion.harness import _award_sequence
from apportion.methods import small_n_guard

from conftest import exact_rows, fraction_divisor_scan, fraction_rows

POLICIES = (TiePolicy.average(), TiePolicy.enumerate_all(), TiePolicy.seeded(3))


def _assert_rows(method, w, n_from, n_to, policies=POLICIES):
    for policy in policies:
        got = list(exact_rows(method, w, n_from, n_to, policy))
        assert got == list(fraction_rows(method, w, n_from, n_to, policy))


def _oracle_winners(w, sp, n_to):
    """The party taking each award of ``fraction_divisor_scan``, in order."""
    rows = list(fraction_divisor_scan(w, sp, n_to))
    steps = zip((s for _, s, _ in rows), (s for _, s, _ in rows[1:]))
    return [next(i for i, (a, b) in enumerate(zip(s0, s1)) if a != b) for s0, s1 in steps]


# Webster and D'Hondt votes ~1e16 whose figures v/d(n) of two parties differ
# by about one part in 1e17 at some seat pair: within a few ulps, never equal
NEAR_ULP = [
    ("webster", (8102650219695173, 4891809806296154), 385),
    ("webster", (22093490634478499, 4418698126895700), 326),
    ("webster", (15226312022130467, 24729258532396292, 2807688741669455), 432),
    ("dhondt", (6559902671306765, 7013732415862580), 369),
    ("dhondt", (6573012480180899, 2696620504689600, 2612351113918057), 280),
]


@pytest.mark.parametrize("case", range(len(NEAR_ULP)))
def test_near_ulp_figures_are_misordered_by_floats_and_certified(case):
    name, votes, n_to = NEAR_ULP[case]
    method = method_by_name(name)
    w = PartyWeights.of(list(votes))
    ints, total = w.integer_votes
    floats, figs, _ = _award_sequence(np.array([v / total for v in ints]), method.signposts, n_to, 0.0)
    exact = _oracle_winners(w, method.signposts, n_to)
    # the oracle's order is strict here: the float sort misorders an adjacent pair
    assert all(t is None for _, _, t in fraction_divisor_scan(w, method.signposts, n_to))
    assert floats[:n_to].tolist() != exact
    k = next(i for i, (a, b) in enumerate(zip(floats.tolist(), exact)) if a != b)
    assert figs[k] - figs[k + 1] <= 4 * 2.0**-52 * figs[k]  # a few ulps apart
    _assert_rows(method, w, 1, n_to)


@pytest.mark.parametrize("case", range(len(NEAR_ULP)))
def test_a_misordered_pair_outside_its_error_bound_raises(monkeypatch, case):
    # each float misorder above is a pair of equal floats, close under any bound >= 0: a bound
    # below 0 certifies every gap, equal floats included, and so puts the misorder out of bounds
    name, votes, n_to = NEAR_ULP[case]
    ints, total = PartyWeights.of(list(votes)).integer_votes
    monkeypatch.setattr(harness, "_CERTIFY_RTOL", -(2.0**-52))
    with pytest.raises(InvariantError, match="left its error bound"):
        harness._exact_awards(ints, total, method_by_name(name).signposts, n_to, np.zeros(len(ints), dtype=np.int64))


@pytest.mark.parametrize("m", [3, 6, 12])
def test_a_tie_class_past_the_first_awards_is_read_whole(m):
    # the last house takes the first of m equal figures: its class reaches
    # m - 1 awards past it, so the float sequence must be extended
    for name in ("webster", "dhondt"):
        _assert_rows(method_by_name(name), PartyWeights.of([1] * m), 1, 4 * m + 1)


@pytest.mark.parametrize("block", [16, 4096])
def test_rows_on_both_sides_of_2_53(block, monkeypatch):
    monkeypatch.setattr(harness, "_EXACT_BLOCK", block)
    w = PartyWeights.of([10**12 + 1, 10**12, 3 * 10**11 + 7])
    ints, total = w.integer_votes
    m = len(ints)
    # house*T*m reaches 2**53 here, and s*T and house*V_i themselves reach
    # 2**53 near house 9007
    for (n_from, n_to), bound in (((1250, 1350), total * m), ((8950, 9050), max(ints))):
        assert n_from * bound < 2**53 <= n_to * bound
        for name in ("webster", "droop"):
            _assert_rows(method_by_name(name), w, n_from, n_to, POLICIES[::2])
    # the kernel leaves int64 where house*T*m reaches 2**63, near house
    # 1.34e6 (Droop only: the Webster oracle would scan every house below)
    n = 2**63 // (total * m)
    assert (n - 50) * total * m < 2**63 <= (n + 50) * total * m
    _assert_rows(method_by_name("droop"), w, n - 50, n + 50, POLICIES[::2])


def test_quota_ideals_on_both_sides_of_2_63(monkeypatch):
    monkeypatch.setattr(harness, "_EXACT_BLOCK", 8)
    w = PartyWeights.of([10**15 + 3, 7 * 10**14 + 1, 2 * 10**14 + 9])
    ints, _ = w.integer_votes
    # Droop's ideals (house + 1)*V_i pass 2**63 mid-range
    assert (9200 + 1) * max(ints) < 2**63 <= (9240 + 1) * max(ints)
    _assert_rows(method_by_name("droop"), w, 9200, 9240)


def test_award_products_on_both_sides_of_2_63():
    method = method_by_name("huntington")
    w = PartyWeights.of([10**6 + 3, 7 * 10**5 + 1, 3 * 10**5 + 7])
    ints, total = w.integer_votes
    top = max(ints) ** 2  # the largest figure weight; d(n) = n(n - 1) in figure space
    for n_from, n_to in ((5700, 5800), (6300, 6400)):
        n = -(-n_to * max(ints) // total) + 1  # about the largest party's next seat
        assert (top * n * (n - 1) < 2**63) == (n_to < 6000)
        _assert_rows(method, w, n_from, n_to, POLICIES[::2])
    # votes near 1e12: every cross-product is past 2**63
    w = PartyWeights.of([10**12 + 39, 10**12, 4 * 10**11 + 3])
    _assert_rows(method, w, small_n_guard(method, w), 300)


def test_figures_past_the_float_range_take_the_integer_scan(monkeypatch):
    calls = []
    scan = harness._stepped_awards
    monkeypatch.setattr(harness, "_stepped_awards", lambda *a: calls.append(a[-1]) or scan(*a))
    method = DivisorMethod(SignpostSequence.geometric(Fraction(3)))
    w = PartyWeights.of([1, 2])
    # 3**(n - 1) passes 1.8e308 at n = 648; from house 1290 the float
    # figures are subnormal while the float tables still hold them
    shares = np.array([1 / 3, 2 / 3])
    figures = _award_sequence(shares, method.signposts, 1290, 0.0)[1]
    assert figures[1288] >= np.finfo(float).tiny > figures[1289]
    for n_from, n_to in ((1200, 1290), (1250, 1330)):
        calls.clear()
        _assert_rows(method, w, n_from, n_to, POLICIES[:1])
        assert calls
    # below the float range the filter serves the same sweep
    calls.clear()
    _assert_rows(method, w, 1, 600, POLICIES[:1])
    assert not calls


def test_the_scan_starts_at_the_first_subnormal_award_read(monkeypatch):
    # house 1290's own award is the first with a subnormal float figure: the
    # sweeps up to house 1289 certify the float awards, the later ones step
    calls = []
    scan = harness._stepped_awards
    monkeypatch.setattr(harness, "_stepped_awards", lambda *a: calls.append(a[-1]) or scan(*a))
    method = DivisorMethod(SignpostSequence.geometric(Fraction(3)))
    w = PartyWeights.of([1, 2])
    for n_to in (1288, 1289, 1290, 1291):
        calls.clear()
        _assert_rows(method, w, 1200, n_to, POLICIES[:1])
        assert bool(calls) == (n_to >= 1290), n_to


def test_the_integer_scan_flags_its_own_ties(monkeypatch):
    # under geometric(3), votes (1, 3) give party 1 the figure 3**(2 - n)
    # at its n-th seat: equal to one of party 0's, so the step loop meets ties
    calls = []
    scan = harness._stepped_awards
    monkeypatch.setattr(harness, "_stepped_awards", lambda *a: calls.append(a[-1]) or scan(*a))
    method = DivisorMethod(SignpostSequence.geometric(Fraction(3)))
    w = PartyWeights.of([1, 3])
    winners, equal = harness._exact_awards([1, 3], 4, method.signposts, 1330, np.zeros(2, dtype=np.int64))
    assert calls and winners.size >= 1330 and equal.size == winners.size - 1 and equal.sum() >= 600
    calls.clear()
    _assert_rows(method, w, 1250, 1330)
    assert calls


class _RisingFigures:
    """Stub signposts with d(n) = 1/n: each party's figures rise with its seats."""

    zero_count, max_seats, figure_weight = staticmethod(lambda: 0), staticmethod(lambda: None), staticmethod(abs)

    @staticmethod
    def exact_pairs(ns):
        return np.ones_like(ns), np.maximum(ns, 1)


class _BumpedFigures(_RisingFigures):
    """Stub signposts with d(n) = n but d(2) = 1/2: each party's figure rises at its second seat only."""

    @staticmethod
    def exact_pairs(ns):
        return np.where(ns == 2, 1, ns), np.where(ns == 2, 2, 1)


def test_the_integer_scan_refuses_a_rising_figure(monkeypatch):
    monkeypatch.setattr(harness, "_TINY", np.inf)  # the step loop, whatever the floats
    start = np.zeros(2, dtype=np.int64)
    # figures rising at every seat keep the step loop swapping past its pass bound
    with pytest.raises(InvariantError, match="pass bound"):
        harness._exact_awards([1, 1], 2, _RisingFigures(), 10, start)
    # one rising figure gets past the step loop, and the exact comparison of its awards refuses it
    with pytest.raises(InvariantError, match="above the one before"):
        harness._exact_awards([1, 1], 2, _BumpedFigures(), 10, start)


def test_the_integer_scan_past_scan_max_reads_the_key_arrays(monkeypatch):
    # the geometric(3) ranges above with _SCAN_MAX = 0: every award of the
    # step loop comes from the next keys of one ``_KeyEnds``
    ends, calls, scanning, passes = [], [], [], []
    scan = harness._stepped_awards

    class Counted(allocation._KeyEnds):
        def __init__(self, *args):
            if scanning:  # the arrays of the scan only: the start's ``allocate`` builds its own
                ends.append(self)
            super().__init__(*args)

        def __call__(self, *args):
            if scanning:
                passes.append(args)
            return super().__call__(*args)

    def counted_scan(*a):
        calls.append(a[-1])
        scanning.append(True)
        try:
            return scan(*a)
        finally:
            scanning.clear()

    monkeypatch.setattr(allocation, "_SCAN_MAX", 0)
    monkeypatch.setattr(allocation, "_KeyEnds", Counted)
    monkeypatch.setattr(harness, "_stepped_awards", counted_scan)
    method = DivisorMethod(SignpostSequence.geometric(Fraction(3)))
    w = PartyWeights.of([1, 2])
    for n_from, n_to in ((1200, 1290), (1250, 1330)):
        calls.clear()
        ends.clear()
        passes.clear()
        _assert_rows(method, w, n_from, n_to, POLICIES[:1])
        assert len(calls) == len(ends) == 1
        assert len(passes) >= n_to - n_from


def test_exact_pairs_equal_exact_pair():
    names = ("webster", "dhondt", "adams", "huntington", "dean", "adjusted-sainte-lague", "cambridge")
    families = {name: method_by_name(name).signposts for name in names}
    families["geometric3/2"] = SignpostSequence.geometric(Fraction(3, 2))
    families["capped"] = SignpostSequence.table([0, 1, Fraction(5, 2)], cap=3)
    families["tiny-beta"] = SignpostSequence.linear(Fraction(7, 10**18))  # n*den passes 2**63
    # the first n whose closed form leaves int64 (|a(n)| or |a(0)| + n*|b(n)| reaches 2**63);
    # n(n - 1) reaches 2**63 at n = 3 037 000 501, and d'Hondt's n*1 stays within int64
    past = {"webster": 2**62, "dhondt": 2**63, "adams": 2**63 - 1, "huntington": 3_037_000_501,
            "dean": 2**31 + 1, "cambridge": 2**63 - 6, "tiny-beta": 9}
    gaps = np.array([41, 7, 0, 300, 7, 1, 41, 2])  # unsorted, repeated and gapped: running products skip
    for name, sp in families.items():
        large = np.array([0, 1, 2, 3 * 10**9, 10**12, 2**40 + 1])  # 2n**2 passes 2**63
        edge = [n for n in (past[name] - 2, past[name] - 1, past[name]) if n < 2**63] if name in past else []
        linear_like = sp.asymptotic_beta() is not None
        for ns in (np.arange(300), gaps, large, np.array([0, 1] + edge)) if linear_like else (np.arange(300), gaps):
            a, b = sp.exact_pairs(ns)
            assert list(zip(a.tolist(), b.tolist())) == [sp.exact_pair(int(n)) for n in ns]
        for n in edge:  # one entry at a time: int64 below the bound, Python ints past it
            a, b = sp.exact_pairs(np.array([n]))
            assert (a.tolist(), b.tolist()) == tuple([x] for x in sp.exact_pair(n))
            assert a.dtype == b.dtype == (np.int64 if n < past[name] else object)
