"""The block kernels of float sweeps against their references.

``allocation._remainder_rows`` (one value sort per row) must equal the
double-argsort rule of ``conftest.argsort_remainder_rows``; the default
violation path of ``SweepStats.record_batch`` must equal per-column counts;
``apparentement_sweep`` must give the same moments, bit for bit, whatever
its block size, and stay within a memory bound; and the one-pass fill of
``SignpostSequence._float_table`` must equal ``_float_divisor`` entry by
entry, and end at its first nan however many fills grew it.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import apportion.harness as harness
from apportion import InputError, PartyWeights, SignpostSequence, method_by_name
from apportion.allocation import _remainder_rows
from apportion.harness import apparentement_sweep, sqrt_shares
from apportion.stats import SweepStats
from conftest import argsort_remainder_rows

# -- the largest-remainder row kernel ----------------------------------------------


def _rows(rng, m, kind, k=600):
    """Floors, remainders and houses of k rows with many equal remainders and
    a third of the rows at t = 0 (no seat left over)."""
    if kind == "float":
        rem = np.floor(rng.random((k, m)) * 20) / 20  # multiples of 1/20
    else:
        rem = rng.integers(0, 7, (k, m))
        if kind == "object":
            rem = rem.astype(object) * 10**20  # Python ints past int64
    base = rng.integers(-3, 50, (k, m))
    t = rng.integers(0, m, k)
    t[::3] = 0
    houses = base.sum(axis=1) + t + m * rng.integers(-2, 3, k)
    return base, rem, houses


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16, 50, 100, 130])
@pytest.mark.parametrize("kind", ["float", "int64", "object"])
def test_remainder_rows_equal_the_argsort_rule(m, kind):
    rng = np.random.default_rng(m)
    base, rem, houses = _rows(rng, m, kind)
    tols = [0] if kind != "float" else [0.0, 0.03 * rng.random(houses.size)]  # zero, or a bound per row
    for tol in tols:
        got = _remainder_rows(base.copy(), rem, houses, tol)
        want = argsort_remainder_rows(base.copy(), rem, houses, tol)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got[1].size  # the corpus has tied rows


# -- SweepStats.record_batch ----------------------------------------------------------


def test_record_batch_default_path_equals_per_column_counts():
    one = np.nextafter(1.0, 0.0)  # the largest float below 1
    edge = [-1.0, 1.0, -one, one, 0.0, -0.0, -5.0, 7.5, 0.25, -0.75]
    rng = np.random.default_rng(5)
    deltas = rng.choice(edge, size=(400, 6))
    deltas[::7] = [1.0, -1.0, 2.0, -3.0, one, -one]  # rows that violate quota in several parties
    deltas[1::11] = 0.0  # rows with no violation
    bounds = [(-1.5, 1.5)] * 6  # -5 and 7.5 land past both ends
    stats = SweepStats.empty(6, bounds, 0.25)
    for part in np.array_split(deltas, 3):
        stats.record_batch(part)

    lower = [(deltas[:, i] <= -1.0).sum() for i in range(6)]
    upper = [(deltas[:, i] >= 1.0).sum() for i in range(6)]
    any_row = sum((np.abs(row) >= 1.0).any() for row in deltas)
    hist = stats.histogram
    counts = [
        np.bincount(np.clip(((deltas[:, i] - hist.low[i]) / hist.bin_width).astype(int), 0, hist.n_bins - 1),
                    minlength=hist.n_bins)
        for i in range(6)
    ]
    assert stats.lower_violations.tolist() == lower
    assert stats.upper_violations.tolist() == upper
    assert stats.any_violation == any_row
    assert np.array_equal(hist.counts, counts)
    assert hist.counts[:, 0].sum() > 0 and hist.counts[:, -1].sum() > 0
    explicit = SweepStats.empty(6)
    explicit.record_batch(deltas, lower=deltas <= -1.0, upper=deltas >= 1.0, any_violation=float(any_row))
    assert explicit.lower_violations.tolist() == lower and explicit.upper_violations.tolist() == upper


# -- apparentement sweeps in blocks ---------------------------------------------------


@pytest.mark.parametrize("name", ["webster", "hamilton", "droop"])
def test_apparentement_moments_do_not_depend_on_the_block(name, monkeypatch):
    method, w = method_by_name(name), PartyWeights.of(sqrt_shares(8))
    # 1..70 000 spans two default blocks; 65 000..66 000 crosses house 65 536 in blocks of 7
    for block, (lo, hi) in ((4096, (1, 70_000)), (7, (65_000, 66_000))):
        want = apparentement_sweep(method, w, 0, 7, lo, hi).moments
        monkeypatch.setattr(harness, "_FLOAT_BLOCK", block)
        got = apparentement_sweep(method, w, 0, 7, lo, hi).moments
        monkeypatch.undo()
        assert got.count == want.count and (hi - lo < 65_536 or want.count > 65_536)
        assert got.mean.tobytes() == want.mean.tobytes()
        assert got.comoment.tobytes() == want.comoment.tobytes()


def test_apparentement_sweep_memory_stays_bounded():
    method, w = method_by_name("hamilton"), PartyWeights.of(sqrt_shares(8))
    tracemalloc.start()
    try:
        apparentement_sweep(method, w, 0, 7, 1, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 50 * 2**20, f"peak {peak / 2**20:.1f} MB"


# -- the float signpost table -------------------------------------------------------


TABLE_FAMILIES = {
    "estonia": SignpostSequence.power(0.9),
    "power-150": SignpostSequence.power(150.0),  # n**150 overflows a float from n = 114
    "geometric1.1": SignpostSequence.geometric(1.1),  # overflows from n = 7449
    "geometric-3/2": SignpostSequence.geometric(Fraction(3, 2)),  # overflows from n = 1752
    "capped600": SignpostSequence.table([Fraction(k, 3) + 1 for k in range(600)], cap=600),
    "capped-float": SignpostSequence.table([0, 1, 2.5, 4], cap=3),
    "tail": SignpostSequence.table([0.5, 1.5, 2.5], tail_beta=0.75),
    "fraction-tail": SignpostSequence.table([0, 1, Fraction(5, 2)], tail_beta=Fraction(8, 3)),
}


@pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
def test_float_table_equals_float_divisor(family):
    sp = TABLE_FAMILIES[family]
    fresh = SignpostSequence(sp.kind, sp.beta, sp.exponent, sp.ratio, sp.values, sp.cap, sp.tail_beta)
    fresh._float_table(100)  # 101 entries, then grown past the float range
    table = fresh._float_table(9000)
    want = np.array([sp._float_divisor(n) for n in range(table.size)])
    assert table.tobytes() == want.tobytes()  # bit for bit, nan tail included
    if family in ("power-150", "geometric1.1", "geometric-3/2"):
        assert np.isnan(table[-1]) and not np.isnan(table[1])


@pytest.mark.parametrize("fills", [(100,), (21, 100), (21, 64, 100), (63, 64, 127)])
def test_float_table_ends_at_its_first_nan_across_fills(fills):
    # d(2) = 10**400 leaves the float range, and the capped table's +inf
    # after it must not count as within the range
    sp = SignpostSequence.table([1, Fraction(10**400)], cap=2)
    for n in fills:
        sp._float_table(n)
    assert sp.float_limit(100) == sp.float_limit(2) == 1
    assert np.isnan(sp._float_table(100)[2:]).all()
    assert sp.figures(2.0, [0, 1]).tolist() == [np.inf, 2.0]
    for n in (2, 64, 100):
        with pytest.raises(InputError, match="float range"):
            sp.figures(2.0, [1, n])


@pytest.mark.parametrize(
    "ratio, fills", [(Fraction(1001, 1000), (1, 64, 700, 3000)), (Fraction(3, 2), (100, 1751, 9000))]
)
def test_geometric_fraction_table_equals_the_per_entry_quotients(ratio, fills):
    # one exact product per step, against float(ratio ** (n - 1)) afresh;
    # ratio 3/2 leaves the float range from n = 1752
    sp = SignpostSequence.geometric(ratio)
    for n in fills:
        sp._float_table(n)
    table = sp._float_table(fills[-1])
    want = np.array([sp._float_divisor(n) for n in range(table.size)])
    assert np.array_equal(table, want, equal_nan=True)
    assert sp.float_limit(fills[-1]) == (1751 if ratio == Fraction(3, 2) else fills[-1])
