"""The block kernels of float sweeps against their references.

The kernels take party-major (m, houses) blocks.  ``allocation._remainder_rows``
(ranks counted pair by pair, or a value sort per house with many parties)
must equal the double-argsort rule of ``conftest.argsort_remainder_rows``;
the numpy premises that make the party-major moments bit-identical to the
row-major ones must hold, and ``RunningMoments.push_batch`` must equal its
row-major formula bit for bit; the default violation path of
``SweepStats.record_batch`` must equal per-column counts;
the tiled kernels (``_float_quota_rows``, ``_seat_matrix``,
``DeltaHistogram.push_batch``) must equal their whole-array or per-house
references across tile edges; float sweeps must reproduce recorded
statistics bit for bit; ``apparentement_sweep`` must give the same moments,
bit for bit, whatever its block size; float sweeps must stay within memory
bounds; and the one-pass fill of ``SignpostSequence._float_table`` must
equal ``_float_divisor``, the float of each exact divisor, entry by entry,
and end at its first nan however many fills grew it.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import apportion.harness as harness
from apportion import InputError, PartyWeights, SignpostSequence, TiePolicy, allocate, method_by_name
from apportion.allocation import NEAR_TIE_RTOL, _float_quota_rows, _quota_ideals, _remainder_rows
from apportion.harness import _seat_matrix, apparentement_sweep, sqrt_shares, sweep
from apportion.stats import _NARROW, RunningMoments, SweepStats, _chunk_rows, _column_means, _row_sums
from conftest import argsort_remainder_rows

# -- the largest-remainder row kernel ----------------------------------------------


def _rows(rng, m, kind, k):
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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 8, 9, 16, 50, 100, 130])
@pytest.mark.parametrize("kind", ["float", "int64", "object"])
def test_remainder_rows_equal_the_argsort_rule(m, kind):
    # 29 houses sort every house from m = 2 on, 3600 count ranks up to m = 16,
    # and 600 take the count up to m = 6 and the sort from m = 7
    rng = np.random.default_rng(m)
    for k in (29, 600, 3600):
        base, rem, houses = _rows(rng, m, kind, k)
        tols = [0] if kind != "float" else [0.0, 0.03 * rng.random(houses.size)]  # zero, or a bound per row
        for tol in tols:
            got = _remainder_rows(base.T.copy(), rem.T.copy(), houses, tol)
            got = (got[0].T, got[1], got[2].T, got[3].T)
            want = argsort_remainder_rows(base.copy(), rem, houses, tol)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            assert got[1].size or k == 29 or m == 1  # the corpus has tied rows; one party never ties


# -- the party-major layout: premises of bit-identity --------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 33])
def test_party_major_moment_premises(m):
    # numpy's mean(axis=0) of (k, m) rows sums them one after another from
    # 0.0 for m >= 2 (the last running sum of the party-major rows, plus 0.0)
    # and pairwise for m = 1 (as ``sum`` does a contiguous row), and c.T @ c
    # equals cT @ cT.T bit for bit: a numpy or BLAS change that breaks
    # either would move the sweep outputs, and fails here first
    rng = np.random.default_rng(m)
    for k in (1, 2, 7, 8, 9, 127, 128, 129, 4097, 65_536):
        x = rng.standard_normal((k, m)) * 10.0 ** rng.integers(-6, 7, (k, m))
        cols = np.ascontiguousarray(x.T)
        mean = x.mean(axis=0)
        sums = cols.sum(axis=1) if m == 1 else np.cumsum(cols, axis=1)[:, -1] + 0.0
        assert (sums / k).tobytes() == mean.tobytes(), k
        assert _column_means(cols, np.empty_like(cols)).tobytes() == mean.tobytes(), k
        c, ct = x - mean, cols - mean[:, None]
        assert (c.T @ c).tobytes() == (ct @ ct.T).tobytes(), k
    zeros = np.full((5, m), -0.0)  # the sum starts from 0.0: -0.0 columns have mean 0.0
    assert _column_means(np.ascontiguousarray(zeros.T), np.empty((m, 5))).tobytes() == zeros.mean(axis=0).tobytes()


@pytest.mark.parametrize("m", list(range(1, 41)) + [64, 127, 128, 129, 200, 1000])
def test_row_sums_replay_numpys_pairwise_order(m):
    # numpy's sum(axis=1) adds each row's pairwise sum to 0.0; ``_row_sums`` replays that
    # order on whole columns up to _NARROW values a row (numpy sums wider rows itself):
    # contiguous rows, column-sliced views and rows of -0.0
    rng = np.random.default_rng(m)
    for k in (1, 7, 8192):
        x = rng.standard_normal((k, m + 3)) * 10.0 ** rng.integers(-6, 7, m + 3)
        for rows in (np.ascontiguousarray(x[:, :m]), x[:, 1 : m + 1], x[:, 3:], np.full((k, m), -0.0)):
            assert _row_sums(rows, np.empty(k)).tobytes() == rows.sum(axis=1).tobytes(), k


@pytest.mark.parametrize("m", range(1, _NARROW + 2))
def test_the_sort_network_sorts_as_numpy(m):
    # the network only moves values, so each column of party-major shares comes out as
    # -np.sort(-p, axis=1) sorts its row, repeated values included; past _NARROW np.sort runs
    p = np.round(np.random.default_rng(m).standard_exponential((500, m)) * 4) / 4
    want = np.ascontiguousarray((-np.sort(-p, axis=1)).T)
    assert harness._descending(np.ascontiguousarray(p.T)).tobytes() == want.tobytes()


def test_the_party_major_min_is_the_row_min():
    # the Adams sampler takes min_i (1 - V_i)/p_i over the rows of a party-major copy
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 8, 9, 40):
        v = rng.random((1000, m))
        v[np.arange(1000), rng.integers(0, m, 1000)] = 0.0  # the zeroed category
        p = rng.dirichlet(np.ones(m))
        q = (1.0 - v) / p
        w = np.subtract(1.0, v.T, order="C")
        w /= p[:, None]
        assert w.min(axis=0).tobytes() == q.min(axis=1).tobytes(), m


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_push_batch_equals_the_row_major_moments(m):
    rng = np.random.default_rng(10 + m)
    moments, mean, como, count = RunningMoments(m), np.zeros(m), np.zeros((m, m)), 0.0
    for k in (1, 3, 1000, 65_536, 7):
        xs = rng.standard_normal((k, m)) + rng.integers(-3, 4, (k, m))
        moments.push_batch(xs)
        batch_mean = xs.mean(axis=0)  # the row-major batch moments, merged as ``_combine`` does
        centered = xs - batch_mean
        if count:
            delta, n = batch_mean - mean, count + k
            mean, como = mean + delta * (k / n), como + centered.T @ centered + np.outer(delta, delta) * (count * k / n)
        else:
            mean, como = batch_mean, centered.T @ centered
        count += k
        assert moments.mean.tobytes() == mean.tobytes() and moments.comoment.tobytes() == como.tobytes()


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


# -- tiled kernels across tile edges ---------------------------------------------------


def test_float_quota_rows_across_tiles_equal_per_house_allocate():
    # Droop on (3, 8): (house + 1) is a multiple of 11 at every house, so every
    # row is a near-tie, on both sides of each tile edge
    method, w = method_by_name("droop"), PartyWeights.of([3.0, 8.0])
    shares = np.array([w.shares_float()])
    tile = _chunk_rows(2)
    houses = 54 + 10_967 * np.arange(3 * tile + 5)
    seats, tied, tie, held = _float_quota_rows(shares.T, method.gamma, houses)
    seats, tie, held = seats.T, tie.T, held.T
    # per house: the rows within 8 of each tile edge, and every 101st row
    edges = np.arange(tile, houses.size, tile)
    rows = np.union1d((edges[:, None] + np.arange(-8, 5)).ravel(), np.arange(0, houses.size, 101))
    per_house = [allocate(method, w, int(houses[r])) for r in rows.tolist()]
    assert seats[rows].tolist() == [list(a.seats) for a in per_house]
    assert np.isin(rows, tied).tolist() == [a.tied for a in per_house]
    ideal = _quota_ideals(shares.T, method.gamma, houses)  # the whole array at once
    base = np.floor(ideal)
    tol = NEAR_TIE_RTOL * np.maximum(1.0, houses + float(method.gamma))
    whole = _remainder_rows(base.astype(np.int64), ideal - base, houses, tol)
    for got, want in zip((seats.T, tied, tie.T, held.T), whole):
        assert np.array_equal(got, want)
    assert tied.size == houses.size
    assert _float_quota_rows(shares.T, method.gamma, houses, masks=False)[2:] == (None, None)


@pytest.mark.parametrize("m", [2, 5, 8])
def test_seat_matrix_across_tiles_equals_cumulative_bincount(m):
    rng = np.random.default_rng(m)
    winners = rng.integers(0, m, 3 * _chunk_rows(m) + 5).astype(np.int32)
    base = rng.integers(0, 9, m)
    seats = _seat_matrix(base, winners).T
    cumulative = np.cumsum(np.eye(m, dtype=np.int64)[winners], axis=0)
    assert np.array_equal(seats, np.vstack([base, base + cumulative]))
    for r in range(0, winners.size + 1, _chunk_rows(m)):  # every tile edge, by bincount
        assert np.array_equal(seats[r], base + np.bincount(winners[:r], minlength=m))


def test_histogram_across_tiles_equals_per_column_counts():
    one = np.nextafter(1.0, 0.0)
    edge = [-1.0, 1.0, -one, one, 0.0, -0.0, -5.0, 7.5, 0.25, -0.75]
    deltas = np.random.default_rng(6).choice(edge, size=(3 * _chunk_rows(6) + 5, 6))
    stats = SweepStats.empty(6, [(-1.5, 1.5)] * 6, 0.25)
    stats.record_batch(deltas)
    hist = stats.histogram
    counts = [
        np.bincount(np.clip(((deltas[:, i] - hist.low[i]) / hist.bin_width).astype(int), 0, hist.n_bins - 1),
                    minlength=hist.n_bins)
        for i in range(6)
    ]
    assert np.array_equal(hist.counts, counts)


# -- float sweeps: recorded statistics ------------------------------------------------

# sha256 of (mean, comoment, histogram counts, lower and upper violations,
# any_violation and near_ties) of float sweeps, recorded before the kernels
# ran in tiles; the ranges cross house 65 536 and many tile edges
GOLDEN = {
    "webster-sqrt4-1-70000": "107ce6ceb4b5d69aff9b2a65082569fde5000479c86d2798f1a380367d17ea8e",
    "webster-sqrt4-60000-140017": "69eadafc810fbb940c41a57f79670eb21a3dc46f62daf7aadf37449c68ed5c83",
    "webster-sqrt8-1-70000": "4e0bc67619f983b3858c5577c9021f4ef470552be62bf018b56243a82d0702d0",
    "webster-sqrt8-60000-140017": "04763a33a080ad87398d8d124c1e2ead8f03255614a2975baa9fbacd214c475d",
    "huntington-sqrt4-1-70000": "af7baf7713c06e27d3e463c0c4ce1c85626fc25949eaabbe620b1d25d4232d88",
    "huntington-sqrt4-60000-140017": "2fccb1d6944b44616b749e96810e5c831ecafbe6b5d3eccf897fd39e30b92df9",
    "huntington-sqrt8-1-70000": "ee8b7216b5ca308d697d9103705722a6ab2c83ed7d687d097b4cef3c88a198a7",
    "huntington-sqrt8-60000-140017": "fbdf8461d3a7a7de8bbec01b61603ab69b03b2a1b6faae5d2752e239ffa88af1",
    "estonia-sqrt4-1-70000": "1ad8511bbfe802b639dbda5af60710b0d3d0db74aebbc413368f8ee57d8abb5f",
    "estonia-sqrt4-60000-140017": "13aed5bb27452455daee1711ee7cb74cc7cc16e45458666301f3b154c5bfccfc",
    "estonia-sqrt8-1-70000": "254a42fed82f6288542c70e49ecacd69e0c17fc3de0a8d55f989a2196c8f011f",
    "estonia-sqrt8-60000-140017": "e52cfb29b3017972e2d506c7289e06536b8fae6da3ed782dd5f5ed4948f9ce5b",
    "hamilton-sqrt4-1-70000": "3ed9be6d9810d92ab93409f1edb066429cf619d59a59ba8e73616840642e1aac",
    "hamilton-sqrt4-60000-140017": "67ce2d0ce5b9f3db0ed2b77e6db0b37033ea02bbc7ce1fadaef7ba94a552eda9",
    "hamilton-sqrt8-1-70000": "b4e280f1c5f4aa2331077e4c55aea603e4a237c463912d299268b2cb17f03dec",
    "hamilton-sqrt8-60000-140017": "c0c29805c51c3ff1a7badef204db91a3347eb9b81f352b9ba90b47b5bf53c9ec",
    "droop-sqrt4-1-70000": "d8e95fc58a58fd79feb2c82059828f96e291000fe053e3f4070bc4f9e2e29b99",
    "droop-sqrt4-60000-140017": "cf9e0c3fdce0a3b19b97fdf3848764d348a019932f1f703a225f59c18d566d81",
    "droop-sqrt8-1-70000": "b0c56ba454e81e0866429a5951fd755ec41ebdf9f202087c4e9691510d8b95c9",
    "droop-sqrt8-60000-140017": "96e388301f95156a15f144a070367dd328667b1cf74a99711b2e535c44c01acc",
    # the tie-heavy (2, 1, 1) over houses 1..10**5: near-ties averaged, or only counted
    "webster-211-average": "07ef40133dea4d73b0df7857b236acb81e870b9ba381065e2c4ad2ab24bbc15e",
    "webster-211-enumerate_all": "01f4175dd5957e1c19a47ad91bacf2fe7be4cc3dac317bf9f1b20285567815d3",
    "hamilton-211-average": "3343088c22e744c986225f992c9412db6c66f6d5f327b896a3c4f6f18a16d28a",
    "hamilton-211-enumerate_all": "97633daa1ffc9cb524bf7efc8240bd09413a5bddfba8159d634d7145fa60360e",
}


def _digest(stats) -> str:
    h = hashlib.sha256()
    for a in (
        stats.mean, stats.moments.comoment, stats.histogram.counts, stats.lower_violations,
        stats.upper_violations, np.array([stats.any_violation, stats.near_ties]),
    ):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_float_sweep_statistics_are_bit_identical(case):
    name, weights, *rest = case.split("-")
    if weights == "211":
        w, (lo, hi), policy = PartyWeights.of([2.0, 1.0, 1.0]), (1, 100_000), getattr(TiePolicy, rest[0])()
    else:
        w, (lo, hi), policy = PartyWeights.of(sqrt_shares(int(weights[4:]))), map(int, rest), TiePolicy.average()
    assert _digest(sweep(method_by_name(name), w, lo, hi, policy)) == GOLDEN[case]


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


def _traced_peak(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_apparentement_sweep_memory_stays_bounded():
    method, w = method_by_name("hamilton"), PartyWeights.of(sqrt_shares(8))
    peak = _traced_peak(lambda: apparentement_sweep(method, w, 0, 7, 1, 200_000))
    assert peak <= 32, f"peak {peak:.1f} MB"


def test_float_sweep_memory_stays_bounded():
    # the award sequence of 10**6 houses sets the peak, not the blocks
    method, w = method_by_name("webster"), PartyWeights.of(sqrt_shares(8))
    peak = _traced_peak(lambda: sweep(method, w, 1, 10**6))
    assert peak <= 24, f"peak {peak:.1f} MB"


def test_exact_sweep_memory_stays_bounded():
    # the certified award sequence keeps no float figure past the scan choice
    method, w = method_by_name("webster"), PartyWeights.of([7, 5, 3, 2])
    peak = _traced_peak(lambda: sweep(method, w, 1, 10**6))
    assert peak <= 62, f"peak {peak:.1f} MB"


# -- the float signpost table -------------------------------------------------------


def _float_divisor(sp, n):
    """The float ``sp.figure(v, n)`` divides by, nan past the float range: the
    per-n reference for ``SignpostSequence._float_table``."""
    try:
        return float(sp._figure_divisor(n))
    except OverflowError:
        return math.nan


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
    want = np.array([_float_divisor(sp, n) for n in range(table.size)])
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
    want = np.array([_float_divisor(sp, n) for n in range(table.size)])
    assert np.array_equal(table, want, equal_nan=True)
    assert sp.float_limit(fills[-1]) == (1751 if ratio == Fraction(3, 2) else fills[-1])
