import numpy as np
import pytest

from apportion.stats import ComparisonReport, ComparisonRow, DeltaHistogram, RunningMoments, SweepStats, _column_means


def test_running_moments_match_numpy():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(5000, 3))
    rm = RunningMoments(3)
    rm.push_batch(xs)
    assert np.allclose(rm.mean, xs.mean(axis=0))
    assert np.allclose(rm.covariance, np.cov(xs.T, bias=True), atol=1e-12)
    assert np.allclose(rm.variance, xs.var(axis=0))


def test_merge_equals_single_pass():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(9000, 4))
    whole = RunningMoments(4)
    whole.push_batch(xs)
    parts = [RunningMoments(4) for _ in range(3)]
    for part, chunk in zip(parts, np.split(xs, [2500, 5200])):
        for row in np.array_split(chunk, 7):
            part.push_batch(row)
    merged = parts[0]
    merged.merge(parts[1])
    merged.merge(parts[2])
    assert merged.count == whole.count
    assert np.allclose(merged.mean, whole.mean, atol=1e-12)
    assert np.allclose(merged.covariance, whole.covariance, atol=1e-10)


def test_merge_associativity():
    rng = np.random.default_rng(2)
    chunks = [rng.normal(size=(k, 2)) for k in (10, 500, 3)]
    left = RunningMoments(2)
    for c in chunks:
        left.push_batch(c)
    a, b, c = (RunningMoments(2) for _ in range(3))
    a.push_batch(chunks[0])
    b.push_batch(chunks[1])
    c.push_batch(chunks[2])
    b.merge(c)
    a.merge(b)
    assert np.allclose(a.covariance, left.covariance, atol=1e-10)


def test_histogram_counts_and_merge():
    h1, h2 = (DeltaHistogram([(-1.0, 1.0)], bin_width=0.5) for _ in range(2))
    for h in (h1, h2):
        h.push_batch(np.array([[-0.9], [-0.2], [0.3], [0.9], [5.0]]))  # last clipped
    h2.merge(h1)
    assert h2.counts.sum() == 10
    assert h1.counts.sum() == 5


def test_sweep_stats_violations():
    s = SweepStats.empty(2)
    s.record_batch(np.array([[0.5, -0.5], [1.2, -1.2], [-0.3, 0.3]]))
    assert s.upper_violations.tolist() == [1.0, 0.0]
    assert s.lower_violations.tolist() == [0.0, 1.0]
    assert s.any_violation == 1.0
    f = s.violation_frequency()
    assert f["any"] == pytest.approx(1 / 3)


def test_comparison_report():
    rows = (
        ComparisonRow("mean", (0,), 0.101, 0.1, 0.01),
        ComparisonRow("mean", (1,), 0.3, 0.1, 0.01),
    )
    rep = ComparisonReport(rows)
    assert not rep.passed
    assert rep.failures() == [rows[1]]
    table = rep.format_table()
    assert "FAIL" in table and "pass" in table
    d = rep.to_dict()
    assert d["passed"] is False and len(d["rows"]) == 2


@pytest.mark.parametrize("m", [1, 2, 3, 8])
def test_column_means_in_tiles_equal_one_running_sum(m):
    # the tiles carry the running sum into their first entry, so any width
    # gives the one running sum's bits; -0.0 rows still have mean 0.0
    rng = np.random.default_rng(m)
    for k in (1, 2, 7, 4097):
        cols = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-6, 7, (m, k))
        cols[0, : k // 2] = -0.0
        want = cols.sum(axis=1) / k if m == 1 else (np.cumsum(cols, axis=1)[:, -1] + 0.0) / k
        for width in (1, 3, 64, k, k + 5):
            assert _column_means(cols, np.empty((m, width))).tobytes() == want.tobytes(), (k, width)
    zeros = np.full((m, 9), -0.0)
    assert _column_means(zeros, np.empty((m, 4))).tobytes() == np.zeros(m).tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (6, 1), (1, 4), (6, 4)])
def test_batches_are_left_as_they_are(shape):
    # the moments centre their party-major copy in place, never the caller's rows
    xs = np.random.default_rng(7).standard_normal(shape)
    before = xs.copy()
    RunningMoments(shape[1]).push_batch(xs)
    SweepStats.empty(shape[1], [(-3.0, 3.0)] * shape[1], 0.5).record_batch(xs)
    assert xs.tobytes() == before.tobytes()
