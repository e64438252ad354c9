import numpy as np
import scipy.stats as st

from apportion.asymptotics import excess_bounds, predict_bias, predict_variance
from apportion.methods import linear_divisor, quota_method
from apportion.samplers import (
    LimitSample,
    sample_adams_divergence,
    sample_divergence_clt,
    sample_excess_joint_divisor,
    sample_excess_marginal,
    sample_jefferson_divergence,
    sample_uniform_simplex,
)
from apportion.violation import irwin_hall_cdf

P3 = (0.5, 0.3, 0.2)


def test_joint_draw_sums_to_zero_and_stays_in_bounds():
    x = sample_excess_joint_divisor(P3, 1.0, seed=1, size=50_000)
    assert np.allclose(x.sum(axis=1), 0.0, atol=1e-12)
    for (lo, hi), col in zip(excess_bounds(linear_divisor(1), P3), x.T):
        assert col.min() >= lo - 1e-9 and col.max() <= hi + 1e-9


def test_joint_matches_moments():
    x = sample_excess_joint_divisor(P3, 1.0, seed=2, size=400_000)
    assert np.allclose(x.mean(axis=0), predict_bias(linear_divisor(1), P3), atol=0.003)
    assert np.allclose(x.var(axis=0), predict_variance(linear_divisor(1), P3), atol=0.003)


def test_two_parties_are_antisymmetric():
    x = sample_excess_joint_divisor((0.7, 0.3), 0.5, seed=3, size=1000)
    assert np.allclose(x[:, 0], -x[:, 1])


def test_joint_vs_marginal_distribution_agreement():
    joint = sample_excess_joint_divisor(P3, 1.0, seed=4, size=100_000)[:, 0]
    marg = sample_excess_marginal(linear_divisor(1), P3[0], 3, seed=5, size=100_000)
    ks = st.ks_2samp(joint, marg)
    assert ks.statistic < 0.01


def test_single_draw_carries_auxiliary():
    s = sample_excess_joint_divisor(P3, 1.0, seed=6)
    assert isinstance(s, LimitSample)
    assert s.auxiliary["category"] in (0, 1, 2)
    assert abs(s.values.sum()) < 1e-12


def test_marginal_quota_two_parties_uniform():
    y = sample_excess_marginal(quota_method(0), 0.5, 2, seed=7, size=100_000)
    ks = st.kstest(y, st.uniform(loc=-0.5, scale=1.0).cdf)
    assert ks.statistic < 0.01
    assert y.min() > -0.5 and y.max() < 0.5


def test_marginal_webster_symmetric():
    y = sample_excess_marginal(linear_divisor(0.5), 0.3, 5, seed=8, size=200_000)
    assert abs(y.mean()) < 0.003
    assert abs(np.mean(y**3)) < 0.003


def test_jefferson_divergence_is_uniform_sum():
    s = sample_jefferson_divergence(P3, seed=9, size=100_000)
    ks = st.kstest(s, lambda x: irwin_hall_cdf(x, 2))
    assert ks.statistic < 0.01
    assert abs(s.mean() - 1.0) < 0.01


def test_adams_divergence_mean():
    # mean (m-1)/2 regardless of shares
    for p in (P3, (0.6, 0.25, 0.15)):
        s = sample_adams_divergence(p, seed=10, size=400_000)
        assert abs(s.mean() - 1.0) < 0.01


def test_adams_vs_jefferson_two_parties_same_law():
    sa = sample_adams_divergence((0.6, 0.4), seed=11, size=100_000)
    sj = sample_jefferson_divergence((0.6, 0.4), seed=12, size=100_000)
    assert st.ks_2samp(sa, sj).statistic < 0.01


def test_divergence_clt_standardization():
    # the pinned standardization drops a mean term of order m, so the
    # standardized mean sits at -(m/12)/sd and fades only as m grows
    m = 50
    z = sample_divergence_clt([1 / m] * m, 0.5, 20_000, seed=13)
    shift = -(m / 12) / np.sqrt(m**3 / 180)
    assert abs(z.mean() - shift) < 0.05
    assert abs(z.var() - 1.0) < 0.05


def test_divergence_clt_normality_large_m():
    z = sample_divergence_clt([1 / 200] * 200, 0.5, 10_000, seed=0)
    assert st.kstest(z, "norm").statistic < 0.05


def test_uniform_simplex_sampler():
    rng = np.random.default_rng(14)
    p = sample_uniform_simplex(4, 200_000, rng)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(p.mean(axis=0), 0.25, atol=0.002)
    # marginal of a uniform simplex coordinate is Beta(1, m-1)
    ks = st.kstest(p[:, 0], st.beta(1, 3).cdf)
    assert ks.statistic < 0.005


def test_adams_vs_jefferson_three_parties_reported_not_assumed():
    # whether the two divergence limits share one law beyond two parties is
    # open; we surface the two-sample statistic without asserting equality
    sa = sample_adams_divergence(P3, seed=15, size=50_000)
    sj = sample_jefferson_divergence(P3, seed=16, size=50_000)
    stat = st.ks_2samp(sa, sj).statistic
    print(f"adams-vs-jefferson limit two-sample KS (m=3): {stat:.4f}")
    assert np.isfinite(stat)


def test_joint_draws_match_the_copying_construction():
    # the batch path zeroes the uniforms in place; the draws stay bit-identical
    def copying(p, beta, seed, n):
        p = np.asarray(p)
        rng = np.random.default_rng(seed)
        j = rng.choice(p.size, size=n, p=p)
        u = rng.uniform(size=(n, p.size))
        v = u.copy()
        v[np.arange(n), j] = 0.0
        return p * v.sum(axis=1, keepdims=True) - v + (beta - 1.0) * (p.size * p - 1.0), u[0], int(j[0])

    x, _, _ = copying(P3, 0.5, 11, 20_000)
    assert sample_excess_joint_divisor(P3, 0.5, seed=11, size=20_000).tobytes() == x.tobytes()
    x, u, j = copying(P3, 0.5, 12, 1)
    s = sample_excess_joint_divisor(P3, 0.5, seed=12)
    assert s.values.tobytes() == x[0].tobytes()
    assert s.auxiliary["category"] == j and s.auxiliary["u"].tobytes() == u.tobytes()
