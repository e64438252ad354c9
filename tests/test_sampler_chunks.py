"""Chunked limit-law samplers against their whole-array formulas.

The ``whole_*`` helpers draw each limit law the way the samplers did before
they drew in chunks: every uniform of the batch in one array, the categories
from ``Generator.choice``, and the row arithmetic on whole-array
temporaries.  They are kept as the references that the chunked samplers of
``apportion.samplers`` must reproduce byte for byte, for every size around
the chunk's row count.
"""

import tracemalloc

import numpy as np
import pytest

from apportion import InputError
from apportion.methods import linear_divisor, quota_method
from apportion.samplers import (
    _chunk_rows,
    sample_adams_divergence,
    sample_divergence_clt,
    sample_excess_joint_divisor,
    sample_excess_marginal,
    sample_jefferson_divergence,
    sample_uniform_simplex,
)


def whole_joint(p, beta, seed, n):
    p = np.asarray(p)
    m = p.size
    rng = np.random.default_rng(seed)
    j = rng.choice(m, size=n, p=p)
    u = rng.uniform(size=(n, m))
    v = u.copy()
    v[np.arange(n), j] = 0.0
    x = p * v.sum(axis=1, keepdims=True) - v + (beta - 1.0) * (m * p - 1.0)
    return x, u, j


def whole_jefferson(p, seed, n):
    rng = np.random.default_rng(seed)
    j = rng.choice(len(p), size=n, p=p)
    u = rng.uniform(size=(n, len(p)))
    u[np.arange(n), j] = 0.0
    return u.sum(axis=1), u, j


def whole_adams(p, seed, n):
    p = np.asarray(p)
    rng = np.random.default_rng(seed)
    j = rng.choice(p.size, size=n, p=p)
    v = rng.uniform(size=(n, p.size))
    v[np.arange(n), j] = 0.0
    return p.size - v.sum(axis=1) - ((1.0 - v) / p).min(axis=1), v, j


def whole_marginal(bias, scale, m, seed, n):
    u = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, m - 1))
    return bias + u[:, 0] + scale * u[:, 1:].sum(axis=1), u


def whole_clt(p, beta, n, seed):
    p = np.asarray(p)
    m = p.size
    u = np.random.default_rng(seed).uniform(beta - 1.0, beta, size=(n, m))
    draws = (u * u / p).sum(axis=1) - u.sum(axis=1) ** 2
    b = beta - 0.5
    a_m, b_m, c_m = np.sum(1.0 / p), np.sum(1.0 / p**2), np.sum((1.0 / p - m) ** 2)
    mean = a_m / 12.0 + (a_m - m * m) * b * b
    sd = np.sqrt(b_m / 180.0 + b * b * c_m / 3.0)
    return draws, (draws - mean) / sd


def whole_simplex(m, n, rng):
    g = rng.standard_exponential(size=(n, m))
    return g / g.sum(axis=1, keepdims=True)


def shares(m):
    p = np.random.default_rng(100 + m).dirichlet(np.ones(m))
    return p / p.sum()


def sizes(m):
    r = _chunk_rows(m)
    return sorted({1, r - 1, r, r + 1, 3 * r + 5} - {0})


def same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


MS = (2, 3, 8, 9, 13)
BETAS = (0.0, 0.3, 0.5, 1.0)


@pytest.mark.parametrize("m", MS)
def test_joint_draws_equal_the_whole_array_formula(m):
    p = shares(m)
    for k, beta in enumerate(BETAS):
        for n in sizes(m):
            x, _, _ = whole_joint(p, beta, 7 * k + n, n)
            assert same(sample_excess_joint_divisor(p, beta, seed=7 * k + n, size=n), x), (beta, n)
        x, u, j = whole_joint(p, beta, k, 1)
        s = sample_excess_joint_divisor(p, beta, seed=k)
        assert same(s.values, x[0]) and same(s.auxiliary["u"], u[0]) and s.auxiliary["category"] == j[0]


@pytest.mark.parametrize("m", MS)
def test_divergence_draws_equal_the_whole_array_formulas(m):
    p = shares(m)
    for n in sizes(m):
        assert same(sample_jefferson_divergence(p, seed=n, size=n), whole_jefferson(p, n, n)[0]), n
        assert same(sample_adams_divergence(p, seed=n, size=n), whole_adams(p, n, n)[0]), n
    vals, u, j = whole_jefferson(p, 3, 1)
    s = sample_jefferson_divergence(p, seed=3)
    assert same(s.values, vals) and same(s.auxiliary["u"], u[0]) and s.auxiliary["category"] == j[0]
    vals, v, j = whole_adams(p, 4, 1)
    s = sample_adams_divergence(p, seed=4)
    assert same(s.values, vals) and same(s.auxiliary["v"], v[0]) and s.auxiliary["category"] == j[0]


@pytest.mark.parametrize("m", MS)
def test_marginal_draws_equal_the_whole_array_formula(m):
    p_i = shares(m)[0]
    for beta in BETAS:
        method = linear_divisor(beta)
        bias = (beta - 0.5) * (m * p_i - 1.0)
        for n in sizes(m):
            vals, _ = whole_marginal(bias, p_i, m, n, n)
            assert same(sample_excess_marginal(method, p_i, m, seed=n, size=n), vals), (beta, n)
    vals, u = whole_marginal(1.0 * (p_i - 1.0 / m), 1.0 / m, m, 5, 1)
    s = sample_excess_marginal(quota_method(1), p_i, m, seed=5)
    assert same(s.values, vals[:1]) and same(s.auxiliary["u_centered"], u[0])


@pytest.mark.parametrize("m", MS)
def test_clt_and_simplex_draws_equal_the_whole_array_formulas(m):
    p = shares(m)
    for beta in BETAS:
        for n in sizes(m):
            raw, standard = whole_clt(p, beta, n, n)
            assert same(sample_divergence_clt(p, beta, n, seed=n, standardize=False), raw), (beta, n)
            assert same(sample_divergence_clt(p, beta, n, seed=n), standard), (beta, n)
    for n in sizes(m):
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        assert same(sample_uniform_simplex(m, n, a), whole_simplex(m, n, b)), n
        assert same(a.random(3), b.random(3))  # both leave the stream at the same place


def test_empty_batches_keep_their_shapes():
    assert sample_excess_joint_divisor((0.5, 0.5), 0.5, seed=0, size=0).shape == (0, 2)
    assert sample_jefferson_divergence((0.5, 0.5), seed=0, size=0).shape == (0,)
    assert sample_divergence_clt((0.5, 0.5), 0.5, 0, seed=0).shape == (0,)


def _peak(draw):
    tracemalloc.start()
    try:
        out = draw()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


MIB = 1 << 20


def test_joint_sampler_peaks_at_its_output_plus_one_value_per_draw():
    n, p = 200_000, shares(8)
    x, peak = _peak(lambda: sample_excess_joint_divisor(p, 0.5, seed=1, size=n))
    assert peak <= x.nbytes + 8 * n + 2 * MIB, (peak, x.nbytes)


@pytest.mark.parametrize("sampler", [sample_jefferson_divergence, sample_adams_divergence])
def test_divergence_samplers_peak_at_two_values_per_draw(sampler):
    n, p = 200_000, shares(8)
    _, peak = _peak(lambda: sampler(p, seed=1, size=n))
    assert peak <= 16 * n + 2 * MIB, peak


BAD_SIZES = (-1, 2.7, 3.0, "4", True)
SAMPLER_CALLS = {
    "joint": lambda n: sample_excess_joint_divisor((0.5, 0.5), 0.5, seed=0, size=n),
    "marginal": lambda n: sample_excess_marginal(linear_divisor(1), 0.5, 2, seed=0, size=n),
    "jefferson": lambda n: sample_jefferson_divergence((0.5, 0.5), seed=0, size=n),
    "adams": lambda n: sample_adams_divergence((0.5, 0.5), seed=0, size=n),
    "clt": lambda n: sample_divergence_clt((0.5, 0.5), 0.5, n, seed=0),
    "simplex": lambda n: sample_uniform_simplex(2, n, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", sorted(SAMPLER_CALLS))
def test_sampler_sizes_must_be_nonnegative_integers(name):
    call = SAMPLER_CALLS[name]
    for bad in BAD_SIZES:
        with pytest.raises(InputError, match="nonnegative integer"):
            call(bad)
    assert len(call(np.int64(3))) == 3


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_shares_are_refused(bad):
    with pytest.raises(InputError):
        sample_excess_joint_divisor((0.5, bad, 0.5), 0.5, seed=0, size=2)
