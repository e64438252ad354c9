from fractions import Fraction

import numpy as np
import pytest

from apportion import UnsupportedMethodError
from apportion.asymptotics import (
    apparentement_joint_gain,
    apparentement_party_gain,
    excess_bounds,
    moment_prediction,
    ordered_simplex_covariance,
    ordered_simplex_moments,
    predict_bias,
    predict_covariance,
    predict_divergence_mean,
    predict_ordered_bias,
    predict_ordered_variance,
    predict_variance,
)
from apportion.methods import linear_divisor, method_by_name, quota_method

P3 = (0.5, 0.3, 0.2)


def test_divisor_bias_values():
    assert np.allclose(predict_bias(linear_divisor(1), P3), [0.25, -0.05, -0.20])
    assert np.allclose(predict_bias(linear_divisor(Fraction(1, 2)), P3), 0.0)


def test_small_party_bias_approaches_minus_half():
    p = (1 - 2e-6, 1e-6, 1e-6)
    b = predict_bias(linear_divisor(1), p)
    assert b[1] == pytest.approx(-0.5, abs=1e-4)


def test_quota_bias():
    b = predict_bias(quota_method(1), P3)
    assert np.allclose(b, [1 / 2 - 1 / 3, 0.3 - 1 / 3, 0.2 - 1 / 3])
    assert abs(b.sum()) < 1e-12


def test_quota_variance_landmarks():
    for m, expect in [(2, 1 / 12), (3, 5 / 54), (4, 3 / 32)]:
        v = predict_variance(quota_method(0), [1 / m] * m)
        assert np.allclose(v, expect)


def test_covariance_structure():
    for method in (linear_divisor(1), quota_method(2)):
        cov = predict_covariance(method, (0.4, 0.35, 0.15, 0.1))
        assert np.allclose(cov, cov.T)
        assert np.allclose(cov.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(np.diag(cov), predict_variance(method, (0.4, 0.35, 0.15, 0.1)))


def test_quota_covariance_identity():
    m = 5
    cov = predict_covariance(quota_method(1), [1 / m] * m)
    assert np.allclose(cov[0, 1], -cov[0, 0] / (m - 1))


def test_huntington_and_dean_count_as_half():
    for name in ("huntington", "dean", "adjusted-sainte-lague"):
        method = method_by_name(name)
        assert np.allclose(predict_bias(method, P3), 0.0)


def test_nonlinear_methods_rejected():
    for name in ("estonia", "macau"):
        with pytest.raises(UnsupportedMethodError):
            predict_bias(method_by_name(name), P3)
        with pytest.raises(UnsupportedMethodError):
            excess_bounds(method_by_name(name), P3)


def test_jefferson_bounds_give_lower_quota():
    bounds = excess_bounds(linear_divisor(1), P3)
    for (lo, hi), p in zip(bounds, P3):
        assert lo == pytest.approx(p - 1)
        assert hi == pytest.approx(2 * p)  # (m-1) p at m=3


def test_quota_bounds():
    bounds = excess_bounds(quota_method(0), (0.5, 0.5))
    assert np.allclose(bounds, [(-0.5, 0.5), (-0.5, 0.5)])


def test_webster_small_parties_inside_unit_band():
    m = 6
    p = [0.05, 0.1, 0.15, 0.2, 0.24, 0.26]
    for (lo, hi), pi in zip(excess_bounds(linear_divisor(Fraction(1, 2)), p), p):
        if pi < 1 / (m - 2):
            assert -1 < lo and hi < 1


def test_envelope_bounds_contain_sharp_linear_bounds():
    method = method_by_name("huntington")
    env = excess_bounds(method, P3)
    for beta in (0, Fraction(1, 2)):
        sharp = excess_bounds(linear_divisor(beta), P3)
        for (elo, ehi), (slo, shi) in zip(env, sharp):
            assert elo <= slo + 1e-12 and ehi >= shi - 1e-12


def test_ordered_simplex_moments_m3():
    moms = [ordered_simplex_moments(3, j) for j in (1, 2, 3)]
    assert [m.mean for m in moms] == [Fraction(11, 18), Fraction(5, 18), Fraction(2, 18)]
    assert sum(m.mean for m in moms) == 1
    assert all(m.variance > 0 for m in moms)
    expect = [
        [Fraction(13, 648), Fraction(-8, 648), Fraction(-5, 648)],
        [Fraction(-8, 648), Fraction(7, 648), Fraction(1, 648)],
        [Fraction(-5, 648), Fraction(1, 648), Fraction(4, 648)],
    ]
    got = [[ordered_simplex_covariance(3, j, k) for k in (1, 2, 3)] for j in (1, 2, 3)]
    assert got == expect


def test_ordered_means_decrease():
    means = [ordered_simplex_moments(6, j).mean for j in range(1, 7)]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_ordered_bias_polya_values():
    got = [predict_ordered_bias(linear_divisor(1), 3, j) for j in (1, 2, 3)]
    assert np.allclose(got, [5 / 12, -1 / 12, -4 / 12])
    got = [predict_ordered_bias(quota_method(1), 3, j) for j in (1, 2, 3)]
    assert np.allclose(got, [5 / 18, -1 / 18, -4 / 18])


def test_ordered_variances():
    got = [predict_ordered_variance(linear_divisor(Fraction(1, 2)), 3, j) for j in (1, 2, 3)]
    assert np.allclose(got, [301 / 2592, 235 / 2592, 220 / 2592])
    # beta-dependent and gamma-dependent terms
    assert predict_ordered_variance(linear_divisor(1), 3, 1) == pytest.approx(301 / 2592 + 13 / 72 / 4)
    assert predict_ordered_variance(quota_method(1), 3, 1) == pytest.approx(5 / 54 + 13 / 648)


def test_apparentement_gains():
    assert apparentement_joint_gain(linear_divisor(1), 1e-9, 1e-9, 4) == pytest.approx(0.5, abs=1e-6)
    assert apparentement_joint_gain(quota_method(1), 0.2, 0.3, 3) == pytest.approx(1 / 6)
    assert apparentement_joint_gain(quota_method(1), 0.2, 0.3, 5) == pytest.approx(0.15)
    assert apparentement_joint_gain(linear_divisor(Fraction(1, 2)), 0.2, 0.3, 5) == 0.0


def test_party_gain_is_conjectured_and_additive():
    gi = apparentement_party_gain(linear_divisor(1), 0.1, 0.2, 4)
    gj = apparentement_party_gain(linear_divisor(1), 0.2, 0.1, 4)
    assert gi.conjectured and gj.conjectured
    assert gi + gj == pytest.approx(apparentement_joint_gain(linear_divisor(1), 0.1, 0.2, 4))


def test_quota_party_gain_can_be_negative():
    # a party below the (m-1)/(2m) weight share of its coalition loses
    g = apparentement_party_gain(quota_method(1), 0.10, 0.20, 4)
    assert 0.10 / 0.30 < 3 / 8
    assert g < 0


def test_divergence_means():
    m = 4
    eq = [1 / m] * m
    assert predict_divergence_mean(linear_divisor(Fraction(1, 2)), eq, "sainte_lague") == pytest.approx(
        (m * m + m - 2) / 12
    )
    assert predict_divergence_mean(linear_divisor(1), eq, "jefferson") == pytest.approx((m - 1) / 2)
    assert predict_divergence_mean(linear_divisor(0), eq, "adams") == pytest.approx((m - 1) / 2)
    assert predict_divergence_mean(quota_method(0), eq, "sum_squares") == pytest.approx(
        (m + 2) * (m - 1) / (12 * m)
    )
    with pytest.raises(UnsupportedMethodError):
        predict_divergence_mean(linear_divisor(Fraction(1, 2)), eq, "jefferson")


@pytest.mark.parametrize("method", [linear_divisor(1), linear_divisor(0), linear_divisor(Fraction(3, 10)),
                                    linear_divisor(0.8), quota_method(1), quota_method(Fraction(-7, 10))],
                         ids=["dhondt", "adams", "beta-0.3", "beta-0.8", "droop", "gamma--0.7"])
def test_divergence_means_are_second_moments_on_unequal_shares(method):
    # E sum Delta_i^2 / p_i and E sum Delta_i^2 are sums of var_i + bias_i^2: every branch, with beta != 1/2 or gamma != 0
    p = np.array([0.4, 0.3, 0.2, 0.1])
    second = predict_variance(method, p) + predict_bias(method, p) ** 2
    assert np.abs(predict_bias(method, p)).max() > 0.05
    assert predict_divergence_mean(method, p, "sainte_lague") == pytest.approx((second / p).sum(), abs=1e-12)
    assert predict_divergence_mean(method, p, "sum_squares") == pytest.approx(second.sum(), abs=1e-12)


def test_moment_prediction_bundle():
    mp = moment_prediction(quota_method(1), P3)
    assert np.allclose(np.diag(mp.covariance), mp.variance)
    assert abs(mp.mean.sum()) < 1e-12
