"""Closed-form asymptotic predictions for the seat excess.

Under a house size drawn uniformly from {1..N} with N large (equivalently,
fixed large house size with shares drawn from the simplex), the seat excess
Delta_i = s_i - house * p_i of each party converges in distribution.  This
module encodes the limit's mean, variance, covariance, deterministic bounds,
order-statistics versions for random shares, coalition (apparentement)
gains, and goodness-of-fit divergence means.

Divisor formulas require an asymptotically linear signpost family
d(n) = n - 1 + beta + o(1); the square-root and harmonic pair families count
as beta = 1/2, while power and geometric signposts are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, UnsupportedMethodError
from .methods import DivisorMethod, Method, QuotaMethod

JEFFERSON_FUNCTIONAL = "jefferson"
ADAMS_FUNCTIONAL = "adams"
SAINTE_LAGUE_FUNCTIONAL = "sainte_lague"
SUM_SQUARES_FUNCTIONAL = "sum_squares"


def _shares_array(p) -> np.ndarray:
    arr = np.asarray([float(x) for x in p], dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise InputError("shares must be a 1-d sequence")
    if not np.all(arr > 0):  # also refuses nan
        raise InputError("shares must be positive")
    if abs(arr.sum() - 1.0) > 1e-9:
        raise InputError(f"shares must sum to 1, got {arr.sum()!r}")
    return arr


def effective_beta(method: Method) -> float:
    """The linear-family parameter the asymptotics depend on."""
    if not isinstance(method, DivisorMethod):
        raise UnsupportedMethodError("divisor formula applied to a quota method")
    beta = method.signposts.asymptotic_beta()
    if beta is None:
        raise UnsupportedMethodError(
            f"no asymptotically linear form for {method.signposts.kind} signposts"
        )
    return float(beta)


def predict_bias(method: Method, p) -> np.ndarray:
    """Asymptotic mean seat excess per party; sums to zero."""
    p = _shares_array(p)
    m = p.size
    if isinstance(method, DivisorMethod):
        beta = effective_beta(method)
        return (beta - 0.5) * (m * p - 1.0)
    gamma = float(method.gamma)
    return gamma * (p - 1.0 / m)


def predict_variance(method: Method, p) -> np.ndarray:
    """Asymptotic variance of the seat excess per party."""
    p = _shares_array(p)
    m = p.size
    if isinstance(method, DivisorMethod):
        effective_beta(method)  # validates the family
        return (1.0 + (m - 2) * p**2) / 12.0
    return np.full(m, (m + 2) * (m - 1) / (12.0 * m * m))


def predict_covariance(method: Method, p) -> np.ndarray:
    """Asymptotic covariance matrix of the seat excess; rows sum to zero."""
    p = _shares_array(p)
    m = p.size
    if isinstance(method, DivisorMethod):
        effective_beta(method)
        cov = ((m - 2) * np.outer(p, p) - p[:, None] - p[None, :]) / 12.0
        np.fill_diagonal(cov, (1.0 + (m - 2) * p**2) / 12.0)
        return cov
    var = (m + 2) * (m - 1) / (12.0 * m * m)
    cov = np.full((m, m), -(m + 2) / (12.0 * m * m))
    np.fill_diagonal(cov, var)
    return cov


@dataclass(frozen=True)
class MomentPrediction:
    """Bundled asymptotic mean/variance/covariance for one method and shares."""

    mean: np.ndarray
    variance: np.ndarray
    covariance: np.ndarray


def moment_prediction(method: Method, p) -> MomentPrediction:
    return MomentPrediction(
        predict_bias(method, p), predict_variance(method, p), predict_covariance(method, p)
    )


def excess_bounds(method: Method, p) -> list[tuple[float, float]]:
    """Deterministic per-party bounds on the seat excess (above the guard).

    Linear divisor families get the sharp bounds; sequences that merely stay
    within a linear envelope n-1+lo <= d(n) <= n-1+hi get the (looser) bound
    derived from the multiplier characterization.
    """
    p = _shares_array(p)
    m = p.size
    if isinstance(method, QuotaMethod):
        gamma = float(method.gamma)
        mid = gamma * (p - 1.0 / m)
        half = (m - 1) / m
        return [(mu - half, mu + half) for mu in mid]
    sp = method.signposts
    env = sp.beta_envelope()
    if env is None:
        raise UnsupportedMethodError(
            f"no deterministic excess bound for {sp.kind} signposts"
        )
    lo_b, hi_b = float(env[0]), float(env[1])
    if lo_b == hi_b:
        beta = lo_b
        return [
            (
                pi - 1 + (beta - 1) * (m * pi - 1),
                (beta - 1) * (m * pi - 1) + (m - 1) * pi,
            )
            for pi in p
        ]
    return [(-(pi * m * (1 - lo_b) + hi_b), pi * m * hi_b + 1 - lo_b) for pi in p]


# -- order statistics on the simplex ---------------------------------------


@dataclass(frozen=True)
class OrderedSimplexMoments:
    """Moments of the j-th largest share under the uniform simplex (exact)."""

    m: int
    j: int
    mean: Fraction
    second_moment: Fraction
    variance: Fraction

    def covariance(self, k: int) -> Fraction:
        return ordered_simplex_covariance(self.m, self.j, k)


def _harmonic_tail(m: int, j: int, power: int = 1) -> Fraction:
    return sum((Fraction(1, i**power) for i in range(j, m + 1)), Fraction(0))


def _check_rank(m: int, j: int):
    if not 1 <= j <= m:
        raise InputError(f"rank {j} out of range for {m} parties")


def ordered_simplex_moments(m: int, j: int) -> OrderedSimplexMoments:
    """Mean/variance of the j-th largest of m uniform simplex shares."""
    _check_rank(m, j)
    s1 = _harmonic_tail(m, j)
    s2 = _harmonic_tail(m, j, 2)
    mean = s1 / m
    second = (s2 + s1 * s1) / (m * (m + 1))
    variance = second - mean * mean
    return OrderedSimplexMoments(m, j, mean, second, variance)


def ordered_simplex_covariance(m: int, j: int, k: int) -> Fraction:
    """Covariance of the j-th and k-th largest shares (exact)."""
    _check_rank(m, j)
    _check_rank(m, k)
    inner = max(j, k)  # the smaller share controls the shared waiting times
    s2 = _harmonic_tail(m, inner, 2)
    return Fraction(1, m * (m + 1)) * s2 - Fraction(1, m * m * (m + 1)) * _harmonic_tail(
        m, j
    ) * _harmonic_tail(m, k)


def predict_ordered_bias(method: Method, m: int, j: int) -> float:
    """Asymptotic mean excess of the j-th largest party, shares uniform."""
    _check_rank(m, j)
    s1 = _harmonic_tail(m, j)
    if isinstance(method, DivisorMethod):
        beta = effective_beta(method)
        return (beta - 0.5) * float(s1 - 1)
    return float(method.gamma) / m * float(s1 - 1)


def predict_ordered_variance(method: Method, m: int, j: int) -> float:
    """Asymptotic variance of the excess of the j-th largest party."""
    mom = ordered_simplex_moments(m, j)
    if isinstance(method, DivisorMethod):
        beta = effective_beta(method)
        return float(
            Fraction(1, 12) * (1 + (m - 2) * mom.second_moment)
        ) + (beta - 0.5) ** 2 * m * m * float(mom.variance)
    gamma = float(method.gamma)
    return (m + 2) * (m - 1) / (12.0 * m * m) + gamma * gamma * float(mom.variance)


# -- apparentements ----------------------------------------------------------


def apparentement_joint_gain(method: Method, p_i: float, p_j: float, m: int) -> float:
    """Asymptotic mean joint seat gain when parties i and j pool their votes."""
    if m < 3:
        raise InputError("a coalition needs at least one outside party")
    if not (0 < p_i and 0 < p_j and p_i + p_j < 1):
        raise InputError("shares must be positive with p_i + p_j < 1")
    if isinstance(method, DivisorMethod):
        beta = effective_beta(method)
        return (beta - 0.5) * (1.0 - p_i - p_j)
    gamma = float(method.gamma)
    return gamma * (m - 2) / (m * (m - 1))


class ConjecturedFloat(float):
    """A float backed by a heuristic computation, not a proven limit."""

    conjectured = True

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"ConjecturedFloat({float(self)!r})"


def apparentement_party_gain(method: Method, p_i: float, p_j: float, m: int) -> ConjecturedFloat:
    """Heuristic mean gain of party i inside a coalition with party j.

    Sub-apportionment by the same method; the value assumes the super- and
    sub-apportionments decouple, which is unproven, so the result is marked
    as conjectured.
    """
    joint = apparentement_joint_gain(method, p_i, p_j, m)  # validates inputs
    w = p_i / (p_i + p_j)
    if isinstance(method, DivisorMethod):
        return ConjecturedFloat(w * joint)
    gamma = float(method.gamma)
    return ConjecturedFloat(gamma * ((m - 2) / (m - 1) * w - (m - 2) / (2 * m)))


# -- divergence means --------------------------------------------------------


def predict_divergence_mean(method: Method, p, functional: str) -> float:
    """Asymptotic mean of a goodness-of-fit divergence for the method.

    ``sainte_lague``: sum Delta_i^2 / p_i; ``sum_squares``: sum Delta_i^2;
    ``jefferson`` / ``adams``: max_i Delta_i/p_i resp. -min_i Delta_i/p_i,
    defined only for the optimizing method itself (beta = 1 resp. 0).
    """
    p = _shares_array(p)
    m = p.size
    inv_sum = float(np.sum(1.0 / p))
    sq_dev = float(np.sum((p - 1.0 / m) ** 2))
    if functional == SAINTE_LAGUE_FUNCTIONAL:
        if isinstance(method, DivisorMethod):
            beta = effective_beta(method)
            return (inv_sum + m - 2) / 12.0 + (beta - 0.5) ** 2 * (inv_sum - m * m)
        gamma = float(method.gamma)
        return (m + 2) * (m - 1) / (12.0 * m * m) * inv_sum + gamma**2 / m**2 * (
            inv_sum - m * m
        )
    if functional == SUM_SQUARES_FUNCTIONAL:
        base = (m + 2) * (m - 1) / (12.0 * m)
        if isinstance(method, DivisorMethod):
            beta = effective_beta(method)
            return base + ((m - 2) / 12.0 + m * m * (beta - 0.5) ** 2) * sq_dev
        gamma = float(method.gamma)
        return base + gamma * gamma * sq_dev
    if functional == JEFFERSON_FUNCTIONAL:
        if not (isinstance(method, DivisorMethod) and effective_beta(method) == 1.0):
            raise UnsupportedMethodError("max Delta/p mean is known only for its optimizer (beta = 1)")
        return (m - 1) / 2.0
    if functional == ADAMS_FUNCTIONAL:
        if not (isinstance(method, DivisorMethod) and effective_beta(method) == 0.0):
            raise UnsupportedMethodError("-min Delta/p mean is known only for its optimizer (beta = 0)")
        return (m - 1) / 2.0
    raise UnsupportedMethodError(f"unknown divergence functional {functional!r}")
