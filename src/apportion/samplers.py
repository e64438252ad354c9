"""Samplers for the explicit limit distributions of the seat excess.

All samplers take an integer seed and are reproducible; ``size=None`` returns
a single draw packaged with its auxiliary randomness, an integer size returns
a vectorized batch as numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import InputError
from .methods import DivisorMethod, Method
from .asymptotics import _shares_array, effective_beta


@dataclass(frozen=True)
class LimitSample:
    """One draw of a limit variable plus the uniforms/category that built it."""

    values: np.ndarray
    auxiliary: dict


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def sample_excess_joint_divisor(p, beta, seed, size: int | None = None):
    """Joint limit of the seat excess vector for the beta-linear family.

    Draw a category J with P(J = j) = p_j and independent U_i ~ U(0,1);
    zero out U_J, then X_i = p_i * sum(V) - V_i + (beta - 1)(m p_i - 1).
    Every draw sums to zero exactly.
    """
    p = _shares_array(p)
    m = p.size
    beta = float(beta)
    rng = _rng(seed)
    n = 1 if size is None else int(size)
    j = rng.choice(m, size=n, p=p)
    u = rng.uniform(size=(n, m))
    v = u.copy() if size is None else u  # only a single draw reports u intact
    v[np.arange(n), j] = 0.0
    x = p * v.sum(axis=1, keepdims=True) - v + (beta - 1.0) * (m * p - 1.0)
    if size is None:
        return LimitSample(values=x[0], auxiliary={"u": u[0], "category": int(j[0])})
    return x


def sample_excess_marginal(method: Method, p_i: float, m: int, seed, size: int | None = None):
    """Marginal limit of one party's seat excess.

    bias + U~(-1/2,1/2) + scale * sum of m-2 more U~(-1/2,1/2), with
    scale = p_i for divisor methods and 1/m for quota methods.
    """
    if m < 2:
        raise InputError("need at least two parties")
    if not 0.0 < p_i < 1.0:
        raise InputError("share must lie strictly between 0 and 1")
    if isinstance(method, DivisorMethod):
        beta = effective_beta(method)
        bias = (beta - 0.5) * (m * p_i - 1.0)
        scale = p_i
    else:
        gamma = float(method.gamma)
        bias = gamma * (p_i - 1.0 / m)
        scale = 1.0 / m
    rng = _rng(seed)
    n = 1 if size is None else int(size)
    u = rng.uniform(-0.5, 0.5, size=(n, m - 1))
    vals = bias + u[:, 0] + scale * u[:, 1:].sum(axis=1)
    if size is None:
        return LimitSample(values=vals[:1], auxiliary={"u_centered": u[0]})
    return vals


def sample_jefferson_divergence(p, seed, size: int | None = None):
    """Limit of max_i Delta_i / p_i under its optimizer (beta = 1).

    Built from the joint construction: the limit equals the sum of the m-1
    uniforms that survive zeroing the drawn category, so it is distributed
    as a sum of m-1 independent U(0,1) regardless of the shares.
    """
    p = _shares_array(p)
    m = p.size
    rng = _rng(seed)
    n = 1 if size is None else int(size)
    j = rng.choice(m, size=n, p=p)
    u = rng.uniform(size=(n, m))
    u[np.arange(n), j] = 0.0
    vals = u.sum(axis=1)
    if size is None:
        return LimitSample(values=vals, auxiliary={"u": u[0], "category": int(j[0])})
    return vals


def sample_adams_divergence(p, seed, size: int | None = None):
    """Limit of -min_i Delta_i / p_i under its optimizer (beta = 0).

    Representation m - sum(V) - min_i (1 - V_i)/p_i; unlike the max-side
    limit this depends on the shares (whether only superficially is open).
    """
    p = _shares_array(p)
    m = p.size
    rng = _rng(seed)
    n = 1 if size is None else int(size)
    j = rng.choice(m, size=n, p=p)
    v = rng.uniform(size=(n, m))
    v[np.arange(n), j] = 0.0
    vals = m - v.sum(axis=1) - ((1.0 - v) / p).min(axis=1)
    if size is None:
        return LimitSample(values=vals, auxiliary={"v": v[0], "category": int(j[0])})
    return vals


def sample_divergence_clt(p, beta, n_samples: int, seed, standardize: bool = True) -> np.ndarray:
    """Decoupled Sainte-Lague divergence draws, optionally standardized.

    Draws sum_i u_i^2/p_i - (sum_i u_i)^2 with u_i iid U(beta-1, beta); for
    many parties this is asymptotically normal after standardizing by mean
    A/12 + (A - m^2) b^2 and sd sqrt(B/180 + b^2 C / 3), where A = sum 1/p_i,
    B = sum 1/p_i^2, C = sum (1/p_i - m)^2 and b = beta - 1/2.
    """
    p = _shares_array(p)
    m = p.size
    beta = float(beta)
    rng = _rng(seed)
    u = rng.uniform(beta - 1.0, beta, size=(int(n_samples), m))
    draws = (u * u / p).sum(axis=1) - u.sum(axis=1) ** 2
    if not standardize:
        return draws
    b = beta - 0.5
    a_m = float(np.sum(1.0 / p))
    b_m = float(np.sum(1.0 / p**2))
    c_m = float(np.sum((1.0 / p - m) ** 2))
    mean = a_m / 12.0 + (a_m - m * m) * b * b
    sd = sqrt(b_m / 180.0 + b * b * c_m / 3.0)
    return (draws - mean) / sd


def sample_uniform_simplex(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the open simplex via normalized unit exponentials."""
    if m < 1:
        raise InputError("need at least one coordinate")
    g = rng.standard_exponential(size=(int(n), m))
    return g / g.sum(axis=1, keepdims=True)
