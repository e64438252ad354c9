"""Samplers for the explicit limit distributions of the seat excess.

All samplers take an integer seed and are reproducible; ``size=None`` returns
a single draw packaged with its auxiliary randomness, an integer size returns
a vectorized batch as numpy arrays.  A batch size must be a nonnegative
integer.

Each sampler reads one ``Generator`` stream in a fixed order: for the
samplers built on a drawn category, the n category uniforms first (as
``Generator.choice`` draws them), then the rows of uniforms.  A batch draws
its rows ``stats._CHUNK`` values at a time, straight into the output or into
one chunk-sized scratch buffer, and runs the row arithmetic in place, so the
draws do not depend on the chunking and no temporary is the size of the
output: the joint sampler needs its output plus 8 bytes per draw, the
divergence samplers 16 bytes per draw, each plus a few chunks.  Short rows
are not left to numpy's loop per row: ``stats._row_sums`` adds their columns
in numpy's pairwise order, the Adams minimum runs on a party-major copy, and
p * sum(V) is a (k, 1) by (1, m) matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import InputError, _integer
from .methods import DivisorMethod, Method
from .asymptotics import _shares_array, effective_beta
from .stats import _chunk_rows, _chunks, _row_sums


@dataclass(frozen=True)
class LimitSample:
    """One draw of a limit variable plus the uniforms/category that built it."""

    values: np.ndarray
    auxiliary: dict


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _category_rows(p: np.ndarray, rng: np.random.Generator, n: int, out: np.ndarray | None = None):
    """The zeroed uniform rows of the joint construction, one chunk at a time.

    Draws a category J with P(J = j) = p_j per row and U_i ~ U(0,1), and
    yields ``(rows, v, j, u_j)`` per chunk: the row slice, the uniforms with
    U_J zeroed (in ``out[rows]``, or in a reused scratch buffer), the
    categories and the zeroed values.  The categories take the n uniforms
    and the inverse-cdf search of ``Generator.choice``, and the uniforms
    follow them in the stream, so the draws equal ``choice`` then
    ``uniform(size=(n, m))``.  The search counts the cdf entries <= c, the
    index ``searchsorted(side="right")`` returns, by one vector comparison
    per party over ``stats._CHUNK`` draws, added up in the smallest unsigned
    type that holds m - 1, and stores the count in c.
    """
    m = p.size
    cdf = p.cumsum()
    cdf /= cdf[-1]
    c = rng.random(n)
    count = np.empty(min(n, _chunk_rows(1)), dtype=np.min_scalar_type(m - 1))
    ge = np.empty(count.size, dtype=bool)
    for block in _chunks(n, 1):
        t, g = count[: block.stop - block.start], ge[: block.stop - block.start]
        t[:] = 0
        for edge in cdf[:-1]:  # every c < cdf[-1] = 1
            t += np.greater_equal(c[block], edge, out=g).view(np.uint8)
        c[block] = t
    scratch = np.empty((min(n, _chunk_rows(m)), m)) if out is None else None
    for rows in _chunks(n, m):
        v = out[rows] if out is not None else scratch[: rows.stop - rows.start]
        rng.random(out=v)
        j = c[rows].astype(np.intp)
        flat = np.arange(0, v.size, m)
        flat += j
        cells = v.reshape(-1)
        u_j = cells[flat]
        cells[flat] = 0.0
        yield rows, v, j, u_j


def sample_excess_joint_divisor(p, beta, seed, size: int | None = None):
    """Joint limit of the seat excess vector for the beta-linear family.

    Draw a category J with P(J = j) = p_j and independent U_i ~ U(0,1);
    zero out U_J, then X_i = p_i * sum(V) - V_i + (beta - 1)(m p_i - 1).
    Every draw sums to zero exactly.
    """
    p = _shares_array(p)
    m = p.size
    n = 1 if size is None else _integer(size, "size", True)
    x = np.empty((n, m))
    shift = np.tile((float(beta) - 1.0) * (m * p - 1.0), (min(n, _chunk_rows(m)), 1))
    scratch, total = np.empty_like(shift), np.empty((len(shift), 1))
    for rows, v, j, u_j in _category_rows(p, _rng(seed), n, x):
        if size is None:
            u = v[0].copy()  # a single draw reports the uniforms before zeroing
            u[j[0]] = u_j[0]
        t, s = scratch[: len(v)], total[: len(v)]
        _row_sums(v, s[:, 0])
        np.dot(s, p[None, :], out=t)
        np.subtract(t, v, out=v)
        v += shift[: len(v)]
    if size is None:
        return LimitSample(values=x[0], auxiliary={"u": u, "category": int(j[0])})
    return x


def sample_excess_marginal(method: Method, p_i: float, m: int, seed, size: int | None = None):
    """Marginal limit of one party's seat excess.

    bias + U~(-1/2,1/2) + scale * sum of m-2 more U~(-1/2,1/2), with
    scale = p_i for divisor methods and 1/m for quota methods.
    """
    if _integer(m, "m") < 2:
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
    n = 1 if size is None else _integer(size, "size", True)
    vals = np.empty(n)
    for rows in _chunks(n, m):
        u = rng.uniform(-0.5, 0.5, size=(rows.stop - rows.start, m - 1))
        out = _row_sums(u[:, 1:], vals[rows])
        out *= scale
        out += bias + u[:, 0]
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
    n = 1 if size is None else _integer(size, "size", True)
    vals = np.empty(n)
    for rows, u, j, _ in _category_rows(p, _rng(seed), n):
        _row_sums(u, vals[rows])
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
    n = 1 if size is None else _integer(size, "size", True)
    vals = np.empty(n)
    for rows, v, j, _ in _category_rows(p, _rng(seed), n):
        if size is None:
            aux = {"v": v[0].copy(), "category": int(j[0])}
        out = np.subtract(m, _row_sums(v, vals[rows]), out=vals[rows])
        w = np.subtract(1.0, v.T, order="C")  # party-major: the division and the min run on whole rows
        w /= p[:, None]
        out -= w.min(axis=0)
    if size is None:
        return LimitSample(values=vals, auxiliary=aux)
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
    n = _integer(n_samples, "n_samples", True)
    draws = np.empty(n)
    for rows in _chunks(n, m):
        u = rng.uniform(beta - 1.0, beta, size=(rows.stop - rows.start, m))
        total = _row_sums(u, np.empty(len(u)))
        total **= 2
        u *= u
        u /= p
        _row_sums(u, draws[rows])
        draws[rows] -= total
    if not standardize:
        return draws
    b = beta - 0.5
    a_m = float(np.sum(1.0 / p))
    b_m = float(np.sum(1.0 / p**2))
    c_m = float(np.sum((1.0 / p - m) ** 2))
    mean = a_m / 12.0 + (a_m - m * m) * b * b
    sd = sqrt(b_m / 180.0 + b * b * c_m / 3.0)
    draws -= mean
    draws /= sd
    return draws


def sample_uniform_simplex(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the open simplex via normalized unit exponentials: (n, m) rows, the
    transposed view of party-major shares (numpy sums its rows in sequence, not pairwise as on
    row-major rows).  Each chunk is normalized party-major by ``_row_sums`` of its draws: the
    bits of ``g / g.sum(axis=1, keepdims=True)``."""
    if _integer(m, "m", True) < 1:
        raise InputError("need at least one coordinate")
    n = _integer(n, "n", True)
    cols, g = np.empty((m, n)), np.empty((min(n, _chunk_rows(m)), m))
    for rows in _chunks(n, m):
        draws, shares = g[: rows.stop - rows.start], cols[:, rows]
        rng.standard_exponential(out=draws)
        shares[...] = draws.T
        shares /= _row_sums(draws, np.empty(len(draws)))
    return cols.T
