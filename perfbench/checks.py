"""Canonical forms of job outputs, checks that hold for any seed, and the
comparison against the checked-in reference for the default seed.

Integers, seat vectors, tie classes and Fractions must match the reference
exactly; floats must match within FLOAT_TOL.
"""

from __future__ import annotations

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np

from apportion import DivisorMethod, small_n_guard
from apportion.asymptotics import predict_ordered_bias

# Float statistics are sums of up to 10**6 terms of size O(1); a change in
# the order of accumulation moves them by at most about 10**6 ulps.
FLOAT_TOL = 1e6 * sys.float_info.epsilon

# Monte Carlo estimates must lie within this many standard errors of the
# limit law.  At 6 SE a correct program fails about once in 10**9 checks.
MC_SE_LIMIT = 6.0


def plain(x):
    """JSON-ready form: Fractions as "p/q", arrays and tuples as lists."""
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, np.ndarray):
        return plain(x.tolist())
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(plain(v) for v in x)
    raise TypeError(f"no canonical form for {type(x).__name__}")


def _stats(stats) -> dict:
    hist = stats.histogram
    return {
        "count": stats.count,
        "n_from": stats.n_from,
        "n_to": stats.n_to,
        "mean": stats.mean,
        "covariance": stats.covariance,
        "lower_violations": stats.lower_violations,
        "upper_violations": stats.upper_violations,
        "any_violation": stats.any_violation,
        "ties": stats.ties,
        "near_ties": stats.near_ties,
        "histogram_sha256": None if hist is None else hashlib.sha256(hist.counts.tobytes()).hexdigest(),
    }


def _allocation(a) -> dict:
    ti = a.tie_info
    tie = None if ti is None else [ti.parties, ti.grants, ti.base_seats, ti.orbit_size, ti.truncated, ti.near]
    return {
        "seats": a.seats,
        "alternatives": a.ties,
        "tie": tie,
        "expected": a.expected_seats(),
        "interval": a.support_interval,
    }


def _draws(x) -> dict:
    return {
        "shape": x.shape,
        "mean": x.mean(axis=0),
        "variance": x.var(axis=0),
        "min": x.min(axis=0),
        "max": x.max(axis=0),
    }


_CANON = {
    "allocation": _allocation,
    "sweep": _stats,
    "compare": lambda r: [[x.statistic, x.index, x.empirical, x.predicted, x.tolerance] for x in r.rows],
    "apparentement": lambda a: {
        "n_from": a.n_from, "n_to": a.n_to, "count": a.moments.count,
        "mean": a.moments.mean, "covariance": a.moments.covariance,
    },
    "period": lambda avg: avg,
    "minimizer": lambda c: {"passed": c.passed, "orbit": c.method_orbit, "argmin": c.argmin},
    "mc": lambda r: {"delta": _stats(r.delta), "share_mean": r.shares.mean, "trials": r.trials},
    "qvf": lambda v: {"lower": v.lower, "upper": v.upper, "total": v.total, "any": v.any, "count": v.count},
    "draws": _draws,
    "values": lambda v: v,
    "cli": lambda cr: {"code": cr[0], "report": cr[1]},
}


def canonical(records: list[dict]) -> dict:
    """Map a job's records to {label: canonical output}."""
    return {r["label"]: plain(_CANON[r["kind"]](r["value"])) for r in records}


# -- checks that hold for any seed ---------------------------------------------


def _divisor_criterion(method, weights, seats) -> bool:
    """min_i v_i/d(s_i) >= max_i v_i/d(s_i + 1), in the signposts' figure space."""
    sp = method.signposts
    held = min(sp.figure(v, s) for v, s in zip(weights.votes, seats))
    next_seat = max(sp.figure(v, s + 1) for v, s in zip(weights.votes, seats))
    return held >= next_seat


def _check_allocation(r, tol):
    a, house = r["value"], r["house"]
    out = []
    for seats in (a.seats, *a.ties):
        if sum(seats) != house:
            out.append(f"seats {seats} sum to {sum(seats)}, not {house}")
        if isinstance(r["method"], DivisorMethod) and not _divisor_criterion(r["method"], r["weights"], seats):
            out.append(f"seats {seats} break the divisor criterion")
    return out


def _seat_sum(stats) -> list[str]:
    # every row's excess sums to zero, so count * sum(mean) is an integer 0
    # up to rounding; a single lost or extra seat would make it about 1
    if stats.count * abs(float(np.sum(stats.mean))) >= 0.5:
        return [f"mean excess sums to {float(np.sum(stats.mean))}: seats do not sum to the house"]
    return []


def _check_sweep(r, tol):
    stats = r["value"]
    start = max(1, small_n_guard(r["method"], r["weights"]))
    out = _seat_sum(stats)
    if (stats.n_from, stats.n_to, stats.count) != (start, r["n_to"], r["n_to"] - start + 1):
        out.append(f"sweep covered {stats.n_from}..{stats.n_to} ({stats.count}), expected {start}..{r['n_to']}")
    return out


def _check_compare(r, tol):
    return [f"compare row {x.statistic}{x.index} off by {x.abs_error:.3g} > {tol}"
            for x in r["value"].rows if not x.abs_error <= tol]


def _check_mc(r, tol):
    res, method, m, trials = r["value"], r["method"], r["m"], r["trials"]
    out = _seat_sum(res.delta)
    if res.delta.count != trials:
        out.append(f"{res.delta.count} trials recorded, expected {trials}")
    se = np.sqrt(res.delta.variance / trials)
    for j in range(1, m + 1):
        err = abs(res.delta.mean[j - 1] - predict_ordered_bias(method, m, j))
        if not err <= MC_SE_LIMIT * se[j - 1]:
            out.append(f"rank {j} mean excess {err / se[j - 1]:.1f} standard errors from predict_ordered_bias")
    return out


def _check_qvf(r, tol):
    v, trials, expect = r["value"], r["trials"], r["expect_any"]
    out = [] if v.count == trials else [f"{v.count} trials recorded, expected {trials}"]
    freqs = np.concatenate([v.lower, v.upper, [v.any]])
    if not np.all((freqs >= 0) & (freqs <= 1)):
        out.append("violation frequency outside [0, 1]")
    if expect is not None and not abs(v.any - expect) <= MC_SE_LIMIT * math.sqrt(expect * (1 - expect) / trials):
        out.append(f"any-party violation rate {v.any} too far from {expect}")
    return out


def _check_draws(r, tol):
    x = r["value"]
    out = [] if np.all(np.isfinite(x)) else ["non-finite draws"]
    if r.get("rows_sum_to_zero") and np.max(np.abs(x.sum(axis=1))) > 1e-9:
        out.append("joint excess draws do not sum to zero")
    return out


def _leaves(x):
    if isinstance(x, list):
        for v in x:
            yield from _leaves(v)
    else:
        yield x


_CHECKS = {
    "allocation": _check_allocation,
    "sweep": _check_sweep,
    "compare": _check_compare,
    "apparentement": lambda r, tol: [] if r["value"].moments.count == r["allocations"] else ["house count mismatch"],
    "period": lambda r, tol: [] if sum(r["value"]) == 0 else ["period average excess does not sum to 0"],
    "minimizer": lambda r, tol: [] if r["value"].passed else [f"minimizer identity fails at {r['value'].witness}"],
    "mc": _check_mc,
    "qvf": _check_qvf,
    "draws": _check_draws,
    "values": lambda r, tol: [] if all(map(math.isfinite, _leaves(plain(r["value"])))) else ["non-finite values"],
    "cli": lambda r, tol: [] if r["value"][0] == 0 else [f"CLI exit code {r['value'][0]}"],
}


def check_records(records: list[dict], tol: float) -> list[str]:
    """Problems found by the seed-independent checks; ``tol`` is the compare tolerance."""
    return [f"{r['label']}: {p}" for r in records for p in _CHECKS[r["kind"]](r, tol)]


# -- reference comparison ----------------------------------------------------------


def _is_float_text(x) -> bool:
    if not isinstance(x, str) or "/" in x:
        return False
    try:
        float(x)
    except ValueError:
        return False
    return True


def diff(got, want, path: str = "") -> list[str]:
    """Differences between two canonical outputs (floats within FLOAT_TOL)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in diff(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in diff(g, w, f"{path}[{i}]")]
    if _is_float_text(got) and _is_float_text(want):  # CLI reports print floats as text
        got, want = float(got), float(want)
    if isinstance(want, float) and isinstance(got, float):
        if got == want or math.isclose(got, want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []
