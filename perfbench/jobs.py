"""Benchmark workloads: seeded inputs and the jobs that run on them.

A job calls public library functions only, each inside a tracer span, and
returns its raw results as records (dicts with ``kind``, ``label``, ``value``,
the inputs the checks need, and ``allocations``, the number of allocations
the result stands for).  Checks and canonical forms live in ``checks``.

Each job's path is pinned by its input, so a change to a library threshold
cannot move it silently: float sweeps get float weights, exact sweeps pass
``force_exact=True``, and the Monte Carlo fallback job uses a non-linear
method (Huntington), which ``allocate_many`` cannot vectorize.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from apportion import PartyWeights, TiePolicy, allocate, cli, method_by_name
from apportion.analysis import ADAMS, JEFFERSON, MAX_ABS, SAINTE_LAGUE, SUM_SQUARES, verify_minimizer_identity
from apportion.asymptotics import moment_prediction, predict_ordered_bias, predict_ordered_variance
from apportion.harness import (
    apparentement_sweep,
    compare,
    detect_period,
    mc_ordered_simplex,
    period_average_bias,
    quota_violation_frequency,
    sqrt_shares,
    sweep,
)
from apportion.samplers import sample_divergence_clt, sample_excess_joint_divisor, sample_uniform_simplex
from apportion.violation import violation_probability

# Tolerance on every compare row: the README's verify default, or, at the
# smoke-test size, a loose one (a few hundred houses cannot meet 0.01).
README_TOL = 0.01
TINY_TOL = 1.0

# The job whose serial/parallel sweep pair gives harness.sweep.workers_speedup.
WORKERS_JOB = "workers-sqrt4"


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable  # run(tracer) -> list of records
    seeded: bool  # whether the job's inputs depend on the benchmark seed


def rec(kind: str, label: str, value, allocations: int = 0, **inputs) -> dict:
    return {"kind": kind, "label": label, "value": value, "allocations": allocations, **inputs}


def scaler(tiny: bool) -> Callable[[int], int]:
    """Problem sizes: as stated, or cut 1000-fold (at least 20) for the smoke test."""
    if tiny:
        return lambda n: max(20, n // 1000)
    return lambda n: n


def build_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """Make the workload's inputs from the seed and return its jobs."""
    workloads = {"float-sweep": _float_sweep, "exact-engine": _exact_engine, "monte-carlo": _monte_carlo}
    return workloads[workload](seed, scaler(tiny), TINY_TOL if tiny else README_TOL)


# -- job bodies ----------------------------------------------------------------


def _float_sweep_span(t, method, weights, n_to, workers=1):
    with t.span("harness.sweep", path="float", workers=workers) as s:
        stats = sweep(method, weights, 1, n_to, workers=workers)
    s.set(houses=int(stats.count), near_ties=int(stats.near_ties))
    return stats


def _sweep_and_compare(method, weights, n_to, formulas, t):
    """Float sweep, then (where the limit laws cover the method) the verify
    steps: moment prediction, violation probabilities, compare."""
    stats = _float_sweep_span(t, method, weights, n_to)
    out = [rec("sweep", "stats", stats, int(stats.count), method=method, weights=weights, n_to=n_to)]
    if not formulas:
        return out
    p = weights.shares_float()
    with t.span("asymptotics.moment_prediction"):
        pred = moment_prediction(method, p)
    with t.span("violation.violation_probability"):
        viol = [violation_probability(method, x, len(p)) for x in p]
    with t.span("harness.compare") as s:
        report = compare(stats, method, p)
    s.set(rows=len(report.rows), rows_passed=sum(r.passed for r in report.rows))
    out += [
        rec("values", "moment_prediction", (pred.mean, pred.variance, pred.covariance)),
        rec("values", "violation_probability", viol),
        rec("compare", "compare", report),
    ]
    return out


def _workers_pair(method, weights, n_to, workers, t):
    out = []
    for label, w in (("serial", 1), ("parallel", workers)):
        stats = _float_sweep_span(t, method, weights, n_to, w)
        out.append(rec("sweep", label, stats, int(stats.count), method=method, weights=weights, n_to=n_to))
    return out


def _apparentement(method, weights, i, j, n_to, t):
    with t.span("harness.apparentement_sweep") as s:
        res = apparentement_sweep(method, weights, i, j, 1, n_to)
    houses = res.n_to - res.n_from + 1
    s.set(houses=houses)
    return [rec("apparentement", "gains", res, houses)]


def _cli(argv, count, t):
    """Run a CLI command in process; ``count`` maps its results to allocations."""
    buf = io.StringIO()
    with t.span("cli.run", command=argv[0]), contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    report = json.loads(buf.getvalue())
    report.pop("wall_clock_s")
    return [rec("cli", argv[0], (code, report), count(report["results"]))]


def _allocations(cases, policy, t):
    """allocate() on (label, method, weights, house) cases."""
    out = []
    for label, method, weights, house in cases:
        kind = "divisor" if method.is_divisor else "quota"
        with t.span("allocation.allocate", kind=kind, house=house) as s:
            alloc = allocate(method, weights, house, policy)
        s.set(tied=int(alloc.tied))
        out.append(rec("allocation", label, alloc, 1, method=method, weights=weights, house=house))
    return out


def _exact_sweep(method, weights, n_to, t):
    with t.span("harness.sweep", path="exact") as s:
        stats = sweep(method, weights, 1, n_to, force_exact=True)
    s.set(houses=int(stats.count), ties=int(stats.ties))
    return [rec("sweep", "stats", stats, int(stats.count), method=method, weights=weights, n_to=n_to)]


def _periods(methods, weights, t):
    out = []
    period = detect_period(weights)
    for name, method in methods:
        with t.span("harness.period_average_bias", houses=period):
            avg = period_average_bias(method, weights)
        out.append(rec("period", name, avg, period))
    return out


def _minimizers(cases, t):
    out = []
    for label, method, functional, weights, house in cases:
        with t.span("analysis.verify_minimizer_identity"):
            res = verify_minimizer_identity(method, functional, weights, house)
        out.append(rec("minimizer", label, res, 1))
    return out


def _mc(method, m, house, trials, seed, fallback, t):
    with t.span("harness.mc_ordered_simplex", trials=trials, fallback=fallback):
        res = mc_ordered_simplex(method, m, house, trials, seed)
    return [rec("mc", "ordered", res, trials, method=method, m=m, trials=trials)]


def _qvf(method, m, house, trials, seed, expect_any, t):
    with t.span("harness.quota_violation_frequency", trials=trials):
        res = quota_violation_frequency(method, m=m, house_size=house, trials=trials, seed=seed)
    return [rec("qvf", "random", res, trials, trials=trials, expect_any=expect_any)]


def _predictions(specs, shares, t):
    out = []
    for name, method, m in specs:
        with t.span("asymptotics.predict_ordered_bias"):
            bias = [predict_ordered_bias(method, m, j) for j in range(1, m + 1)]
        with t.span("asymptotics.predict_ordered_variance"):
            var = [predict_ordered_variance(method, m, j) for j in range(1, m + 1)]
        out.append(rec("values", name, (bias, var)))
    webster = method_by_name("webster")
    with t.span("violation.violation_probability"):
        viol = [violation_probability(webster, x, len(shares)) for x in shares]
    out.append(rec("values", "violation_probability", viol))
    return out


def _samplers(shares, joint_draws, clt_draws, seed, t):
    with t.span("samplers.sample_excess_joint_divisor", draws=joint_draws):
        joint = sample_excess_joint_divisor(shares, 0.5, seed, size=joint_draws)
    with t.span("samplers.sample_divergence_clt", draws=clt_draws):
        clt = sample_divergence_clt(shares, 0.5, clt_draws, seed)
    return [rec("draws", "joint", joint, rows_sum_to_zero=True), rec("draws", "clt", clt)]


# -- workloads -----------------------------------------------------------------


def _float_sweep(seed, size, tol):
    """Float sqrt:M weights: every sweep takes the vectorized float path.

    The inputs are the paper's fixed test vectors, so the seed changes nothing.
    """
    w8, w4 = PartyWeights.of(sqrt_shares(8)), PartyWeights.of(sqrt_shares(4))
    webster = method_by_name("webster")
    jobs = [Job("webster-sqrt8", partial(_sweep_and_compare, webster, w8, size(1_000_000), True), False)]
    for name in ("webster", "huntington", "estonia", "hamilton", "droop"):
        # Estonia (power signposts) has no limit law to compare against
        body = partial(_sweep_and_compare, method_by_name(name), w4, size(200_000), name != "estonia")
        jobs.append(Job(f"{name}-sqrt4", body, False))
    workers = min(2, os.cpu_count() or 1)
    jobs.append(Job(WORKERS_JOB, partial(_workers_pair, webster, w4, size(400_000), workers), False))
    for name in ("webster", "hamilton"):
        # pool the two smallest parties, sqrt 2 and 1
        body = partial(_apparentement, method_by_name(name), w8, 0, 7, size(200_000))
        jobs.append(Job(f"apparentement-{name}", body, False))
    argv = ["verify", "--method", "webster", "--shares", "sqrt:4", "--seats-max", str(size(200_000)),
            "--tolerance", str(tol), "--seed", "0"]
    jobs.append(Job("cli-verify", partial(_cli, argv, lambda r: r["stats"]["count"]), False))
    return jobs


def _exact_engine(seed, size, tol):
    """Integer votes: every job takes the exact (Fraction) path."""
    rng = np.random.default_rng(seed)
    electorates = [PartyWeights.of([int(v) for v in rng.integers(1_000, 1_000_000, size=50)]) for _ in range(4)]
    names = ("webster", "dhondt", "huntington", "dean", "adjusted-sainte-lague", "hamilton", "droop")
    census = [(f"{name}/e{k}", method_by_name(name), w, 435) for k, w in enumerate(electorates) for name in names]
    # few small vote values make many exact ties
    tie_sets = [PartyWeights.of([int(v) for v in rng.integers(1, 5, size=3 + k % 3)]) for k in range(10)]
    tie_cases = [
        (f"{name}/t{k}/{house}", method_by_name(name), w, house)
        for k, w in enumerate(tie_sets)
        for name in ("webster", "dhondt", "hamilton", "droop")
        for house in range(1, 13)
    ]
    oracle_pairs = (
        ("webster", SAINTE_LAGUE), ("hamilton", SUM_SQUARES), ("hamilton", MAX_ABS),
        ("dhondt", JEFFERSON), ("adams", ADAMS),
    )
    oracle_cases = []
    # the seed draws the votes only, so the brute-force work is the same for every seed
    for k, (m, house) in enumerate(((2, 12), (3, 9), (3, 12), (4, 10))):
        w = PartyWeights.of([int(v) for v in rng.integers(10**5, 10**7, size=m)])
        oracle_cases += [(f"{name}/{fn}/i{k}", method_by_name(name), fn, w, house) for name, fn in oracle_pairs]
    small = PartyWeights.of((7, 5, 3, 2))
    periodic = PartyWeights.of((71, 53, 37, 21))
    webster, droop = method_by_name("webster"), method_by_name("droop")
    big = [("webster/e0", webster, electorates[0], size(100_000))]
    return [
        Job("allocate-census", partial(_allocations, census, TiePolicy.enumerate_all()), True),
        Job("allocate-ties", partial(_allocations, tie_cases, TiePolicy.enumerate_all()), True),
        Job("allocate-webster-big", partial(_allocations, big, TiePolicy.enumerate_all()), True),
        Job("exact-sweep-webster", partial(_exact_sweep, webster, small, size(2_000)), False),
        Job("exact-sweep-droop", partial(_exact_sweep, droop, small, size(2_000)), False),
        Job("period", partial(_periods, (("webster", webster), ("droop", droop)), periodic), False),
        Job("minimizer", partial(_minimizers, oracle_cases), True),
        Job("cli-allocate", partial(_cli, ["allocate", "--method", "dhondt", "--seats", "3", "--votes", "A=2,B=1",
                                           "--seed", "0"], lambda r: 1), False),
        Job("cli-period", partial(_cli, ["period", "--votes", "A=2,B=2,C=1", "--method", "droop", "--seed", "0"],
                                  lambda r: r["period"]), False),
    ]


def _monte_carlo(seed, size, tol):
    """Seeded random simplex shares: samplers, allocate_many, histograms."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=8)]
    shares = tuple(float(x) for x in sample_uniform_simplex(8, 1, rng)[0])
    specs = (("dhondt", 3, 100_000), ("webster", 8, 100_000), ("hamilton", 3, 100_000), ("huntington", 3, 1_000))
    jobs = []
    for k, (name, m, trials) in enumerate(specs):
        # Huntington's signposts are not linear: allocate_many runs one
        # allocate_divisor per row (the per-row fallback)
        body = partial(_mc, method_by_name(name), m, 1000, size(trials), seeds[k], name == "huntington")
        jobs.append(Job(f"mc-{name}-m{m}", body, True))
    dhondt_any = 3 * math.log(2) - 2  # README: any-party violation rate, D'Hondt, 3 random parties
    jobs += [
        Job("qvf-dhondt-m3", partial(_qvf, method_by_name("dhondt"), 3, 100_000, size(100_000), seeds[4],
                                     dhondt_any), True),
        Job("qvf-webster-m8", partial(_qvf, method_by_name("webster"), 8, 1000, size(100_000), seeds[5], None),
            True),
        Job("predictions", partial(_predictions, [(n, method_by_name(n), m) for n, m, _ in specs], shares), True),
        Job("samplers", partial(_samplers, shares, size(1_000_000), size(100_000), seeds[6]), True),
        Job("cli-violations", partial(_cli, ["violations", "--method", "dhondt", "--random-simplex", "3",
                                             "--trials", str(size(100_000)), "--house", "100000",
                                             "--seed", str(seeds[7])], lambda r: r["count"]), True),
    ]
    return jobs
