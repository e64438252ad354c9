"""Benchmark of the apportion library: end-to-end and per-layer metrics.

Run from the repository root (the library is imported from ``src``):

    python3 perfbench/run.py --workload float-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # each workload in its own process
    python3 perfbench/run.py --workload exact-engine --write-reference

A run builds the workload's inputs from the seed, times fresh interpreters
that import the library and build those inputs (``setup_s``), then runs
passes over the workload's jobs until ``--seconds`` have gone by.  Every
output is checked (see ``checks.py``); a job that raises or fails a check
counts as failed.  The last stdout line is one JSON object with ``correct``,
``attempted`` and ``failed`` (jobs) and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates traced and untraced passes; its spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("float-sweep", "exact-engine", "monte-carlo")
DEFAULT_SEED = 0  # the seed of the checked-in reference outputs

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 9

END_TO_END = {"setup_s": "s", "allocations_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "allocation.allocate.calls": "count",
    "allocation.allocate.seats": "count",
    "allocation.allocate.busy_s": "s",
    "allocation.allocate.us_per_seat": "us",
    "allocation.allocate.divisor.busy_s": "s",
    "allocation.allocate.quota.busy_s": "s",
    "allocation.allocate.tied": "count",
    "harness.sweep.float.houses": "count",
    "harness.sweep.float.busy_s": "s",
    "harness.sweep.float.ns_per_house": "ns",
    "harness.sweep.float.near_ties": "count",
    "harness.sweep.workers_speedup": "ratio",
    "harness.apparentement_sweep.busy_s": "s",
    "harness.sweep.exact.houses": "count",
    "harness.sweep.exact.busy_s": "s",
    "harness.sweep.exact.us_per_house": "us",
    "harness.sweep.exact.ties": "count",
    "harness.period_average_bias.busy_s": "s",
    "harness.period_average_bias.houses": "count",
    "analysis.verify_minimizer_identity.calls": "count",
    "analysis.verify_minimizer_identity.busy_s": "s",
    "harness.mc_ordered_simplex.trials": "count",
    "harness.mc_ordered_simplex.busy_s": "s",
    "harness.mc_ordered_simplex.us_per_trial": "us",
    "harness.mc_ordered_simplex.fallback.us_per_trial": "us",
    "harness.quota_violation_frequency.trials": "count",
    "harness.quota_violation_frequency.busy_s": "s",
    "harness.compare.busy_s": "s",
    "harness.compare.rows_passed_ratio": "ratio",
    "asymptotics.busy_s": "s",
    "violation.violation_probability.busy_s": "s",
    "samplers.draws": "count",
    "samplers.busy_s": "s",
    "samplers.ns_per_draw": "ns",
    "cli.import_s": "s",
    "cli.run.calls": "count",
    "cli.run.busy_s": "s",
    "process.cpu_util": "ratio",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0, help="how long the passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="cut every problem size 1000-fold (smoke test)")
    ap.add_argument("--write-reference", action="store_true",
                    help="run one pass at the default seed and write the workload's reference outputs")
    return ap.parse_args(argv)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def per(total, n, scale=1.0):
    return total / n * scale if n else 0.0


# -- set-up --------------------------------------------------------------------------


def time_setup(args) -> tuple[list[float], list[float]]:
    """Wall time of fresh interpreters that import the library and build the inputs,
    and the import time each reports."""
    cmd = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed)] + (["--tiny"] if args.tiny else [])
    walls, imports = [], []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        started = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        walls.append(time.perf_counter() - started)
        imports.append(json.loads(done.stdout.splitlines()[-1])["import_s"])
    return walls, imports


# -- passes ----------------------------------------------------------------------------


class Passes:
    """Runs passes over a workload's jobs and checks every output."""

    def __init__(self, jobs, tracer, tol, reference):
        from checks import canonical, check_records, diff

        self.jobs, self.tracer, self.tol, self.reference = jobs, tracer, tol, reference
        self.canonical, self.check_records, self.diff = canonical, check_records, diff
        self.first: dict[str, tuple[str, list[str]]] = {}  # job -> first canonical JSON, its problems
        self.outputs: dict[str, dict] = {}
        self.attempted = self.failed = 0
        self.times: list[tuple[bool, float, int]] = []  # (traced, seconds, allocations) per pass

    def run_pass(self, traced: bool) -> None:
        number = len(self.times)
        self.tracer.enabled = traced
        seconds, allocations = 0.0, 0
        for job in self.jobs:
            self.tracer.job = (number, job.name)
            self.attempted += 1
            started = time.perf_counter()
            try:
                with self.tracer.span("job." + job.name):
                    records = job.run(self.tracer)
            except Exception:
                self.failed += 1
                print(f"{job.name}: raised", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            elapsed = time.perf_counter() - started
            problems = self.check(job, records)
            if problems:
                self.failed += 1
                for p in problems[:10]:
                    print(f"{job.name}: {p}", file=sys.stderr)
                continue
            seconds += elapsed
            allocations += sum(r["allocations"] for r in records)
        self.tracer.enabled = False
        self.times.append((traced, seconds, allocations))

    def check(self, job, records) -> list[str]:
        """Outside the timed region: the first output of each job is checked for
        invariants and against the reference; later ones must repeat it exactly."""
        canon = self.canonical(records)
        text = json.dumps(canon, sort_keys=True)
        if job.name in self.first:
            first, problems = self.first[job.name]
            return problems if text == first else ["output differs from the first pass"]
        self.outputs[job.name] = canon
        problems = self.check_records(records, self.tol)
        if self.reference is not None and (self.reference["same_seed"] or not job.seeded):
            want = self.reference["jobs"].get(job.name)
            problems += ["no reference output"] if want is None else self.diff(canon, want)
        self.first[job.name] = (text, problems)
        return problems


def load_reference(args):
    """The default seed's reference outputs; at another seed only unseeded jobs use them."""
    if args.tiny:
        return None
    with open(REFERENCE_DIR / f"{args.workload}.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["same_seed"] = args.seed == ref["seed"]
    return ref


# -- per-layer metrics from spans ---------------------------------------------------------


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass; ``spans`` are (span, self time) pairs."""
    from jobs import WORKERS_JOB

    def sel(name, **match):
        return [(s, t) for s, t in spans
                if (s.name.startswith(name) if name.endswith(".") else s.name == name)
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def busy(group):
        return sum((t for _, t in group), 0.0)

    def count(group, attr):
        return sum(s.attrs[attr] for s, _ in group)

    m = {}
    alloc = sel("allocation.allocate")
    m["allocation.allocate.calls"] = len(alloc)
    m["allocation.allocate.seats"] = count(alloc, "house")
    m["allocation.allocate.busy_s"] = busy(alloc)
    m["allocation.allocate.us_per_seat"] = per(busy(alloc), count(alloc, "house"), 1e6)
    m["allocation.allocate.divisor.busy_s"] = busy(sel("allocation.allocate", kind="divisor"))
    m["allocation.allocate.quota.busy_s"] = busy(sel("allocation.allocate", kind="quota"))
    m["allocation.allocate.tied"] = count(alloc, "tied")
    for path, unit, scale in (("float", "ns_per_house", 1e9), ("exact", "us_per_house", 1e6)):
        group = sel("harness.sweep", path=path)
        m[f"harness.sweep.{path}.houses"] = count(group, "houses")
        m[f"harness.sweep.{path}.busy_s"] = busy(group)
        m[f"harness.sweep.{path}.{unit}"] = per(busy(group), count(group, "houses"), scale)
    m["harness.sweep.float.near_ties"] = count(sel("harness.sweep", path="float"), "near_ties")
    m["harness.sweep.exact.ties"] = count(sel("harness.sweep", path="exact"), "ties")
    pair = [t for s, t in sel("harness.sweep") if s.job[1] == WORKERS_JOB]  # serial, then parallel
    m["harness.sweep.workers_speedup"] = per(pair[0], pair[1]) if len(pair) == 2 else 0.0
    m["harness.apparentement_sweep.busy_s"] = busy(sel("harness.apparentement_sweep"))
    period = sel("harness.period_average_bias")
    m["harness.period_average_bias.busy_s"] = busy(period)
    m["harness.period_average_bias.houses"] = count(period, "houses")
    oracle = sel("analysis.verify_minimizer_identity")
    m["analysis.verify_minimizer_identity.calls"] = len(oracle)
    m["analysis.verify_minimizer_identity.busy_s"] = busy(oracle)
    mc, fallback = sel("harness.mc_ordered_simplex"), sel("harness.mc_ordered_simplex", fallback=True)
    m["harness.mc_ordered_simplex.trials"] = count(mc, "trials")
    m["harness.mc_ordered_simplex.busy_s"] = busy(mc)
    m["harness.mc_ordered_simplex.us_per_trial"] = per(busy(mc), count(mc, "trials"), 1e6)
    m["harness.mc_ordered_simplex.fallback.us_per_trial"] = per(busy(fallback), count(fallback, "trials"), 1e6)
    qvf = sel("harness.quota_violation_frequency")
    m["harness.quota_violation_frequency.trials"] = count(qvf, "trials")
    m["harness.quota_violation_frequency.busy_s"] = busy(qvf)
    cmp = sel("harness.compare")
    m["harness.compare.busy_s"] = busy(cmp)
    m["harness.compare.rows_passed_ratio"] = per(count(cmp, "rows_passed"), count(cmp, "rows"))
    m["asymptotics.busy_s"] = busy(sel("asymptotics."))
    m["violation.violation_probability.busy_s"] = busy(sel("violation.violation_probability"))
    draws = sel("samplers.")
    m["samplers.draws"] = count(draws, "draws")
    m["samplers.busy_s"] = busy(draws)
    m["samplers.ns_per_draw"] = per(busy(draws), count(draws, "draws"), 1e9)
    cli = sel("cli.run")
    m["cli.run.calls"] = len(cli)
    m["cli.run.busy_s"] = busy(cli)
    return m


def traced_metrics(tracer, passes, import_times, cpu_util) -> dict:
    by_pass: dict[int, list] = {}
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        by_pass.setdefault(span.job[0], []).append((span, self_time))
    per_pass = [layer_metrics(spans) for spans in by_pass.values()]
    # counts are the same in every pass; times are medians over the traced passes
    out = {name: per_pass[0][name] if PER_LAYER[name] == "count" else median([p[name] for p in per_pass])
           for name in per_pass[0]}
    out["cli.import_s"] = median(import_times)
    out["process.cpu_util"] = cpu_util
    traced = [s for t, s, _ in passes.times if t]
    plain = [s for t, s, _ in passes.times[1:] if not t]
    out["trace.overhead_ratio"] = per(median(traced), median(plain))
    return out


# -- one workload ---------------------------------------------------------------------------


def run_workload(args) -> int:
    from jobs import README_TOL, TINY_TOL, build_jobs
    from tracing import Tracer

    jobs = build_jobs(args.workload, args.seed, args.tiny)
    tol = TINY_TOL if args.tiny else README_TOL
    tracer = Tracer()

    if args.write_reference:
        if args.seed != DEFAULT_SEED or args.tiny:
            print("the reference is written at the default seed and full size", file=sys.stderr)
            return 2
        passes = Passes(jobs, tracer, tol, None)
        passes.run_pass(traced=False)
        if passes.failed:
            print("not writing a reference: some jobs failed", file=sys.stderr)
            return 1
        REFERENCE_DIR.mkdir(exist_ok=True)
        with open(REFERENCE_DIR / f"{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"seed": DEFAULT_SEED, "jobs": passes.outputs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    setup_walls, import_times = time_setup(args)
    passes = Passes(jobs, tracer, tol, load_reference(args))
    # pass 0 warms up (first-touch allocations, lazy imports) and is not timed;
    # a traced run then alternates traced and untraced passes
    min_passes = 3 if args.trace else 2
    started, cpu_started = time.perf_counter(), time.process_time()
    while True:
        passes.run_pass(traced=bool(args.trace) and len(passes.times) % 2 == 1)
        elapsed = time.perf_counter() - started
        if elapsed >= args.seconds and len(passes.times) >= min_passes:
            break
    cpu_util = (time.process_time() - cpu_started) / elapsed

    rates = [per(a, s) for traced, s, a in passes.times[1:] if not traced]
    per_pass = passes.times[0][2]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes.times)} passes in {elapsed:.1f} s, "
          f"{per_pass} allocations per pass ({len(jobs)} jobs)")
    print("allocations_per_s of the untraced passes after the first:", " ".join(f"{r:.6g}" for r in rates))
    if args.trace:
        metrics = traced_metrics(tracer, passes, import_times, cpu_util)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": median(setup_walls),
            "allocations_per_s": median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"error_rate {per(passes.failed, passes.attempted):.6g} ratio "
          f"({passes.failed} of {passes.attempted} jobs failed)")
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a summary line per metric."""
    summary, ok = {}, True
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{workload}: exit code {done.returncode}")
            ok = False
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        summary[workload] = result
        ok &= result["correct"]
        for name, m in result["metrics"].items():
            print(f"{workload:<13} {name:<50} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:<13} {'error_rate':<50} {per(result['failed'], result['attempted']):>14.6g} ratio")
    print(json.dumps(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "apportion" / "__init__.py").is_file():
        print(f"no apportion sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
