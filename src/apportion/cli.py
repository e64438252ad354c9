"""Command-line front end.

Reads vote data (inline, CSV, or JSON), runs allocations, sweeps, Monte
Carlo experiments, and oracle checks, and emits a JSON report (optionally a
human-readable table).  Identical configuration and seed produce a
byte-identical report except for the wall-clock field.

Exit codes: 0 success, 2 invalid input, 3 verification failure,
4 instance too large (also when the run runs out of memory).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .allocation import allocate, quota_satisfaction, seat_excess
from .analysis import FUNCTIONALS, divergences, verify_minimizer_identity
from .errors import ApportionError, InputError, InstanceTooLargeError
from .harness import (
    apparentement_sweep,
    compare,
    detect_period,
    mc_ordered_simplex,
    period_average_bias,
    quota_violation_frequency,
    sqrt_shares,
    sweep,
)
from .asymptotics import (
    predict_ordered_bias,
    predict_ordered_variance,
)
from .methods import TiePolicy, method_by_name
from .stats import SweepStats, Tolerances
from .weights import PartyWeights

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VERIFICATION = 3
EXIT_TOO_LARGE = 4


# -- input parsing -----------------------------------------------------------


def parse_input(stream, fmt: str) -> PartyWeights:
    """Read party weights from CSV (``party,votes`` header, input order) or
    JSON (object name -> votes, lexicographic order)."""
    if fmt == "csv":
        reader = csv.reader(io.StringIO(stream.read()))
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
        if not rows:
            raise InputError("empty CSV input")
        if [c.strip().lower() for c in rows[0]] == ["party", "votes"]:
            rows = rows[1:]
        names, votes = [], []
        for row in rows:
            if len(row) != 2:
                raise InputError(f"CSV rows need two fields, got {row!r}")
            names.append(row[0].strip())
            votes.append(_parse_vote(row[1], row[0]))
        if not votes:
            raise InputError("no parties in CSV input")
        return PartyWeights.of(votes, names)
    if fmt == "json":
        try:
            data = json.load(stream)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON: {exc}") from None
        if not isinstance(data, dict) or not data:
            raise InputError("JSON input must be a non-empty object of name -> votes")
        names = sorted(data)
        votes = [_parse_vote(data[n], n) for n in names]
        return PartyWeights.of(votes, names)
    raise InputError(f"unknown input format {fmt!r}")


def _parse_vote(raw, name):
    if isinstance(raw, str):
        raw = raw.strip()
        try:
            raw = int(raw)
        except ValueError:
            raise InputError(f"votes for {name!r} must be an integer, got {raw!r}") from None
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InputError(f"votes for {name!r} must be an integer, got {raw!r}")
    if raw <= 0:
        raise InputError(f"votes for {name!r} must be positive, got {raw}")
    return raw


def _weights_from_args(args) -> PartyWeights:
    given = [x for x in (args.votes, args.input, getattr(args, "shares", None)) if x]
    if len(given) != 1:
        raise InputError("provide exactly one of --votes, --input, --shares")
    if args.votes:
        names, votes = [], []
        for item in args.votes.split(","):
            name, sep, value = item.partition("=")
            if not sep:
                raise InputError(f"--votes items look like NAME=COUNT, got {item!r}")
            names.append(name.strip())
            votes.append(_parse_vote(value.strip(), name))
        return PartyWeights.of(votes, names)
    if args.input:
        if args.input == "-":
            return parse_input(sys.stdin, args.format)
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse_input(fh, args.format)
    spec = args.shares
    if spec == "sqrt":
        raise InputError("--shares sqrt needs a party count, e.g. sqrt:4")
    if spec.startswith("sqrt:"):
        count = spec.split(":", 1)[1]
        try:
            m = int(count)
        except ValueError:
            raise InputError(f"--shares sqrt needs an integer party count, got {count!r}") from None
        p = sqrt_shares(m)
        return PartyWeights.of(p, [f"P{i+1}" for i in range(m)])
    raise InputError(f"unknown shares preset {spec!r}")


def _tie_policy(args) -> TiePolicy:
    kind = getattr(args, "ties", "enumerate")
    if kind == "random":
        return TiePolicy.seeded(args.seed)
    if kind == "average":
        return TiePolicy.average()
    return TiePolicy.enumerate_all()


# -- serialization ------------------------------------------------------------


def jsonify(value):
    """Recursively map values to a deterministic JSON form.

    Floats become 12-significant-digit decimal strings, exact rationals
    become "p/q" strings, numpy arrays become lists.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return format(float(value), ".12g")
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonify(v) for v in items]
    return str(value)


def _stats_payload(stats: SweepStats) -> dict:
    freq = stats.violation_frequency()
    return {
        "count": int(stats.count),
        "n_from": stats.n_from,
        "n_to": stats.n_to,
        "mean": stats.mean,
        "variance": stats.variance,
        "covariance": stats.covariance,
        "violations": {
            "lower": freq["lower"],
            "upper": freq["upper"],
            "total": freq["total"],
            "any": freq["any"],
        },
        "ties": stats.ties,
        "near_ties": stats.near_ties,
    }


# -- command handlers ----------------------------------------------------------


def _cmd_allocate(args) -> tuple[dict, int]:
    weights = _weights_from_args(args)
    method = method_by_name(args.method)
    alloc = allocate(method, weights, args.seats, _tie_policy(args))
    excess = seat_excess(alloc, weights)
    flags = quota_satisfaction(alloc, weights)
    names = weights.names or [f"P{i+1}" for i in range(len(weights))]
    payload = {
        "names": list(names),
        "seats": list(alloc.seats),
        "house_size": alloc.house_size,
        "seat_excess": list(excess.delta),
        "quota_satisfied": [{"lower": f.lower, "upper": f.upper} for f in flags],
        "support_interval": list(alloc.support_interval),
        "tied": alloc.tied,
        "alternatives": [list(t) for t in alloc.ties],
        "expected_seats": list(alloc.expected_seats()) if alloc.tied else None,
    }
    if alloc.tie_info is not None:
        payload["tie_info"] = {
            "parties": list(alloc.tie_info.parties),
            "grants": alloc.tie_info.grants,
            "orbit_size": alloc.tie_info.orbit_size,
            "truncated": alloc.tie_info.truncated,
            "near": alloc.tie_info.near,
        }
    return payload, EXIT_OK


def _sweep_range(args):
    n_from = args.seats_from if args.seats_from is not None else 1
    n_to = args.seats_to
    if n_to is None:
        raise InputError("--seats-to (or --seats-max) is required")
    return n_from, n_to


def _cmd_sweep(args) -> tuple[dict, int]:
    weights = _weights_from_args(args)
    method = method_by_name(args.method)
    n_from, n_to = _sweep_range(args)
    stats = sweep(method, weights, n_from, n_to, _tie_policy(args), workers=args.threads)
    return {"stats": _stats_payload(stats)}, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    weights = _weights_from_args(args)
    method = method_by_name(args.method)
    n_from, n_to = _sweep_range(args)
    stats = sweep(method, weights, n_from, n_to, TiePolicy.average(), workers=args.threads)
    tol = Tolerances(args.tolerance, args.tolerance, args.tolerance)
    report = compare(stats, method, weights.shares_float(), tol)
    payload = {"stats": _stats_payload(stats), "comparison": report.to_dict()}
    if args.table:
        print(report.format_table(), file=sys.stderr)
    return payload, EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_mc_simplex(args) -> tuple[dict, int]:
    method = method_by_name(args.method)
    res = mc_ordered_simplex(method, args.parties, args.house, args.trials, args.seed)
    m = args.parties
    try:
        predicted_bias = [predict_ordered_bias(method, m, j) for j in range(1, m + 1)]
        predicted_var = [predict_ordered_variance(method, m, j) for j in range(1, m + 1)]
    except ApportionError:
        predicted_bias = predicted_var = None
    payload = {
        "stats": _stats_payload(res.delta),
        "ordered_share_means": res.shares.mean,
        "predicted_bias": predicted_bias,
        "predicted_variance": predicted_var,
    }
    code = EXIT_OK
    if args.tolerance is not None and predicted_bias is not None:
        ok = bool(
            np.all(np.abs(res.delta.mean - np.array(predicted_bias)) <= args.tolerance)
        )
        payload["within_tolerance"] = ok
        code = EXIT_OK if ok else EXIT_VERIFICATION
    return payload, code


def _cmd_violations(args) -> tuple[dict, int]:
    method = method_by_name(args.method)
    if args.random_simplex is not None:
        vf = quota_violation_frequency(
            method,
            m=args.random_simplex,
            house_size=args.house,
            trials=args.trials,
            seed=args.seed,
        )
    else:
        weights = _weights_from_args(args)
        n_from, n_to = _sweep_range(args)
        vf = quota_violation_frequency(method, weights=weights, n_from=n_from, n_to=n_to)
    payload = {
        "lower": vf.lower,
        "upper": vf.upper,
        "total": vf.total,
        "any": vf.any,
        "count": vf.count,
        "n_from": vf.n_from,
        "n_to": vf.n_to,
    }
    return payload, EXIT_OK


def _cmd_apparentement(args) -> tuple[dict, int]:
    if args.ties != "enumerate":
        raise InputError(f"apparentement runs the canonical seats of the float shares; --ties {args.ties} is not supported")
    weights = _weights_from_args(args)
    method = method_by_name(args.method)
    try:
        i_name, j_name = args.merge.split(",")
    except ValueError:
        raise InputError("--merge takes two comma-separated party names or indices") from None
    names = list(weights.names or [])

    def index_of(token):
        token = token.strip()
        if names and token in names:
            return names.index(token)
        try:
            return int(token)
        except ValueError:
            raise InputError(f"unknown party {token!r}") from None

    i, j = index_of(i_name), index_of(j_name)
    if args.seats_to is None:
        raise InputError("--seats-to (or --seats-max) is required")
    stats = apparentement_sweep(
        method, weights, i, j, args.seats_from or 1, args.seats_to
    )
    payload = {
        "party_i": i,
        "party_j": j,
        "n_from": stats.n_from,
        "n_to": stats.n_to,
        "joint_gain_mean": stats.joint_mean,
        "party_gain_means": list(stats.party_means),
    }
    return payload, EXIT_OK


def _cmd_divergence(args) -> tuple[dict, int]:
    weights = _weights_from_args(args)
    method = method_by_name(args.method)
    alloc = allocate(method, weights, args.seats, _tie_policy(args))
    vals = divergences(weights, alloc)
    payload = {
        "seats": list(alloc.seats),
        "sainte_lague": vals.sainte_lague,
        "sum_squares": vals.sum_squares,
        "max_abs": vals.max_abs,
        "max_pos": vals.max_pos,
        "jefferson": vals.jefferson,
        "adams": vals.adams,
        "per_seat": vals.per_seat,
    }
    return payload, EXIT_OK


def _cmd_oracle_check(args) -> tuple[dict, int]:
    weights = _weights_from_args(args)
    method = method_by_name(args.method)
    check = verify_minimizer_identity(method, args.functional, weights, args.seats)
    payload = {
        "passed": check.passed,
        "method_orbit": [list(s) for s in sorted(check.method_orbit)],
        "argmin": [list(s) for s in sorted(check.argmin)],
        "witness": list(check.witness) if check.witness else None,
    }
    return payload, EXIT_OK if check.passed else EXIT_VERIFICATION


def _cmd_period(args) -> tuple[dict, int]:
    weights = _weights_from_args(args)
    payload: dict = {"period": detect_period(weights)}
    if args.method:
        method = method_by_name(args.method)
        payload["average_bias"] = list(period_average_bias(method, weights))
    return payload, EXIT_OK


_COMMANDS = {
    "allocate": _cmd_allocate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "mc-simplex": _cmd_mc_simplex,
    "violations": _cmd_violations,
    "apparentement": _cmd_apparentement,
    "divergence": _cmd_divergence,
    "oracle-check": _cmd_oracle_check,
    "period": _cmd_period,
}


# -- parser --------------------------------------------------------------------


def _add_common(sub, votes=True, method=True):
    if method:
        sub.add_argument("--method", required=True, help="method name, linear:<beta>, or quota:<gamma>")
    if votes:
        sub.add_argument("--votes", help="inline counts, e.g. A=2,B=1")
        sub.add_argument("--input", help="path to a votes file, or - for stdin")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.add_argument("--shares", help="share preset, e.g. sqrt:4")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default 0, or APPORTION_SEED)")
    sub.add_argument("--ties", choices=("random", "enumerate", "average"), default="enumerate")
    sub.add_argument("--output", help="write the JSON report here instead of stdout")
    sub.add_argument("--table", action="store_true", help="print a human-readable table to stderr")
    sub.add_argument("--threads", type=int, default=1, help="at least 1; every sweep runs in one pass")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apportion",
        description="Apportionment laboratory: allocations, sweeps, and verification experiments.",
    )
    parser.add_argument("--version", action="version", version=f"apportion {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("allocate", help="allocate seats at one house size")
    _add_common(s)
    s.add_argument("--seats", type=int, required=True)

    for name, helptext in (("sweep", "seat-excess statistics over a house-size range"),
                           ("verify", "sweep and compare against the asymptotic formulas")):
        s = subs.add_parser(name, help=helptext)
        _add_common(s)
        s.add_argument("--seats-from", type=int, default=None)
        s.add_argument("--seats-to", "--seats-max", dest="seats_to", type=int, default=None)
        s.add_argument("--tolerance", type=float, default=0.01)

    s = subs.add_parser("mc-simplex", help="random ordered shares at one house size")
    _add_common(s, votes=False)
    s.add_argument("--parties", type=int, required=True)
    s.add_argument("--house", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--tolerance", type=float, default=None)

    s = subs.add_parser("violations", help="quota violation frequencies")
    _add_common(s)
    s.add_argument("--random-simplex", type=int, default=None, metavar="M",
                   help="sample M random shares per trial instead of fixed votes")
    s.add_argument("--house", type=int, default=None)
    s.add_argument("--trials", type=int, default=None)
    s.add_argument("--seats-from", type=int, default=None)
    s.add_argument("--seats-to", "--seats-max", dest="seats_to", type=int, default=None)

    s = subs.add_parser("apparentement", help="coalition gain sweep")
    _add_common(s)
    s.add_argument("--merge", required=True, help="two party names or indices, e.g. A,B")
    s.add_argument("--seats-from", type=int, default=None)
    s.add_argument("--seats-to", "--seats-max", dest="seats_to", type=int, default=None)

    s = subs.add_parser("divergence", help="goodness-of-fit functionals of an allocation")
    _add_common(s)
    s.add_argument("--seats", type=int, required=True)

    s = subs.add_parser("oracle-check", help="brute-force minimizer identity check")
    _add_common(s)
    s.add_argument("--seats", type=int, required=True)
    s.add_argument("--functional", choices=FUNCTIONALS, required=True)

    s = subs.add_parser("period", help="period and exact average bias for rational votes")
    _add_common(s, method=False)
    s.add_argument("--method", default=None)

    return parser


def run(argv=None) -> int:
    """Run one command and return its exit code; the parser is built once per process."""
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        if args.seed is None:
            args.seed = _env_seed()
        tolerance = getattr(args, "tolerance", None)
        if tolerance is not None and not (math.isfinite(tolerance) and tolerance >= 0):
            raise InputError(f"--tolerance must be finite and nonnegative, got {tolerance!r}")
        payload, code = _COMMANDS[args.command](args)
        report = {
            "schema_version": SCHEMA_VERSION,
            "engine_version": __version__,
            "config": _echo_config(args),
            "results": jsonify(payload),
            "wall_clock_s": format(time.perf_counter() - started, ".6g"),
        }
        text = json.dumps(report, sort_keys=True, indent=2)
        if args.output:  # an unwritable path is an io-error, as an unreadable --input is
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    except (InstanceTooLargeError, MemoryError) as exc:
        _emit_error(args, str(exc) or "out of memory", "instance-too-large")
        return EXIT_TOO_LARGE
    except ApportionError as exc:
        _emit_error(args, str(exc), type(exc).__name__)
        return EXIT_INVALID
    except OSError as exc:
        _emit_error(args, str(exc), "io-error")
        return EXIT_INVALID
    if not args.output:
        print(text)
    return code


def _env_seed() -> int:
    raw = os.environ.get("APPORTION_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"APPORTION_SEED must be an integer, got {raw!r}") from None


def _echo_config(args) -> dict:
    skip = {"output", "table"}
    return {k: jsonify(v) for k, v in sorted(vars(args).items()) if k not in skip}


def _emit_error(args, message: str, kind: str) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
        "error": {"kind": kind, "message": message},
    }
    print(json.dumps(report, sort_keys=True, indent=2), file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
