import json
import subprocess
import sys

import pytest

RUN = [sys.executable, "-m", "apportion.cli"]


def cli(*args, env=None, timeout=120):
    """Run the CLI; a run past ``timeout`` seconds fails the test with TimeoutExpired."""
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(RUN + list(args), capture_output=True, text=True, env=full_env, timeout=timeout)


def results(proc):
    return json.loads(proc.stdout)["results"]


def test_allocate_inline_votes():
    proc = cli("allocate", "--method", "dhondt", "--seats", "3", "--votes", "A=2,B=1")
    assert proc.returncode == 0
    res = results(proc)
    assert res["seats"] == [2, 1]
    assert res["seat_excess"] == ["0/1", "0/1"]


def test_csv_and_json_inputs(tmp_path):
    f = tmp_path / "votes.csv"
    f.write_text("party,votes\nA,2\nB,1\n")
    proc = cli("allocate", "--method", "webster", "--seats", "3", "--input", str(f))
    assert proc.returncode == 0
    assert results(proc)["seats"] == [2, 1]

    g = tmp_path / "votes.json"
    g.write_text(json.dumps({"C": 1, "A": 2, "B": 2}))
    proc = cli("allocate", "--method", "hamilton", "--seats", "3", "--input", str(g), "--format", "json")
    assert proc.returncode == 0
    res = results(proc)
    assert res["names"] == ["A", "B", "C"]  # lexicographic for JSON
    assert res["seats"] == [1, 1, 1]


def test_zero_votes_rejected():
    proc = cli("allocate", "--method", "dhondt", "--seats", "3", "--votes", "A=0,B=1")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert "positive" in err["error"]["message"]


def test_unknown_method_rejected():
    proc = cli("allocate", "--method", "nosuch", "--seats", "3", "--votes", "A=1,B=1")
    assert proc.returncode == 2


def test_registry_names_and_parametric():
    for name in (
        "jefferson", "dhondt", "webster", "sainte-lague", "adams", "imperiali",
        "danish", "adjusted-sainte-lague", "cambridge", "huntington", "dean",
        "estonia", "macau", "hamilton", "hare", "droop", "imperiali-quota",
        "linear:0.5", "quota:2",
    ):
        seats = 14 if name == "cambridge" else 4
        proc = cli("allocate", "--method", name, "--seats", str(seats), "--votes", "A=5,B=3")
        assert proc.returncode == 0, (name, proc.stderr)


def test_adjusted_sainte_lague_agrees_with_webster_when_all_seated():
    from apportion import PartyWeights, allocate
    from apportion.methods import method_by_name

    w = PartyWeights.of([5, 3, 1])
    adj = method_by_name("adjusted-sainte-lague")
    web = method_by_name("webster")
    for house in range(1, 80):
        a = allocate(adj, w, house)
        b = allocate(web, w, house)
        if min(a.seats) >= 1:
            assert a.seats == b.seats, house
    # the adjustment makes the first seat harder to win
    proc = cli("allocate", "--method", "adjusted-sainte-lague", "--seats", "4", "--votes", "A=85,B=15")
    assert results(proc)["seats"] == [4, 0]
    proc = cli("allocate", "--method", "webster", "--seats", "4", "--votes", "A=85,B=15")
    assert results(proc)["seats"] == [3, 1]


def test_reports_are_deterministic():
    args = ("mc-simplex", "--method", "droop", "--parties", "3", "--house", "1000", "--trials", "500")
    r1 = json.loads(cli(*args).stdout)
    r2 = json.loads(cli(*args).stdout)
    r1.pop("wall_clock_s")
    r2.pop("wall_clock_s")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_seed_env_override():
    base = ("mc-simplex", "--method", "droop", "--parties", "3", "--house", "1000", "--trials", "300")
    r_default = results(cli(*base))
    r_env = results(cli(*base, env={"APPORTION_SEED": "123"}))
    r_flag = results(cli(*base, "--seed", "123"))
    assert r_env == r_flag
    assert r_env != r_default


def test_verify_pass_and_fail_exit_codes():
    ok = cli("verify", "--method", "webster", "--shares", "sqrt:3", "--seats-max", "60000")
    assert ok.returncode == 0
    res = json.loads(ok.stdout)["results"]
    assert res["comparison"]["passed"] is True
    # wrong method for the same data fails comparison: compare dhondt sweep
    # against dhondt predictions but with a tiny tolerance nothing satisfies
    bad = cli("verify", "--method", "dhondt", "--shares", "sqrt:3", "--seats-max", "2000", "--tolerance", "1e-7")
    assert bad.returncode == 3


def test_oracle_check_too_large_exit_code():
    proc = cli(
        "oracle-check", "--method", "webster", "--functional", "sainte_lague",
        "--votes", "A=5,B=3,C=2,D=1", "--seats", "5000",
    )
    assert proc.returncode == 4


def test_period_command():
    proc = cli("period", "--votes", "A=2,B=2,C=1", "--method", "droop")
    assert proc.returncode == 0
    res = results(proc)
    assert res["period"] == 5
    assert res["average_bias"] == ["1/30", "1/30", "-1/15"]


def test_period_refuses_an_eventually_periodic_method():
    # Huntington-Hill's excess is periodic only past a transient
    proc = cli("period", "--votes", "A=7,B=5,C=3,D=2", "--method", "huntington")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)["error"]
    assert err["kind"] == "UnsupportedMethodError"
    assert "d(n) = n - 1 + beta" in err["message"]


def test_divergence_command():
    proc = cli("divergence", "--method", "hamilton", "--seats", "3", "--votes", "A=2,B=2,C=1")
    res = results(proc)
    assert res["sum_squares"] == "6/25"


def test_apparentement_command():
    proc = cli(
        "apparentement", "--method", "dhondt", "--votes", "A=40,B=30,C=20,D=10",
        "--merge", "C,D", "--seats-to", "20000",
    )
    assert proc.returncode == 0
    res = results(proc)
    assert 0.2 < float(res["joint_gain_mean"]) < 0.5


def test_apparentement_refuses_a_tie_policy_it_does_not_run():
    # apparentements run the canonical seats of the float shares: only the
    # default --ties enumerate says what runs
    base = ("apparentement", "--method", "webster", "--votes", "A=3,B=2,C=2,D=1", "--merge", "B,C", "--seats-to", "40")
    for ties in ("average", "random"):
        proc = cli(*base, "--ties", ties)
        assert proc.returncode == 2
        err = json.loads(proc.stderr)["error"]
        assert err["kind"] == "InputError"
        assert f"--ties {ties} is not supported" in err["message"]
    assert results(cli(*base, "--ties", "enumerate")) == results(cli(*base))


def test_violations_command_fixed_mode():
    proc = cli(
        "violations", "--method", "hamilton", "--votes", "A=5,B=3,C=2",
        "--seats-from", "1", "--seats-to", "500",
    )
    res = results(proc)
    assert float(res["any"]) == 0.0


def test_table_output():
    proc = cli("verify", "--method", "hamilton", "--shares", "sqrt:3", "--seats-max", "30000", "--table")
    assert "overall: pass" in proc.stderr


def test_threads_below_one_rejected():
    proc = cli("sweep", "--method", "webster", "--shares", "sqrt:3", "--seats-max", "100", "--threads", "0")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)["error"]
    assert err["kind"] == "InputError"
    assert "workers" in err["message"]


def test_sweep_below_the_guard_names_the_guard():
    # Adams gives every party a seat first: houses below 3 are infeasible
    proc = cli("sweep", "--method", "adams", "--votes", "A=1,B=1,C=1", "--seats-to", "2")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)["error"]
    assert err["kind"] == "InputError"
    assert err["message"] == "sweep range lies entirely below the small-house guard 3"


def test_shares_party_count_not_an_integer():
    proc = cli("sweep", "--method", "webster", "--shares", "sqrt:abc", "--seats-max", "100")
    assert proc.returncode == 2
    err = json.loads(proc.stderr)["error"]
    assert err["kind"] == "InputError"
    assert "'abc'" in err["message"]


def test_seed_from_environment_not_an_integer():
    proc = cli("allocate", "--method", "dhondt", "--seats", "3", "--votes", "A=2,B=1", env={"APPORTION_SEED": "abc"})
    assert proc.returncode == 2
    err = json.loads(proc.stderr)["error"]
    assert err["kind"] == "InputError"
    assert "APPORTION_SEED" in err["message"]


def _input_error(proc):
    assert proc.returncode == 2
    err = json.loads(proc.stderr)["error"]
    assert err["kind"] == "InputError"
    return err["message"]


BIG_HOUSE = str(10**23)


@pytest.mark.parametrize(
    "argv",
    [
        ("allocate", "--method", "webster", "--votes", "A=1,B=2", "--seats", str(10**26)),
        ("mc-simplex", "--method", "webster", "--parties", "3", "--house", BIG_HOUSE, "--trials", "10"),
        ("violations", "--method", "webster", "--random-simplex", "3", "--house", BIG_HOUSE, "--trials", "10"),
        ("allocate", "--method", "linear:inf", "--votes", "A=1,B=2", "--seats", "5"),
        ("allocate", "--method", "linear:-inf", "--votes", "A=1,B=2", "--seats", "5"),
        ("allocate", "--method", "linear:nan", "--votes", "A=1,B=2", "--seats", "5"),
        ("mc-simplex", "--method", "linear:nan", "--parties", "3", "--house", "10", "--trials", "10"),
    ],
)
def test_out_of_range_input_is_a_json_error(argv):
    # each of these once hung, or exited 1 with a traceback
    proc = cli(*argv, timeout=30)
    assert "Traceback" not in proc.stderr
    _input_error(proc)


def test_macau_past_the_float_range():
    proc = cli("allocate", "--method", "macau", "--shares", "sqrt:4", "--seats", "5000")
    assert "float range" in _input_error(proc)


def test_random_violations_need_a_trial():
    proc = cli("violations", "--method", "dhondt", "--random-simplex", "3", "--trials", "0", "--house", "10")
    assert "trial" in _input_error(proc)


def test_random_drivers_reject_a_negative_house():
    proc = cli("violations", "--method", "dhondt", "--random-simplex", "3", "--trials", "10", "--house", "-4")
    assert "house size" in _input_error(proc)
    proc = cli("mc-simplex", "--method", "dhondt", "--parties", "3", "--trials", "10", "--house", "-4")
    assert "house size" in _input_error(proc)


def test_tolerance_must_be_finite_and_nonnegative():
    for value in ("nan", "inf", "-0.5"):
        proc = cli("verify", "--method", "webster", "--shares", "sqrt:3", "--seats-max", "100", "--tolerance", value)
        assert "--tolerance" in _input_error(proc)
    proc = cli("mc-simplex", "--method", "dhondt", "--parties", "3", "--trials", "10", "--house", "10",
               "--tolerance", "nan")
    assert "--tolerance" in _input_error(proc)


def test_random_modes_reject_a_house_below_the_mandatory_seats():
    # Adams gives every party one seat: three parties need a house of 3
    for args in (("mc-simplex", "--parties", "3", "--house", "1"), ("violations", "--random-simplex", "3", "--house", "2")):
        proc = cli(args[0], "--method", "adams", *args[1:], "--trials", "10")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)["error"]
        assert err["kind"] == "InfeasibleHouseSizeError"
        assert "house size >= 3" in err["message"]


def test_random_modes_with_a_many_digit_beta():
    # "0.3333333333333333" parses to a Fraction with denominator 10**16
    proc = cli("mc-simplex", "--method", "linear:0.3333333333333333", "--parties", "3", "--house", "3000",
               "--trials", "200")
    assert proc.returncode == 0, proc.stderr
    assert len(results(proc)["ordered_share_means"]) == 3


def test_random_modes_bound_the_trials(monkeypatch, capsys):
    from apportion import cli as cli_module, harness

    def no_draws(*args):
        raise AssertionError("the Monte Carlo loop started")

    monkeypatch.setattr(harness, "sample_uniform_simplex", no_draws)
    too_many = str(harness.MAX_TRIALS + 1)
    for argv in (
        ["mc-simplex", "--method", "webster", "--parties", "3", "--house", "100", "--trials", too_many],
        ["violations", "--method", "dhondt", "--random-simplex", "3", "--trials", too_many, "--house", "100"],
    ):
        assert cli_module.run(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "InputError"
        assert f"at most {harness.MAX_TRIALS} trials" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--method", "webster", "--shares", "sqrt:4", "--seats-to", str(10**11)),
        ("apparentement", "--method", "webster", "--shares", "sqrt:4", "--merge", "0,1", "--seats-to", str(10**11)),
        ("sweep", "--method", "hamilton", "--shares", "sqrt:4", "--seats-to", str(10**15)),
    ],
)
def test_sweeps_past_max_trials_houses_are_a_json_error(argv):
    # the first two once exited 1 with a numpy memory traceback, the third never ended
    from apportion import harness

    proc = cli(*argv, timeout=30)
    assert "Traceback" not in proc.stderr
    assert f"at most {harness.MAX_TRIALS} houses" in _input_error(proc)


def test_out_of_memory_is_instance_too_large(monkeypatch, capsys):
    from apportion import cli as cli_module

    message = "Unable to allocate 745. GiB for an array with shape (100000000000,)"

    def no_memory(args):
        raise MemoryError(message)

    monkeypatch.setitem(cli_module._COMMANDS, "sweep", no_memory)
    assert cli_module.run(["sweep", "--method", "webster", "--shares", "sqrt:4", "--seats-to", "10"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == {"kind": "instance-too-large", "message": message}


README_EXAMPLES = [  # the README examples, at smaller sizes
    ["allocate", "--method", "dhondt", "--seats", "3", "--votes", "A=2,B=1"],
    ["period", "--votes", "A=2,B=2,C=1", "--method", "droop"],
    ["violations", "--method", "dhondt", "--random-simplex", "3", "--trials", "1000", "--house", "1000"],
    ["verify", "--method", "webster", "--shares", "sqrt:4", "--seats-max", "2000"],
]


def test_one_parser_serves_every_run_in_a_process(capsys):
    from apportion import cli as cli_module

    def report(text):
        body = json.loads(text)
        body.pop("wall_clock_s")
        return body

    assert cli_module.build_parser() is cli_module.build_parser()
    failing = ["allocate", "--method", "dhondt", "--seats", "3", "--votes", "A=0,B=1"]
    for argv in README_EXAMPLES:
        proc = cli(*argv)
        for _ in range(2):  # twice, with a failing command in between
            code = cli_module.run(argv)
            assert (code, report(capsys.readouterr().out)) == (proc.returncode, report(proc.stdout))
            assert cli_module.run(failing) == 2
            assert json.loads(capsys.readouterr().err)["error"]["kind"] == "InputError"


@pytest.mark.parametrize("target", ["missing", "directory"])
def test_an_unwritable_output_is_an_io_error(tmp_path, target):
    path = tmp_path / "nonexistent" / "x.json" if target == "missing" else tmp_path
    proc = cli("allocate", "--method", "dhondt", "--votes", "A=2,B=1", "--seats", "3", "--output", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"]["kind"] == "io-error"


def test_repeated_party_names_are_an_input_error(tmp_path):
    proc = cli("allocate", "--method", "dhondt", "--votes", "A=2,A=1", "--seats", "3")
    assert "distinct" in _input_error(proc)
    f = tmp_path / "votes.csv"
    f.write_text("party,votes\nA,2\nB,1\nA,3\n")
    proc = cli("apparentement", "--method", "webster", "--input", str(f), "--merge", "A,B", "--seats-to", "40")
    assert "distinct" in _input_error(proc)


def test_a_late_exact_sweep_costs_its_width():
    # 1001 houses from 10**11 on exact votes: one window of awards, from allocate's seats just below the range
    argv = ("--votes", "A=7,B=5,C=3,D=2", "--seats-from", "100000000000", "--seats-to", "100000001000")
    proc = cli("sweep", "--method", "webster", *argv, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert results(proc)["stats"]["count"] == 1001
