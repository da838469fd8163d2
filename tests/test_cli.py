import json
import os
import subprocess
import sys

import pytest

import vass
from vass import cli, fixpoint, instances, model, reductions
from vass.cli import main


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "demo.vass"
    path.write_text(model.serialize_vass(instances.demo_guarded()))
    return str(path)


@pytest.fixture(scope="module")
def plain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "plain.vass"
    path.write_text(model.serialize_vass(instances.demo_plain()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_unboundedness_yes(capsys, demo_file):
    code, out, _ = run(capsys, "check", "--mode", "unboundedness", demo_file)
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_check_coverability_yes(capsys, demo_file):
    code, out, _ = run(capsys, "check", "--mode", "coverability", demo_file)
    assert code == 0 and out.splitlines()[0] == "YES"


def test_check_oracle_algo(capsys, demo_file):
    code, out, _ = run(capsys, "check", "--algo", "oracle", demo_file)
    assert code == 0 and out.splitlines()[0] == "YES"


def test_check_pareto_rejects_guarded_input(capsys, demo_file):
    code, out, err = run(capsys, "check", "--algo", "pareto", demo_file)
    assert code == 2
    assert "guard-free" in err


def test_check_pareto_on_plain_instance(capsys, plain_file):
    code, out, _ = run(capsys, "check", "--algo", "pareto", plain_file)
    assert code == 0 and out.splitlines()[0] == "NO"


def test_check_json_format(capsys, demo_file):
    code, out, _ = run(capsys, "--format", "json", "check", demo_file)
    doc = json.loads(out)
    assert doc["answer"] == "YES" and doc["mode"] == "unboundedness"


def test_check_emit_trace(capsys, demo_file, tmp_path):
    dest = tmp_path / "trace.json"
    code, out, _ = run(capsys, "check", demo_file, "--emit-trace", str(dest))
    assert code == 0
    doc = json.loads(dest.read_text())
    assert doc["status"] == "complete"
    assert doc["rounds"][0]["s4"] == [54, 57, 60, 63, 66, 69, 75, 78, 84, 87, 93, 96]
    assert {"chain_lo", "max"} <= set(doc["per_chain_max"]["s4"][0])


def test_bounded_cover_subcommand(capsys, demo_file):
    code, out, _ = run(
        capsys, "bounded-cover", demo_file, "--source", "s4", "--counter", "63",
        "--target", "s10", "--ell", "80", "--period", "10",
        "--not-res", "0,3,6,9", "--steps", "10", "--witness")
    assert code == 0
    assert out.splitlines()[0] == "YES"


def test_bounded_cover_negative(capsys, demo_file):
    code, out, _ = run(
        capsys, "bounded-cover", demo_file, "--source", "s4", "--counter", "72",
        "--target", "s10", "--ell", "80", "--period", "10",
        "--not-res", "0,3,6,9", "--steps", "10")
    assert code == 0 and out.splitlines()[0] == "NO"


def test_inspect_json_schema(capsys, demo_file):
    code, out, _ = run(capsys, "--format", "json", "inspect", demo_file,
                       "--cycles", "--chains", "--blocked", "--u-trace")
    assert code == 0
    doc = json.loads(out)
    assert {"states", "cycles", "chains", "u_trace"} <= set(doc)
    by_state = {c["state"]: c for c in doc["cycles"]}
    assert by_state["s1"]["period"] == 6 and by_state["s1"]["pmin"] == -12
    assert by_state["s4"]["period"] == 9
    chains4 = [(c["lo"], c["hi"]) for c in doc["chains"]
               if c["state"] == "s4" and c["residue"] == 0]
    assert chains4 == [(54, 81), (90, 90), (99, None)]


def test_inspect_text_output(capsys, demo_file):
    code, out, _ = run(capsys, "inspect", demo_file)
    assert code == 0
    assert "pumpable states" in out and "s4" in out


def test_inspect_pareto_cells(capsys, plain_file):
    code, out, _ = run(capsys, "--format", "json", "inspect", plain_file,
                       "--pareto")
    doc = json.loads(out)
    cell = [(c["pmin"], c["smax"]) for c in doc["pareto"]["cells"]
            if c["src"] == "s0" and c["dst"] == "s4"]
    assert sorted(cell) == [(-4, 6), (-2, 3)]


def test_inspect_output_is_deterministic(capsys, demo_file):
    _, out1, _ = run(capsys, "--format", "json", "inspect", demo_file,
                     "--u-trace", "--chains")
    _, out2, _ = run(capsys, "--format", "json", "inspect", demo_file,
                     "--u-trace", "--chains")
    assert out1 == out2


def test_inspect_takes_no_source_or_target(capsys, demo_file):
    # inspect analyses the whole instance; it reads no source or target
    for flag in ("--source", "--target"):
        code, out, err = run(capsys, "inspect", demo_file, flag, "nosuchstate")
        assert code == 1 and out == "", flag
        assert err.startswith("usage error:") and flag in err, flag


@pytest.mark.parametrize("argv", (
    ("check", "DEMO", "--emit-trace", "DEST"),
    ("gen", "cnf", "--random", "3", "2", "7", "--meta", "DEST"),
))
def test_unwritable_output_is_an_input_error(capsys, tmp_path, demo_file, argv):
    # the destination is opened before anything is printed
    dest = str(tmp_path / "missing" / "out.json")
    argv = [{"DEMO": demo_file, "DEST": dest}.get(a, a) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and dest in err


def _expected_trace(v: model.Vass) -> dict:
    """The trace of a fresh saturation of the normalized ``v``."""
    core = fixpoint.unbounded_core(model.normalize_guards_with_maps(v)[0])
    names = core.analysis.vass.names
    maxima: dict = {}
    for (q, lo), m in sorted(core.uset.per_chain_max.items()):
        maxima.setdefault(names[q], []).append({"chain_lo": lo, "max": m})
    return {
        "rounds": [{names[q]: vals for q, vals in r.items()}
                   for r in core.rounds],
        "per_chain_max": maxima,
        "status": core.status,
    }


def test_emit_trace_reuses_the_solve(capsys, monkeypatch, demo_file):
    # the trace is that of the one saturation behind the answer: for
    # coverability, of the normalized instance the reduction solves
    v = instances.demo_guarded()
    reduced, _ = reductions.reduce_cov_to_unbound(v, v.initial, v.target)
    expected = {"unboundedness": _expected_trace(v),
                "coverability": _expected_trace(reduced)}
    calls = []
    solve = fixpoint.unbounded_core

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fixpoint, "unbounded_core", counted)
    for mode, want in expected.items():
        calls.clear()
        code, out, _ = run(capsys, "check", "--mode", mode, demo_file,
                           "--emit-trace", "-")
        assert code == 0 and len(calls) == 1, mode
        token, trace = out.split("\n", 1)
        assert token == "YES", mode
        assert json.loads(trace) == want, mode


def test_json_trace_on_stdout_is_one_document(capsys, demo_file):
    # under --format json the trace sits in the payload, so stdout parses
    # as one JSON document; text mode keeps the token, then the trace
    code, out, _ = run(capsys, "--format", "json", "check", demo_file,
                       "--emit-trace", "-")
    doc = json.loads(out)
    assert code == 0 and doc["answer"] == "YES"
    assert doc["trace"] == _expected_trace(instances.demo_guarded())
    code, text, _ = run(capsys, "check", demo_file, "--emit-trace", "-")
    token, trace = text.split("\n", 1)
    assert (code, token) == (0, "YES") and json.loads(trace) == doc["trace"]


UNKNOWN_TO_ORACLE = ("state a 1000\nstate b\nedge a a 1\nedge a b -500\n"
                     "init a\ntarget b\n")


@pytest.mark.parametrize("argv", (
    ("check", "--algo", "oracle"),
    ("check", "--algo", "oracle", "--mode", "coverability"),
))
def test_oracle_unknown_exits_incomplete(capsys, tmp_path, argv):
    # the +1 loop climbs past the counter cap long before the guard at 1000
    path = tmp_path / "climb.vass"
    path.write_text(UNKNOWN_TO_ORACLE)
    code, out, _ = run(capsys, *argv, str(path), "--counter-cap", "10")
    assert out.splitlines()[0] == "UNKNOWN"
    assert code == 3


def test_gen_cnf_roundtrip(capsys, tmp_path):
    meta_path = tmp_path / "meta.json"
    code, out, _ = run(capsys, "gen", "cnf", "--random", "3", "2", "11",
                       "--meta", str(meta_path))
    assert code == 0
    v = model.parse_vass(out)
    assert v.n_states == 3
    meta = json.loads(meta_path.read_text())
    assert meta["primes"] == [2, 3, 5] and meta["product"] == 30


@pytest.mark.parametrize("n_vars", ("1", "2"))
def test_gen_cnf_random_needs_three_variables(capsys, n_vars):
    code, out, err = run(capsys, "gen", "cnf", "--random", n_vars, "1", "0")
    assert code == 2 and out == ""
    assert err == "input error: random 3-CNF needs at least 3 variables\n"
    # without clauses there is nothing to sample
    assert run(capsys, "gen", "cnf", "--random", n_vars, "0", "0")[0] == 0


@pytest.mark.parametrize("n_vars", ("1", "3"))
def test_gen_cnf_random_needs_a_nonnegative_clause_count(capsys, n_vars):
    code, out, err = run(capsys, "gen", "cnf", "--random", n_vars, "-2", "0")
    assert code == 2 and out == ""
    assert err == "input error: clause count must be nonnegative\n"


def test_gen_cnf_from_dimacs(capsys, tmp_path):
    src = tmp_path / "f.cnf"
    src.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out, _ = run(capsys, "gen", "cnf", "--dimacs", str(src))
    assert code == 0
    v = model.parse_vass(out)
    assert sorted(v.guards[1])[0] == 30


def test_gen_cnf_from_dimacs_holds_the_file_to_its_header(capsys, tmp_path):
    src = tmp_path / "f.cnf"
    src.write_text("p cnf 3 5\n1 2 4 0\n")
    code, out, err = run(capsys, "gen", "cnf", "--dimacs", str(src))
    assert (code, out) == (2, "")
    assert err == "input error: variable 4 exceeds the header 'p cnf 3 5'\n"


def test_reduce_subcommand(capsys, demo_file):
    code, out, _ = run(capsys, "reduce", "cov2unbound", demo_file)
    assert code == 0
    v = model.parse_vass(out)
    assert v.n_states == 15


def test_oracle_subcommand(capsys, demo_file):
    # the brute-force oracle answers each question through its command's
    # --algo oracle; in bounded-cover it prints no detail lines
    code, out, _ = run(capsys, "check", "--algo", "oracle", demo_file)
    assert code == 0 and out.splitlines()[0] == "YES"
    for algo, detail in (("dp", "max layer size 1\n"), ("oracle", "")):
        assert run(capsys, "bounded-cover", demo_file, "--algo", algo,
                   "--source", "s4", "--counter", "63", "--target", "s10",
                   "--ell", "80", "--period", "10", "--not-res", "0,3,6,9",
                   "--steps", "10") == (0, "YES\n", detail), algo
    code, out, _ = run(capsys, "--format", "json", "bounded-cover", demo_file,
                       "--algo", "oracle", "--source", "s4", "--counter", "72",
                       "--target", "s10", "--ell", "80", "--period", "10",
                       "--not-res", "0,3,6,9", "--steps", "10")
    assert code == 0 and json.loads(out) == {
        "answer": "NO", "mode": "bounded-cover", "algo": "oracle", "detail": []}
    # there is no separate oracle command
    assert run(capsys, "oracle", demo_file, "--mode", "unbounded")[:2] == (1, "")


def test_oracle_bounded_cover_rejects_bad_objective(capsys, demo_file):
    code, out, err = run(capsys, "bounded-cover", demo_file, "--algo", "oracle",
                         "--source", "s4", "--target", "s10", "--ell", "0",
                         "--period", "0", "--steps", "0")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "period" in err


@pytest.mark.parametrize("argv", (
    ("bounded-cover", "--source", "s4", "--target", "s10", "--ell", "80",
     "--period", "10", "--steps", "-1"),
    ("bounded-cover", "--algo", "oracle", "--source", "s4", "--target", "s10",
     "--ell", "0", "--period", "1", "--steps", "-3"),
))
def test_negative_step_bound_is_an_input_error(capsys, demo_file, argv):
    code, out, err = run(capsys, argv[0], demo_file, *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "step" in err


@pytest.mark.parametrize("argv", (
    ("--node-cap", "1"),
    ("--counter-cap", "0"),
    ("--algo", "pareto", "--node-cap", "1"),
    ("--algo", "oracle", "--emit-trace", "-"),
    ("--algo", "pareto", "--emit-trace", "-"),
))
def test_check_refuses_flags_its_algorithm_ignores(capsys, demo_file, argv):
    code, out, err = run(capsys, "check", *argv, demo_file)
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "applies only to" in err


ORACLE_BOUNDED_COVER = ("bounded-cover", "--algo", "oracle", "--source", "s4",
                        "--target", "s10", "--ell", "80", "--period", "10",
                        "--steps", "10")


@pytest.mark.parametrize("argv", (
    ORACLE_BOUNDED_COVER + ("--node-cap", "1"),
    ORACLE_BOUNDED_COVER + ("--counter-cap", "0"),
    ("check", "--mode", "coverability", "--algo", "oracle", "--counter", "3"),
    ("check", "--mode", "coverability", "--algo", "oracle", "--ell", "2"),
    ("check", "--algo", "oracle", "--period", "0"),
    ("check", "--algo", "oracle", "--not-res", "0"),
    ("check", "--mode", "coverability", "--algo", "oracle", "--not-val", "4"),
    ("check", "--algo", "oracle", "--steps", "5"),
    ORACLE_BOUNDED_COVER + ("--witness",),
))
def test_oracle_refuses_flags_its_mode_ignores(capsys, demo_file, argv):
    # a flag of another question is unknown to the command (no prefix
    # matching: --counter is not --counter-cap); one of another algorithm
    # of the same question is refused by name
    code, out, err = run(capsys, argv[0], demo_file, *argv[1:])
    assert code == 1 and out == ""
    flag = next(a for a in reversed(argv) if a.startswith("--"))
    assert err.startswith("usage error:") and flag in err


def test_check_oracle_reads_its_node_cap(capsys, demo_file):
    # the default cap settles the demo (test_check_oracle_algo); one node
    # cuts the search
    code, out, _ = run(capsys, "check", "--algo", "oracle", "--node-cap", "1",
                       demo_file)
    assert code == 3 and out.splitlines()[0] == "UNKNOWN"


def test_check_rigorous_is_a_usage_error(capsys, demo_file):
    # the fixpoint solver has one configuration; the worst-case preset is gone
    code, out, err = run(capsys, "check", "--rigorous", demo_file)
    assert code == 1 and out == "" and err.startswith("usage error:")


@pytest.mark.parametrize("argv", (
    ("check", "--algo", "oracle", "--counter-cap"),
    ("check", "--algo", "oracle", "--node-cap"),
    ("check", "--algo", "oracle", "--mode", "coverability", "--counter-cap"),
    ("check", "--algo", "oracle", "--mode", "coverability", "--node-cap"),
    ("bounded-cover", "--source", "s4", "--target", "s10", "--ell", "80",
     "--period", "10", "--steps", "10", "--counter"),
    ORACLE_BOUNDED_COVER + ("--counter",),
))
def test_negative_numeric_flag_is_an_input_error(capsys, demo_file, argv):
    code, out, err = run(capsys, argv[0], demo_file, *argv[1:], "-4")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and argv[-1] in err
    # zero is a valid value of every such flag
    assert run(capsys, argv[0], demo_file, *argv[1:], "0")[0] != 2


BOUNDED_COVER = ("bounded-cover", "--source", "s4", "--target", "s10",
                 "--counter", "63", "--ell", "80", "--period", "10",
                 "--steps", "10")


def _with_flag(argv: tuple, flag: str, value: str) -> tuple:
    i = argv.index(flag)
    return argv[:i + 1] + (value,) + argv[i + 2:]


@pytest.mark.parametrize("value", ("1_0", "\u0661", " 5", "5 ", "0x5", "5.0"),
                         ids=("underscore", "arabic-indic", "lead-blank",
                              "trail-blank", "hex", "decimal"))
@pytest.mark.parametrize("argv, flag", (
    (BOUNDED_COVER, "--counter"),
    (BOUNDED_COVER, "--ell"),
    (BOUNDED_COVER, "--period"),
    (BOUNDED_COVER, "--steps"),
    (("check", "--algo", "oracle", "--counter-cap", "0"), "--counter-cap"),
    (("check", "--algo", "oracle", "--node-cap", "0"), "--node-cap"),
    (("gen", "cnf", "--random", "3", "2", "7"), "--random"),
), ids=("counter", "ell", "period", "steps", "counter-cap", "node-cap",
        "random"))
def test_numeric_flags_take_ascii_integers_only(capsys, demo_file, argv, flag,
                                                value):
    # numeric flags read integers as the instance format does; a refused
    # value is a usage error, as any other bad flag value
    file = () if argv[0] == "gen" else (demo_file,)
    code, out, err = run(capsys, argv[0], *file,
                         *_with_flag(argv, flag, value)[1:])
    assert (code, out) == (1, "")
    assert err.startswith(f"usage error: argument {flag}") and "integer" in err
    # the same value in ASCII digits is accepted
    assert run(capsys, argv[0], *file, *argv[1:])[0] in (0, 3)


@pytest.mark.parametrize("flag", ("--not-res", "--not-val"))
@pytest.mark.parametrize("value", ("1_0", "3,\u0661", "3, 4", "0x5"),
                         ids=("underscore", "arabic-indic", "blank", "hex"))
def test_csv_flags_take_ascii_integers_only(capsys, demo_file, flag, value):
    # a bad integer list is an input error, as it always was
    code, out, err = run(capsys, BOUNDED_COVER[0], demo_file,
                         *BOUNDED_COVER[1:], flag, value)
    assert (code, out) == (2, "")
    assert err == f"input error: bad integer list {value!r}\n"
    assert run(capsys, BOUNDED_COVER[0], demo_file, *BOUNDED_COVER[1:], flag,
               "0,3,")[0] == 0


@pytest.mark.parametrize("argv, flag", (
    (BOUNDED_COVER, "--counter"),
    (BOUNDED_COVER, "--ell"),
    (BOUNDED_COVER, "--period"),
    (BOUNDED_COVER + ("--not-val", "3,0"), "--not-val"),
), ids=("counter", "ell", "period", "not-val"))
def test_bounded_cover_value_above_64_bits_is_an_input_error(capsys, demo_file,
                                                             argv, flag):
    # counters are 64-bit inputs, as in the instance format
    big = _with_flag(argv, flag, "9223372036854775808,3"
                     if flag == "--not-val" else "9223372036854775808")
    code, out, err = run(capsys, big[0], demo_file, *big[1:])
    assert (code, out) == (2, "")
    assert err == f"input error: {flag} must be at most 9223372036854775807\n"
    # the largest magnitude itself is accepted
    top = _with_flag(argv, flag, "9223372036854775807")
    assert run(capsys, top[0], demo_file, *top[1:])[0] == 0


@pytest.mark.parametrize("text, where", (
    ("state a\nedge a a 9223372036854775808\n", "line 2: weight"),
    ("state a\nedge a a -9223372036854775808\n", "line 2: weight"),
    ("state a 9223372036854775808\n", "line 1: guard value"),
))
def test_out_of_range_value_is_reported_at_its_line(capsys, tmp_path, text,
                                                    where):
    f = tmp_path / "big.vass"
    f.write_text(text)
    code, out, err = run(capsys, "check", "--source", "a", str(f))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: {where}")
    # the largest magnitude itself is accepted
    model.parse_vass(text.replace("9223372036854775808", "9223372036854775807"))


def test_comment_ends_only_at_a_newline(capsys, tmp_path):
    # a line separator inside a comment does not end it: the edge after it
    # is not read, so b is not coverable
    f = tmp_path / "sep.vass"
    f.write_text("state a\nstate b\n# old edge removed:\u2028edge a b 1\n"
                 "init a\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--mode", "coverability", "--target",
                       "b", str(f))
    assert (code, out) == (0, "NO\n")


@pytest.mark.parametrize("make", (instances.up, instances.updown),
                         ids=("up", "updown"))
def test_check_decides_a_guard_at_ten_million(capsys, tmp_path, make):
    # the bounded chain below the guard is lapped in one step, not walked,
    # and so is the down-counter entered from the whole chain at once
    f = tmp_path / "big.vass"
    f.write_text(model.serialize_vass(make(10**7)))
    code, out, err = run(capsys, "check", str(f))
    assert (code, out, err) == (0, "NO\n", "reachable set is finite\n")


def test_main_builds_the_parser_once(capsys, monkeypatch, demo_file):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            assert run(capsys, "check", demo_file)[:2] == (0, "YES\n")
    finally:
        cli.build_parser.cache_clear()
    assert built.count("vass") == 1, built


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "0 failures" in out


def test_python_m_vass_runs_the_cli():
    src = os.path.dirname(os.path.dirname(vass.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "vass", "selftest"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "0 failures" in done.stdout


@pytest.mark.parametrize("argv", [
    ["check"],
    ["--format", "json", "inspect", "--chains"],
], ids=["check", "inspect"])
def test_closed_stdout_ends_quietly(demo_file, argv):
    # the reader of stdout is gone before the command writes: status 1 and
    # nothing on stderr, also for output small enough to wait in the buffer
    src = os.path.dirname(os.path.dirname(vass.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "vass", *argv, demo_file],
                              stdout=w, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(w)
    assert (done.returncode, done.stderr) == (1, b"")


def test_usage_error_exit_code(capsys):
    assert run(capsys, "check")[0] == 1
    assert run(capsys, "frobnicate")[0] == 1


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.vass"
    bad.write_text("state a\nedge a ghost 1\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2 and "ghost" in err
    assert run(capsys, "check", str(tmp_path / "missing.vass"))[0] == 2


def test_missing_source_marker(capsys, tmp_path):
    f = tmp_path / "nomark.vass"
    f.write_text("state a\nedge a a 1\n")
    code, _, err = run(capsys, "check", str(f))
    assert code == 2 and "source" in err
    code, out, _ = run(capsys, "check", str(f), "--source", "a")
    assert code == 0 and out.splitlines()[0] == "YES"
