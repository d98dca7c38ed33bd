"""Exit codes, output shapes, and golden files of the command line."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mvpdl
from mvpdl.cli import _build_parser, main
from mvpdl.kripke import parse_model

COUNTEREXAMPLE = """\
n = 4
worlds: u v
rel a: u->v
val p: u=3/4 v=1/4
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.kml"
    path.write_text(COUNTEREXAMPLE)
    return str(path)


def test_eval(model_file, capsys):
    assert main(["eval", "--model", model_file, "--world", "u", "[a*]p"]) == 0
    assert capsys.readouterr().out.strip() == "1/4"


def test_eval_json(model_file, capsys):
    assert main(["eval", "--model", model_file, "--world", "u", "p", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"world": "u", "value": "3/4"}


def test_check_verdicts(model_file, capsys):
    assert main(["check", "--model", model_file, "[a*]p -> p"]) == 0
    assert "true in every world" in capsys.readouterr().out
    assert main(["check", "--model", model_file, "p"]) == 1
    assert "false at u" in capsys.readouterr().out


def test_taut_verdicts(capsys):
    assert main(["taut", "(p (.) (p -> q)) -> q", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "tautology"
    assert main(["taut", "p | ~p", "--n", "2"]) == 1
    assert "p=1/2" in capsys.readouterr().out
    assert main(["taut", "p^300 -> p^300", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "tautology"


def _implication_chain(k: int) -> str:
    """(p1 -> p2) -> ((p2 -> p3) -> ... -> (p1 -> pk)), a tautology over k variables."""
    text = f"p1 -> p{k}"
    for i in range(k - 1, 0, -1):
        text = f"(p{i} -> p{i + 1}) -> ({text})"
    return text


def test_taut_past_its_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert main(["taut", _implication_chain(40), "--n", "1"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the truth table has 2^40 rows, past the budget of 100000000; raise it to go on\n"
    # a table of as many rows as the budget is read
    assert main(["taut", _implication_chain(3), "--n", "2", "--budget", "27"]) == 0
    assert capsys.readouterr().out == "tautology\n"
    assert main(["taut", _implication_chain(3), "--n", "2", "--budget", "26"]) == 2
    assert capsys.readouterr().err.startswith("error: the truth table has 3^3 rows, past the budget of 26;")
    assert main(["taut", "p", "--n", "2", "--budget", "-1"]) == 2
    assert capsys.readouterr().err == "error: budget must be >= 0\n"


def test_ulam_past_its_budget_exits_2_at_once(capsys):
    # 2^16 states at most (the full space at n = 1), each with 2^16 questions
    for argv in (["check", "--spec", "p_1"], ["build"]):
        start = time.perf_counter()
        assert main(["ulam", argv[0], "--m", "16", "--n", "1", "--depth", "1", *argv[1:]]) == 2
        assert time.perf_counter() - start < 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: the game model has up to 2^16 states times 2^16 questions, "
            "past the budget of 10000000; raise it to go on\n"
        )
    # the state count is written as a power, which stays short at any size
    big = 10**250
    for m, n, base in (("20", str(big), big + 1), ("8000", "1", 2)):
        assert main(["ulam", "build", "--m", m, "--n", n, "--depth", n]) == 2
        assert capsys.readouterr().err == (
            f"error: the game model has up to {base}^{m} states times 2^{m} questions, "
            "past the budget of 10000000; raise it to go on\n"
        )
    # (3, 2, 2) has at most 27 states: 216 state-question pairs
    game = ["ulam", "check", "--m", "3", "--n", "2", "--depth", "2", "--spec", "[Q{1}]p_1 -> p_1", "--budget"]
    assert main([*game, "216"]) == 0
    assert capsys.readouterr().out == "holds at every reachable state\n"
    assert main([*game, "215"]) == 2
    assert capsys.readouterr().err.startswith("error: the game model has up to 3^3 states times 2^3 questions, past")
    # (4, 3, 2) has exactly 3^4 states: 1,296 state-question pairs
    game = ["ulam", "build", "--m", "4", "--n", "3", "--depth", "2", "--budget"]
    assert main([*game, "1296"]) == 0
    capsys.readouterr()
    assert main([*game, "1295"]) == 2
    assert capsys.readouterr().err.startswith("error: the game model has up to 3^4 states times 2^4 questions, past")
    assert main(["ulam", "build", "--m", "2", "--n", "1", "--budget", "-1"]) == 2
    assert capsys.readouterr().err == "error: budget must be >= 0\n"
    # 26^4 states are within the default budget but past the state cap
    start = time.perf_counter()
    assert main(["ulam", "build", "--m", "4", "--n", "25", "--depth", "25"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: state budget of 200000 exceeded\n"


def test_prove_past_a_luk_lines_budget_exits_2_at_once(tmp_path, capsys):
    # 20 variables and 20 boxes over them: 2^40 rows at n = 1
    ps = [f"p{i}" for i in range(20)]
    line = " -> ".join(ps + [f"[a]{p}" for p in ps])
    path = tmp_path / "wide.prf"
    path.write_text(f"1. {line} -> {line} ; luk\n")
    start = time.perf_counter()
    assert main(["prove", str(path), "--n", "1"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the truth table has 2^40 rows, past the budget of 100000000; raise it to go on\n"
    # the bundled derivation's widest luk line has 3 leaves: 27 rows at n = 2
    bundled = str(Path(mvpdl.__file__).parent / "data" / "loop_invariance_n2.prf")
    assert main(["prove", bundled, "--n", "2", "--budget", "27"]) == 0
    assert capsys.readouterr().out == "ok: 8 lines check (1 premise)\n"
    assert main(["prove", bundled, "--n", "2", "--budget", "26"]) == 2
    assert capsys.readouterr().err.startswith("error: the truth table has 3^3 rows, past the budget of 26;")
    assert main(["prove", bundled, "--n", "2", "--budget", "-1"]) == 2
    assert capsys.readouterr().err == "error: budget must be >= 0\n"


def test_flclosure_prints_members(capsys):
    assert main(["flclosure", "[a;b]p"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "[a;b]p"


def test_filter_output_parses_back(model_file, capsys):
    assert main(["filter", "--model", model_file, "[a*]p"]) == 0
    out = capsys.readouterr().out
    assert "↦" in out  # class mapping comments
    quotient = parse_model(out)
    assert len(quotient.worlds) == 2


def test_sat_json_schema(capsys):
    assert main(["sat", "p", "--n", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "satisfiable"
    assert payload["witness_world"]
    assert set(payload["statistics"]) == {"atoms_generated", "nodes_explored", "wall_time"}
    witness = parse_model(payload["witness"])
    assert witness.n == 2


def test_sat_negative_exit(capsys):
    assert main(["sat", "0", "--n", "2"]) == 1
    assert "unsatisfiable" in capsys.readouterr().out
    # the verdict names what it rests on, not a world count nobody explored
    assert main(["sat", "p & ~p^3", "--n", "3"]) == 1
    assert capsys.readouterr().out == "unsatisfiable (complete: no goal row survives elimination)\n"


def test_valid_verdicts(capsys):
    assert main(["valid", "p -> p", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    code = main(["valid", "(p & [a*](p -> [a]p)) -> [a*]p", "--n", "4", "--max-worlds", "2"])
    assert code == 1
    out = capsys.readouterr().out
    assert "not valid" in out and "value 3/4" in out


def test_answers_without_a_verdict_exit_two(capsys):
    # satisfiable, but no witness of one world: not a negative verdict
    assert main(["sat", "<a>p & ~p", "--n", "2", "--max-worlds", "1"]) == 2
    assert "satisfiable, but no witness within 1 world" in capsys.readouterr().out
    code = main(["valid", "(p & [a*](p -> [a]p)) -> [a*]p", "--n", "4", "--max-worlds", "1"])
    assert code == 2
    assert "not valid, but no refutation within 1 world" in capsys.readouterr().out


def test_row_space_past_the_cap_still_answers(capsys):
    # 5^9 assignments to the free closure members: past the row cap, the
    # small models answer when one of them is a witness
    assert main(["valid", "[a]p & [a]q & [a]r & [a]s -> t", "--n", "4"]) == 1
    assert "not valid" in capsys.readouterr().out
    # and without one there is no verdict, but an error at once
    code = main(["valid", "[a]p & [a]q & [a]r & [a]s & t -> t", "--n", "4", "--max-worlds", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no verdict: the row space of 5^9 assignments")
    assert "Traceback" not in captured.err
    # the row space is written as a power, which stays short at any n
    big = 10**500
    assert main(["valid", "[a]p & [a]q & [a]r & [a]s & t -> t", "--n", str(big)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: no verdict: the row space of {big + 1}^9 assignments is past the cap of 400000")


def test_complete_verdicts_on_large_closures_keep_their_answers(capsys):
    # a complete verdict is bounded by the rows elimination ran on, not by
    # (n+1)^|closure|, whose thousands of digits no int-to-text conversion takes
    assert main(["valid", "p^2000 -> p", "--n", "4"]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert main(["valid", "p^2000 -> p", "--n", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "valid" and payload["complete"]
    assert payload["bound_used"] == payload["statistics"]["atoms_generated"] <= 400_000
    assert main(["sat", "~(p^3000 -> p)", "--n", "4"]) == 1
    assert capsys.readouterr().out == "unsatisfiable (complete: no goal row survives elimination)\n"


def test_past_the_row_cap_no_verdict_comes_at_once(capsys):
    # each size of the model scan is begun only when all its models fit
    # the budget, so the default budget gives up in well under a second
    for argv in (
        ["valid", "[a]p & [a]q & [a]r & [a]s & t -> t", "--n", "4"],
        ["sat", "[a*]p & <a>~p", "--n", "30"],
    ):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 3
        assert capsys.readouterr().err.startswith("error: no verdict: the row space of ")


def test_prove_golden_file(tmp_path, capsys):
    from importlib.resources import files

    text = files("mvpdl").joinpath("data/loop_invariance_n2.prf").read_text()
    path = tmp_path / "li.prf"
    path.write_text(text)
    assert main(["prove", str(path), "--n", "2"]) == 0
    assert "ok: 8 lines" in capsys.readouterr().out


def test_prove_reports_violation(tmp_path, capsys):
    path = tmp_path / "bad.prf"
    path.write_text("1. p ; premise\n2. q ; mp(1, 1)\n")
    assert main(["prove", str(path), "--n", "1"]) == 1
    assert "line 2" in capsys.readouterr().out


def test_deep_formulas_exit_zero(capsys):
    from importlib.resources import files

    model = str(files("mvpdl").joinpath("data/counterexample.kml"))
    deep = "[a]p^400 -> [a]p^400"
    assert main(["eval", "--model", model, "--world", "u", deep]) == 0
    assert capsys.readouterr().out.strip() == "4/4"
    assert main(["check", "--model", model, deep]) == 0
    assert "true in every world" in capsys.readouterr().out
    assert main(["valid", "p^400 -> p^400", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert main(["flclosure", "p^400 -> p^400"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "p^400 -> p^400"
    # 3,000-deep parentheses
    nested = "(" * 3000 + deep + ")" * 3000
    assert main(["eval", "--model", model, "--world", "u", nested]) == 0
    assert capsys.readouterr().out.strip() == "4/4"
    assert main(["check", "--model", model, nested]) == 0
    assert "true in every world" in capsys.readouterr().out
    assert main(["valid", nested, "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_bundled_counterexample_model(capsys):
    from importlib.resources import files

    text = files("mvpdl").joinpath("data/counterexample.kml").read_text()
    model = parse_model(text)
    assert model.worlds == ("u", "v")


def test_randmodel_is_deterministic(capsys):
    assert main(["randmodel", "--n", "2", "--worlds", "3", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["randmodel", "--n", "2", "--worlds", "3", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    parse_model(first)


def test_randmodel_refuses_a_density_outside_the_unit_interval(capsys):
    for density in ("2", "-0.1", "nan"):
        assert main(["randmodel", "--n", "1", "--worlds", "2", "--density", density]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: edge density must be in [0, 1], got {float(density)}\n"


def test_negative_budget_exits_2(capsys):
    for argv in (
        ["sat", "<a>p & <a>~p", "--n", "1", "--budget", "-5", "--max-worlds", "2"],
        ["valid", "[a]p -> p", "--n", "2", "--budget", "-1"],
    ):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: budget must be >= 0\n"


def test_randmodel_refuses_names_that_do_not_parse_back(tmp_path, capsys):
    for option, names, kind, name in (
        ("--vars", "p#q", "variable", "p#q"),
        ("--vars", "p,0", "variable", "0"),
        ("--atoms", "a:b", "program", "a:b"),
        ("--atoms", "a b", "program", "a b"),
    ):
        assert main(["randmodel", "--n", "1", "--worlds", "2", option, names]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {kind} name {name!r} does not parse back as itself\n"
    # question atoms are program names too
    assert main(["randmodel", "--n", "1", "--worlds", "2", "--atoms", "Q{1},~Q{2}", "--vars", "p_1"]) == 0
    path = tmp_path / "q.kml"
    path.write_text(capsys.readouterr().out)
    assert main(["check", "--model", str(path), "--n", "1", "[Q{1}]p_1 | [~Q{2}]p_1"]) in (0, 1)


def test_randmodel_atoms_split_on_commas_outside_braces(tmp_path, capsys):
    path = tmp_path / "q.kml"
    argv = ["randmodel", "--n", "1", "--worlds", "3", "--atoms", "Q{1,2},a,,~Q{2,3}", "--vars", "p_1", "--out", str(path)]
    assert main(argv) == 0
    assert sorted(parse_model(path.read_text()).relations) == ["Q{1,2}", "a", "~Q{2,3}"]
    assert main(["check", "--model", str(path), "--n", "1", "[Q{1,2}]p_1 | [a][~Q{2,3}]p_1"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


def test_model_files_name_only_programs_and_variables(tmp_path, capsys):
    # relation names that no formula can name are refused, not left unread
    path = tmp_path / "m.kml"
    path.write_text("n = 1\nworlds: w0 w1\nrel 2}:\nrel Q{1: w1->w1\nval p: w0=1/1 w1=1/1\n")
    assert main(["check", "--model", str(path), "p"]) == 2
    assert capsys.readouterr() == ("", "error: line 3: program name '2}' does not parse back as itself\n")
    path.write_text("n = 1\nworlds: w0 w1\nrel Q{1: w1->w1\nval p: w0=1/1 w1=1/1\n")
    assert main(["check", "--model", str(path), "p"]) == 2
    assert capsys.readouterr() == ("", "error: line 3: program name 'Q{1' does not parse back as itself\n")
    # the game's question atoms are names
    path = tmp_path / "game.kml"
    assert main(["ulam", "build", "--m", "2", "--n", "1", "--depth", "1", "--full-space", "--out", str(path)]) == 0
    assert "rel Q{1,2}: " in path.read_text()
    assert main(["check", "--model", str(path), "--n", "1", "[Q{1,2}]p_1 -> p_1"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


def test_randmodel_names_the_seed_it_used(capsys):
    assert main(["randmodel", "--n", "2", "--worlds", "3"]) == 0
    seedless = capsys.readouterr().out
    assert main(["randmodel", "--n", "2", "--worlds", "3", "--seed", "0"]) == 0
    assert capsys.readouterr().out == seedless
    assert seedless.startswith("# seed 0\n")


def test_ulam_subcommands(tmp_path, capsys):
    assert main(["ulam", "build", "--m", "2", "--n", "1", "--depth", "1"]) == 0
    model = parse_model(capsys.readouterr().out)
    assert "Q{1,2}" in model.relations
    assert main(["ulam", "check", "--m", "3", "--n", "2", "--depth", "2",
                 "--spec", "[Q{1}]p_1 -> p_1"]) == 0
    capsys.readouterr()
    assert main(["ulam", "check", "--m", "3", "--n", "2", "--depth", "2",
                 "--spec", "p_1 -> [Q{2}]p_1"]) == 1
    assert "fails at state" in capsys.readouterr().out
    assert main(["ulam", "run", "--m", "3", "--n", "2",
                 "--questions", "Q{2,3};Q{1,3}", "--answers=-+"]) == 1
    out = capsys.readouterr().out
    assert "0: (1=2/2" in out


def test_global_flags_merge(model_file, capsys):
    # --n/--json may sit before the subcommand
    assert main(["--n", "3", "taut", "(p (.) (p -> q)) -> q"]) == 0
    capsys.readouterr()
    assert main(["--json", "sat", "p", "--n", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "satisfiable"
    # the subcommand's own flag wins over the global one
    assert main(["--n", "1", "taut", "p | ~p", "--n", "2"]) == 1
    capsys.readouterr()
    assert main(["--n", "2", "ulam", "check", "--m", "2", "--depth", "2",
                 "--spec", "[Q{1}]p_1 -> p_1"]) == 0


def test_resolution_consistency_against_model(model_file, capsys):
    # the bundled model is at n = 4; an explicit --n must match it
    assert main(["eval", "--model", model_file, "--world", "u", "p", "--n", "4"]) == 0
    capsys.readouterr()
    assert main(["--n", "2", "eval", "--model", model_file, "--world", "u", "p"]) == 2
    assert "resolution" in capsys.readouterr().err
    assert main(["taut", "p | ~p"]) == 2  # resolution required somewhere
    assert "needs a resolution" in capsys.readouterr().err


def test_error_exits_are_two(tmp_path, capsys, monkeypatch):
    assert main(["taut", "p ->", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["eval", "--model", str(tmp_path / "missing.kml"), "--world", "u", "p"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.kml"
    bad.write_text("n = 2\nworlds: u\nval p: u=1/3\n")
    assert main(["eval", "--model", str(bad), "--world", "u", "p"]) == 2
    assert "denominator" in capsys.readouterr().err
    # a valuation typo is an error, not a verdict
    bad.write_text("n = 2\nworlds: u v\nval p: u=1/2 v=2/2 z=0/2\nval p: u=0/2\n")
    assert main(["check", "--model", str(bad), "p"]) == 2
    assert capsys.readouterr() == ("", "error: line 4: world 'u' given twice for 'p'\n")
    # a syntax error in a binding names its derivation line
    prf = tmp_path / "bad.prf"
    prf.write_text("1. p ; premise\n2. [a]p ; nec(1, [a])\n3. [a]p -> [a]p ; axiom(K; p := p ->; a := a)\n")
    assert main(["prove", str(prf), "--n", "2"]) == 2
    assert capsys.readouterr() == ("", "error: line 3: syntax error at line 1, column 5: expected formula, found end of input\n")
    # an internal failure exits 2, never 1, which reads as "not valid"
    def fail(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("mvpdl.decide_valid", fail)
    assert main(["valid", "p -> p", "--n", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: internal: RecursionError")
    assert main([]) == 2


def test_calls_in_one_process_match_fresh_interpreters(model_file, capsys, monkeypatch):
    # main builds its argument parser once and reuses it: no call may see
    # what an earlier one parsed
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["taut", "p | ~p", "--n", "2", "--json"],
        ["taut", "p | ~p", "--n", "2"],
        ["check", "--model", model_file, "--n", "4", "p"],
        ["check", "--model", model_file, "p"],
        ["taut", "p", "--n", "2", "--bogus"],  # refused by the parser itself
        ["--json", "taut", "p -> p", "--n", "3"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(mvpdl.__file__).parents[1]))
    fresh = [
        subprocess.Popen(
            [sys.executable, "-c", "import sys; from mvpdl.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for argv in calls
    ]
    for argv, proc in zip(calls, fresh):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out, err = proc.communicate(timeout=60)
        assert (code, captured.out, captured.err) == (proc.returncode, out, err), argv
    assert [proc.returncode for proc in fresh] == [1, 1, 1, 1, 2, 0]


def test_undeclared_variables_are_named_as_before(model_file, capsys):
    # sha256 of stdout, stderr and exit code before the model checker and
    # the truth table took their order from `syntax.plan`: with several
    # undeclared variables, the error names the one the walk meets first
    formulas = [
        "x -> y", "y -> x", "~x -> (y -> z)", "(x -> y) -> z", "x -> (y -> z)",
        "[a](x -> y) -> z", "<a>x & y", "[x?]y", "[(a;x?)*]p -> y", "[a*]x -> y",
        "[(a+b)*](x | y)", "p -> q", "[b]x", "x^3 -> y", "q (+) [a;a]r", "[(x?;a)*]p",
        "[y?](x -> p)", "z & (x (.) y)", "[a][a*]y -> <a;b>x",
    ]
    digest = hashlib.sha256()
    for f in formulas:
        for argv in (
            ["check", "--model", model_file, f],
            ["check", "--model", model_file, "--json", f],
            ["eval", "--model", model_file, "--world", "v", f],
            ["taut", "--n", "3", f],
        ):
            code = main(argv)
            out, err = capsys.readouterr()
            digest.update(f"{argv[0]} {f}\n{code}\n{out}\n{err}\n".encode())
    assert main(["check", "--model", model_file, "x -> y"]) == 2
    assert capsys.readouterr().err == "error: undeclared variable 'y'\n"
    assert digest.hexdigest() == "3678046d68609fae5a39de1035b0de3d1f0b847505ffdf4c55889ca2cd235e6e"


def test_python_dash_m_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=str(Path(mvpdl.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mvpdl", *argv], capture_output=True, text=True, env=env, timeout=60)

    done = run("taut", "p -> p", "--n", "2")
    assert (done.returncode, done.stdout) == (0, "tautology\n")
    done = run("--version")
    assert (done.returncode, done.stdout) == (0, f"mvpdl {mvpdl.__version__}\n")


def _corpus(tmp: Path) -> list[list[str]]:
    """Argument lists covering every subcommand in text and JSON mode:
    each verdict and exit code, errors, global flags, `--out` files and
    every `--help`."""
    model = tmp / "model.kml"
    model.write_text(COUNTEREXAMPLE)
    li = tmp / "li.prf"
    li.write_text(
        "1. (p -> [a]p)^2 ; premise\n"
        "2. [a*]((p -> [a]p)^2) ; nec(1, [a*])\n"
        "3. [a*]((p -> [a]p)^2) -> p -> p & [a*]((p -> [a]p)^2) ; luk\n"
        "4. p -> p & [a*]((p -> [a]p)^2) ; mp(2, 3)\n"
        "5. (p -> p & [a*]((p -> [a]p)^2)) -> (p & [a*]((p -> [a]p)^2) -> [a*]p) -> p -> [a*]p ; luk\n"
        "6. (p & [a*]((p -> [a]p)^2) -> [a*]p) -> p -> [a*]p ; mp(4, 5)\n"
        "7. p & [a*]((p -> [a]p)^2) -> [a*]p ; axiom(ind; p := p; a := a)\n"
        "8. p -> [a*]p ; mp(7, 6)\n"
    )
    ax = tmp / "ax.prf"
    ax.write_text("1. [a]p -> [a]p ; luk\n")
    bad = tmp / "bad.prf"
    bad.write_text("1. p ; premise\n2. q ; mp(1, 1)\n")
    garbled = tmp / "garbled.prf"
    garbled.write_text("1. p ; premise\n2. p ; nonsense\n")
    m, induction = str(model), "(p & [a*](p -> [a]p)) -> [a*]p"
    three = "~p & q & <a>(p & q) & <a>(p & ~q)"  # needs three worlds
    calls = []
    for json_flag in ([], ["--json"]):
        calls += [
            argv + json_flag
            for argv in (
                ["eval", "--model", m, "--world", "u", "[a*]p"],
                ["eval", "--model", m, "--world", "v", "~p (+) [a]p"],
                ["check", "--model", m, "[a*]p -> p"],
                ["check", "--model", m, "p"],
                ["check", "--model", m, "--n", "4", "<a>p"],
                ["taut", "(p (.) (p -> q)) -> q", "--n", "3"],
                ["taut", "p | ~p", "--n", "2"],
                ["taut", "0", "--n", "2"],
                ["flclosure", "[a;b]p"],
                ["flclosure", "[(a+b?)*]p"],
                ["filter", "--model", m, "[a*]p"],
                ["filter", "--model", m, "<a>p"],
                ["sat", "p", "--n", "2"],
                ["sat", "0", "--n", "2"],
                ["sat", "<a>p & ~p", "--n", "2", "--max-worlds", "1"],
                ["sat", three, "--n", "1", "--max-worlds", "2"],
                ["sat", three, "--n", "1", "--max-worlds", "3"],
                ["sat", three, "--n", "1", "--max-worlds", "3", "--budget", "1"],
                ["valid", "p -> p", "--n", "2"],
                ["valid", induction, "--n", "4", "--max-worlds", "2"],
                ["valid", induction, "--n", "4", "--max-worlds", "1"],
                ["valid", "[a]p & [a]q & [a]r & [a]s & t -> t", "--n", "4", "--max-worlds", "1"],
                ["prove", str(li), "--n", "2"],
                ["prove", str(ax), "--n", "3"],
                ["prove", str(bad), "--n", "1"],
                ["prove", str(garbled), "--n", "1"],
                ["ulam", "check", "--m", "3", "--n", "2", "--depth", "2", "--spec", "[Q{1}]p_1 -> p_1"],
                ["ulam", "check", "--m", "3", "--n", "2", "--depth", "2", "--spec", "p_1 -> [Q{2}]p_1"],
            )
        ]
    calls += [
        ["--json", "eval", "--model", m, "--world", "u", "p"],
        ["--json", "filter", "--model", m, "[a]p"],
        ["--json", "ulam", "check", "--m", "2", "--n", "1", "--spec", "p_1"],
        ["--json", "ulam", "run", "--m", "2", "--n", "1", "--questions", "Q{1}", "--answers=+"],
        ["--json", "ulam", "build", "--m", "2", "--n", "1", "--depth", "1"],
        ["--json", "randmodel", "--n", "1", "--seed", "3"],
        ["--n", "3", "taut", "(p (.) (p -> q)) -> q"],
        ["--n", "1", "taut", "p | ~p", "--n", "2"],
        ["--n", "1", "--json", "sat", "<a>p"],
        ["--n", "4", "eval", "--model", m, "--world", "u", "p"],
        ["--n", "2", "eval", "--model", m, "--world", "u", "p"],
        ["--n", "2", "ulam", "check", "--m", "2", "--depth", "2", "--spec", "[Q{1}]p_1 -> p_1"],
        ["--seed", "5", "randmodel", "--n", "2", "--worlds", "3"],
        ["--n", "3", "randmodel", "--seed", "2", "--atoms", "a", "--vars", "p", "--density", "0.5"],
        ["randmodel", "--n", "2", "--worlds", "3", "--seed", "9"],
        ["randmodel", "--n", "1", "--seed", "1", "--out", str(tmp / "random.kml")],
        ["filter", "--model", m, "[a*]p", "--out", str(tmp / "quotient.kml")],
        ["filter", "--model", m, "[a*]p", "--json", "--out", str(tmp / "quotient_json.kml")],
        ["ulam", "build", "--m", "2", "--n", "1", "--depth", "1"],
        ["ulam", "build", "--m", "2", "--n", "2", "--depth", "1", "--full-space", "--out", str(tmp / "game.kml")],
        ["ulam", "run", "--m", "3", "--n", "2", "--questions", "Q{2,3};Q{1,3}", "--answers=-+"],
        ["ulam", "run", "--m", "2", "--n", "1", "--questions", "Q{1}", "--answers=+"],
        ["ulam", "run", "--m", "2", "--n", "1", "--questions", "Q{1};~Q{1}", "--answers", "yy"],
        # errors
        [],
        ["ulam"],
        ["ulam", "run", "--m", "2", "--n", "1", "--questions", "Q{1}", "--answers", "x"],
        ["ulam", "check", "--m", "0", "--n", "1", "--spec", "p_1"],
        ["ulam", "check", "--m", "2", "--spec", "p_1"],
        ["taut", "p ->", "--n", "2"],
        ["taut", "p | ~p"],
        ["taut", "p", "--n", "0"],
        ["eval", "--model", str(tmp / "missing.kml"), "--world", "u", "p"],
        ["eval", "--model", m, "--world", "z", "p"],
        ["check", "--model", m, "x -> y"],
        ["prove", str(tmp / "missing.prf"), "--n", "2"],
        ["filter", "--model", m, "p", "--out", str(tmp / "missing" / "q.kml")],
        ["randmodel", "--n", "1", "--seed", "1", "--out", str(tmp / "missing" / "r.kml")],
        ["taut", "p", "--n", "2", "--bogus"],
        ["sat", "p", "--n", "2", "--max-worlds", "two"],
        ["--version"],
        ["--help"],
    ]
    subcommands = ["eval", "check", "taut", "flclosure", "filter", "sat", "valid", "prove", "randmodel", "ulam"]
    calls += [[name, "--help"] for name in subcommands]
    calls += [["ulam", name, "--help"] for name in ("build", "check", "run")]
    return calls


def _command_path(argv: list[str]) -> tuple[str, ...]:
    """The subcommand (and ulam sub-subcommand) an argument list runs."""
    i = 0
    while i < len(argv) and argv[i] in ("--n", "--seed", "--json"):
        i += 1 if argv[i] == "--json" else 2
    path = tuple(argv[i : i + 1])
    if path == ("ulam",) and i + 1 < len(argv) and not argv[i + 1].startswith("-"):
        path += (argv[i + 1],)
    return path


def test_command_line_digest(tmp_path, capsys, monkeypatch):
    # sha256 over argv, exit code, stdout, stderr and any --out file of every
    # call in the corpus, taken before `main` became the one writer: the
    # refactor must keep every byte.  Re-taken when model files came to
    # state each source world once per relation (`u->v w`): the 12 calls
    # that print or write a model with such a chunk changed, and nothing
    # else.  Re-taken when `taut` got `--budget`, and again when `prove`
    # did: `taut --help`, then `prove --help` changed, and every other
    # record kept its bytes.  Re-taken when `ulam build` and `ulam check`
    # got `--budget`: only their two `--help` records changed.  Re-taken
    # when a complete verdict's `bound_used` became its row count and the
    # past-cap error came to write its row space as a power: `sat 0
    # --json`, `valid p -> p --json` and both `--max-worlds 1` past-cap
    # records changed, and nothing else.  Temporary paths and `wall_time`
    # are normalized.  `randmodel` without --seed is left out: it used to
    # write `# seed None` above a model generated from seed 0.
    monkeypatch.setenv("COLUMNS", "80")
    calls = _corpus(tmp_path)
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (usub,) = [a for a in sub.choices["ulam"]._actions if isinstance(a, argparse._SubParsersAction)]
    registered = {(name,) for name in sub.choices} | {("ulam", name) for name in usub.choices}
    assert registered <= {_command_path(argv) for argv in calls}
    tmp = str(tmp_path)
    digest = hashlib.sha256()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        files = [p for p in argv if p.startswith(tmp) and p.endswith(".kml") and os.path.exists(p)]
        written = "".join(Path(p).read_text() for p in files if Path(p).name != "model.kml")
        record = f"{argv}\n{code}\n{out}\n{err}\n{written}\n".replace(tmp, "TMP")
        record = re.sub(r'"wall_time": [-+0-9.eE]+', '"wall_time": 0', record)
        digest.update(record.encode())
    assert digest.hexdigest() == "79d12942582605024701a7da17afb3f84004cb2b767cdd5a49b03b68a3fa0f28"


def test_out_into_a_missing_directory_is_an_error(model_file, tmp_path, capsys):
    target = str(tmp_path / "missing" / "q.kml")
    assert main(["filter", "--model", model_file, "p", "--out", target]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err
