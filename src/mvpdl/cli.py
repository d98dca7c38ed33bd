"""Command-line front end.

Subcommands: eval, check, taut, flclosure, filter, sat, valid, prove,
randmodel, and the game group ulam {build,check,run}.  Exit status 0 on
affirmative verdicts, 1 on negative ones, 2 on any error, internal
failures included, and on a sat/valid answer without a verdict (a witness
exists, but none within --max-worlds).  `--json` switches the sat/valid
reports (and most other outputs) to a stable JSON shape.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .filtration import filter_model
from .kripke import ModelError, format_model, load_model, random_model
from .luk import prop_counterexample
from .parser import ParseError, format_formula, parse_formula
from .proofs import (
    DerivationFormatError,
    check_derivation,
    parse_derivation,
)
from .sat import BudgetExceeded, Satisfiable, decide_sat, decide_valid
from .syntax import fl_closure
from .ulam import (
    GameConfig,
    GameError,
    build_game_model,
    check_spec,
    parse_question,
    run_game,
)


class CliError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    _merge_global_flags(args)
    try:
        return args.handler(args)
    except (
        ParseError, ModelError, GameError, DerivationFormatError, CliError, ValueError, BudgetExceeded, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failure must never read as a negative verdict
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _merge_global_flags(args) -> None:
    """Global --n/--seed/--json are defaults for the subcommand's own."""
    if getattr(args, "n", None) is None and args.global_n is not None:
        args.n = args.global_n
    if getattr(args, "json", False) is False and args.global_json:
        args.json = True
    if getattr(args, "seed", None) is None and args.global_seed is not None:
        args.seed = args.global_seed


def _require_n(args) -> int:
    n = getattr(args, "n", None)
    if n is None:
        raise CliError("this command needs a resolution: pass --n")
    if n < 1:
        raise CliError("--n must be >= 1")
    return n


def _check_model_resolution(model, args) -> None:
    n = getattr(args, "n", None)
    if n is not None and model.n != n:
        raise CliError(f"model resolution is {model.n}, but --n {n} was given")


@functools.cache  # parse_args never changes the parser: one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvpdl",
        description="Finitely-valued propositional dynamic logic toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"mvpdl {__version__}")
    parser.add_argument("--n", type=int, default=None, dest="global_n",
                        help="number of value steps (truth set has n+1 values)")
    parser.add_argument("--seed", type=int, default=None, dest="global_seed", help="random seed")
    parser.add_argument("--json", action="store_true", dest="global_json", help="emit a JSON report")
    parser.set_defaults(command=None)
    sub = parser.add_subparsers(dest="command")

    def common(p, n=False, jsonable=True, seed=False):
        if n:
            p.add_argument("--n", type=int, default=None,
                           help="number of value steps (truth set has n+1 values)")
        if jsonable:
            p.add_argument("--json", action="store_true", help="emit a JSON report")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="random seed")

    p = sub.add_parser("eval", help="value of a formula at a world of a model")
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--world", required=True)
    p.add_argument("formula")
    common(p, n=True)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check", help="is a formula true at every world of a model")
    p.add_argument("--model", required=True)
    p.add_argument("formula")
    common(p, n=True)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("taut", help="propositional tautology over the (n+1)-valued truth set")
    p.add_argument("formula")
    common(p, n=True)
    p.set_defaults(handler=_cmd_taut)

    p = sub.add_parser("flclosure", help="print the decomposition closure of a formula")
    p.add_argument("formula")
    common(p)
    p.set_defaults(handler=_cmd_flclosure)

    p = sub.add_parser("filter", help="quotient a model through a formula's closure")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="write the quotient here instead of stdout")
    p.add_argument("formula")
    common(p, n=True)
    p.set_defaults(handler=_cmd_filter)

    for name, help_text in (("sat", "decide satisfiability"), ("valid", "decide validity")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("formula")
        p.add_argument(
            "--max-worlds", type=int, default=None, help="largest witness to report (default: any)"
        )
        p.add_argument(
            "--budget",
            type=int,
            default=10**6,
            help="candidate row sets to try (past the row cap: candidate models)",
        )
        common(p, n=True)
        p.set_defaults(handler=_cmd_sat if name == "sat" else _cmd_valid)

    p = sub.add_parser("prove", help="check a derivation file")
    p.add_argument("derivation", help="derivation file")
    common(p, n=True)
    p.set_defaults(handler=_cmd_prove)

    p = sub.add_parser("randmodel", help="generate a pseudo-random model file")
    p.add_argument("--worlds", type=int, default=4)
    p.add_argument("--atoms", default="a,b")
    p.add_argument("--vars", default="p,q")
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--out", help="write the model here instead of stdout")
    common(p, n=True, jsonable=False, seed=True)
    p.set_defaults(handler=_cmd_randmodel)

    p = sub.add_parser("ulam", help="searching game with lies")
    usub = p.add_subparsers(dest="ulam_command")
    p.set_defaults(handler=_cmd_ulam)

    def game_args(q):
        q.add_argument("--m", type=int, required=True, help="search space size (elements 1..m)")
        q.add_argument("--n", type=int, default=None, help="lies allowed plus one")
        q.add_argument("--depth", type=int, default=3, help="question rounds to explore")
        q.add_argument("--full-space", action="store_true", help="use every state, not just reachable ones")

    q = usub.add_parser("build", help="emit the game model as a model file")
    game_args(q)
    q.add_argument("--out")
    q.set_defaults(handler=_cmd_ulam_build)

    q = usub.add_parser("check", help="check a specification on the game model")
    game_args(q)
    q.add_argument("--spec", required=True, help="formula over p_<m> and question atoms Q{...}")
    q.add_argument("--json", action="store_true")
    q.set_defaults(handler=_cmd_ulam_check)

    q = usub.add_parser("run", help="print the state trajectory of one play")
    game_args(q)
    q.add_argument("--questions", required=True, help="question atoms separated by ';', e.g. Q{1};Q{2}")
    q.add_argument(
        "--answers",
        required=True,
        help="one +/- (or y/n) per question; write --answers=-- for all-negative runs",
    )
    q.set_defaults(handler=_cmd_ulam_run)

    return parser


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    _check_model_resolution(model, args)
    f = parse_formula(args.formula)
    value = model.value(args.world, f)
    _emit(args, {"world": args.world, "value": str(value)}, str(value))
    return 0


def _cmd_check(args) -> int:
    model = load_model(args.model)
    _check_model_resolution(model, args)
    f = parse_formula(args.formula)
    bad = model.falsifying_world(f)
    if bad is None:
        _emit(args, {"verdict": "true", "counterexample": None}, "true in every world")
        return 0
    world, value = bad
    _emit(
        args,
        {"verdict": "false", "counterexample": {"world": world, "value": str(value)}},
        f"false at {world} (value {value})",
    )
    return 1


def _cmd_taut(args) -> int:
    n = _require_n(args)
    f = parse_formula(args.formula)
    bad = prop_counterexample(f, n)
    if bad is None:
        _emit(args, {"verdict": "tautology"}, "tautology")
        return 0
    assign = ", ".join(f"{k}={v}" for k, v in sorted(bad.items()))
    _emit(
        args,
        {"verdict": "not a tautology", "counterexample": {k: str(v) for k, v in bad.items()}},
        f"not a tautology: {assign}" if assign else "not a tautology",
    )
    return 1


def _cmd_flclosure(args) -> int:
    f = parse_formula(args.formula)
    members = fl_closure(f)
    if getattr(args, "json", False):
        print(json.dumps({"closure": [format_formula(g) for g in members]}, indent=2))
    else:
        for g in members:
            print(format_formula(g))
    return 0


def _cmd_filter(args) -> int:
    model = load_model(args.model)
    _check_model_resolution(model, args)
    f = parse_formula(args.formula)
    res = filter_model(model, f)
    comments = [f"filtration through {format_formula(f)}"]
    comments += [f"class {w} ↦ {c}" for w, c in res.class_of.items()]
    text = format_model(res.quotient, comments=comments)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif getattr(args, "json", False):
        print(json.dumps({"model": text, "classes": res.class_of}, indent=2, sort_keys=True))
    else:
        print(text, end="")
    return 0


def _sat_payload(result) -> dict:
    payload = {
        "bound_used": result.bound_used,
        "complete": getattr(result, "complete", True),
        "witness": None,
        "witness_world": None,
        "statistics": {
            "atoms_generated": result.stats.atoms_generated,
            "nodes_explored": result.stats.nodes_explored,
            "wall_time": result.stats.wall_time,
        },
    }
    if isinstance(result, Satisfiable):
        payload["witness"] = format_model(result.model)
        payload["witness_world"] = result.world
    return payload


def _worlds(k: int) -> str:
    return "1 world" if k == 1 else f"{k} worlds"


def _cmd_sat(args) -> int:
    n = _require_n(args)
    f = parse_formula(args.formula)
    result = decide_sat(f, n, max_worlds=args.max_worlds, budget=args.budget)
    payload = _sat_payload(result)
    if result.is_sat:
        payload["verdict"] = "satisfiable"
        _emit(
            args,
            payload,
            f"satisfiable at world {result.world} of:\n{format_model(result.model)}",
        )
        return 0
    if result.complete:
        payload["verdict"] = "unsatisfiable"
        _emit(args, payload, "unsatisfiable (complete: no goal row survives elimination)")
        return 1
    payload["verdict"] = "no witness within bound"
    _emit(args, payload, f"satisfiable, but no witness within {_worlds(result.bound_used)} (incomplete)")
    return 2


def _cmd_valid(args) -> int:
    n = _require_n(args)
    f = parse_formula(args.formula)
    result = decide_valid(f, n, max_worlds=args.max_worlds, budget=args.budget)
    payload = _sat_payload(result)
    if result.is_sat:
        payload["verdict"] = "refuted"
        value = result.model.value(result.world, f)
        _emit(
            args,
            payload,
            f"not valid: value {value} at world {result.world} of:\n{format_model(result.model)}",
        )
        return 1
    if result.complete:
        payload["verdict"] = "valid"
        _emit(args, payload, "valid")
        return 0
    payload["verdict"] = "no witness within bound"
    _emit(args, payload, f"not valid, but no refutation within {_worlds(result.bound_used)} (incomplete)")
    return 2


def _cmd_prove(args) -> int:
    n = _require_n(args)
    with open(args.derivation, "r", encoding="utf-8") as fh:
        text = fh.read()
    d = parse_derivation(text, n)
    bad = check_derivation(d)
    if bad is None:
        premises = len(d.premises)
        note = f" ({premises} premise{'s' if premises != 1 else ''})" if premises else ""
        _emit(
            args,
            {"verdict": "ok", "lines": len(d.lines), "premises": premises},
            f"ok: {len(d.lines)} lines check{note}",
        )
        return 0
    lineno, reason = bad
    _emit(
        args,
        {"verdict": "violation", "line": lineno, "reason": reason},
        f"line {lineno}: {reason}",
    )
    return 1


def _cmd_randmodel(args) -> int:
    n = _require_n(args)
    atoms = [x for x in args.atoms.split(",") if x]
    vars_ = [x for x in args.vars.split(",") if x]
    model = random_model(
        seed=args.seed if args.seed is not None else 0,
        n=n,
        world_count=args.worlds,
        atom_names=atoms,
        var_names=vars_,
        edge_density=args.density,
    )
    text = format_model(model, comments=[f"seed {args.seed}"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_ulam(args) -> int:
    raise CliError("choose a ulam subcommand")


def _game_config(args) -> GameConfig:
    n = _require_n(args)
    if args.m < 1:
        raise CliError("--m must be >= 1")
    return GameConfig(
        elements=tuple(str(i) for i in range(1, args.m + 1)),
        n=n,
        depth=args.depth,
        full_space=args.full_space,
    )


def _cmd_ulam_build(args) -> int:
    cfg = _game_config(args)
    model = build_game_model(cfg)
    text = format_model(
        model,
        comments=[f"searching game: |M|={args.m}, n={args.n}, depth={args.depth}"],
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_ulam_check(args) -> int:
    cfg = _game_config(args)
    ok, state = check_spec(cfg, args.spec)
    if ok:
        _emit(args, {"verdict": "holds", "counterexample": None}, "holds at every reachable state")
        return 0
    _emit(
        args,
        {"verdict": "fails", "counterexample": str(state)},
        f"fails at state {state}",
    )
    return 1


def _cmd_ulam_run(args) -> int:
    cfg = _game_config(args)
    questions = [parse_question(cfg, chunk) for chunk in args.questions.split(";") if chunk.strip()]
    answer_text = args.answers.strip().lower()
    if any(c not in "+-yn" for c in answer_text):
        raise CliError("answers must be a string of +/- (or y/n)")
    answers = [c in "+y" for c in answer_text]
    trajectory = run_game(cfg, questions, answers)
    for i, state in enumerate(trajectory):
        print(f"{i}: {state}")
    final = trajectory[-1].final_candidate()
    if final is not None:
        print(f"solved: the number is {final}")
        return 0
    if all(v == 0 for v in trajectory[-1].values):
        print("contradictory: every candidate refuted")
    else:
        print("undetermined: several candidates remain")
    return 1
