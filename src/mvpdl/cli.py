"""Command-line front end.

Subcommands: eval, check, taut, flclosure, filter, sat, valid, prove,
randmodel, and the game group ulam {build,check,run}.  Exit status 0 on
affirmative verdicts, 1 on negative ones, 2 on any error, internal
failures included, and on a sat/valid answer without a verdict (a witness
exists, but none within --max-worlds).

Each handler returns its exit code, a JSON payload (None for randmodel,
ulam build and ulam run) and its text; `main` alone writes them: the
text to the --out file if one is given, else the payload as sorted JSON
under --json, else the text to stdout.

Handlers read the library through the package's names (`mvpdl.<name>`),
and import the few names it does not export inside the handler that uses
them, so a command loads only the modules it calls: `check` loads the
model checker and what it uses, never `sat`, `proofs` or `ulam`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

import mvpdl


class CliError(ValueError):
    pass


Report = tuple[int, dict | None, str]  # exit code, JSON payload, text


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    _merge_global_flags(args)
    try:
        code, payload, text = args.handler(args)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif getattr(args, "json", False) and payload is not None:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(text, end="")
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failure must never read as a negative verdict
        # BudgetExceeded lives in `luk`, which every budgeted loop loads; it is read only
        # on this path, so no command loads a module just to name it
        internal = "" if isinstance(exc, mvpdl.BudgetExceeded) else f"internal: {type(exc).__name__}: "
        print(f"error: {internal}{exc}", file=sys.stderr)
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


def _model_and_formula(args):
    """The --model file, checked against any --n, and the formula."""
    from .kripke import load_model

    model = load_model(args.model)
    if args.n is not None and model.n != args.n:
        raise CliError(f"model resolution is {model.n}, but --n {args.n} was given")
    return model, mvpdl.parse_formula(args.formula)


@functools.cache  # parse_args never changes the parser: one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvpdl",
        description="Finitely-valued propositional dynamic logic toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"mvpdl {mvpdl.__version__}")
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
    p.add_argument("--budget", type=int, default=None, help="truth-table rows to read at most (default: 10^8)")
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
            default=None,
            help="candidate row sets to try (past the row cap: candidate models)",
        )
        common(p, n=True)
        p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("prove", help="check a derivation file")
    p.add_argument("derivation", help="derivation file")
    p.add_argument("--budget", type=int, default=None, help="truth-table rows a luk line reads at most (default: 10^8)")
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

    budget_help = "state-question pairs to explore at most (default: 10^7)"
    q = usub.add_parser("build", help="emit the game model as a model file")
    game_args(q)
    q.add_argument("--out")
    q.add_argument("--budget", type=int, default=None, help=budget_help)
    q.set_defaults(handler=_cmd_ulam_build)

    q = usub.add_parser("check", help="check a specification on the game model")
    game_args(q)
    q.add_argument("--spec", required=True, help="formula over p_<m> and question atoms Q{...}")
    q.add_argument("--json", action="store_true")
    q.add_argument("--budget", type=int, default=None, help=budget_help)
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


def _cmd_eval(args) -> Report:
    model, f = _model_and_formula(args)
    value = str(model.value(args.world, f))
    return 0, {"world": args.world, "value": value}, f"{value}\n"


def _cmd_check(args) -> Report:
    model, f = _model_and_formula(args)
    bad = model.falsifying_world(f)
    if bad is None:
        return 0, {"verdict": "true", "counterexample": None}, "true in every world\n"
    world, value = bad
    payload = {"verdict": "false", "counterexample": {"world": world, "value": str(value)}}
    return 1, payload, f"false at {world} (value {value})\n"


def _cmd_taut(args) -> Report:
    from .luk import DEFAULT_ROWS

    n = _require_n(args)
    budget = DEFAULT_ROWS if args.budget is None else args.budget
    bad = mvpdl.prop_counterexample(mvpdl.parse_formula(args.formula), n, budget)
    if bad is None:
        return 0, {"verdict": "tautology"}, "tautology\n"
    payload = {"verdict": "not a tautology", "counterexample": {k: str(v) for k, v in bad.items()}}
    assign = ", ".join(f"{k}={v}" for k, v in sorted(bad.items()))
    return 1, payload, f"not a tautology: {assign}\n" if assign else "not a tautology\n"


def _cmd_flclosure(args) -> Report:
    texts: dict = {}  # one text table: members restate each other
    members = [mvpdl.format_formula(g, texts) for g in mvpdl.fl_closure(mvpdl.parse_formula(args.formula))]
    return 0, {"closure": members}, "".join(f"{g}\n" for g in members)


def _cmd_filter(args) -> Report:
    model, f = _model_and_formula(args)
    res = mvpdl.filter_model(model, f)
    comments = [f"filtration through {mvpdl.format_formula(f)}"]
    comments += [f"class {w} ↦ {c}" for w, c in res.class_of.items()]
    text = mvpdl.format_model(res.quotient, comments=comments)
    return 0, {"model": text, "classes": res.class_of}, text


# Exit code, verdict and text of each answer: a witness, a complete
# answer and an incomplete one (a witness exists, but none that small).
_ANSWERS = {
    "sat": (
        (0, "satisfiable", "satisfiable at world {world} of:\n{witness}"),
        (1, "unsatisfiable", "unsatisfiable (complete: no goal row survives elimination)"),
        (2, "no witness within bound", "satisfiable, but no witness within {worlds} (incomplete)"),
    ),
    "valid": (
        (1, "refuted", "not valid: value {value} at world {world} of:\n{witness}"),
        (0, "valid", "valid"),
        (2, "no witness within bound", "not valid, but no refutation within {worlds} (incomplete)"),
    ),
}


def _cmd_decide(args) -> Report:
    from .sat import DEFAULT_BUDGET

    n = _require_n(args)
    f = mvpdl.parse_formula(args.formula)
    decide = mvpdl.decide_sat if args.command == "sat" else mvpdl.decide_valid
    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    result = decide(f, n, max_worlds=args.max_worlds, budget=budget)
    code, verdict, template = _ANSWERS[args.command][0 if result.is_sat else 1 if result.complete else 2]
    world = result.world if result.is_sat else None
    witness = mvpdl.format_model(result.model) if result.is_sat else None
    value = result.model.value(world, f) if result.is_sat and args.command == "valid" else None
    k = result.bound_used
    payload = {
        "verdict": verdict,
        "bound_used": k,
        "complete": result.is_sat or result.complete,
        "witness": witness,
        "witness_world": world,
        "statistics": dataclasses.asdict(result.stats),
    }
    worlds = "1 world" if k == 1 else f"{k} worlds"
    return code, payload, template.format(world=world, witness=witness, value=value, worlds=worlds) + "\n"


def _cmd_prove(args) -> Report:
    from .luk import DEFAULT_ROWS

    n = _require_n(args)
    with open(args.derivation, "r", encoding="utf-8") as fh:
        text = fh.read()
    d = mvpdl.parse_derivation(text, n)
    bad = mvpdl.check_derivation(d, DEFAULT_ROWS if args.budget is None else args.budget)
    if bad is not None:
        lineno, reason = bad
        return 1, {"verdict": "violation", "line": lineno, "reason": reason}, f"line {lineno}: {reason}\n"
    premises = len(d.premises)
    note = f" ({premises} premise{'s' if premises != 1 else ''})" if premises else ""
    payload = {"verdict": "ok", "lines": len(d.lines), "premises": premises}
    return 0, payload, f"ok: {len(d.lines)} lines check{note}\n"


def _names(text: str) -> list[str]:
    """The names in a --atoms or --vars value, separated by commas outside
    braces: a question atom such as Q{1,2} is one name."""
    return [x for x in re.split(r",(?![^{]*})", text) if x]


def _cmd_randmodel(args) -> Report:
    n = _require_n(args)
    seed = 0 if args.seed is None else args.seed
    model = mvpdl.random_model(
        seed=seed,
        n=n,
        world_count=args.worlds,
        atom_names=_names(args.atoms),
        var_names=_names(args.vars),
        edge_density=args.density,
    )
    return 0, None, mvpdl.format_model(model, comments=[f"seed {seed}"])


def _cmd_ulam(args) -> Report:
    raise CliError("choose a ulam subcommand")


def _game_config(args) -> mvpdl.GameConfig:
    n = _require_n(args)
    if args.m < 1:
        raise CliError("--m must be >= 1")
    return mvpdl.GameConfig(
        elements=tuple(str(i) for i in range(1, args.m + 1)),
        n=n,
        depth=args.depth,
        full_space=args.full_space,
    )


def _game_budget(args) -> int:
    from .ulam import DEFAULT_PAIRS

    return DEFAULT_PAIRS if args.budget is None else args.budget


def _cmd_ulam_build(args) -> Report:
    model = mvpdl.build_game_model(_game_config(args), _game_budget(args))
    comment = f"searching game: |M|={args.m}, n={args.n}, depth={args.depth}"
    return 0, None, mvpdl.format_model(model, comments=[comment])


def _cmd_ulam_check(args) -> Report:
    ok, state = mvpdl.check_spec(_game_config(args), args.spec, budget=_game_budget(args))
    if ok:
        return 0, {"verdict": "holds", "counterexample": None}, "holds at every reachable state\n"
    return 1, {"verdict": "fails", "counterexample": str(state)}, f"fails at state {state}\n"


def _cmd_ulam_run(args) -> Report:
    from .ulam import parse_question, run_game

    cfg = _game_config(args)
    questions = [parse_question(cfg, chunk) for chunk in args.questions.split(";") if chunk.strip()]
    answer_text = args.answers.strip().lower()
    if any(c not in "+-yn" for c in answer_text):
        raise CliError("answers must be a string of +/- (or y/n)")
    trajectory = run_game(cfg, questions, [c in "+y" for c in answer_text])
    lines = [f"{i}: {state}" for i, state in enumerate(trajectory)]
    final = trajectory[-1].final_candidate()
    if final is not None:
        return 0, None, "\n".join([*lines, f"solved: the number is {final}\n"])
    if all(v == 0 for v in trajectory[-1].values):
        return 1, None, "\n".join([*lines, "contradictory: every candidate refuted\n"])
    return 1, None, "\n".join([*lines, "undetermined: several candidates remain\n"])
