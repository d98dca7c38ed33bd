"""In-memory spans around calls into mvpdl's public functions.

Tracing is installed only for the traced run.  It replaces selected public
functions and methods of the already imported mvpdl modules with wrappers
that open a span, so calls the library makes between its own modules are
seen too (for example `sat` building a `KripkeModel` and checking it).
Nothing under src/ is changed.

A span records name, start, end, parent span and op id.  Self time (a
span's duration minus the time its child spans cover) and call counts are
accumulated exactly for every span; the span records themselves are kept
up to a cap so that budget-bound searches, which open thousands of spans
per op, cannot exhaust memory.  Counters hold the work counts that the
per-layer metrics divide by.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

SPAN_CAP = 200_000

_clock = time.perf_counter


class Tracer:
    def __init__(self, cap: int = SPAN_CAP):
        self.cap = cap
        self.spans: list[tuple[int, str, float, float, int, object]] = []
        self.dropped = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op = None
        self.active = True  # off while the runner checks answers
        self._next_id = 0
        # open spans: [id, name, start, time covered by children]
        self._stack: list[list] = []

    def push(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, _clock(), 0.0])

    def pop(self) -> None:
        end = _clock()
        sid, name, start, covered = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - covered
        self.total_s[name] += dur
        self.calls[name] += 1
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[3] += dur
            parent = top[0]
        if len(self.spans) < self.cap:
            self.spans.append((sid, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def layer_self_s(self) -> dict[str, float]:
        out: defaultdict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps([sid, name, start, end, parent, op]) + "\n")


def _wrap(tr: Tracer, fn, name, before=None, after=None):
    """Wrapper opening span `name` (or `name(args)` when callable).

    `before(args)` runs ahead of the span and its result is handed to
    `after(args, pre, result, error)`, which runs once the span has closed,
    so neither is counted in the span's own time.
    """

    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        label = name(args) if callable(name) else name
        pre = before(args) if before is not None else None
        tr.push(label)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tr.pop()
            if after is not None:
                after(args, pre, None, exc)
            raise
        tr.pop()
        if after is not None:
            after(args, pre, result, None)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    return traced


def _kind(f, memo: dict) -> str:
    """Program kind that dominates a check: star, else test, else box.

    Box-free formulas fall in `box` too; they cost next to nothing.
    """
    got = memo.get(id(f))
    if got is not None:
        return got[1]
    seen = {"Star": False, "Test": False}
    stack = [f]
    while stack:
        node = stack.pop()
        cls = type(node).__name__
        if cls in seen:
            seen[cls] = True
        for attr in ("sub", "lhs", "rhs", "body", "prog", "formula", "left", "right"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, str):
                stack.append(child)
    kind = "star" if seen["Star"] else "test" if seen["Test"] else "box"
    memo[id(f)] = (f, kind)  # keep f alive so its id is not reused
    return kind


def install(tr: Tracer) -> None:
    """Route mvpdl's public entry points through spans of `tr`.

    Every module attribute bound to a wrapped function is rebound, so
    `from .syntax import fl_closure` in other modules is covered.
    """
    from mvpdl import cli, filtration, kripke, luk, parser, proofs, sat, syntax, tautologies, ulam

    kinds: dict = {}

    def model_edges(m) -> int:
        return sum(len(pairs) for pairs in m.relations.values())

    def check_after(args, pre, result, error):
        m = args[0]
        tr.count("kripke.world_checks", len(m.worlds))
        tr.count("kripke.edges", model_edges(m))

    def check_name(formula_pos):
        return lambda args: "kripke.check." + _kind(args[formula_pos], kinds)

    def taut_before(args):
        try:
            return (args[1] + 1) ** len(syntax.variables_of(args[0]))
        except RecursionError:
            return 0

    def taut_after(args, pre, result, error):
        tr.count("luk.assignments", pre)

    def closure_after(args, pre, result, error):
        if result is not None:
            tr.count("syntax.closure_members", len(result))

    def chars_after(args, pre, result, error):
        if error is None:
            tr.count("parser.chars", len(result) if isinstance(result, str) else len(args[0]))

    def decide_after(args, pre, result, error):
        stats = getattr(error if error is not None else result, "stats", None)
        if stats is not None:
            tr.count("sat.candidates", stats.nodes_explored)
            tr.count("sat.rows", stats.atoms_generated)
        if isinstance(error, sat.BudgetExceeded):
            tr.count("sat.budget_exhausted")
        elif error is None and (result.is_sat or result.complete):
            tr.count("sat.decided")

    def filter_after(args, pre, result, error):
        if error is None:
            tr.count("filtration.worlds", len(args[0].worlds))
            tr.count("filtration.classes", len(result.quotient.worlds))

    def build_after(args, pre, result, error):
        if error is None:
            cfg = args[0]
            states = len(result.worlds)
            tr.count("ulam.states", states)
            tr.count("ulam.edges", model_edges(result))
            tr.count("ulam.updates", (1 << len(cfg.elements)) * states * 2)

    line_kinds = {
        "Premise": "premise",
        "AxiomRef": "axiom",
        "Luk": "luk",
        "ModusPonens": "mp",
        "Necessitation": "nec",
        "Substitution": "subst",
    }

    def line_name(args):
        d, lineno = args[0], args[1]
        if 1 <= lineno <= len(d.lines):
            kind = line_kinds.get(type(d.lines[lineno - 1].justification).__name__, "other")
        else:
            kind = "other"
        return "proofs.line." + kind

    functions = [
        (luk, "is_tautology_prop", "luk.taut", None, None),
        (luk, "prop_counterexample", "luk.taut", taut_before, taut_after),
        (syntax, "fl_closure", "syntax.fl_closure", None, closure_after),
        (syntax, "substitute", "syntax.substitute", None, None),
        (syntax, "substitute_atomics", "syntax.substitute", None, None),
        (parser, "parse_formula", "parser.parse", None, chars_after),
        (parser, "parse_program", "parser.parse", None, chars_after),
        (parser, "format_formula", "parser.format", None, chars_after),
        (parser, "format_program", "parser.format", None, chars_after),
        (kripke, "parse_model", "kripke.load", None, None),
        (kripke, "random_model", "kripke.generate", None, None),
        (kripke, "format_model", "kripke.format", None, None),
        (filtration, "filter_model", "filtration.filter", None, filter_after),
        (sat, "decide_sat", "sat.decide", None, decide_after),
        (sat, "decide_valid", "sat.decide", None, decide_after),
        (proofs, "parse_derivation", "proofs.parse_derivation", None, None),
        (proofs, "format_derivation", "proofs.format", None, None),
        (proofs, "check_derivation", "proofs.check", None, None),
        (proofs, "check_line", line_name, None, None),
        (proofs, "instantiate_axiom", "proofs.instantiate", None, None),
        (proofs, "derive_loop_invariance", "proofs.derive", None, None),
        (proofs, "derive_loop_invariance_plain", "proofs.derive", None, None),
        (tautologies, "schema_formulas", "tautologies.schema", None, None),
        (tautologies, "random_instance", "tautologies.random", None, None),
        (tautologies, "random_formula", "tautologies.random", None, None),
        (tautologies, "random_program", "tautologies.random", None, None),
        (ulam, "reachable_states", "ulam.reachable", None, None),
        (ulam, "build_game_model", "ulam.build", None, build_after),
        (ulam, "check_spec", "ulam.spec", None, None),
        (ulam, "run_game", "ulam.run", None, None),
        (cli, "main", "cli.main", None, None),
    ]
    replace: dict[int, object] = {}
    for module, attr, name, before, after in functions:
        fn = getattr(module, attr)
        replace[id(fn)] = _wrap(tr, fn, name, before, after)
    for modname, module in list(sys.modules.items()):
        if modname != "mvpdl" and not modname.startswith("mvpdl."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = replace.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)

    model_cls = kripke.KripkeModel
    for method, pos in (
        ("value", 2),
        ("value_profile", 1),
        ("satisfies", 2),
        ("globally_true", 1),
        ("falsifying_world", 1),
    ):
        fn = getattr(model_cls, method)
        setattr(model_cls, method, _wrap(tr, fn, check_name(pos), None, check_after))
