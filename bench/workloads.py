"""The four workloads: inputs made from a seed, and the ops that use them.

A workload's setup returns one cycle of steps.  The runner repeats the
cycle, one step at a time and each step only after the previous one
returned (a closed loop with a single client), so every run replays the
same mix.  A step is an `Op`: the timed call, which goes through mvpdl's
public API exactly as a user or the CLI would, and a check of its answer
against a reference from `reference.py`, which the runner calls outside
the timed region.  Load and unload steps (a session parsing its model,
and dropping it at its end) are timed but are not ops.  Steps marked
`defect` are known-defect probes: inputs the program fails on at this
commit.  The runner keeps them out of the timed loop, so that no timed
op fails, and runs each once in the traced run, where it lists every one
that fails and counts them.

Why each workload exists:

* check  - model checking and filtration on 300-world random models.  The
  only workload where kripke star closure and filtration do most of the
  work; formulas of one session share subterms, so the model's caches are
  hit, while each session starts cold.
* decide - validity and satisfiability at desk scale under a fixed
  candidate budget.  The only workload dominated by sat; kripke builds
  thousands of tiny models once each and never reuses their caches.
* game   - the searching game with lies.  The only workload dominated by
  ulam state updates; kripke sees 2^m atomic programs and shallow specs.
* prove  - derivation checking.  The only workload where luk truth tables,
  the parser and syntax substitution do most of the work, with no model.

Known defects are probed, not timed.  In decide: the schemas whose
validity the decider cannot settle within its budget (12-15, 17, 18),
the ROADMAP item-1 case, and random formulas with 0 under a modality.
In prove: loop-invariance derivations whose alpha has a test over p (the
checker rejects their axiom line, 7 or 8), and the deep tautology
p^300 -> p^300, which raises RecursionError.  The timed ops are drawn
from the other schemas, formulas and programs.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference

# Stated input sizes.  Changing any of them changes the benchmark.
CHECK_N = 4
CHECK_WORLDS = 300
CHECK_DENSITIES = (0.02, 0.035, 0.05)  # one session per density per cycle
CHECK_CACHED = 10  # boxes and diamonds over the ROADMAP formula's star programs
CHECK_BOX_FREE = 60  # random formulas per session without a modality
CHECK_BOXED = 140  # random formulas per session with one or two modalities
CHECK_CLI = 38  # per session, each loading the model file: about 15 % of ops
CHECK_STAR_FAMILY = ("[a*]p", "[(a;b)*]q", "<(a+b)*>p", "[a*][b*]q -> [(a+b)*]p")
CHECK_FILTER_FORMULA = "[a*](p -> [b]q)"
CHECK_SAMPLE_WORLDS = 2  # worlds re-checked by the reference per op
ROADMAP_FORMULA = "[(a+b)*](p -> <a;b*>q) & [a*][b*]p"

DECIDE_BUDGET = 300  # candidates per decide call
DECIDE_RANDOM_SAT = 200  # cheap and many: the p50 falls among them
DECIDE_DEFECT_SCHEMAS = (12, 13, 14, 15, 17, 18)  # exhaust the budget at some n
DECIDE_DEFECT_SAT = 4  # random formulas with 0 under a modality
ITEM1_CASE = "[(a+b)*]p -> [a*][b*]p"

# (m, n, depth) and spec counts: questions whose [Q]p_i -> p_i is checked
# for every i, Q;~Q threshold-decay specs, star specs.  The two 729-state
# models get most specs, so that the p50 falls inside their cheap specs and
# the p90 inside their star specs rather than on a boundary between models.
GAME_CONFIGS = (
    ((4, 2, 3), 6, 8, 4),
    ((5, 2, 3), 5, 8, 4),
    ((6, 2, 2), 14, 24, 24),
    ((6, 3, 2), 14, 24, 24),
)
GAME_PLAYS = 4
GAME_SAMPLE_STATES = 3

PROVE_LOOP = 72  # loop-invariance derivations, n = 1..6
PROVE_AXIOM = 18  # two per axiom id
PROVE_LUK = 72
PROVE_CORRUPT = 12
PROVE_DEFECT_LOOP = 6  # loop-invariance derivations whose alpha tests p
PROVE_CLI_EVERY = 4  # every 4th derivation and luk op goes through the CLI
DEEP_TAUTOLOGY = "p^300 -> p^300"


@dataclass
class Wrong:
    """A disagreement with the reference.  `unsound` marks an answer that
    asserts something false (a wrong value or verdict, an invalid witness,
    an accepted corrupted line); a sound one only declines to confirm
    something true (a rejected derivable line)."""

    reason: str
    unsound: bool = True


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    verify: Callable[[object], Wrong | None]
    text: str
    counted: bool = True
    defect: bool = False  # a known-defect probe, never timed


def _no_check(answer):
    return None


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """One in-process `mvpdl` invocation: exit code, stdout and stderr."""
    from mvpdl import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_report(answer) -> tuple[int, dict] | Wrong:
    """Exit code and JSON report of a CLI op; exit 2 is an error."""
    code, out, err = answer
    if code == 2:
        return Wrong(f"exit 2: {err.strip()[:200]}", unsound=False)
    try:
        return code, json.loads(out)
    except ValueError:
        return Wrong(f"exit {code} without a JSON report: {out[:200]!r}")


def _unload_step(session, label) -> Op:
    """End of a session: its model and the model's caches are dropped, so
    that memory does not grow with the number of sessions a run reaches."""
    return Op("unload", session.clear, _no_check, label, counted=False)


_latest_reference: dict = {}


def _session_reference(model):
    """Reference evaluator of a check session's model, built on first use
    outside the timed region.  Only the latest session's is kept, so that
    reference memos do not grow with the number of sessions a run
    reaches; a session that runs again builds its own afresh."""

    def get():
        if _latest_reference.get("model") is not model:
            _latest_reference.clear()
            _latest_reference.update(model=model, ref=reference.model_reference(model))
        return _latest_reference["ref"]

    return get


def _lazy(make):
    """Value computed on first use, outside the timed region."""
    box = []

    def get():
        if not box:
            box.append(make())
        return box[0]

    return get


# --- check ------------------------------------------------------------------


def setup_check(seed: int, work: Path) -> list[Op]:
    """Three sessions per cycle, one per density.  Each checks the ROADMAP
    formula, the star family, random bodies under the ROADMAP formula's
    star programs (whose closures the model has cached by then) and
    star-free random formulas, and runs CHECK_CLI `mvpdl check` calls on
    its model file.  Random formulas with a star are redrawn: one star
    over a compound program can cost a thousand times a star-free check,
    so a handful of them would make a seed's throughput a matter of luck;
    cold star closure is measured by the fixed shapes instead.

    The mix sets where the percentiles fall.  A check without a modality
    costs a fraction of one with a modality, whose program relation is
    built or looked up, so the share of each among the random formulas
    moves the p50.  The share is fixed instead: CHECK_BOX_FREE formulas
    without a modality and CHECK_BOXED with one or two.  The p90 falls
    among the CLI calls, whose cost is mostly loading the model and
    hardly depends on the seed.  Star closures and the filter are the few
    per cent above the p90."""
    from mvpdl import kripke, parser, tautologies
    from mvpdl.syntax import Box, diamond

    rng = random.Random(seed)
    cached = [parser.parse_program(t) for t in ("a*", "b*", "(a+b)*")]  # closed by the ROADMAP formula
    ops: list[Op] = []
    for s, density in enumerate(CHECK_DENSITIES):
        model = kripke.random_model(rng.randrange(2**31), CHECK_N, CHECK_WORLDS, edge_density=density)
        text = kripke.format_model(model, comments=[f"check session {s}, density {density}"])
        path = work / f"check_model_{s}.kml"
        path.write_text(text, encoding="utf-8")
        names = _swap_names(rng)
        fixed = [ROADMAP_FORMULA] + [t.translate(names) for t in CHECK_STAR_FAMILY]
        formulas = [parser.parse_formula(t) for t in fixed]
        while len(formulas) < len(fixed) + CHECK_CACHED:
            body = _star_free(rng, (1, 2))
            prog = cached[rng.randrange(len(cached))]
            formulas.append(Box(prog, body) if rng.random() < 0.5 else diamond(prog, body))
        drawn = [_star_free(rng, (2, 3, 4), boxes=(0,) if j < CHECK_BOX_FREE else (1, 2))
                 for j in range(CHECK_BOX_FREE + CHECK_BOXED)]
        rng.shuffle(drawn)
        formulas += drawn
        texts = [parser.format_formula(f) for f in formulas]
        session: dict = {}
        ref = _session_reference(model)
        label = f"session {s} (W={CHECK_WORLDS}, density {density})"
        ops.append(Op("load", _load_call(session, text), _no_check, label, counted=False))
        for j, (f, ftext) in enumerate(zip(formulas, texts)):
            sample = rng.sample(model.worlds, CHECK_SAMPLE_WORLDS)
            method = ("falsifying_world", "globally_true", "value")[j % 3]
            ops.append(_check_op(session, ref, method, f, ftext, sample, label))
        if s == 1:  # one filter op per cycle, the slowest op type
            ftext = parser.format_formula(parser.parse_formula(CHECK_FILTER_FORMULA.translate(names)))
            f = parser.parse_formula(ftext)
            ops.append(_filter_op(session, ref, f, ftext, rng.sample(model.worlds, 3), label))
        random_part = range(len(fixed) + CHECK_CACHED, len(formulas))
        for j in ([0] if s == 0 else []) + rng.sample(random_part, CHECK_CLI - (s == 0)):
            sample = rng.sample(model.worlds, CHECK_SAMPLE_WORLDS)
            ops.append(_cli_check_op(session, ref, path, formulas[j], texts[j], sample, label))
        ops.append(_unload_step(session, label))
    return ops


def _swap_names(rng):
    """Seeded renaming: a and b swapped or not, p and q likewise."""
    table = {}
    if rng.random() < 0.5:
        table.update({ord("a"): "b", ord("b"): "a"})
    if rng.random() < 0.5:
        table.update({ord("p"): "q", ord("q"): "p"})
    return table


def _star_free(rng, depths, boxes=None):
    """Random formula without a star, whose number of boxes is in `boxes`
    when that is given."""
    from mvpdl import tautologies

    while True:
        f = tautologies.random_formula(rng, rng.choice(depths), var_names=("p", "q"))
        classes = [type(x).__name__ for x in _nodes(f)]
        if "Star" not in classes and (boxes is None or classes.count("Box") in boxes):
            return f


def _nodes(node):
    """Every node of a syntax tree, programs and test formulas included."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for attr in ("sub", "lhs", "rhs", "body", "prog", "formula", "left", "right")
            if (child := getattr(node, attr, None)) is not None and not isinstance(child, str)
        )


def _load_call(session, text):
    from mvpdl import kripke

    def call():
        session["model"] = kripke.parse_model(text)

    return call


def _sample_top(ref, f, worlds, n) -> Wrong | None:
    for w in worlds:
        v = ref().value(f, w)
        if v != n:
            return Wrong(f"reference value {v}/{n} at {w}, program says true everywhere")
    return None


def _check_op(session, ref, method, f, ftext, sample, label) -> Op:
    from mvpdl import parser

    world = sample[0]
    n = CHECK_N

    def call():
        g = parser.parse_formula(ftext)
        model = session["model"]
        if method == "value":
            return model.value(world, g)
        return getattr(model, method)(g)

    def verify(answer):
        if method == "value":
            v = ref().value(f, world)
            return None if v == answer.num else Wrong(f"value {answer} at {world}, reference {v}/{n}")
        if method == "globally_true":
            if answer:
                return _sample_top(ref, f, sample, n)
            answer = session["model"].falsifying_world(f)
            if answer is None:
                return Wrong("globally_true and falsifying_world disagree")
        if answer is None:
            return _sample_top(ref, f, sample, n)
        w, value = answer
        v = ref().value(f, w)
        if v != value.num or v == n:
            return Wrong(f"falsified at {w} with {value}, reference {v}/{n}")
        order = session["model"].worlds.index(w)
        return _sample_top(ref, f, [u for u in sample if session["model"].worlds.index(u) < order], n)

    return Op(method, call, verify, f"{label}: {ftext}")


def _filter_op(session, ref, f, ftext, sample, label) -> Op:
    from mvpdl import filtration, parser

    def call():
        return filtration.filter_model(session["model"], parser.parse_formula(ftext))

    def verify(res):
        model = session["model"]
        q = res.quotient
        bound = min(len(model.worlds), (model.n + 1) ** len(res.closure))
        if len(q.worlds) > bound or set(res.class_of) != set(model.worlds):
            return Wrong(f"{len(q.worlds)} classes, bound {bound}")
        if f not in res.closure:
            return Wrong("seed formula missing from the closure")
        qref = reference.model_reference(q)
        for psi in res.closure:  # filtration lemma, part (1)
            for w in sample:
                v, qv = ref().value(psi, w), qref.value(psi, res.class_of[w])
                if v != qv:
                    return Wrong(f"closure member differs at {w}: {v} in the model, {qv} in the quotient")
        return None

    return Op("filter", call, verify, f"{label}: filter through {ftext}")


def _cli_check_op(session, ref, path, f, ftext, sample, label) -> Op:
    n = CHECK_N

    def verify(answer):
        got = _cli_report(answer)
        if isinstance(got, Wrong):
            return got
        code, report = got
        if report["verdict"] == "true":
            return _sample_top(ref, f, sample, n) if code == 0 else Wrong(f"verdict true, exit {code}")
        if code != 1:
            return Wrong(f"verdict false, exit {code}")
        w = report["counterexample"]["world"]
        v = ref().value(f, w)
        if f"{v}/{n}" != report["counterexample"]["value"] or v == n:
            return Wrong(f"counterexample {w} = {report['counterexample']['value']}, reference {v}/{n}")
        return None

    argv = ["check", "--model", str(path), "--json", ftext]
    return Op("cli check", lambda: cli_call(argv), verify, f"{label}: mvpdl check {ftext}")


# --- decide -----------------------------------------------------------------


def setup_decide(seed: int, work: Path) -> list[Op]:
    """Schemas at n=1..4, one instance per schema, refutable inductions
    and random satisfiability, shuffled.  Instances are drawn at depth 0
    (the schema with variables and programs renamed) and random formulas
    at depth 2: deeper draws exhaust the budget at a seed-dependent rate,
    and throughput and percentiles would follow the seed rather than the
    program.  The cheap satisfiability ops are more than half of all, so
    the p50 falls among them, and the p90 among the schemas.  The schemas
    in DECIDE_DEFECT_SCHEMAS and the item-1 case at n=4 exhaust the
    budget today; they, with their instances, are defect probes.  So
    are random formulas with the constant 0 under a modality, on which
    decide_sat exhausts the budget when they are unsatisfiable; the timed
    random formulas are drawn without."""
    from mvpdl import parser, tautologies

    rng = random.Random(seed)
    ops: list[Op] = []
    for n in range(1, 5):
        for i in range(1, tautologies.SCHEMA_COUNT + 1):
            for f in tautologies.schema_formulas(i, n):
                ops.append(_decide_op("valid", f, n, "valid", f"schema {i} at n={n}", i in DECIDE_DEFECT_SCHEMAS))
    for i in range(1, tautologies.SCHEMA_COUNT + 1):
        n = 1 + i % 2
        for f in tautologies.random_instance(rng, i, n, depth=0):
            ops.append(
                _decide_op("valid", f, n, "valid", f"schema {i} instance at n={n}", i in DECIDE_DEFECT_SCHEMAS)
            )
    induction = parser.parse_formula("(p & [a*](p -> [a]p)) -> [a*]p")
    for n in (2, 3, 4):
        ops.append(_decide_op("valid", induction, n, "refuted", f"unpowered induction at n={n}"))
    item1 = parser.parse_formula(ITEM1_CASE)
    ops.append(_decide_op("valid", item1, 4, "valid", "ROADMAP item-1 case at n=4", True))
    for k in range(DECIDE_RANDOM_SAT + DECIDE_DEFECT_SAT):
        defect = k >= DECIDE_RANDOM_SAT
        n = 1 + k % 3
        while True:
            f = tautologies.random_formula(rng, 2, var_names=("p", "q"), atom_names=("a",))
            if _zero_under_box(f) == defect:
                break
        ops.append(_decide_op("sat", f, n, None, f"random formula at n={n}", defect))
    rng.shuffle(ops)
    return ops


def _zero_under_box(f) -> bool:
    """Whether the constant 0 occurs inside a box or diamond.  decide_sat
    exhausts its budget on unsatisfiable formulas such as <a>0 and
    <a>(p & 0) today."""
    return any(
        type(x).__name__ == "Zero" for node in _nodes(f) if type(node).__name__ == "Box" for x in _nodes(node)
    )


def _decide_op(mode, f, n, expect, label, defect=False) -> Op:
    """expect is "valid", "refuted", or None for satisfiability against
    the oracle."""
    from mvpdl import parser, sat

    text = parser.format_formula(f)
    decide = "decide_valid" if mode == "valid" else "decide_sat"

    def call():
        return getattr(sat, decide)(f, n, budget=DECIDE_BUDGET)

    oracle = _lazy(
        lambda: any(sat.enumerate_oracle(f, n, k).is_sat for k in (1, 2))
    )

    def verify(res):
        if res.is_sat:
            v = reference.model_reference(res.model).value(f, res.world)
            genuine = v == n if mode == "sat" else v < n
            if not genuine:
                return Wrong(f"witness at {res.world} has reference value {v}/{n}")
            if expect == "valid":
                return Wrong("refuted a valid formula")
            return None
        if not res.complete:
            return Wrong("search ended without a verdict", unsound=False)
        if expect == "refuted":
            return Wrong("called a refutable formula valid")
        if mode == "sat" and oracle():
            return Wrong("unsatisfiable, but the oracle finds a model of 1-2 worlds")
        return None

    return Op(mode, call, verify, f"{label}: {text}", defect=defect)


# --- game -------------------------------------------------------------------


def setup_game(seed: int, work: Path) -> list[Op]:
    from mvpdl import parser, ulam
    from mvpdl.luk import synth_tau
    from mvpdl.syntax import Atomic, Box, Implies, Not, Seq, Star, Union, Var, oplus, substitute

    rng = random.Random(seed)
    configs = list(GAME_CONFIGS)
    rng.shuffle(configs)
    ops: list[Op] = []
    for (m, n, depth), c09_questions, decay_specs, star_specs in configs:
        cfg = ulam.GameConfig(elements=tuple(str(i) for i in range(1, m + 1)), n=n, depth=depth)
        label = f"game m={m} n={n} depth={depth}"
        ref = _lazy(lambda m=m, n=n, depth=depth: reference.game_reference(m, n, depth))
        session: dict = {}
        ops.append(_build_op(session, cfg, ref, label))

        def question(mask):
            return Atomic("Q{" + ",".join(str(i + 1) for i in range(m) if mask >> i & 1) + "}")

        full = (1 << m) - 1
        specs = []
        for mask in rng.sample(range(1 << m), c09_questions):
            for i in range(1, m + 1):
                specs.append(Implies(Box(question(mask), Var(f"p_{i}")), Var(f"p_{i}")))
        for _ in range(decay_specs):
            mask = rng.randrange(1 << m)
            pm = Var(f"p_{rng.randrange(1, m + 1)}")
            i = rng.randrange(1, n + 1)
            lhs = substitute(synth_tau(i, n), {"p": pm})
            low = synth_tau(i - 2, n) if i - 2 >= 1 else oplus(Var("p"), Not(Var("p")))
            prog = Seq(question(mask), question(full ^ mask))
            specs.append(Implies(lhs, Box(prog, substitute(low, {"p": pm}))))
        for k in range(star_specs):
            pm = Var(f"p_{rng.randrange(1, m + 1)}")
            star = Star(Union(question(rng.randrange(1 << m)), question(rng.randrange(1 << m))))
            specs.append(Implies(Box(star, pm), pm) if k % 2 == 0 else Implies(pm, Box(star, pm)))
        for f in specs:
            ops.append(_spec_op(session, cfg, ref, f, parser.format_formula(f), rng.random(), label))
        for _ in range(GAME_PLAYS):
            masks = [rng.randrange(1 << m) for _ in range(3)]
            answers = [rng.random() < 0.5 for _ in masks]
            ops.append(_play_op(cfg, m, n, masks, answers, label))
        ops.append(_unload_step(session, label))
    return ops


def _build_op(session, cfg, ref, label) -> Op:
    from mvpdl import ulam

    def call():
        session["model"] = ulam.build_game_model(cfg)
        return session["model"]

    def verify(model):
        states, _ = ref()
        got = {reference.state_of_world(w): w for w in model.worlds}
        if set(got) != states:
            return Wrong(f"{len(got)} states built, {len(states)} reachable by the reference BFS")
        for s, w in got.items():
            for i, v in enumerate(s):
                if model.atomic_value(w, f"p_{i + 1}").num != v:
                    return Wrong(f"p_{i + 1} at {w} is not {v}")
        return None

    return Op("build", call, verify, label)


def _spec_op(session, cfg, ref, f, ftext, pick, label) -> Op:
    from mvpdl import ulam

    n = cfg.n
    sample_rng = random.Random(pick)

    def call():
        return ulam.check_spec(cfg, ftext, model=session["model"])

    def verify(answer):
        holds, state = answer
        states, evaluator = ref()
        if holds:
            for s in sample_rng.sample(sorted(states), min(GAME_SAMPLE_STATES, len(states))):
                v = evaluator.value(f, s)
                if v != n:
                    return Wrong(f"holds per program, reference {v}/{n} at {s}")
            return None
        s = tuple(state.values)
        v = evaluator.value(f, s) if s in states else None
        if v is None or v == n:
            return Wrong(f"fails at {s} per program, reference {v}")
        return None

    return Op("spec", call, verify, f"{label}: {ftext}")


def _play_op(cfg, m, n, masks, answers, label) -> Op:
    from mvpdl import ulam

    questions = [[str(i + 1) for i in range(m) if mask >> i & 1] for mask in masks]

    def call():
        return ulam.run_game(cfg, questions, answers)

    def verify(trajectory):
        s = (n,) * m
        expected = [s]
        for q, positive in zip(questions, answers):
            s = reference.game_update(s, frozenset(int(x) for x in q), positive)
            expected.append(s)
        got = [tuple(k.values) for k in trajectory]
        return None if got == expected else Wrong(f"trajectory {got}, reference {expected}")

    text = ";".join("{" + ",".join(q) + "}" for q in questions)
    return Op("play", call, verify, f"{label}: play {text} answers {answers}")


# --- prove ------------------------------------------------------------------


def setup_prove(seed: int, work: Path) -> list[Op]:
    import mvpdl
    from mvpdl import kripke, parser, proofs, tautologies
    from mvpdl.syntax import Implies, Not, oplus, odot, power

    rng = random.Random(seed)
    ops: list[Op] = []
    loops = []
    for k in range(PROVE_LOOP + PROVE_DEFECT_LOOP):
        defect = k >= PROVE_LOOP
        n = 1 + k % 6
        phi = _sized(rng, lambda: tautologies.random_formula(rng, 2, var_names=("p", "q")), 2)
        while True:
            alpha = tautologies.random_program(rng, 2, var_names=("p", "q"))
            if _tests_p(alpha) == defect:
                break
        derive = proofs.derive_loop_invariance if k % 2 == 0 else proofs.derive_loop_invariance_plain
        d = derive(phi, alpha, n)
        label = f"loop invariance n={n}, phi = {parser.format_formula(phi)}, alpha = {parser.format_program(alpha)}"
        if defect:
            ops.append(_derivation_op(d, n, None, label, defect=True))
            continue
        loops.append(d)
        if k % PROVE_CLI_EVERY == 0:
            ops.append(_cli_prove_op(work / f"loop_{k}.prf", proofs.format_derivation(d), n, None, label))
        else:
            ops.append(_derivation_op(d, n, None, label))

    ids = proofs.axiom_ids()
    for k in range(PROVE_AXIOM):
        axiom_id, n = ids[k % len(ids)], 1 + k % 4
        fsub = {v: tautologies.random_formula(rng, 1, var_names=("p", "q")) for v in ("p", "q")}
        psub = {a: tautologies.random_program(rng, 1, var_names=("p", "q")) for a in ("a", "b")}
        d = proofs.Derivation(n=n)
        d.add(proofs.instantiate_axiom(axiom_id, n, fsub, psub), proofs.AxiomRef(axiom_id, fsub, psub))
        models = [kripke.random_model(rng.randrange(2**31), n, 3) for _ in range(2)]
        ops.append(_derivation_op(d, n, None, f"axiom {axiom_id} instance at n={n}", models))

    patterns = (
        lambda f, g: Implies(f, f),
        lambda f, g: Implies(f, Implies(g, f)),
        lambda f, g: Implies(Implies(f, g), Implies(Implies(g, power(f, 2)), Implies(f, power(f, 2)))),
        lambda f, g: Implies(odot(f, Implies(f, g)), g),
        lambda f, g: oplus(f, Not(f)),
    )
    for k in range(PROVE_LUK):
        names = ("p", "q", "r", "s")[: 1 + k % 4]
        n = 1 + k % 3
        label = f"luk line over {len(names)} variables at n={n}"
        if k % PROVE_CLI_EVERY == 0:  # `taut` takes box-free formulas only
            line = patterns[rng.randrange(len(patterns))](
                _prop_formula(rng, 3, names), _prop_formula(rng, 3, names)
            )
        else:
            line = _sized(
                rng,
                lambda: patterns[rng.randrange(len(patterns))](
                    tautologies.random_formula(rng, rng.randrange(1, 4), var_names=names),
                    tautologies.random_formula(rng, rng.randrange(1, 4), var_names=names),
                ),
                len(names),
            )
        taut = _lazy(lambda line=line, n=n: reference.is_luk_tautology(line, n))
        if k % PROVE_CLI_EVERY == 0:
            ops.append(_cli_taut_op(parser.format_formula(line), n, taut, label))
        else:
            d = proofs.Derivation(n=n)
            d.add(line, proofs.Luk())
            ops.append(_derivation_op(d, n, lambda taut=taut: None if taut() else 1, label))

    bundled = Path(mvpdl.__file__).parent / "data" / "loop_invariance_n2.prf"
    bundled_text = bundled.read_text(encoding="utf-8")
    ops.append(_text_op(bundled_text, 2, None, "bundled loop_invariance_n2.prf"))
    ops.append(_cli_prove_op(bundled, None, 2, None, "bundled loop_invariance_n2.prf"))

    for k in range(PROVE_CORRUPT):
        d = loops[k * len(loops) // PROVE_CORRUPT]
        lines = proofs.format_derivation(d).splitlines()
        candidates = [
            i for i, line in enumerate(d.lines, start=1) if type(line.justification).__name__ != "Premise"
        ]
        bad = rng.choice(candidates)
        head, _, rest = lines[bad - 1].partition(". ")
        formula_text, _, just = rest.rpartition(" ; ")
        lines[bad - 1] = f"{head}. ~({formula_text}) ; {just}"
        ops.append(_text_op("\n".join(lines) + "\n", d.n, bad, f"derivation at n={d.n} with line {bad} negated"))

    ops.append(_text_op(f"1. {DEEP_TAUTOLOGY} ; luk\n", 2, None, f"luk line {DEEP_TAUTOLOGY}", defect=True))
    ops.append(_cli_taut_op(DEEP_TAUTOLOGY, 2, lambda: True, f"taut {DEEP_TAUTOLOGY}", defect=True))
    rng.shuffle(ops)
    return ops


def _tests_p(prog) -> bool:
    """Whether a program has a test whose formula mentions p.  The
    loop-invariance axiom line of such a program is rejected today."""
    return any(
        type(x).__name__ == "Var" and x.name == "p"
        for node in _nodes(prog)
        if type(node).__name__ == "Test"
        for x in _nodes(node.formula)
    )


def _sized(rng, draw, size):
    """Redraw until the abstracted formula has exactly `size` variables.

    A `luk` check costs (n+1) to that many rows, so one extra boxed
    subformula multiplies an op's time by up to seven; left to chance, a
    few such draws decide a seed's throughput.  Only the number of
    variables is fixed: shapes, programs and tests stay random."""
    while True:
        f = draw()
        if reference.abstraction_size(f) == size:
            return f


def _prop_formula(rng, depth, names):
    """Random box-free formula over the given variables."""
    from mvpdl.syntax import ZERO, Implies, Not, Var, land, lor, odot, oplus

    if depth <= 0 or rng.random() < 0.2:
        return ZERO if rng.random() < 0.1 else Var(rng.choice(names))
    pick = rng.randrange(6)
    if pick == 0:
        return Not(_prop_formula(rng, depth - 1, names))
    ctor = (Implies, lor, land, oplus, odot)[pick - 1]
    return ctor(_prop_formula(rng, depth - 1, names), _prop_formula(rng, depth - 1, names))


def _verdict_check(result, expect_line):
    """Compare check_derivation's (line, reason) or None with the line the
    reference expects to fail first (None: the derivation is sound; a
    callable is asked for it)."""
    if callable(expect_line):
        expect_line = expect_line()
    if result is None:
        return None if expect_line is None else Wrong(f"accepted, but line {expect_line} is unjustified")
    line, reason = result
    if expect_line is None or line < expect_line:
        return Wrong(f"rejected a sound line {line}: {reason}", unsound=False)
    if line > expect_line:
        return Wrong(f"accepted unjustified line {expect_line}, rejected line {line}")
    return None


def _derivation_op(d, n, expect_line, label, models=(), defect=False) -> Op:
    from mvpdl import proofs

    def call():
        return proofs.check_derivation(proofs.parse_derivation(proofs.format_derivation(d), n))

    def verify(result):
        for m in models:  # axiom instances hold at every world
            ref = reference.model_reference(m)
            for w in m.worlds:
                if ref.value(d.lines[0].formula, w) != n:
                    return Wrong(f"axiom instance is not true at {w} of a 3-world model")
        return _verdict_check(result, expect_line)

    return Op("derivation", call, verify, label, defect=defect)


def _text_op(text, n, expect_line, label, defect=False) -> Op:
    from mvpdl import proofs

    def call():
        return proofs.check_derivation(proofs.parse_derivation(text, n))

    return Op("derivation", call, lambda result: _verdict_check(result, expect_line), label, defect=defect)


def _cli_prove_op(path: Path, text, n, expect_line, label) -> Op:
    if text is not None:
        path.write_text(text, encoding="utf-8")
    argv = ["prove", str(path), "--n", str(n), "--json"]

    def verify(answer):
        got = _cli_report(answer)
        if isinstance(got, Wrong):
            return got
        code, report = got
        if report["verdict"] == "ok":
            result = None
            if code != 0:
                return Wrong(f"verdict ok, exit {code}")
        else:
            result = (report["line"], report["reason"])
            if code != 1:
                return Wrong(f"verdict violation, exit {code}")
        return _verdict_check(result, expect_line)

    return Op("cli prove", lambda: cli_call(argv), verify, f"mvpdl prove: {label}")


def _cli_taut_op(text, n, taut, label, defect=False) -> Op:
    argv = ["taut", text, "--n", str(n), "--json"]

    def verify(answer):
        got = _cli_report(answer)
        if isinstance(got, Wrong):
            return got
        code, report = got
        said = report["verdict"] == "tautology"
        if code != (0 if said else 1):
            return Wrong(f"verdict {'tautology' if said else 'not a tautology'}, exit {code}")
        if said != taut():
            return Wrong(f"tautology={said}, reference {not said}", unsound=said)
        return None

    return Op("cli taut", lambda: cli_call(argv), verify, f"mvpdl taut: {label}: {text}", defect=defect)


SIZES = {
    "check": f"W={CHECK_WORLDS}, n={CHECK_N}, densities {CHECK_DENSITIES}; per session {len(CHECK_STAR_FAMILY) + 1} "
    f"fixed, {CHECK_CACHED} cached-star, {CHECK_BOX_FREE} box-free and {CHECK_BOXED} boxed random formulas "
    f"and {CHECK_CLI} CLI calls; one filter per cycle",
    "decide": f"schemas 1-18 less {DECIDE_DEFECT_SCHEMAS} at n=1..4, one instance per schema at n=1 or 2, "
    f"induction at n=2..4, {DECIDE_RANDOM_SAT} random sat formulas at n=1..3; budget {DECIDE_BUDGET}; "
    f"probes: schemas {DECIDE_DEFECT_SCHEMAS} and their instances, {ITEM1_CASE} at n=4, "
    f"{DECIDE_DEFECT_SAT} random formulas with 0 under a modality",
    "game": "(m, n, depth) = " + ", ".join(str(c[0]) for c in GAME_CONFIGS),
    "prove": f"{PROVE_LOOP} loop-invariance derivations at n=1..6, {PROVE_AXIOM} axiom lines, "
    f"{PROVE_LUK} luk lines, {PROVE_CORRUPT} corrupted derivations, bundled file; probes: "
    f"{PROVE_DEFECT_LOOP} loop-invariance derivations whose alpha tests p, {DEEP_TAUTOLOGY}",
}

WORKLOADS = {
    "check": setup_check,
    "decide": setup_decide,
    "game": setup_game,
    "prove": setup_prove,
}
