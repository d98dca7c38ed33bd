"""Acceptance suite: one test per criterion, each printing a verdict line.

Run as `pytest -v tests/test_acceptance.py` (add -s to see the verdict
lines on success).  Every tolerance and bound is pinned here; nothing is
deferred to later calibration.
"""

import random
import time

import mvpdl.luk as luk
from mvpdl.filtration import filter_model
from mvpdl.kripke import disjoint_union, random_model
from mvpdl.luk import mv_equation_failures, synth_indicator, synth_tau, tv, unary_table
from mvpdl.parser import format_formula, parse_formula
from mvpdl.proofs import (
    axiom_ids,
    check_derivation,
    derive_loop_invariance,
    instantiate_axiom,
    is_modal_luk_tautology,
)
from mvpdl.sat import decide_sat, decide_valid, enumerate_oracle, is_validity_verdict
from mvpdl.syntax import (
    Atomic,
    Box,
    Implies,
    Not,
    Seq,
    Star,
    Test,
    Union,
    Var,
    ZERO,
    fl_closure,
    oplus,
    odot,
    power,
    substitute,
)
from mvpdl.tautologies import SCHEMA_COUNT, random_formula, random_instance, random_program
from mvpdl.ulam import (
    GameConfig,
    all_questions,
    build_game_model,
    check_spec,
    question_name,
    reachable_states,
    world_name_state,
)
from bundled import counterexample_model
from relational import Relational


def _report(criterion: int, name: str, detail: str):
    print(f"[acceptance] criterion {criterion:2d} ({name}): pass - {detail}")


def test_c01_worked_example_exact_and_fast():
    f1 = parse_formula("[a*]p")
    f2 = parse_formula("[a*](p -> [a]p)")
    f3 = parse_formula("p & [a*](p -> [a]p)")
    best = float("inf")
    for _ in range(3):
        m = counterexample_model()  # fresh model: no warm caches
        t0 = time.perf_counter()
        v1 = m.value("u", f1)
        v2 = m.value("u", f2)
        v3 = m.value("u", f3)
        best = min(best, time.perf_counter() - t0)
    assert v1 == tv(1, 4)
    assert v2 == tv(2, 4)
    assert v3 == tv(2, 4)
    assert best < 0.001, f"took {best * 1e3:.3f} ms"
    _report(1, "worked example", f"values 1/4, 1/2, 1/2 in {best * 1e6:.0f} us")


def test_c02_tautology_schema_suite():
    t0 = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 4):
        models = [
            random_model(
                seed=1000 * n + j,
                n=n,
                world_count=1 + j % 3,
                atom_names=("a", "b"),
                var_names=("p", "q", "r"),
                edge_density=0.35,
            )
            for j in range(200)
        ]
        union = disjoint_union(models)
        assert len(union.worlds) == sum(len(m.worlds) for m in models)
        rng = random.Random(999 + n)
        for index in range(1, SCHEMA_COUNT + 1):
            for _ in range(50):
                for f in random_instance(rng, index, n, depth=1):
                    assert union.globally_true(f), (n, index, format_formula(f))
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(2, "tautology suite", f"{checked} instance checks x 200 models x n=1..4 in {elapsed:.1f}s")


def test_c03_naive_induction_refuted():
    f = parse_formula("(p & [a*](p -> [a]p)) -> [a*]p")
    r = decide_valid(f, 4, max_worlds=2)
    assert r.is_sat, "expected a refutation"
    assert len(r.model.worlds) <= 2
    value = r.model.value(r.world, f)
    assert value.num < 4
    _report(3, "non-tautology witness", f"refuted with value {value} on {len(r.model.worlds)} worlds")


def test_c04_threshold_synthesis_exhaustive():
    t0 = time.perf_counter()
    with luk._tau_lock:
        luk._tau_cache.clear()
    count = 0
    for n in range(1, 7):
        for i in range(1, n + 1):
            table = unary_table(synth_tau(i, n), n)
            assert table == tuple(n if x >= i else 0 for x in range(n + 1)), (i, n)
            count += 1
        for i in range(0, n + 1):
            table = unary_table(synth_indicator(i, n), n)
            assert table == tuple(n if x == i else 0 for x in range(n + 1)), (i, n)
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, "threshold synthesis", f"{count} exhaustive tables for n<=6 in {elapsed:.2f}s")


def test_c05_filtration_lemma_suite():
    rng = random.Random(20260808)
    t0 = time.perf_counter()
    pairs = 0
    for trial in range(500):
        n = 1 + trial % 3
        m = random_model(
            seed=31000 + trial,
            n=n,
            world_count=1 + trial % 6,
            var_names=("p", "q", "r"),
            edge_density=rng.choice((0.15, 0.3, 0.5)),
        )
        f = random_formula(rng, rng.randrange(5))
        res = filter_model(m, f)
        q = res.quotient
        closure = list(res.closure)
        assert len(q.worlds) <= (n + 1) ** len(closure)
        for psi in closure:  # part (1)
            prof = m.value_profile(psi)
            qprof = q.value_profile(psi)
            for w in m.worlds:
                assert prof[w] == qprof[res.class_of[w]], (trial, format_formula(psi))
        m_rel, q_rel = Relational(m), Relational(q)
        for g in closure:
            if type(g) is not Box:
                continue
            rel = m_rel.relation(g.prog)
            qrel = q_rel.relation(g.prog)
            for u, v in rel:  # part (2a)
                assert (res.class_of[u], res.class_of[v]) in qrel, trial
            box_prof = m.value_profile(g)  # part (2b)
            body_prof = m.value_profile(g.body)
            for u in m.worlds:
                for v in m.worlds:
                    if (res.class_of[u], res.class_of[v]) in qrel:
                        assert box_prof[u].num <= body_prof[v].num, trial
        pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs == 500
    _report(5, "filtration lemma", f"500 model/formula pairs, parts 1+2a+2b, in {elapsed:.1f}s")


def _formulas_of_height_3():
    """Every formula whose mixed parse tree has at most three levels,
    over one variable p and one atomic program a."""
    f1 = [Var("p"), ZERO]
    p1 = [Atomic("a")]

    def formulas(children_f, children_p):
        out = list(children_f)
        out += [Not(x) for x in children_f]
        out += [Implies(x, y) for x in children_f for y in children_f]
        out += [Box(pr, x) for pr in children_p for x in children_f]
        return list(dict.fromkeys(out))

    def programs(children_f, children_p):
        out = list(children_p)
        out += [Test(x) for x in children_f]
        out += [Seq(x, y) for x in children_p for y in children_p]
        out += [Union(x, y) for x in children_p for y in children_p]
        out += [Star(x) for x in children_p]
        return list(dict.fromkeys(out))

    f2, p2 = formulas(f1, p1), programs(f1, p1)
    return formulas(f2, p2)


def test_c06_decider_cross_validation():
    # the full universe of three-level formulas, plus a seeded sample of
    # deeper nesting (connective depth up to 3) over the same vocabulary
    universe = _formulas_of_height_3()
    assert len(universe) > 150  # genuinely exhaustive, not a sample
    rng = random.Random(606)
    deeper = list(
        dict.fromkeys(
            random_formula(rng, 3, var_names=("p",), atom_names=("a",)) for _ in range(250)
        )
    )
    t0 = time.perf_counter()
    for n in (1, 2):
        for f in universe + deeper:
            by_search = decide_sat(f, n, max_worlds=2, budget=500_000).is_sat
            by_oracle = enumerate_oracle(f, n, 1).is_sat or enumerate_oracle(f, n, 2).is_sat
            assert by_search == by_oracle, (n, format_formula(f))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "decider vs oracle",
        f"{len(universe)} exhaustive + {len(deeper)} sampled formulas x n=1,2, "
        f"sizes 1-2, zero disagreements in {elapsed:.1f}s",
    )


def test_c07_proof_checker_suite():
    # (a) the loop-invariance derivation checks for n = 1, 2, 3
    for n in (1, 2, 3):
        d = derive_loop_invariance(Var("p"), Atomic("a"), n)
        assert check_derivation(d) is None, n
    # (b) every axiom schema, 20 random instantiations, valid in 200 models
    rng = random.Random(777)
    axiom_checks = 0
    for n in (1, 2, 3):
        models = [
            random_model(seed=5100 * n + j, n=n, world_count=1 + j % 3, var_names=("p", "q", "r"))
            for j in range(200)
        ]
        union = disjoint_union(models)
        assert len(union.worlds) == sum(len(m.worlds) for m in models)
        for axiom_id in axiom_ids():
            for _ in range(20):
                f = instantiate_axiom(
                    axiom_id,
                    n,
                    fsub={"p": random_formula(rng, 1), "q": random_formula(rng, 1)},
                    psub={"a": random_program(rng, 1), "b": random_program(rng, 1)},
                )
                assert union.globally_true(f), (axiom_id, n)
                axiom_checks += 1
    # (c) accepted propositional lines are never refuted by model search
    rng = random.Random(31338)
    trials = 0
    accepted = []
    while len(accepted) < 25:
        n = 1 + len(accepted) % 3
        f = random_formula(rng, rng.randrange(4))
        g = random_formula(rng, rng.randrange(4))
        candidate = [
            Implies(f, f),
            Implies(f, Implies(g, f)),
            Implies(Implies(f, g), Implies(Implies(g, power(f, 2)), Implies(f, power(f, 2)))),
            Implies(odot(f, Implies(f, g)), g),
            oplus(f, Not(f)),
        ][rng.randrange(5)]
        if is_modal_luk_tautology(candidate, n):
            accepted.append((candidate, n))
    for i, (f, n) in enumerate(accepted):
        for j in range(40):
            m = random_model(
                seed=91000 + 40 * i + j, n=n, world_count=1 + j % 3, var_names=("p", "q", "r")
            )
            assert m.globally_true(f), (format_formula(f), n)
            trials += 1
    assert trials == 1000
    _report(7, "proof checker", f"LI checks n=1..3; {axiom_checks} axiom instances; {trials} luk trials")


def test_c08_classical_degeneration_at_n1():
    from mvpdl.tautologies import schema_formulas

    qualifying = []
    for index in range(1, 14):
        for f in schema_formulas(index, 1):
            closure = fl_closure(f)
            if len(closure) <= 4:
                qualifying.append((index, f, len(closure)))
    assert qualifying, "no classical validity has a closure of size <= 4"
    for index, f, size in qualifying:
        r = decide_valid(f, 1)  # default bound is the completeness bound
        assert is_validity_verdict(r), (index, format_formula(f))
    detail = ", ".join(f"item {i} (|FL|={s})" for i, _, s in qualifying)
    _report(8, "classical degeneration", f"confirmed valid within bound: {detail}")


def test_c09_searching_game_suite():
    cfg = GameConfig(elements=("1", "2", "3"), n=2, depth=3)
    model = build_game_model(cfg)

    # answers never teach the wrong thing: [Q]p_m -> p_m for every Q, m
    spec_checks = 0
    for q in all_questions(cfg):
        name = question_name(cfg, q)
        for el in cfg.elements:
            ok, bad = check_spec(cfg, f"[{name}]p_{el} -> p_{el}", model=model)
            assert ok, (name, el, bad)
            spec_checks += 1

    # threshold decay: tau_i(p_m) -> [Q;~Q] tau_{i-2}(p_m), degenerate
    # lower thresholds read as the constant-1 formula
    p = Var("p")
    for q in all_questions(cfg):
        prog = Seq(
            Atomic(question_name(cfg, q)),
            Atomic(question_name(cfg, set(cfg.elements) - set(q))),
        )
        for el in cfg.elements:
            pm = Var(f"p_{el}")
            for i in range(1, cfg.n + 1):
                lhs = substitute(synth_tau(i, cfg.n), {"p": pm})
                low = i - 2
                rhs_core = synth_tau(low, cfg.n) if low >= 1 else oplus(p, Not(p))
                rhs = substitute(rhs_core, {"p": pm})
                f = Implies(lhs, Box(prog, rhs))
                assert model.globally_true(f), (question_name(cfg, q), el, i)
                spec_checks += 1

    # reachable-state count against an independent breadth-first oracle
    def oracle_reachable():
        size, n = len(cfg.elements), cfg.n
        questions = [tuple(mask >> i & 1 for i in range(size)) for mask in range(1 << size)]
        start = (n,) * size
        seen = {start}
        frontier = [start]
        for _ in range(cfg.depth):
            nxt = []
            for s in frontier:
                for qv in questions:
                    for positive in (True, False):
                        t = tuple(
                            max(x - 1, 0)
                            if (qv[i] == 0 if positive else qv[i] == 1)
                            else x
                            for i, x in enumerate(s)
                        )
                        if t not in seen:
                            seen.add(t)
                            nxt.append(t)
            frontier = nxt
        return seen

    reached = {s.values for s in reachable_states(cfg)}
    assert reached == oracle_reachable()
    assert len(model.worlds) == len(reached)

    # every edge is monotone and moves each coordinate by at most one step
    edges = 0
    for pairs in model.relations.values():
        for u, v in pairs:
            su = world_name_state(cfg, u)
            sv = world_name_state(cfg, v)
            for x, y in zip(su.values, sv.values):
                assert y <= x
                assert y in (x, max(x - 1, 0))
            edges += 1
    # the valuation is the state itself
    for w in model.worlds:
        state = world_name_state(cfg, w)
        for i, el in enumerate(cfg.elements):
            assert model.atomic_value(w, f"p_{el}").num == state.values[i]
    _report(9, "searching game", f"{spec_checks} spec checks, {len(reached)} states, {edges} edges")


def test_c10_value_algebra_identities():
    for n in range(1, 9):
        assert mv_equation_failures(n) == [], n
    _report(10, "value algebra", "four identities exhaustive on n=1..8")
