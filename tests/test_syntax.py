"""Sugar expansion, substitution, and the decomposition closure."""

import copy
import gc
import pickle
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from mvpdl import syntax
from mvpdl.luk import eval_prop, tv
from mvpdl.parser import parse_formula
from mvpdl.syntax import (
    IMP,
    NOT,
    STAR,
    VAR,
    Atomic,
    Box,
    Implies,
    Not,
    ONE,
    Seq,
    Star,
    Test,
    Union,
    Var,
    ZERO,
    diamond,
    fl_closure,
    iff,
    laws,
    land,
    lor,
    odot,
    oplus,
    plan,
    power,
    star_states,
    substitute,
    times,
    variables_of,
    atomic_programs_of,
)
from mvpdl.tautologies import random_formula, random_program

P, Q, R = Var("p"), Var("q"), Var("r")
A, B = Atomic("a"), Atomic("b")


def test_sugar_expands_to_core():
    assert oplus(P, Not(P)) == Implies(Not(P), Not(P))
    assert lor(P, Q) == Implies(Implies(P, Q), Q)
    assert land(P, Q) == Not(lor(Not(P), Not(Q)))
    assert odot(P, Q) == Not(oplus(Not(P), Not(Q)))
    assert iff(P, Q) == odot(Implies(P, Q), Implies(Q, P))
    assert diamond(A, P) == Not(Box(A, Not(P)))
    assert power(P, 0) == ONE
    assert power(P, 1) == P
    assert times(0, P) == ZERO
    assert times(1, P) == P


def test_structural_equality_and_hashing():
    assert Box(Star(A), P) == Box(Star(Atomic("a")), Var("p"))
    # trees are interned: equal trees are one object
    assert Var("p") is Var("p")
    assert Box(Star(A), P) is Box(Star(Atomic("a")), Var("p"))
    assert Box(Star(A), P) != Box(Star(B), P)
    assert len({Box(A, P), Box(Atomic("a"), Var("p")), Box(B, P)}) == 2
    assert Seq(A, B) != Union(A, B)


def test_copies_and_pickles_are_the_same_node():
    f = Box(Seq(Test(Not(P)), Star(A)), Implies(P, ZERO))
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_deep_trees_compare_equal():
    assert power(P, 3000) == power(P, 3000)
    assert power(P, 3000) != power(Q, 3000)


def test_intern_table_releases_dropped_trees():
    gc.collect()
    start = len(syntax._table)
    rng = random.Random(5)
    for _ in range(10_000):
        random_formula(rng, 4, var_names=("p", "q", "r", "s"))
    gc.collect()
    assert len(syntax._table) <= start + 20


def test_threads_racing_to_build_a_tree_get_one_node():
    def build(_):
        rng = random.Random(11)
        out = []
        for _ in range(400):
            f = random_formula(rng, 4, var_names=("t1", "t2", "t3"))
            Not(Implies(f, Var("t4")))  # built and dropped at once
            out.append(f)
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            results = list(pool.map(build, range(16), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(f is g for other in results[1:] for f, g in zip(results[0], other))


def test_walk_visits_shared_subterms_once():
    f = P
    for _ in range(40):
        f = iff(f, Q)  # the tree doubles at each step, the shared graph does not
    t0 = time.perf_counter()
    assert variables_of(f) == {"p", "q"}
    assert time.perf_counter() - t0 < 0.5


def values(n):
    return [tv(i, n) for i in range(n + 1)]


def test_desugaring_preserves_semantics():
    # sugared connectives evaluate to their min/max/sum readings
    for n in (1, 2, 3):
        for x in values(n):
            for y in values(n):
                env = {"p": x, "q": y}
                assert eval_prop(lor(P, Q), env).num == max(x.num, y.num)
                assert eval_prop(land(P, Q), env).num == min(x.num, y.num)
                assert eval_prop(oplus(P, Q), env).num == min(x.num + y.num, n)
                assert eval_prop(odot(P, Q), env).num == max(x.num + y.num - n, 0)
                assert eval_prop(iff(P, Q), env).num == n - abs(x.num - y.num)


def test_repetition_sugar_semantics():
    for n in (1, 2, 3):
        for k in range(5):
            for x in values(n):
                env = {"p": x}
                want_times = min(k * x.num, n) if k else 0
                want_power = max(k * x.num - (k - 1) * n, 0) if k else n
                assert eval_prop(times(k, P), env, n=n).num == want_times
                assert eval_prop(power(P, k), env, n=n).num == want_power


def test_substitute_inside_tests():
    f = parse_formula("[q?]p")
    out = substitute(f, {"q": oplus(R, R)})
    assert out == Box(Test(oplus(R, R)), P)


def test_substitute_examples():
    f = Implies(P, P)
    assert substitute(f, {"p": Box(A, Q)}) == Implies(Box(A, Q), Box(A, Q))
    assert substitute(f, {}) == f


def test_substitution_is_simultaneous():
    f = Implies(P, Q)
    out = substitute(f, {"p": Q, "q": P})
    assert out == Implies(Q, P)


def test_substitution_of_deep_terms_needs_no_recursion():
    # results are compared by hash and vocabulary: structural == recurses
    from mvpdl.syntax import substitute_atomics

    out = substitute(power(P, 3000), {"p": Q})
    assert hash(out) == hash(power(Q, 3000))
    assert variables_of(out) == {"q"}

    def chain(name):
        prog = Atomic(name)
        for _ in range(3000):
            prog = Seq(prog, Atomic(name))
        return Box(prog, P)

    out = substitute_atomics(chain("a"), {"a": B})
    assert hash(out) == hash(chain("b"))
    assert atomic_programs_of(out) == {"b"}


def test_fl_closure_of_composition():
    f = parse_formula("[a;b]p")
    assert set(fl_closure(f)) == {
        f,
        Box(A, Box(B, P)),
        Box(B, P),
        P,
    }


def test_fl_closure_of_star():
    f = parse_formula("[a*]p")
    assert set(fl_closure(f)) == {f, Box(A, f), P}


def test_fl_closure_of_implication():
    f = parse_formula("p -> 0")
    assert set(fl_closure(f)) == {f, P, ZERO}


def test_fl_closure_contains_seed_first():
    f = parse_formula("[a*](p -> q)")
    members = fl_closure(f)
    assert members[0] == f


def test_fl_closure_on_seed_sets():
    f, g = parse_formula("[a]p"), parse_formula("q")
    members = fl_closure([f, g])
    assert set(members) == {f, g, P}


def test_fl_closure_properties_random():
    rng = random.Random(7)
    for _ in range(150):
        f = random_formula(rng, rng.randrange(4))
        members = fl_closure(f)
        assert f in members
        assert len(members) == len(set(members))
        again = fl_closure(members)
        assert set(again) == set(members)  # idempotent
        bigger = fl_closure([f, random_formula(rng, 2)])
        assert set(members) <= set(bigger)  # monotone in the seed


def test_star_states_are_closure_members_linear_in_the_program():
    g = parse_formula("[(a;a)*]p")
    assert star_states(g) == {
        g: [(None, None, None), ("a", None, parse_formula("[a][(a;a)*]p"))],
        parse_formula("[a][(a;a)*]p"): [("a", None, g)],
    }
    # a test is a step of its own, so k test choices in sequence give
    # O(k) states and edges, not 2^k combinations of conditions
    g = parse_formula("[(" + ";".join(f"(p{i}? + q{i}?)" for i in range(12)) + ";a)*]r")
    auto = star_states(g)
    assert next(iter(auto)) is g
    assert set(auto) <= set(fl_closure(g))
    assert sum(len(edges) for edges in auto.values()) < 60


def test_variable_and_atom_collection():
    f = parse_formula("[(q?); a]p -> [b*]r")
    assert variables_of(f) == {"p", "q", "r"}
    assert atomic_programs_of(f) == {"a", "b"}


def test_plan_enters_reads_last_first():
    f = Implies(P, Q)
    assert list(plan([f])) == [(Q, VAR, (), None), (P, VAR, (), None), (f, IMP, (P, Q), None)]
    g = Not(Box(A, P))
    assert [step[0] for step in plan([g])] == [P, Box(A, P), g]
    assert list(plan([g], known={Box(A, P)})) == [(g, NOT, (Box(A, P),), None)]
    h = parse_formula("[(p?;a)*]q")
    assert list(plan([h])) == [(P, VAR, (), None), (Q, VAR, (), None), (h, STAR, (Q, P), star_states(h))]
    assert list(plan([A])) == [(A, None, (), None)]  # not a formula: the caller rejects it


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.floats(0, 0.5))
def test_plan_orders_each_step_after_what_it_reads(seed, count, share):
    rng = random.Random(seed)
    roots = [random_formula(rng, rng.randint(0, 4)) for _ in range(count)]
    roots.append(Box(Star(random_program(rng, 3)), random_formula(rng, 2)))
    members = fl_closure(roots)
    known = set(rng.sample(members, int(share * len(members))))
    steps = list(plan(roots, known))
    placed = set()
    for g, op, reads, auto in steps:
        assert g not in known and g not in placed
        assert all(r in placed or r in known for r in reads)
        placed.add(g)
        if type(g) is Box:
            law, law_reads = laws(g)
            assert op is law
            if op is STAR:
                gates = {gate for edges in auto.values() for _, gate, _ in edges} - {None}
                assert auto == star_states(g) and reads[0] is g.body and set(reads[1:]) == gates
            else:
                assert reads == law_reads and auto is None
    # exactly what the roots reach without passing through known
    reach, todo = set(), [r for r in roots if r not in known]
    reads_of = {g: reads for g, _, reads, _ in steps}
    while todo:
        g = todo.pop()
        if g not in reach:
            reach.add(g)
            todo += [r for r in reads_of[g] if r not in known]
    assert placed == reach
