"""Quotient construction, its preservation guarantees, characteristic formulas."""

import random

import pytest

from mvpdl.filtration import (
    NotSaturated,
    characteristic_formula,
    equivalence_classes,
    filter_model,
)
from mvpdl.kripke import KripkeModel, random_model
from mvpdl.parser import parse_formula
from mvpdl.syntax import Box
from mvpdl.tautologies import random_formula
from bundled import counterexample_model
from relational import Relational
from validated import assert_same_as_validated


def test_identical_rows_fall_in_one_class():
    m = KripkeModel(2, ["u", "v", "w"], {"a": [("u", "v")]}, {"p": {"u": 1, "v": 1, "w": 0}})
    classes = equivalence_classes(m, parse_formula("p"))
    assert sorted(map(sorted, classes)) == [["u", "v"], ["w"]]


def test_counterexample_worlds_separate():
    m = counterexample_model()
    classes = equivalence_classes(m, parse_formula("[a*]p"))
    assert sorted(map(sorted, classes)) == [["u"], ["v"]]


def test_seed_zero_collapses_everything():
    m = counterexample_model()
    classes = equivalence_classes(m, parse_formula("0"))
    assert classes == [["u", "v"]]


def test_filtration_of_separated_model_is_isomorphic():
    m = counterexample_model()
    res = filter_model(m, parse_formula("[a*]p"))
    assert len(res.quotient.worlds) == 2
    back = {c: w for w, c in res.class_of.items()}
    for atom, pairs in m.relations.items():
        assert {(res.class_of[u], res.class_of[v]) for u, v in pairs} == res.quotient.relations[atom]
    for w in m.worlds:
        assert res.quotient.atomic_value(res.class_of[w], "p") == m.atomic_value(w, "p")
    assert back  # both classes inhabited


def test_duplicate_worlds_collapse():
    m = KripkeModel(
        2,
        ["u", "u2", "v"],
        {"a": [("u", "v"), ("u2", "v")]},
        {"p": {"u": 2, "u2": 2, "v": 0}},
    )
    f = parse_formula("[a]p")
    res = filter_model(m, f)
    assert len(res.quotient.worlds) == 2
    for psi in res.closure:
        for w in m.worlds:
            assert m.value(w, psi) == res.quotient.value(res.class_of[w], psi)


def _check_filtration_lemma(m, f):
    res = filter_model(m, f)
    q = res.quotient
    n = m.n
    closure = list(res.closure)
    assert len(q.worlds) <= (n + 1) ** len(closure)
    # (1) values of closure members survive the quotient
    for psi in closure:
        prof = m.value_profile(psi)
        qprof = q.value_profile(psi)
        for w in m.worlds:
            assert prof[w] == qprof[res.class_of[w]], psi
    boxes = [g for g in closure if type(g) is Box]
    m_rel, q_rel = Relational(m), Relational(q)
    for g in boxes:
        rel = m_rel.relation(g.prog)
        qrel = q_rel.relation(g.prog)
        # (2a) related worlds stay related between classes
        for u, v in rel:
            assert (res.class_of[u], res.class_of[v]) in qrel
        # (2b) class edges never overshoot the box value
        box_prof = m.value_profile(g)
        body_prof = m.value_profile(g.body)
        for u in m.worlds:
            for v in m.worlds:
                if (res.class_of[u], res.class_of[v]) in qrel:
                    assert box_prof[u].num <= body_prof[v].num, g
    return res


def test_filtration_lemma_random_sample():
    rng = random.Random(4242)
    for trial in range(60):
        n = rng.choice((1, 2, 3))
        m = random_model(
            seed=5000 + trial,
            n=n,
            world_count=rng.randrange(1, 6),
            var_names=("p", "q", "r"),
            edge_density=rng.choice((0.2, 0.5)),
        )
        f = random_formula(rng, rng.randrange(4))
        _check_filtration_lemma(m, f)


def test_characteristic_formula_on_counterexample():
    m = counterexample_model()
    f = parse_formula("[a*]p")
    psi_u = characteristic_formula(m, f, {"u"})
    assert [w for w in m.worlds if m.satisfies(w, psi_u)] == ["u"]
    psi_all = characteristic_formula(m, f, {"u", "v"})
    assert m.globally_true(psi_all)
    psi_empty = characteristic_formula(m, f, set())
    assert all(not m.satisfies(w, psi_empty) for w in m.worlds)


def test_characteristic_formula_random():
    rng = random.Random(99)
    for trial in range(25):
        n = rng.choice((1, 2))
        m = random_model(seed=7000 + trial, n=n, world_count=rng.randrange(1, 5), var_names=("p", "q", "r"))
        f = random_formula(rng, 2)
        classes = equivalence_classes(m, f)
        take = [c for i, c in enumerate(classes) if i % 2 == 0]
        target = {w for c in take for w in c}
        psi = characteristic_formula(m, f, target)
        got = {w for w in m.worlds if m.satisfies(w, psi)}
        assert got == target


def test_characteristic_formula_rejects_unsaturated_sets():
    m = KripkeModel(2, ["u", "v"], {}, {"p": {"u": 1, "v": 1}})
    with pytest.raises(NotSaturated):
        characteristic_formula(m, parse_formula("p"), {"u"})
    with pytest.raises(NotSaturated):
        characteristic_formula(m, parse_formula("p"), {"zz"})


def test_quotients_match_the_validated_constructor():
    rng = random.Random(77)
    for trial in range(30):
        n = rng.choice((1, 2, 3))
        density = rng.choice((0.05, 0.2, 0.5))
        m = random_model(5100 + trial, n, rng.randrange(1, 40), var_names=("p", "q"), edge_density=density)
        q = filter_model(m, random_formula(rng, rng.randrange(4), var_names=("p", "q"))).quotient
        assert_same_as_validated(q)
        for lists in q._succ.values():
            assert all(vs == sorted(set(vs)) for vs in lists)
