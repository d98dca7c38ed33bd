"""The validity schema registry holds on random models."""

import random

import pytest

from mvpdl.kripke import random_model
from mvpdl.luk import unary_table
from mvpdl.syntax import Var, substitute
from mvpdl.tautologies import (
    SCHEMA_COUNT,
    SCHEMA_NAMES,
    random_instance,
    schema_formulas,
)


def test_registry_shape():
    assert SCHEMA_COUNT == 18
    assert set(SCHEMA_NAMES) == set(range(1, 19))
    for index in range(1, 19):
        formulas = schema_formulas(index, 2)
        assert formulas
    assert len(schema_formulas(15, 2)) == 2
    assert len(schema_formulas(17, 2)) == 2
    assert len(schema_formulas(18, 3)) == 6  # box and diamond per threshold
    with pytest.raises(ValueError):
        schema_formulas(0, 2)
    with pytest.raises(ValueError):
        schema_formulas(19, 2)


def test_schema_templates_hold_on_random_models():
    for n in (1, 2, 3):
        models = [
            random_model(seed=170 + 10 * n + j, n=n, world_count=1 + j % 3, var_names=("p", "q"))
            for j in range(25)
        ]
        for index in range(1, SCHEMA_COUNT + 1):
            for f in schema_formulas(index, n):
                for m in models:
                    assert m.globally_true(f), (n, index, SCHEMA_NAMES[index])


def test_random_instances_hold_on_random_models():
    rng = random.Random(55)
    for n in (1, 2):
        models = [random_model(seed=300 + j, n=n, world_count=1 + j % 3, var_names=("p", "q", "r")) for j in range(10)]
        for index in range(1, SCHEMA_COUNT + 1):
            for _ in range(5):
                for f in random_instance(rng, index, n):
                    for m in models:
                        assert m.globally_true(f), (n, index)


def test_threshold_schemas_use_monotone_maps():
    # every sampled threshold map is increasing, as item 18 requires
    from mvpdl.luk import synth_tau

    for n in (1, 2, 3, 4):
        for i in range(1, n + 1):
            table = unary_table(synth_tau(i, n), n)
            assert all(table[k] <= table[k + 1] for k in range(n))


def test_instantiate_orders_programs_before_formulas():
    # the substitution is simultaneous: formulas substituted for variables
    # keep their own atomic programs, and programs substituted for atomic
    # names keep the variables of their tests
    from mvpdl.syntax import Atomic, Box, Seq, Test

    template = Box(Atomic("a"), Var("p"))
    out = substitute(template, {"p": Box(Atomic("a"), Var("q"))}, {"a": Seq(Atomic("a"), Atomic("a"))})
    assert out == Box(Seq(Atomic("a"), Atomic("a")), Box(Atomic("a"), Var("q")))
    out = substitute(template, {"p": Var("q")}, {"a": Test(Var("p"))})
    assert out == Box(Test(Var("p")), Var("q"))


def test_schema_and_axiom_formulas_are_pinned():
    # one digest over the printed schemas and axioms at n = 1..8 and the
    # schema names; equal text means the same interned node, since parsing
    # printed text returns that node
    import hashlib

    from mvpdl.parser import format_formula
    from mvpdl.proofs import axiom_ids, axiom_template

    h = hashlib.sha256()
    for n in range(1, 9):
        for index in range(1, 19):
            for f in schema_formulas(index, n):
                h.update(format_formula(f).encode() + b"\n")
        for axiom_id in axiom_ids():
            h.update(format_formula(axiom_template(axiom_id, n)).encode() + b"\n")
    h.update(repr(sorted(SCHEMA_NAMES.items())).encode())
    assert h.hexdigest() == "3e4987f4287110aa1f99d120d07be47378c561134e7ce55bf612238ec045a415"
