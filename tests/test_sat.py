"""Decision procedures and their brute-force arbiter."""

import random

import pytest

from mvpdl.kripke import KripkeModel
from mvpdl.parser import parse_formula
from mvpdl.sat import (
    BudgetExceeded,
    OracleGuard,
    Satisfiable,
    Unsatisfiable,
    decide_sat,
    decide_valid,
    enumerate_oracle,
    is_validity_verdict,
)
from mvpdl.syntax import Not, power
from mvpdl.tautologies import random_formula


def test_variable_is_satisfiable_in_one_world():
    r = decide_sat(parse_formula("p"), 2)
    assert isinstance(r, Satisfiable)
    assert len(r.model.worlds) == 1
    assert r.model.value(r.world, parse_formula("p")).is_top


def test_falsum_is_unsatisfiable_outright():
    r = decide_sat(parse_formula("0"), 3)
    assert isinstance(r, Unsatisfiable)
    assert r.complete
    assert r.bound_used >= 4  # the closure bound certified


def test_diamond_needs_a_loop_at_size_one():
    r = decide_sat(parse_formula("<a>p"), 1, max_worlds=1)
    assert isinstance(r, Satisfiable)
    assert r.model.relations["a"]


def test_boolean_contradiction():
    r = decide_sat(parse_formula("p (.) ~p"), 1)
    assert isinstance(r, Unsatisfiable) and r.complete


def test_negated_power_of_naive_induction_is_satisfiable():
    f = parse_formula("~(((p & [a*](p -> [a]p)) -> [a*]p)^4)")
    r = decide_sat(f, 4, max_worlds=2)
    assert isinstance(r, Satisfiable)
    # the two-world counterexample model is itself a witness
    m = KripkeModel(4, ["u", "v"], {"a": [("u", "v")]}, {"p": {"u": 3, "v": 1}})
    assert m.satisfies("u", f)


def test_witnesses_reverify():
    rng = random.Random(31337)
    found = 0
    for _ in range(40):
        f = random_formula(rng, rng.randrange(3), var_names=("p",), atom_names=("a",))
        r = decide_sat(f, 2, max_worlds=2, budget=200_000)
        if isinstance(r, Satisfiable):
            found += 1
            assert r.model.value(r.world, f).is_top
    assert found > 10


def test_validity_examples():
    assert is_validity_verdict(decide_valid(parse_formula("p -> p"), 3))
    assert is_validity_verdict(decide_valid(parse_formula("[a*]p -> p"), 1))
    assert is_validity_verdict(decide_valid(parse_formula("[a*]p <-> (p & [a][a*]p)"), 2))


def test_row_refinement_certifies_star_step():
    # [a*]p -> [a]p needs the box-monotonicity refinement: without it the
    # row space keeps spurious refutations and the search would grind
    for n in (2, 3):
        r = decide_valid(parse_formula("[a*]p -> [a]p"), n)
        assert is_validity_verdict(r)
        assert r.stats.nodes_explored == 0  # settled by rows alone
    r = decide_valid(parse_formula("[a;b]p <-> [a][b]p"), 2)
    assert is_validity_verdict(r)


def test_naive_induction_is_refuted_at_n4():
    f = parse_formula("(p & [a*](p -> [a]p)) -> [a*]p")
    r = decide_valid(f, 4, max_worlds=2)
    assert isinstance(r, Satisfiable)
    assert len(r.model.worlds) <= 2
    assert r.model.value(r.world, f).num < 4


def test_powered_induction_is_not_refuted_within_small_bound():
    f = parse_formula("(p & [a*]((p -> [a]p)^2)) -> [a*]p")
    r = decide_valid(f, 2, max_worlds=2, budget=300_000)
    assert isinstance(r, Unsatisfiable)


def test_decide_valid_matches_negated_power_sat():
    rng = random.Random(909)
    for _ in range(15):
        f = random_formula(rng, 2, var_names=("p",), atom_names=("a",))
        n = rng.choice((1, 2))
        a = decide_valid(f, n, max_worlds=2, budget=400_000)
        b = decide_sat(Not(power(f, n)), n, max_worlds=2, budget=400_000)
        assert a.is_sat == b.is_sat, f


def test_oracle_examples():
    f = parse_formula("<a>p")
    r = enumerate_oracle(f, 1, 1)
    assert isinstance(r, Satisfiable)
    assert ("u0", "u0") in r.model.relations["a"]
    for size in (1, 2):
        assert isinstance(enumerate_oracle(parse_formula("p (.) ~p"), 1, size), Unsatisfiable)
    with pytest.raises(OracleGuard):
        enumerate_oracle(f, 1, 4)


def test_oracle_agreement_spot_sample():
    rng = random.Random(1717)
    for _ in range(30):
        f = random_formula(rng, rng.randrange(3), var_names=("p",), atom_names=("a",))
        n = rng.choice((1, 2))
        by_search = decide_sat(f, n, max_worlds=2, budget=400_000).is_sat
        by_oracle = any(enumerate_oracle(f, n, size).is_sat for size in (1, 2))
        assert by_search == by_oracle, f


def test_oracle_agreement_wider_vocabulary():
    # two variables and two atoms; single-world models keep the oracle cheap
    rng = random.Random(2323)
    for _ in range(60):
        f = random_formula(rng, rng.randrange(3), var_names=("p", "q"), atom_names=("a", "b"))
        n = rng.choice((1, 2))
        by_search = decide_sat(f, n, max_worlds=1, budget=400_000).is_sat
        by_oracle = enumerate_oracle(f, n, 1).is_sat
        assert by_search == by_oracle, f


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("text", ["<a>0", "<a>(p & 0)"])
def test_zero_under_a_diamond_is_unsatisfiable_outright(text, n):
    # no row survives refinement: [a]~0 lies below the least value of ~0
    r = decide_sat(parse_formula(text), n, budget=300)
    assert isinstance(r, Unsatisfiable) and r.complete
    assert r.stats.nodes_explored == 0


def test_budget_is_an_error_not_a_verdict():
    # a zero budget forbids building even one candidate model
    f = parse_formula("<a>p & ~p")
    with pytest.raises(BudgetExceeded):
        decide_sat(f, 2, max_worlds=2, budget=0)
    # the no-goal-row shortcut answers without exploring any candidate
    r = decide_sat(parse_formula("0"), 2, budget=0)
    assert not r.is_sat and r.complete


def test_search_is_deterministic():
    f = parse_formula("<a>p & ~p")
    a = decide_sat(f, 2)
    b = decide_sat(f, 2)
    assert isinstance(a, Satisfiable) and isinstance(b, Satisfiable)
    assert a.world == b.world
    assert a.model.relations == b.model.relations
    assert [a.model.atomic_value(w, "p") for w in a.model.worlds] == [
        b.model.atomic_value(w, "p") for w in b.model.worlds
    ]


def test_stats_are_reported():
    r = decide_sat(parse_formula("p"), 1)
    assert r.stats.atoms_generated >= 2
    assert r.stats.nodes_explored >= 1
    assert r.stats.wall_time >= 0.0


def test_axiom_instances_are_never_refuted():
    # variable-level instance of every axiom schema: either certified
    # valid within the completeness bound, or at least unrefuted within
    # the configured cap
    from mvpdl.proofs import axiom_ids, instantiate_axiom
    from mvpdl.syntax import Atomic, Var

    certified = 0
    for n in (1, 2):
        for axiom_id in axiom_ids():
            f = instantiate_axiom(
                axiom_id,
                n,
                fsub={"p": Var("p"), "q": Var("q")},
                psub={"a": Atomic("a"), "b": Atomic("b")},
            )
            try:
                r = decide_valid(f, n, max_worlds=2, budget=400_000)
            except BudgetExceeded:
                continue
            assert not r.is_sat, (axiom_id, n)
            if r.complete:
                certified += 1
    assert certified >= 4  # several small schemas settle definitively
