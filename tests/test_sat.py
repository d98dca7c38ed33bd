"""Decision procedures and their brute-force arbiter."""

import hashlib
import random

import pytest
from relational import Relational
from validated import assert_same_as_validated

from mvpdl.kripke import KripkeModel, random_model
from mvpdl.parser import format_formula, parse_formula
from mvpdl.sat import (
    BudgetExceeded,
    OracleGuard,
    Satisfiable,
    Unsatisfiable,
    _ROW_ENUM_CAP,
    _Rows,
    decide_sat,
    decide_valid,
    enumerate_oracle,
    is_validity_verdict,
)
from mvpdl.syntax import Atomic, Box, Implies, Not, Star, power
from mvpdl.tautologies import random_formula, random_program, schema_formulas


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


def test_negative_budget_is_refused_up_front():
    # past the row cap too, where the budget would slice the model scan
    past_cap = parse_formula("[a]p & [a]q & [a]r & [a]s & t -> t")
    assert _Rows(past_cap, 4).free_assignments() > _ROW_ENUM_CAP
    for decide, f, n in (
        (decide_sat, parse_formula("<a>p & <a>~p"), 1),
        (decide_valid, parse_formula("[a]p -> p"), 2),
        (decide_valid, past_cap, 4),
    ):
        for max_worlds in (None, 2):
            with pytest.raises(ValueError, match=r"^budget must be >= 0$"):
                decide(f, n, max_worlds=max_worlds, budget=-1)


def test_unbounded_search_outlasts_its_budget():
    # the smallest model has 3 worlds: w and two distinct successors
    f = parse_formula("~p & ~q & <a>p & <a>q & [a]~(p & q)")
    assert not enumerate_oracle(f, 1, 2).is_sat
    for budget in (0, 1, 2):
        r = decide_sat(f, 1, budget=budget)
        assert isinstance(r, Satisfiable) and r.bound_used >= 3
        assert r.model.value(r.world, f).num == 1
    with pytest.raises(BudgetExceeded):
        decide_sat(f, 1, max_worlds=3, budget=2)


def test_past_the_row_cap_small_models_answer():
    # 5^9 free assignments: no rows, but a one-world model refutes it
    r = decide_valid(parse_formula("[a]p & [a]q & [a]r & [a]s -> t"), 4)
    assert isinstance(r, Satisfiable) and r.bound_used == 1
    assert r.stats.atoms_generated == 0
    with pytest.raises(BudgetExceeded, match="no verdict"):
        decide_valid(parse_formula("[a]p & [a]q & [a]r & [a]s & t -> t"), 4, budget=50)


def test_past_the_row_cap_each_size_is_begun_only_when_it_fits():
    # the models of k worlds number (n+1)^(v*k) * 2^(a*k*k): the 6,250
    # one-world models of the first formula fit the default budget and its
    # 5^10 * 2^4 two-world ones do not; the second tries 31 * 2 one-world
    # and 31^2 * 2^4 two-world models, and no three-world one
    for decide, text, n, explored in (
        (decide_valid, "[a]p & [a]q & [a]r & [a]s & t -> t", 4, 6_250),
        (decide_sat, "[a*]p & <a>~p", 30, 15_438),
    ):
        with pytest.raises(BudgetExceeded, match="^no verdict: the row space of ") as caught:
            decide(parse_formula(text), n)
        assert caught.value.stats.nodes_explored == explored
        assert caught.value.stats.atoms_generated == 0


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
    # the variable-level instance of every axiom schema is certified valid
    # at each n
    from mvpdl.proofs import axiom_ids, instantiate_axiom
    from mvpdl.syntax import Var

    for n in (1, 2, 3, 4):
        for axiom_id in axiom_ids():
            f = instantiate_axiom(
                axiom_id,
                n,
                fsub={"p": Var("p"), "q": Var("q")},
                psub={"a": Atomic("a"), "b": Atomic("b")},
            )
            r = decide_valid(f, n, max_worlds=2, budget=400_000)
            assert is_validity_verdict(r), (axiom_id, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_schema_formula_is_certified_valid(n):
    from mvpdl.tautologies import SCHEMA_COUNT, schema_formulas

    for index in range(1, SCHEMA_COUNT + 1):
        for f in schema_formulas(index, n):
            assert is_validity_verdict(decide_valid(f, n, budget=300)), (index, format_formula(f))


@pytest.mark.parametrize(
    "text, n",
    [("(p & [a*]((p -> [a]p)^3)) -> [a*]p", 3), ("[(a+b)*]p -> [a*][b*]p", 4)],
)
def test_induction_and_star_splitting_are_certified_valid(text, n):
    assert is_validity_verdict(decide_valid(parse_formula(text), n, budget=300))


STAR_SHAPES = [
    "[(a;b)*]q",
    "[(a+q?)*]p",
    "[(p?;a)*]q -> <(q?;b)*>p",
    "[((p -> [a*]q)?;b)*]<(a;q?)*>p",
    "[(([q?]p)?;(a+b*))*]p",
    "[(a;a)*]p & [a*][b*]q",
    "<(p?;a + ~p?;b)*>(q & ~p)",
    "[(p?)*]q",
    "[(a*;p?)*]q",
    "[((a+p?)*;b)*]q",
    "[(q?;(p?+a))*]p",
    "[((a;b)*)*]p",
]


def test_real_rows_survive_elimination():
    # soundness: the closure row of every world of every model is
    # generated and kept; rows come from the relational oracle, not from
    # the model checker
    rng = random.Random(4242)
    names = {"var_names": ("p", "q"), "atom_names": ("a", "b")}
    checked = compound = 0
    kept = {}  # (formula, n) -> closure rows, their positions, survivors
    for trial in range(300):
        n = rng.randint(1, 3)
        m = random_model(
            seed=rng.randrange(2**31),
            n=n,
            world_count=rng.randint(1, 6),
            edge_density=rng.choice((0.0, 0.2, 0.5)),
        )
        f = random_formula(rng, rng.randint(1, 3), **names)
        if trial % 3 == 0:
            f = Implies(Box(Star(random_program(rng, 2, **names)), random_formula(rng, 1, **names)), f)
        elif trial % 3 == 1:
            f = parse_formula(STAR_SHAPES[trial // 3 % len(STAR_SHAPES)])
        if (f, n) not in kept:
            info = _Rows(f, n)
            if info.free_assignments() > 20_000:
                continue
            rows = info.generate()
            alive = info.eliminate((1 << len(rows)) - 1)
            kept[f, n] = info, {row: i for i, row in enumerate(rows)}, alive
        info, position, alive = kept[f, n]
        ref = Relational(m)
        columns = [ref.profile(g) for g in info.closure]
        for w in range(len(m.worlds)):
            row = tuple(col[w] for col in columns)
            assert row in position, (trial, format_formula(f))
            assert alive >> position[row] & 1, (trial, format_formula(f))
        checked += 1
        compound += any(
            type(g) is Box and type(g.prog) is Star and type(g.prog.sub) is not Atomic
            for g in info.closure
        )
    assert checked > 250 and compound > 50


def test_generated_rows_are_pinned():
    # sha256 of the rows `_Rows.generate` gave before its row plan came
    # from `syntax.plan`: every schema formula at n = 1..3 and 300 seeded
    # random formulas (those past 20,000 free assignments are left out,
    # for time)
    from mvpdl.tautologies import SCHEMA_COUNT, schema_formulas

    digest = hashlib.sha256()
    formulas = [(f, n) for i in range(1, SCHEMA_COUNT + 1) for n in (1, 2, 3) for f in schema_formulas(i, n)]
    rng = random.Random(77)
    names = {"var_names": ("p", "q"), "atom_names": ("a", "b")}
    for trial in range(300):
        f = random_formula(rng, rng.randint(1, 3), **names)
        if trial % 2:
            f = Implies(Box(Star(random_program(rng, 2, **names)), random_formula(rng, 1, **names)), f)
        formulas.append((f, rng.randint(1, 3)))
    generated = 0
    for f, n in formulas:
        info = _Rows(f, n)
        if info.free_assignments() > 20_000:
            continue
        digest.update(repr(info.generate()).encode())
        generated += 1
    assert generated >= 300
    assert digest.hexdigest() == "04c8b63a2b223283d68fdbf5ef0db1d4fc9e5912c8153f6f5fcf2f69d41d86b7"


def test_the_surviving_rows_form_the_filtrated_canonical_model():
    # truth lemma: in the model of the rows that elimination keeps, with
    # every allowed edge, each row has its own value on every closure
    # member; so the formula is globally true there exactly when it is valid
    from mvpdl.tautologies import SCHEMA_COUNT

    cases = [(f, n) for i in range(1, SCHEMA_COUNT + 1) for n in (1, 2, 3) for f in schema_formulas(i, n)]
    cases.append((parse_formula("(p & [a*](p -> [a]p)) -> [a*]p"), 4))
    worlds = 0
    for f, n in cases:
        info = _Rows(f, n)
        rows = info.generate()
        alive = info.eliminate((1 << len(rows)) - 1)
        model = info.model(alive)
        kept = [row for i, row in enumerate(rows) if alive >> i & 1]
        for slot, g in enumerate(info.closure):
            values = model.value_profile(g)
            assert [values[w].num for w in model.worlds] == [row[slot] for row in kept], (format_formula(g), n)
        assert model.globally_true(f) == is_validity_verdict(decide_valid(f, n)), (format_formula(f), n)
        worlds += len(model.worlds)
    assert len(cases) == 70 and worlds == 4_284


@pytest.mark.parametrize("n", [2, 3])
def test_witnesses_match_the_validated_constructor(n):
    # satisfying and refuting witnesses of schemas 1-11, and refutations
    # of non-laws whose witnesses need two worlds and one or two programs
    results = []
    for i in range(1, 12):
        for f in schema_formulas(i, n):
            results += [decide_sat(f, n), decide_valid(Not(f), n)]
    for text in (
        "(p & [a*](p -> [a]p)) -> [a*]p",  # induction without the power
        "[a][a]p -> [a]p",
        "[a][b]p -> [b][a]p",
        "[(a;b)*]p -> [a*]p",
    ):
        results.append(decide_valid(parse_formula(text), n))
    assert all(isinstance(r, Satisfiable) for r in results)
    assert max(len(r.model.worlds) for r in results) == 2
    for r in results:
        assert_same_as_validated(r.model)
        assert r.model.worlds == tuple(f"s{k}" for k in range(len(r.model.worlds)))
        assert r.world in r.model.worlds
