"""Truth-value arithmetic, propositional evaluation, threshold synthesis."""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpdl import luk
from mvpdl.luk import (
    ResolutionMismatch,
    UnboundVariable,
    all_values,
    equiv,
    eval_prop,
    eval_prop_num,
    implies,
    is_tautology_prop,
    join,
    meet,
    mv_equation_failures,
    neg,
    prop_counterexample,
    strong_and,
    strong_or,
    synth_indicator,
    synth_tau,
    top,
    tv,
    unary_table,
)
from mvpdl.parser import parse_formula
from mvpdl.proofs import abstract_boxes
from mvpdl.syntax import (
    ONE,
    ZERO,
    Atomic,
    Box,
    Implies,
    Not,
    Var,
    Zero,
    iff,
    land,
    lor,
    odot,
    oplus,
    power,
    variables_of,
)
from mvpdl.tautologies import SCHEMA_COUNT, random_formula, random_instance


def test_negation_examples():
    assert neg(tv(3, 4)) == tv(1, 4)
    assert neg(tv(0, 1)) == tv(1, 1)
    assert neg(tv(1, 2)) == tv(1, 2)  # midpoint is the fixed point at even n


def test_implication_examples():
    assert implies(tv(3, 4), tv(1, 4)) == tv(2, 4)
    for n in range(1, 5):
        for x in all_values(n):
            assert implies(x, x) == top(n)
            assert implies(tv(0, n), x) == top(n)


def test_derived_connective_examples():
    assert strong_and(tv(1, 2), tv(1, 2)) == tv(0, 2)
    assert strong_or(tv(3, 4), tv(2, 4)) == tv(4, 4)
    assert equiv(tv(3, 4), tv(1, 4)) == tv(2, 4)
    assert join(tv(1, 3), tv(2, 3)) == tv(2, 3)
    assert meet(tv(1, 3), tv(2, 3)) == tv(1, 3)


def test_resolution_mismatch_is_an_error():
    with pytest.raises(ResolutionMismatch):
        implies(tv(1, 2), tv(1, 3))
    with pytest.raises(ResolutionMismatch):
        strong_and(tv(0, 1), tv(0, 2))
    with pytest.raises(ResolutionMismatch):
        tv(1, 2) <= tv(1, 4)


def test_truth_value_validation():
    with pytest.raises(ValueError):
        tv(5, 4)
    with pytest.raises(ValueError):
        tv(-1, 4)
    with pytest.raises(ValueError):
        tv(0, 0)
    # a numerator is an int: a float or a bool would print as 1.5/2 or True/2
    for num in (1.5, 1.0, True, False, "1"):
        with pytest.raises(ValueError, match="not an integer"):
            luk.TruthValue(num, 2)
    assert str(tv(3, 4)) == "3/4"


def test_implication_characterizes_the_order():
    for n in range(1, 6):
        for x in all_values(n):
            for y in all_values(n):
                assert (implies(x, y) == top(n)) == (x.num <= y.num)


def test_strong_connectives_bound_the_lattice_ones():
    for n in range(1, 6):
        for x in all_values(n):
            for y in all_values(n):
                assert strong_and(x, y).num <= meet(x, y).num
                assert strong_or(x, y).num >= join(x, y).num


def test_powers_stabilize_at_n():
    # x^(k+1) equals x^k on the finite truth set once k reaches n
    p = Var("p")
    for n in range(1, 5):
        for k in range(n, n + 3):
            for x in range(n + 1):
                a = eval_prop_num(power(p, k), {"p": x}, n)
                b = eval_prop_num(power(p, k + 1), {"p": x}, n)
                assert a == b


def test_eval_prop_examples():
    p, q = Var("p"), Var("q")
    for n in range(1, 5):
        for x in all_values(n):
            assert eval_prop(oplus(p, Not(p)), {"p": x}) == top(n)
        # p^n at value (n-1)/n collapses to 0
        assert eval_prop(power(p, n), {"p": tv(n - 1, n)}) == tv(0, n)
        # fuzzy modus ponens is identically 1
        f = parse_formula("(p (.) (p -> q)) -> q")
        for x in all_values(n):
            for y in all_values(n):
                assert eval_prop(f, {"p": x, "q": y}) == top(n)


def test_eval_prop_errors():
    with pytest.raises(UnboundVariable):
        eval_prop(Var("p"), {"q": tv(1, 2)})
    with pytest.raises(ValueError):
        eval_prop(Box(Atomic("a"), Var("p")), {"p": tv(1, 2)})
    with pytest.raises(ValueError):
        eval_prop(parse_formula("0"), {})  # resolution unknown
    assert eval_prop(parse_formula("0"), {}, n=3) == tv(0, 3)


def test_eval_prop_rejects_mixed_resolutions():
    with pytest.raises(ResolutionMismatch):
        eval_prop(Var("p"), {"p": tv(1, 2), "q": tv(1, 3)})


def test_tautology_checking():
    assert is_tautology_prop(parse_formula("(p -> q) -> ((q -> t) -> (p -> t))"), 4)
    assert not is_tautology_prop(parse_formula("p | ~p"), 2)
    assert is_tautology_prop(parse_formula("0 -> p"), 3)
    bad = prop_counterexample(parse_formula("p | ~p"), 2)
    assert bad == {"p": tv(1, 2)}


def _reference_first_failure(f, n):
    """The first row in `itertools.product` order on which f is below 1,
    found row by row with a memoised walk over the tree itself: shares no
    code with the lowering or the packed table."""
    names = sorted(variables_of(f))

    def value(g, env, memo):
        if g not in memo:
            t = type(g)
            if t is Var:
                memo[g] = env[g.name]
            elif t is Zero:
                memo[g] = 0
            elif t is Not:
                memo[g] = n - value(g.sub, env, memo)
            else:
                memo[g] = min(n, n - value(g.lhs, env, memo) + value(g.rhs, env, memo))
        return memo[g]

    for nums in itertools.product(range(n + 1), repeat=len(names)):
        if value(f, dict(zip(names, nums)), {}) != n:
            return dict(zip(names, nums))
    return None


def _grow(kids):
    return st.one_of(
        st.builds(Not, kids),
        st.builds(lambda make, a, b: make(a, b), st.sampled_from((Implies, lor, land, oplus, odot, iff)), kids, kids),
        st.builds(power, kids, st.integers(0, 4)),
    )


@st.composite
def _tables(draw):
    """A formula over at most 6 variables and a resolution n in 1..20 (lane
    widths of 2 to 6 bits), with at most 1,024 rows; now and then wrapped
    into a tautology, so that the whole table is read."""
    k = draw(st.integers(0, 6))
    n = draw(st.integers(1, max(m for m in range(1, 21) if (m + 1) ** k <= 1024)))
    names = [Var(f"x{i}") for i in range(k)]
    f = draw(st.recursive(st.sampled_from(names + [ZERO, ONE]), _grow, max_leaves=12))
    for x in names:  # every variable occurs
        f = draw(st.sampled_from((Implies, lor, land, oplus, odot, iff)))(f, x)
    wrap = draw(st.sampled_from((
        lambda f: f,
        lambda f: Implies(f, f),
        lambda f: iff(power(f, n), power(f, n + 1)),  # powers settle at n
        lambda f: Implies(power(f, n), power(f, n - 1)),
        lambda f: Implies(power(f, n - 1), power(f, n)),
    )))
    return wrap(f), n


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(_tables(), st.sampled_from((1, 24, 256, 1 << 15)))
def test_packed_table_agrees_with_a_row_by_row_walk(table, column_bits):
    f, n = table
    expected = _reference_first_failure(f, n)
    got = prop_counterexample(f, n)
    assert got == (None if expected is None else {k: tv(v, n) for k, v in expected.items()})
    # narrower columns: more and smaller blocks, down to one row each
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(luk, "_COLUMN_BITS", column_bits)
        assert prop_counterexample(f, n) == got


def test_tables_of_many_blocks():
    names = [f"p{i}" for i in range(1, 9)]
    text = "p1 -> p8"
    for a, b in reversed(list(zip(names, names[1:]))):
        text = f"({a} -> {b}) -> ({text})"
    # 5^8 = 390,625 rows, in 125 blocks of 5^5 rows
    start = time.perf_counter()
    assert is_tautology_prop(parse_formula(text), 4)
    assert time.perf_counter() - start < 0.5  # a row at a time took 0.68 s
    # first below 1 where every variable is above 0: in the 32nd block
    bad = prop_counterexample(parse_formula("~(" + " & ".join(names) + ")"), 4)
    assert bad == {name: tv(1, 4) for name in names}
    # below 1 only where every variable is 1: the last row of the last block
    bad = prop_counterexample(parse_formula("~(" + " & ".join(f"{v}^4" for v in names) + ")"), 4)
    assert bad == {name: tv(4, 4) for name in names}


def _luk_corpus():
    """4,003 box-abstracted formulas at n = 1..20, with at most 10,000 rows:
    random formulas, random schema instances, and formulas shaped to be
    tautologies or near ones."""
    rng = random.Random(12)
    out = []
    while len(out) < 4000:
        n = 1 + len(out) % 20
        if len(out) % 4 == 3:
            fs = random_instance(rng, 1 + rng.randrange(SCHEMA_COUNT), n)
        elif len(out) % 4 == 2:
            x, y = (random_formula(rng, 2, ("p", "q", "r", "s")) for _ in "xy")
            fs = [
                iff(power(x, n), power(x, n + 1)),
                Implies(power(x, n - 1), power(x, n)),
                Implies(odot(x, Implies(x, y)), y),
                Implies(land(x, y), lor(x, y)),
                lor(x, Not(x)),
            ]
        else:
            fs = [random_formula(rng, 4, ("p", "q", "r", "s"))]
        for f in fs:
            g = abstract_boxes(f)
            if (n + 1) ** len(variables_of(g)) <= 10_000:
                out.append((g, n))
    return out


def test_first_counterexamples_are_pinned():
    # sha256 of the answers of the row-at-a-time table the packed one replaced
    digest = hashlib.sha256()
    for g, n in _luk_corpus():
        bad = prop_counterexample(g, n)
        answer = "taut" if bad is None else sorted((k, v.num) for k, v in bad.items())
        digest.update(f"{n} {answer}\n".encode())
    assert digest.hexdigest() == "537d158e4e442bec1b2fcf7fc8efc6c94fae47384344e0b7ba15a83681bf1f81"


def test_tau_thresholds_small():
    for n in (1, 2, 3, 4):
        for i in range(1, n + 1):
            table = unary_table(synth_tau(i, n), n)
            assert table == tuple(n if x >= i else 0 for x in range(n + 1)), (i, n)


def test_tau_is_fixed_per_index():
    assert synth_tau(2, 3) is synth_tau(2, 3)


def test_tau_degenerate_conventions():
    for n in (1, 2, 3):
        for i in (0, n + 1):
            assert unary_table(synth_tau(i, n), n) == (n,) * (n + 1)
    # Boolean case: the first threshold behaves as the identity
    assert unary_table(synth_tau(1, 1), 1) == (0, 1)
    with pytest.raises(ValueError):
        synth_tau(5, 3)


def test_indicators_are_characteristic_functions():
    for n in (1, 2, 3, 4):
        for i in range(n + 1):
            table = unary_table(synth_indicator(i, n), n)
            assert table == tuple(n if x == i else 0 for x in range(n + 1)), (i, n)
    with pytest.raises(ValueError):
        synth_indicator(4, 3)


def test_tau_built_only_from_doubling_maps():
    # the synthesized formulas use one variable and only (+)/(.) squares
    seen = set()

    def walk(f):
        if f in seen:
            return
        seen.add(f)
        t = type(f).__name__
        if t == "Var":
            assert f.name == "p"
        elif t in ("Not", "Box"):
            assert t == "Not"
            walk(f.sub)
        elif t == "Implies":
            walk(f.lhs)
            walk(f.rhs)

    walk(synth_tau(2, 4))


def test_threshold_cache_is_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    import mvpdl.luk as luk

    with luk._tau_lock:
        luk._tau_cache.pop(5, None)

    def worker(i):
        return synth_tau(1 + i % 5, 5)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(worker, range(40)))
    for i, f in enumerate(results):
        assert unary_table(f, 5) == tuple(5 if x >= 1 + i % 5 else 0 for x in range(6))
        assert f is synth_tau(1 + i % 5, 5)  # one fixed formula per index


def test_mv_identities_hold():
    for n in range(1, 5):
        assert mv_equation_failures(n) == []


def test_mv_identities_catch_the_misprinted_first_equation():
    # the uncorrected reading x -> 1 = x fails already at n = 1, x = 0
    from mvpdl.luk import imp_i

    assert imp_i(0, 1, 1) != 0


def test_byte_lanes_are_the_fewest_bytes_and_round_trip():
    # every byte count from 1 to 10, at the last n that fits it and the
    # first that does not
    rng = random.Random(7)
    for k in range(1, 11):
        for n in (2 ** (8 * k - 1) - 1, 2 ** (8 * k - 1)):
            lanes = luk.Lanes(n, 5)
            assert lanes.width % 8 == 0 and lanes.width - 8 <= n.bit_length() < lanes.width
            values = [0, n, 1, n - 1, rng.randint(0, n)]
            col = lanes.pack(values)
            assert lanes.unpack(col) == values
            assert [lanes.lane(col, i) for i in range(5)] == values
            assert lanes.first_below_top(col) == 0 and lanes.first_below_top(lanes.top) is None
