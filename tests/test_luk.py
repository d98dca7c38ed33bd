"""Truth-value arithmetic, propositional evaluation, threshold synthesis."""

import pytest

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
from mvpdl.syntax import Box, Atomic, Not, Var, oplus, power


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
