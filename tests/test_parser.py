"""Concrete syntax: tokens, precedence, errors, print round trips."""

import hashlib
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpdl import parser
from mvpdl.parser import (
    Groups,
    ParseError,
    format_formula,
    format_program,
    parse_formula,
    parse_program,
)
from mvpdl.syntax import (
    Atomic,
    Box,
    Formula,
    Implies,
    Not,
    ONE,
    Program,
    Seq,
    Star,
    Test,
    Union,
    Var,
    ZERO,
    diamond,
    iff,
    land,
    lor,
    odot,
    oplus,
    power,
    times,
)
from mvpdl.tautologies import (
    SCHEMA_COUNT,
    random_formula,
    random_instance,
    random_program,
    schema_formulas,
)

P, Q, R = Var("p"), Var("q"), Var("r")
A, B = Atomic("a"), Atomic("b")

# One step of each chain shape, (node, i) -> node one level deeper.
FORMULA_STEPS = (
    lambda f, i: Box(A, f),
    lambda f, i: Not(Box(A, Not(Not(f)))),
    lambda f, i: Not(f),
    lambda f, i: Implies(Q, f),
    lambda f, i: Implies(f, (Q, R)[i % 2]),
    lambda f, i: oplus(f, Q),
    lambda f, i: oplus(f, (P, Q)[i % 3 == 2]),
    lambda f, i: odot(f, (P, Q)[i % 3 == 2]),
    lambda f, i: land(f, P),
    lambda f, i: lor(f, P),
    lambda f, i: iff(f, lor(Q, R)),
    lambda f, i: oplus(Box(A, f), Q),
    lambda f, i: Implies(Box(A, f), lor(Q, R)),
    lambda f, i: power(lor(f, Q), 2),
)
PROGRAM_STEPS = (
    lambda p, i: Star(p),
    lambda p, i: Seq(B, p),
    lambda p, i: Seq(p, A),
    lambda p, i: Union(p, A),
    lambda p, i: Star(Union(p, Test(P))),
)


def _sugar_mix(rng, depth):
    """Random formula over every sugar constructor, with equal operands
    now and then so that powers, multiples and <-> show up."""
    if depth <= 0 or rng.random() < 0.15:
        return rng.choice((P, Q, R, ZERO, ONE))
    a = _sugar_mix(rng, depth - 1)
    pick = rng.randrange(12)
    if pick == 0:
        return Not(a)
    if pick == 1:
        return power(a, rng.randrange(2, 4))
    if pick == 2:
        return times(rng.randrange(2, 4), a)
    if pick in (3, 4):
        prog = rng.choice((A, Star(A), Seq(A, B), Union(A, Test(a))))
        return (Box, diamond)[pick - 3](prog, a)
    b = a if rng.random() < 0.3 else _sugar_mix(rng, depth - 1)
    return (Implies, lor, land, oplus, odot, iff, Implies)[pick - 5](a, b)


def test_grammar_examples():
    assert parse_formula("[a*]p -> p") == Implies(Box(Star(A), P), P)
    assert parse_formula("[q?]p") == Box(Test(Q), P)
    assert parse_formula("p (+) ~p") == Implies(Not(P), Not(P))


def test_precedence():
    assert parse_formula("p -> q -> r") == Implies(P, Implies(Q, Var("r")))
    assert parse_formula("p & q | r") == lor(land(P, Q), Var("r"))
    assert parse_formula("p (.) q (+) r") == oplus(odot(P, Q), Var("r"))
    assert parse_formula("p <-> q -> r") == iff(P, Implies(Q, Var("r")))
    # prefix binds tighter than the power postfix
    assert parse_formula("~p^2") == power(Not(P), 2)
    assert parse_formula("~(p^2)") == Not(power(P, 2))
    assert parse_formula("[a]p^2") == power(Box(A, P), 2)
    assert parse_formula("2.p^3") == power(times(2, P), 3)


def test_constants_and_scalars():
    assert parse_formula("0") == ZERO
    assert parse_formula("1") == ONE
    assert parse_formula("p^0") == ONE
    assert parse_formula("0.p") == ZERO
    assert parse_formula("3.p") == times(3, P)
    with pytest.raises(ParseError):
        parse_formula("2")


def test_program_grammar():
    assert parse_program("a;b + c") == Union(Seq(A, B), Atomic("c"))
    assert parse_program("a + b;c") == Union(A, Seq(B, Atomic("c")))
    assert parse_program("(a + b)*") == Star(Union(A, B))
    assert parse_program("a**") == Star(Star(A))
    assert parse_program("p?*") == Star(Test(P))
    assert parse_program("p -> q?") == Test(Implies(P, Q))
    assert parse_program("(a)") == A


def test_diamond_and_tests():
    assert parse_formula("<a>p") == diamond(A, P)
    assert parse_formula("<a;b>p") == diamond(Seq(A, B), P)
    assert parse_formula("<p?>q") == diamond(Test(P), Q)
    assert parse_formula("[<a>p ?]q") == Box(Test(diamond(A, P)), Q)


def test_question_atoms():
    f = parse_formula("[Q{1,3}]p_1")
    assert f == Box(Atomic("Q{1,3}"), Var("p_1"))
    g = parse_formula("[~Q{1, 3}]p_1")
    assert g == Box(Atomic("~Q{1,3}"), Var("p_1"))
    h = parse_formula("[Q{1};~Q{1}]p_2")
    assert h == Box(Seq(Atomic("Q{1}"), Atomic("~Q{1}")), Var("p_2"))


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> ")
    assert err.value.col == 6
    with pytest.raises(ParseError) as err:
        parse_formula("(p -> q")
    assert ")" in err.value.expected
    with pytest.raises(ParseError):
        parse_formula("p q")
    with pytest.raises(ParseError):
        parse_formula("p $ q")
    with pytest.raises(ParseError) as err:
        parse_formula("p ->\n q ->")
    assert err.value.line == 2
    # integers are ASCII digits: ² and the Arabic-Indic one are no digits
    for text in ("p^\u00b2", "p^\u0661"):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert (err.value.line, err.value.col) == (1, 3)


def test_print_examples():
    assert format_formula(Box(Star(A), P)) == "[a*]p"
    assert format_formula(ZERO) == "0"
    assert format_formula(ONE) == "1"
    assert format_formula(power(P, 3)) == "p^3"
    assert format_formula(times(2, P)) == "2.p"
    assert format_formula(diamond(A, P)) == "<a>p"
    assert format_formula(land(P, Q)) == "p & q"
    assert format_formula(iff(P, Q)) == "p <-> q"
    assert format_program(Union(Seq(A, B), Star(A))) == "a;b + a*"
    assert format_program(Star(Union(A, B))) == "(a + b)*"


def test_round_trip_on_random_trees():
    rng = random.Random(20240817)
    for _ in range(2500):
        f = random_formula(rng, rng.randrange(5))
        assert parse_formula(format_formula(f)) is f
    for _ in range(1200):
        p = random_program(rng, rng.randrange(5))
        assert parse_program(format_program(p)) is p


def test_format_output_is_pinned():
    # sha256 of the printer's output before one shape table and one
    # explicit stack replaced its recursive walks
    rng = random.Random(10)
    texts = [format_formula(random_formula(rng, rng.randrange(6))) for _ in range(1500)]
    texts += [format_program(random_program(rng, rng.randrange(5))) for _ in range(600)]
    texts += [format_formula(_sugar_mix(rng, rng.randrange(6))) for _ in range(2000)]
    for index in range(1, SCHEMA_COUNT + 1):
        for n in range(1, 5):
            instances = schema_formulas(index, n) + random_instance(rng, index, n)
            texts += [format_formula(f) for f in instances]
    for steps, base, fmt in ((FORMULA_STEPS, P, format_formula), (PROGRAM_STEPS, B, format_program)):
        for step in steps:
            node = base
            for i in range(40):
                node = step(node, i)
                texts.append(fmt(node))
    digest = hashlib.sha256("\n".join(texts).encode())
    assert digest.hexdigest() == "71c4b8e74431d539796f23270d65aadda9732c8131daf411ce76de1750cd6b92"


def _parse_corpus():
    """About 4,000 short texts: garbage over the `test_garbage_inputs`
    alphabet, and printed trees with one character deleted, inserted or
    swapped with its neighbour."""
    rng = random.Random(11)
    alphabet = "pq ab()[]<>~&|;*?^+-.0123{}"
    texts = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30))) for _ in range(1000)]
    for i in range(3000):
        if i % 3 == 0:
            s = format_formula(random_formula(rng, rng.randrange(5)))
        elif i % 3 == 1:
            s = format_program(random_program(rng, rng.randrange(4)))
        else:
            s = format_formula(_sugar_mix(rng, rng.randrange(5)))
        j = rng.randrange(len(s))
        edit = rng.randrange(3)
        if edit == 0:
            s = s[:j] + s[j + 1 :]
        elif edit == 1:
            s = s[:j] + rng.choice(alphabet) + s[j:]
        else:
            s = s[:j] + s[j + 1 : j + 2] + s[j] + s[j + 2 :]
        texts.append(s)
    return texts


def _parse_result(parse, fmt, text):
    try:
        return fmt(parse(text))
    except ParseError as err:
        return f"error {err.line}:{err.col}"


def test_parse_results_are_pinned():
    # sha256 of what the backtracking recursive-descent parser returned
    # for each text, as a formula and as a program: the printed node or
    # the error's line and column
    results = []
    for text in _parse_corpus():
        results.append(_parse_result(parse_formula, format_formula, text))
        results.append(_parse_result(parse_program, format_program, text))
    digest = hashlib.sha256("\n".join(results).encode())
    assert digest.hexdigest() == "90e359afc7a9a510d267560f858d7f372eb7b4158984691adce399ac706a4235"


def test_huge_powers_and_multiples_fail_at_once():
    # ^k and k. build a k-long chain, so k is bounded
    start = time.perf_counter()
    for text, col in (
        ("p^99999999999999999999", 3),
        ("[a]p^99999999999999999999", 6),
        ("99999999999999999999.p", 1),
        ("q ->\n  10001.p", 3),
        ("p^" + "9" * 5000, 3),
    ):
        with pytest.raises(ParseError, match="above 10000") as err:
            parse_formula(text)
        assert (err.value.line, err.value.col) == (text.count("\n") + 1, col)
    assert time.perf_counter() - start < 0.5
    assert parse_formula("p^0003") is power(P, 3)


def test_chains_past_the_power_limit_print_text_that_parses_back():
    # ^k and k. print only up to the parser's limit; a longer chain
    # prints the limit's sugar followed by the rest of the chain
    for node, sugar, shorter in (
        (power(P, 25_000), "p^10000", lambda f: f.sub.lhs.sub.sub),  # x (.) y is ~(~~x -> ~y)
        (times(25_000, P), "10000.p", lambda f: f.lhs.sub),  # x (+) y is ~x -> y
    ):
        for k in range(25_000, 9_999, -1):
            if k in (25_000, 10_001, 10_000):
                text = format_formula(node)
                assert text.startswith(sugar) and text.count("p") == k - 9_999
                assert parse_formula(text) is node
            node = shorter(node)
    x = Implies(Q, R)
    for node, sugar in ((power(x, 10_001), "(q -> r)^10000 (.) (q -> r)"), (times(10_001, x), "10000.(q -> r) (+) (q -> r)")):
        text = format_formula(Not(node))
        assert text == f"~({sugar})"
        assert parse_formula(text) is Not(node)


def test_brackets_in_programs_parse_in_linear_time():
    # a parser that reads each program atom as a test formula first and
    # backs up to read it as a program takes time exponential in k here
    k = 40
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_formula("[" + "([" * k + "a" + ")]" * k + "p")
    assert err.value.col == 2 * k + 3
    f = parse_formula("[" + "[(" * k + "a" + ")]p?" * k + "]q")
    assert time.perf_counter() - start < 0.5
    for _ in range(k):
        assert type(f) is Box and type(f.prog) is Test
        f = f.prog.formula
    assert f is Box(A, P)


def test_deep_power_prints_and_parses_back():
    f = power(Var("p"), 3000)
    text = format_formula(f)
    assert text == "p^3000"
    assert parse_formula(text) is f


def test_deep_boxes_and_stars_print_without_recursion():
    f = P
    for _ in range(3000):
        f = Box(A, f)
    assert format_formula(f) == "[a]" * 3000 + "p"
    assert repr(f) == "Formula('" + "[a]" * 3000 + "p')"
    g = P
    for _ in range(3000):
        g = Not(Box(A, Not(Not(g))))
    assert format_formula(g) == "<a>~" * 3000 + "p"
    neg = P
    for _ in range(3000):
        neg = Not(neg)
    assert format_formula(neg) == "~" * 3000 + "p"
    prog = A
    for _ in range(3000):
        prog = Star(prog)
    assert format_program(prog) == "a" + "*" * 3000
    h = P
    for _ in range(3000):
        h = Implies(Q, h)
    assert format_formula(h) == "q -> " * 3000 + "p"
    assert repr(h) == "Formula('" + "q -> " * 3000 + "p')"
    # prefix runs and right-nested -> chains parse back without recursion
    for node in (f, g, neg, h):
        assert parse_formula(format_formula(node)) is node
    seq = B
    for _ in range(3000):
        seq = Seq(B, seq)
    assert format_program(seq) == "b;(" * 2999 + "b;b" + ")" * 2999
    # left-nested -> whose left operand needs parentheses, alternating
    # rights so that no level reads as |
    imp = P
    for i in range(3000):
        imp = Implies(imp, (Q, Var("r"))[i % 2])
    rights = "".join(f" -> {'qr'[i % 2]})" for i in range(2999))
    assert format_formula(imp) == "(" * 2999 + "p" + rights + " -> r"
    # a left-nested (+) chain of more than two parts prints as ->
    plus = P
    for _ in range(3000):
        plus = oplus(plus, Q)
    assert format_formula(plus) == "~(" * 2998 + "~(p (+) q)" + " -> q)" * 2998 + " -> q"
    assert repr(plus) == "Formula('" + format_formula(plus) + "')"
    # a left operand that is not a chain of its own operator
    shapes = (
        (lambda f: iff(f, lor(Q, R)), "p" + " <-> q | r" * 3000),
        (lambda f: oplus(Box(A, f), Q), "[a](" * 2999 + "[a]p (+) q" + ") (+) q" * 2999),
        (lambda f: Implies(Box(A, f), lor(Q, R)), "[a](" * 2999 + "[a]p -> q | r" + ") -> q | r" * 2999),
        (lambda f: power(lor(f, Q), 2), "(" * 3000 + "p" + " | q)^2" * 3000),
    )
    for step, text in shapes:
        node = P
        for _ in range(3000):
            node = step(node)
        assert format_formula(node) == text
        assert repr(node) == "Formula('" + text + "')"
        assert parse_formula(text) is node
    # 2,999-deep parentheses parse back
    assert parse_program(format_program(seq)) is seq
    for node in (imp, plus):
        assert parse_formula(format_formula(node)) is node
    # the parser builds left-nested chains without recursion
    for text in ("a;" * 3000 + "a", "a + " * 3000 + "a"):
        assert format_program(parse_program(text)) == text
    for text in ("p & " * 3000 + "p", "p | " * 3000 + "p"):
        assert format_formula(parse_formula(text)) == text


def test_misplaced_nodes_are_type_errors():
    with pytest.raises(TypeError, match="not a program"):
        format_formula(Box(Var("p"), Q))
    with pytest.raises(TypeError, match="not a formula"):
        format_formula(Not(Atomic("a")))


def test_pathological_nesting_is_a_parse_error():
    # balanced parentheses nest to any depth; an unclosed one is an error
    # at the end of the input, however deep
    assert parse_formula("(" * 4000 + "p" + ")" * 4000) is P
    assert parse_program("(" * 4000 + "a" + ")" * 4000) is A
    unbalanced = "(" * 4000 + "p" + ")" * 3999
    for parse in (parse_formula, parse_program):
        with pytest.raises(ParseError) as err:
            parse(unbalanced)
        assert err.value.col == len(unbalanced) + 1
        assert ")" in err.value.expected


# the tokenizer's pattern while it tried question atoms before identifiers
_QATOM_FIRST_TOKEN = r"\s*(~?[^\W\d_]\w*\{[^}]*\}?|[^\W\d_]\w*|[0-9]+|\(\+\)|\(\.\)|<->|->|\S)"


def test_identifier_first_tokenizer_splits_and_fails_as_before(monkeypatch):
    old, new = re.compile(_QATOM_FIRST_TOKEN), parser._TOKEN
    texts = _parse_corpus() + [
        "[Q{1,3}]p_1 -> [~Q{1, 3}]p_1",
        "[Q{1};~Q{1}]p_2",
        "~Q{1}",
        "~~Q{1} & ~ Q{2}",
        "[Q{1]p",
        "[Q{1",
        "p{",
        "~p{ -> q",
        "~{1}",
        "Q{}} -> p",
        "Q{a\nb}",
        "ä -> öß | Ωmega{1}",
        "[~Ж{2}]é",
        "2p -> p2",
        "x_1 & _x",
        "p -> $q",
        "p²",
        "p -> ١",
        "p^12 (+) 3.q",
    ]
    results = []
    for pattern in (old, new):
        monkeypatch.setattr(parser, "_TOKEN", pattern)
        out = []
        for text in texts:
            for parse in (parse_formula, parse_program):
                try:
                    out.append(repr(parse(text)))
                except ParseError as err:
                    out.append(str(err))
        results.append(out)
    assert [old.findall(t) for t in texts] == [new.findall(t) for t in texts]
    assert results[0] == results[1]
    assert sum(r.startswith("unterminated '{'") for r in results[1]) >= 8


def test_garbage_inputs_raise_parse_errors_only():
    rng = random.Random(3)
    alphabet = "pq ab()[]<>~&|;*?^+-.0123{}"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 30)))
        try:
            parse_formula(text)
        except ParseError:
            pass


def test_parse_of_print_of_parse_is_stable():
    texts = [
        "[a*](p -> [a]p)^2 -> (p <-> q)",
        "<(a + b)*; p?>~q^2 (+) 1",
        "2.(p (.) q) | [b](0 -> p)",
    ]
    for text in texts:
        f = parse_formula(text)
        out = format_formula(f)
        assert parse_formula(out) == f
        assert format_formula(parse_formula(out)) == out


def _formula(node):
    return node if isinstance(node, Formula) else Box(node, Q)


def _program(node):
    return node if isinstance(node, Program) else Test(node)


_BINARY = st.sampled_from((Implies, lor, land, oplus, odot, iff))


def _grow(kids):
    """One core or sugar constructor over trees of either sort; a child of
    the wrong sort goes into a box or a test."""
    return st.one_of(
        st.builds(lambda a: Not(_formula(a)), kids),
        st.builds(lambda make, a, b: make(_formula(a), _formula(b)), _BINARY, kids, kids),
        st.builds(lambda make, a: make(_formula(a), _formula(a)), _BINARY, kids),
        st.builds(lambda make, a, b: make(_program(a), _formula(b)), st.sampled_from((Box, diamond)), kids, kids),
        st.builds(lambda a, k: power(_formula(a), k), kids, st.integers(0, 4)),
        st.builds(lambda k, a: times(k, _formula(a)), st.integers(0, 4), kids),
        st.builds(lambda make, a, b: make(_program(a), _program(b)), st.sampled_from((Seq, Union)), kids, kids),
        st.builds(lambda a: Star(_program(a)), kids),
        st.builds(lambda a: Test(_formula(a)), kids),
    )


_LEAVES = (P, Q, R, ZERO, ONE, A, B, Atomic("Q{1,3}"), Atomic("~Q{2}"))
_TREES = st.recursive(st.sampled_from(_LEAVES), _grow, max_leaves=40)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_TREES)
def test_parse_of_print_is_the_same_node(node):
    if isinstance(node, Program):
        assert parse_program(format_program(node)) is node
    else:
        assert parse_formula(format_formula(node)) is node


def _read(parse, text, groups=None):
    """The node text reads, or its error as (message, line, column, expected)."""
    try:
        return parse(text, groups)
    except ParseError as err:
        return str(err), err.line, err.col, err.expected


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.lists(_TREES, min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_a_shared_group_table_never_changes_a_node(nodes, rng):
    # texts that restate each other's groups in formula and program
    # position, as the lines of a derivation do, then copies with one
    # character replaced, read with one table and each without one
    texts, prev = [], "q"
    for node in nodes:
        if isinstance(node, Program):
            text = format_program(node)
            texts += [(parse_program, f"({text})*"), (parse_formula, f"[{text}]({prev})"), (parse_formula, f"({text}) -> q")]
        else:
            text = format_formula(node)
            texts += [(parse_formula, text), (parse_formula, f"({text}) -> ~({prev})"), (parse_program, f"(({prev})?; a)*")]
            prev = text
    edited = []
    for parse, text in texts:
        j = rng.randrange(len(text))
        edited.append((parse, text[:j] + rng.choice("()~p;?") + text[j + 1 :]))
    groups = Groups()
    for parse, text in texts + edited + texts:
        alone, shared = _read(parse, text), _read(parse, text, groups)
        assert shared is alone if isinstance(alone, (Formula, Program)) else shared == alone


def _table_corpus():
    """Nodes whose subterms recur in other contexts: random and sugar-mixed
    formulas, programs with tests, powers as the left operand of (.) and
    elsewhere, and chains past _MAX_K."""
    rng = random.Random(26)
    nodes = [random_formula(rng, rng.randrange(6)) for _ in range(300)]
    nodes += [random_program(rng, rng.randrange(5)) for _ in range(150)]
    nodes += [_sugar_mix(rng, rng.randrange(6)) for _ in range(300)]
    for x in (P, lor(P, Q), Implies(Q, R)):
        for k in (2, 3):
            y = power(x, k)  # a plain (.) chain as the left operand of (.), x^k elsewhere
            nodes += [y, odot(y, x), odot(x, y), odot(y, y), odot(odot(y, Q), y), iff(y, odot(y, x)), Box(Test(y), y)]
    for k in (parser._MAX_K - 1, parser._MAX_K + 2):
        for y in (power(P, k), times(k, Q), power(Implies(Q, R), k)):
            nodes += [y, Not(y), odot(y, P), Box(Star(Test(y)), y), Test(y)]
    return nodes


def _print(node, texts=None):
    return format_program(node, texts) if isinstance(node, Program) else format_formula(node, texts)


def test_a_shared_text_table_never_changes_a_text():
    nodes = _table_corpus()
    texts = {}
    for node in nodes + nodes[::-1]:
        assert _print(node, texts) == _print(node)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.lists(_TREES, min_size=1, max_size=5))
def test_a_shared_text_table_prints_trees_as_alone(nodes):
    # each tree, then compounds that restate it in other contexts, as the
    # lines of a derivation and the members of a closure do
    prints, prev = [], Q
    for node in nodes:
        if isinstance(node, Program):
            prints += [node, Star(node), Box(node, prev), Seq(node, Test(prev))]
        else:
            prints += [node, Implies(node, Not(prev)), odot(node, prev), Test(node), power(node, 2)]
            prev = node
    texts = {}
    for node in prints + prints:
        assert _print(node, texts) == _print(node)


def test_a_shared_text_table_shapes_each_pair_once(monkeypatch):
    shaped = []
    real = parser._shape

    def counting(f, ctx, flat):
        shaped.append((f, ctx))
        return real(f, ctx, flat)

    monkeypatch.setattr(parser, "_shape", counting)
    nodes = _table_corpus()
    texts = {}
    for node in nodes + nodes:
        _print(node, texts)
    assert shaped and len(shaped) == len(set(shaped))
    shaped.clear()
    for node in nodes:
        _print(node)
    assert len(shaped) > 3 * len(set(shaped))  # without a table each occurrence is shaped
