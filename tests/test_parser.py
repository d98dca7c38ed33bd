"""Concrete syntax: tokens, precedence, errors, print round trips."""

import random

import pytest

from mvpdl.parser import (
    ParseError,
    format_formula,
    format_program,
    parse_formula,
    parse_program,
)
from mvpdl.syntax import (
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
    iff,
    land,
    lor,
    odot,
    oplus,
    power,
    times,
)
from mvpdl.tautologies import random_formula, random_program

P, Q = Var("p"), Var("q")
A, B = Atomic("a"), Atomic("b")


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
    for _ in range(1000):
        g = Not(Box(A, Not(Not(g))))
    assert format_formula(g) == "<a>~" * 1000 + "p"
    prog = A
    for _ in range(3000):
        prog = Star(prog)
    assert format_program(prog) == "a" + "*" * 3000
    h = P
    for _ in range(3000):
        h = Implies(Q, h)
    assert format_formula(h) == "q -> " * 3000 + "p"
    assert repr(h) == "Formula('" + "q -> " * 3000 + "p')"
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
    # the parser builds left-nested chains without recursion
    for text in ("a;" * 3000 + "a", "a + " * 3000 + "a"):
        assert format_program(parse_program(text)) == text
    for text in ("p & " * 3000 + "p", "p | " * 3000 + "p"):
        assert format_formula(parse_formula(text)) == text


def test_pathological_nesting_is_a_parse_error():
    deep = "(" * 4000 + "p" + ")" * 4000
    with pytest.raises(ParseError):
        parse_formula(deep)


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
