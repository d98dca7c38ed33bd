"""Concrete syntax: tokenizer, recursive-descent parser, and printer.

Formula precedence, high to low: atoms (`0`, `1`, identifiers, parens);
prefix `~`, `k.`, `[prog]`, `<prog>`; postfix `^k`; then `(.)`, `(+)`,
`&`, `|`, `->` (right associative), `<->`.  Program precedence: atoms,
tests `formula?`; postfix `*`; then `;`; then `+`.

Question atoms of the form `Q{1,3}` (and complements `~Q{1,3}`) lex as a
single token and are only legal as atomic program names; the searching
game layer resolves them against a concrete search space.

The parser takes runs of prefix operators, `->` chains and left-nested
chains in loops.  The one nesting it recurses on is brackets: parentheses,
and a formula inside a program's test.  That is its one limit: text whose
parentheses nest past about 100 levels (under Python's default recursion
limit) is refused with a `ParseError`.

The printer is one table walked by one loop.  `_shape` states the sugar
rules once: it gives a node's binding level and its text as literal
strings and (child, context) pairs, sugar where the expanded pattern is
found and core syntax otherwise.  `_emit` expands those from one explicit
stack and parenthesizes a node whose level is below its context, so no
depth of nesting recurses.  One rule reads the context itself: a `(.)`
node that is the left operand of `(.)` prints as a plain `(.)` chain,
never as `^k` or `<->`, so `r (.) r (.) x` does not read `r^2 (.) x`.
Since trees are interned, parsing the printed text returns the very node
`f` whenever its parentheses nest less deeply than the parser's limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
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
    Zero,
    diamond,
    iff,
    land,
    lor,
    odot,
    oplus,
    power,
    times,
)


class ParseError(ValueError):
    """Syntax error with position and the token kinds that would have parsed."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.line = line
        self.col = col
        self.expected = expected


@dataclass
class _Token:
    kind: str  # "ident", "int", "qatom", "eof", or the punctuation itself
    text: str
    line: int
    col: int


_PUNCT3 = ("(+)", "(.)", "<->")
_PUNCT2 = ("->",)
_PUNCT1 = "()[]<>|&^;+*?.~"


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    size = len(text)

    def error(msg):
        raise ParseError(f"{msg} at line {line}, column {col}", line, col)

    while i < size:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if c.isalpha() or (c == "~" and i + 1 < size and text[i + 1].isalpha()):
            j = i + 1 if c == "~" else i
            k = j
            while k < size and (text[k].isalnum() or text[k] == "_"):
                k += 1
            if k < size and text[k] == "{":
                close = text.find("}", k)
                if close < 0:
                    error("unterminated '{' in question atom")
                body = "".join(text[k + 1 : close].split())
                name = ("~" if c == "~" else "") + text[j:k] + "{" + body + "}"
                tokens.append(_Token("qatom", name, line, start_col))
                col += close + 1 - i
                i = close + 1
                continue
            if c != "~":
                tokens.append(_Token("ident", text[i:k], line, start_col))
                col += k - i
                i = k
                continue
            # plain negation, falls through
        if c.isdigit():
            k = i
            while k < size and text[k].isdigit():
                k += 1
            tokens.append(_Token("int", text[i:k], line, start_col))
            col += k - i
            i = k
            continue
        three = text[i : i + 3]
        if three in _PUNCT3:
            tokens.append(_Token(three, three, line, start_col))
            i += 3
            col += 3
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append(_Token(two, two, line, start_col))
            i += 2
            col += 2
            continue
        if c in _PUNCT1:
            tokens.append(_Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        error(f"unexpected character {c!r}")
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Fail(Exception):
    """Internal backtracking signal; never escapes the parser."""


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.far = 0
        self.far_expected: set[str] = set()

    # -- machinery --

    def at(self, kind: str) -> bool:
        return self.tokens[self.i].kind == kind

    def eat(self, kind: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            self.fail(kind)
        self.i += 1
        return tok

    def fail(self, expected: str):
        if self.i > self.far:
            self.far = self.i
            self.far_expected = {expected}
        elif self.i == self.far:
            self.far_expected.add(expected)
        raise _Fail()

    def error(self) -> ParseError:
        tok = self.tokens[self.far]
        expected = tuple(sorted(self.far_expected))
        found = tok.kind if tok.kind != "eof" else "end of input"
        return ParseError(
            f"syntax error at line {tok.line}, column {tok.col}: "
            f"expected {' or '.join(expected)}, found {found}",
            tok.line,
            tok.col,
            expected,
        )

    # -- formulas --

    def formula(self) -> Formula:
        f = self.imp()
        while self.at("<->"):
            self.eat("<->")
            f = iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        parts = [self.f_or()]
        while self.at("->"):
            self.i += 1
            parts.append(self.f_or())
        f = parts.pop()
        while parts:  # right associative
            f = Implies(parts.pop(), f)
        return f

    def f_or(self) -> Formula:
        f = self.f_and()
        while self.at("|"):
            self.eat("|")
            f = lor(f, self.f_and())
        return f

    def f_and(self) -> Formula:
        f = self.f_oplus()
        while self.at("&"):
            self.eat("&")
            f = land(f, self.f_oplus())
        return f

    def f_oplus(self) -> Formula:
        f = self.f_odot()
        while self.at("(+)"):
            self.eat("(+)")
            f = oplus(f, self.f_odot())
        return f

    def f_odot(self) -> Formula:
        f = self.post()
        while self.at("(.)"):
            self.eat("(.)")
            f = odot(f, self.post())
        return f

    def post(self) -> Formula:
        f = self.pre()
        while self.at("^"):
            self.eat("^")
            f = power(f, int(self.eat("int").text))
        return f

    def pre(self) -> Formula:
        ops = []  # a run of prefix operators: (constructor, first argument), None for ~
        while True:
            tok = self.tokens[self.i]
            if tok.kind == "~":
                self.i += 1
                ops.append(None)
            elif tok.kind == "int" and self.tokens[self.i + 1].kind == ".":
                self.i += 2
                ops.append((times, int(tok.text)))
            elif tok.kind == "[" or tok.kind == "<":
                self.i += 1
                ops.append((Box if tok.kind == "[" else diamond, self.program()))
                self.eat("]" if tok.kind == "[" else ">")
            else:
                break
        f = self.prim()
        while ops:  # innermost first
            op = ops.pop()
            f = Not(f) if op is None else op[0](op[1], f)
        return f

    def prim(self) -> Formula:
        tok = self.tokens[self.i]
        if tok.kind == "(":
            self.i += 1
            f = self.formula()
            self.eat(")")
            return f
        if tok.kind == "ident":
            self.i += 1
            return Var(tok.text)
        if tok.kind != "int":
            self.fail("formula")
        if tok.text not in ("0", "1"):
            self.fail("0 or 1")
        self.i += 1
        return ONE if tok.text == "1" else ZERO

    # -- programs --

    def program(self) -> Program:
        p = self.p_seq()
        while self.at("+"):
            self.eat("+")
            p = Union(p, self.p_seq())
        return p

    def p_seq(self) -> Program:
        p = self.p_star()
        while self.at(";"):
            self.eat(";")
            p = Seq(p, self.p_star())
        return p

    def p_star(self) -> Program:
        p = self.p_base()
        while self.at("*"):
            self.eat("*")
            p = Star(p)
        return p

    def p_base(self) -> Program:
        if self.at("qatom"):
            return Atomic(self.eat("qatom").text)
        mark = self.i
        try:
            f = self.formula()
            self.eat("?")
            return Test(f)
        except _Fail:
            self.i = mark
        if self.at("ident"):
            return Atomic(self.eat("ident").text)
        if self.at("("):
            self.eat("(")
            p = self.program()
            self.eat(")")
            return p
        self.fail("program")


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    try:
        f = p.formula()
        if not p.at("eof"):
            p.fail("end of input")
        return f
    except _Fail:
        raise p.error() from None
    except RecursionError:
        raise ParseError("formula nested too deeply", 1, 1) from None


def parse_program(text: str) -> Program:
    p = _Parser(text)
    try:
        prog = p.program()
        if not p.at("eof"):
            p.fail("end of input")
        return prog
    except _Fail:
        raise p.error() from None
    except RecursionError:
        raise ParseError("program nested too deeply", 1, 1) from None


# --- printing -------------------------------------------------------------

# Binding levels, loose to tight, two apart: an operand that must bind
# tighter than its operator sits at the operator's level + 1, so only the
# left operand of (.) sits at _ODOT itself.  Program contexts are _PROG and
# up, so `_shape` finds a formula in one (or a program below it) in no branch
# and raises the type error.
_IFF, _IMP, _OR, _AND, _OPLUS, _ODOT, _POST, _PRE, _ATOM = range(2, 20, 2)
_PROG, _UNION, _SEQ, _STAR, _PATOM = range(20, 30, 2)


def format_formula(f: Formula) -> str:
    """Canonical text; parsing it back yields the same (interned) node."""
    return _emit(f, 0)


def format_program(p: Program) -> str:
    return _emit(p, _PROG)


def _emit(node, ctx: int) -> str:
    """node's text in context ctx, written from one stack of strings and
    (node, context) pairs, so that no depth of nesting recurses.  A node's
    first part is taken at once and the rest go on the stack."""
    out, stack, flat = [], [], set()
    item = (node, ctx)
    while True:
        if type(item) is str:
            out.append(item)
            if not stack:
                return "".join(out)
            item = stack.pop()
            continue
        node, ctx = item
        level, parts = _shape(node, ctx, flat)
        if level < ctx:
            out.append("(")
            stack.append(")")
        stack += parts[:0:-1]
        item = parts[0]


def _shape(f, ctx: int, flat: set):
    """f's binding level and its text, as strings and (child, context)
    pairs: the sugar where the expanded pattern is found, core syntax
    otherwise.  `flat` holds chain nodes already found not to repeat."""
    t = type(f)
    if ctx >= _PROG:
        if t is Atomic:
            return _PATOM, (f.name,)
        if t is Test:  # binds tightest: never wrapped
            return _PATOM, ((f.formula, 0), "?")
        if t is Star:
            return _STAR, ((f.sub, _STAR), "*")
        if t is Seq:
            return _SEQ, ((f.left, _SEQ), ";", (f.right, _SEQ + 1))
        if t is Union:
            return _UNION, ((f.left, _UNION), " + ", (f.right, _UNION + 1))
    elif t is Var:
        return _ATOM, (f.name,)
    elif t is Zero:
        return _ATOM, ("0",)
    elif t is Box:
        return _PRE, ("[", (f.prog, _PROG), "]", (f.body, _PRE))
    elif t is Not:
        g = f.sub
        if type(g) is Zero:
            return _ATOM, ("1",)
        if type(g) is Box and type(g.body) is Not:  # ~[α]~x is <α>x
            return _PRE, ("<", (g.prog, _PROG), ">", (g.body.sub, _PRE))
        if (m := _match_odot(f)) is not None:
            a, b = m
            if ctx != _ODOT:  # the left operand of (.) prints as a plain chain
                if k := _repeats(a, b, _match_odot, flat):
                    return _POST, ((b, _POST + 1), f"^{k}")
                # (x -> y) (.) (y -> x) is x <-> y
                if type(a) is Implies and type(b) is Implies and a.lhs is b.rhs and a.rhs is b.lhs:
                    return _IFF, ((a.lhs, _IFF), " <-> ", (a.rhs, _IFF + 1))
            return _ODOT, ((a, _ODOT), " (.) ", (b, _ODOT + 1))
        if type(g) is Implies and type(g.lhs) is Implies and g.lhs.rhs is g.rhs:  # ~(~x | ~y) is x & y
            x, y = g.lhs.lhs, g.rhs
            if type(x) is Not and type(y) is Not:
                return _AND, ((x.sub, _AND), " & ", (y.sub, _AND + 1))
        return _PRE, ("~", (g, _PRE))
    elif t is Implies:
        a, b = f.lhs, f.rhs
        if type(a) is Implies and a.rhs is b:  # (x -> y) -> y is x | y
            return _OR, ((a.lhs, _OR), " | ", (b, _OR + 1))
        if type(a) is Not:  # ~x -> y is x (+) y
            if k := _repeats(a.sub, b, _match_oplus, flat):
                return _PRE, (f"{k}.", (b, _PRE))
            if type(a.sub) is not Implies and type(b) is not Implies:  # else -> reads better
                return _OPLUS, ((a.sub, _OPLUS), " (+) ", (b, _OPLUS + 1))
        return _IMP, ((a, _IMP + 1), " -> ", (b, _IMP))
    raise TypeError(f"not a {'program' if ctx >= _PROG else 'formula'}: {f!r}")


def _repeats(a, part, matcher, flat: set) -> int:
    """k if a op part, for the operator `matcher` matches, is the k-fold
    chain of part, else 0.  The walk down the chain of a stops at the
    first part that differs; the nodes it passed then repeat no part
    either and go into `flat`, so that each is walked once."""
    passed = []
    while (m := matcher(a)) is not None and m[1] is part and a not in flat:
        passed.append(a)
        a = m[0]
    if m is None and a is part:
        return len(passed) + 2
    flat.update(passed)
    return 0


def _match_oplus(f):
    # ~x -> y is x (+) y
    if type(f) is Implies and type(f.lhs) is Not:
        return f.lhs.sub, f.rhs
    return None


def _match_odot(f):
    # ~(~x (+) ~y) is x (.) y
    m = _match_oplus(f.sub) if type(f) is Not else None
    if m is not None and type(m[0]) is Not and type(m[1]) is Not:
        return m[0].sub, m[1].sub
    return None
