"""Concrete syntax: tokenizer, recursive-descent parser, and printer.

Formula precedence, high to low: atoms (`0`, `1`, identifiers, parens);
prefix `~`, `k.`, `[prog]`, `<prog>`; postfix `^k`; then `(.)`, `(+)`,
`&`, `|`, `->` (right associative), `<->`.  Program precedence: atoms,
tests `formula?`; postfix `*`; then `;`; then `+`.

Question atoms of the form `Q{1,3}` (and complements `~Q{1,3}`) lex as a
single token and are only legal as atomic program names; the searching
game layer resolves them against a concrete search space.

The printer emits sugar where it recognizes the expanded pattern and core
syntax otherwise; since trees are interned, `parse(print(f))` always
returns the very node `f`.
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

    def peek(self) -> _Token:
        return self.tokens[self.i]

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
        f = self.f_or()
        if self.at("->"):
            self.eat("->")
            return Implies(f, self.imp())
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
        if self.at("~"):
            self.eat("~")
            return Not(self.pre())
        if self.at("int") and self.tokens[self.i + 1].kind == ".":
            k = int(self.eat("int").text)
            self.eat(".")
            return times(k, self.pre())
        if self.at("["):
            self.eat("[")
            p = self.program()
            self.eat("]")
            return Box(p, self.pre())
        if self.at("<"):
            self.eat("<")
            p = self.program()
            self.eat(">")
            return diamond(p, self.pre())
        return self.prim()

    def prim(self) -> Formula:
        if self.at("("):
            self.eat("(")
            f = self.formula()
            self.eat(")")
            return f
        if self.at("int"):
            tok = self.peek()
            if tok.text == "0":
                self.eat("int")
                return ZERO
            if tok.text == "1":
                self.eat("int")
                return ONE
            self.fail("0 or 1")
        if self.at("ident"):
            return Var(self.eat("ident").text)
        self.fail("formula")

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

# Formula levels, binding loose to tight; programs use their own scale.
_L_IFF, _L_IMP, _L_OR, _L_AND, _L_OPLUS, _L_ODOT, _L_POST, _L_PRE, _L_ATOM = range(1, 10)
_P_UNION, _P_SEQ, _P_STAR = range(1, 4)


def format_formula(f: Formula) -> str:
    """Canonical text; parsing it back yields the same (interned) node."""
    return _fmt_f(f, 0)


def format_program(p: Program) -> str:
    return _fmt_p(p, 0)


def _wrap(text: str, level: int, ctx: int) -> str:
    return f"({text})" if level < ctx else text


def _match_oplus(f):
    # ~x -> y is x (+) y
    if type(f) is Implies and type(f.lhs) is Not:
        return f.lhs.sub, f.rhs
    return None


def _match_or(f):
    # (x -> y) -> y is x | y
    if type(f) is Implies and type(f.lhs) is Implies and f.lhs.rhs == f.rhs:
        return f.lhs.lhs, f.rhs
    return None


def _match_odot(f):
    # ~(~x (+) ~y) is x (.) y
    return _dual(f, _match_oplus)


def _match_and(f):
    # ~(~x | ~y) is x & y
    return _dual(f, _match_or)


def _dual(f, matcher):
    m = matcher(f.sub) if type(f) is Not else None
    if m is not None and type(m[0]) is Not and type(m[1]) is Not:
        return m[0].sub, m[1].sub
    return None


def _spine(f, matcher) -> list[Formula]:
    parts = []
    m = matcher(f)
    while m is not None:
        f, right = m
        parts.append(right)
        m = matcher(f)
    parts.append(f)
    parts.reverse()
    return parts


def _left(f: Formula, matcher, op: str, level: int) -> str:
    """The left operand f of a left-associative operator at `level`,
    followed by the operator; a chain of that operator nested on the
    left of f is flattened, not recursed into."""
    rights = []
    while (m := matcher(f)) is not None:
        f, right = m
        rights.append(right)
    text = _fmt_f(f, level) + op
    while rights:
        text += _fmt_f(rights.pop(), level + 1) + op
    return text


def _leading(parts) -> int:
    """How many parts, from the first, equal the first."""
    same = 0
    for p in parts:
        if p != parts[0]:
            break
        same += 1
    return same


def _sugared(parts, k: int, same: int) -> bool:
    """Whether the (+) node of the first k parts of a (+) spine, `same` of
    them leading equal, claims its sugar: k-fold repetition, or a sum of
    two implication-free parts.  Anything else reads better as ->."""
    return k >= 2 and (k <= same or k == 2 and type(parts[0]) is not Implies and type(parts[1]) is not Implies)


def _imp_left(f: Formula, parts, same: int) -> str:
    """Text of the left operand of f and the " -> " after it, where f
    prints as a plain `->` and has (+) spine `parts`, `same` of them
    leading equal.  A left operand that prints as a plain `->` too, bare
    or as `~` of the (+) node one part shorter, is parenthesized and
    walked into by the loop; only the first operand that prints
    otherwise is recursed into."""
    opens, rights, k = [], [], len(parts)
    while True:
        x = f.lhs
        if k > 2:  # x is ~g, g the (+) node of the first k - 1 parts
            k -= 1
            if _sugared(parts, k, same):
                break
            opens.append("~(")
            f = x.sub
        elif type(x) is Implies and _match_or(x) is None:
            parts = _spine(x, _match_oplus) if type(x.lhs) is Not else ()
            same, k = _leading(parts), len(parts)
            if _sugared(parts, k, same):
                break
            opens.append("(")
            f = x
        else:
            break
        rights.append(f.rhs)
    text = "".join(opens) + _fmt_f(x, _L_IMP + 1)
    while rights:
        text += " -> " + _fmt_f(rights.pop(), _L_IMP) + ")"
    return text + " -> "


def _fmt_f(f: Formula, ctx: int) -> str:
    """f's text in a context binding at level ctx.

    An operator's text is a head and then the operand it prints last:
    the body of a prefix operator ([α], <α>, ~, k.), or the right operand
    of a binary one, whose head holds its left operand (a left-nested
    chain of the same operator flattened).  The loop takes that last
    operand, so chains of either kind cost no recursion; the parentheses
    opened on the way are closed at the end.
    """
    out = closing = ""
    while True:
        t = type(f)
        if t is Var:
            level, text = _L_ATOM, f.name
            break
        if t is Zero:
            level, text = _L_ATOM, "0"
            break
        if t is Box:
            level, head, f, then = _L_PRE, f"[{_fmt_p(f.prog, 0)}]", f.body, _L_PRE
        elif t is Not:
            inner = f.sub
            if type(inner) is Zero:
                level, text = _L_ATOM, "1"
                break
            if type(inner) is Box and type(inner.body) is Not:
                level, head, f, then = _L_PRE, f"<{_fmt_p(inner.prog, 0)}>", inner.body.sub, _L_PRE
            elif (m := _match_odot(f)) is not None:
                parts = _spine(f, _match_odot)
                if len(parts) >= 2 and all(p == parts[0] for p in parts):
                    level, text = _L_POST, _fmt_f(parts[0], _L_POST + 1) + f"^{len(parts)}"
                    break
                if (
                    len(parts) == 2
                    and type(parts[0]) is Implies
                    and type(parts[1]) is Implies
                    and parts[0].lhs == parts[1].rhs
                    and parts[0].rhs == parts[1].lhs
                ):
                    lhs, rhs = parts[0].lhs, parts[0].rhs
                    level, head, f, then = _L_IFF, _fmt_f(lhs, _L_IFF) + " <-> ", rhs, _L_IFF + 1
                else:
                    level, head, f, then = _L_ODOT, _left(m[0], _match_odot, " (.) ", _L_ODOT), m[1], _L_ODOT + 1
            elif (m := _match_and(f)) is not None:
                level, head, f, then = _L_AND, _left(m[0], _match_and, " & ", _L_AND), m[1], _L_AND + 1
            else:
                level, head, f, then = _L_PRE, "~", inner, _L_PRE
        elif (m := _match_or(f)) is not None:
            level, head, f, then = _L_OR, _left(m[0], _match_or, " | ", _L_OR), m[1], _L_OR + 1
        elif t is Implies:
            parts = _spine(f, _match_oplus) if type(f.lhs) is Not else ()
            same = _leading(parts)
            if 2 <= len(parts) == same:
                level, head, f, then = _L_PRE, f"{len(parts)}.", parts[0], _L_PRE
            elif _sugared(parts, len(parts), same):
                level, head, f, then = _L_OPLUS, _fmt_f(parts[0], _L_OPLUS) + " (+) ", parts[1], _L_OPLUS + 1
            else:
                level, head, f, then = _L_IMP, _imp_left(f, parts, same), f.rhs, _L_IMP
        else:
            raise TypeError(f"not a formula: {f!r}")
        if level < ctx:
            out += "("
            closing += ")"
        out += head
        ctx = then
    return out + (text if level >= ctx else f"({text})") + closing


def _fmt_p(p: Program, ctx: int) -> str:
    """p's text in a context binding at level ctx.  As in `_fmt_f`, the
    loop takes the right operand of `;` and `+`, with a left-nested chain
    of the same operator flattened before it."""
    out = closing = ""
    while type(p) is Seq or type(p) is Union:
        t = type(p)
        level, op = (_P_SEQ, ";") if t is Seq else (_P_UNION, " + ")
        if level < ctx:
            out += "("
            closing += ")"
        rights = [p.right]
        while type(p := p.left) is t:
            rights.append(p.right)
        out += _fmt_p(p, level) + op
        while len(rights) > 1:
            out += _fmt_p(rights.pop(), level + 1) + op
        p, ctx = rights[0], level + 1
    t = type(p)
    if t is Atomic:
        text = p.name
    elif t is Test:
        text = _fmt_f(p.formula, 0) + "?"  # binds tightest: never wrapped
    elif t is Star:  # a run of stars binds at one level
        stars = 0
        while type(p) is Star:
            p, stars = p.sub, stars + 1
        text = _wrap(_fmt_p(p, _P_STAR) + "*" * stars, _P_STAR, ctx)
    else:
        raise TypeError(f"not a program: {p!r}")
    return out + text + closing
