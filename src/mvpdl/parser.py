"""Concrete syntax: one operator table, a tokenizer, a parser and a printer.

Formula precedence, high to low: atoms (`0`, `1`, identifiers, parens);
prefix `~`, `k.`, `[prog]`, `<prog>`; postfix `^k`; then `(.)`, `(+)`,
`&`, `|`, `->` (right associative), `<->`.  Program precedence: atoms,
tests `formula?`; postfix `*`; then `;`; then `+`.  `k` in `^k` and `k.`
is at most 10,000, since each builds a k-long chain.

Question atoms of the form `Q{1,3}` (and complements `~Q{1,3}`) lex as a
single token and are only legal as atomic program names; the searching
game layer resolves them against a concrete search space.

`_OPERATORS` states each infix and postfix operator once: its token,
binding level, constructor, associativity and printed text.  The parser
and the printer both read it, and the prefix levels beside it.

The tokenizer is one `findall` of one regular expression, which yields the
bare words of the text.  Punctuation is its own kind; each distinct other
word is classified once, in the order of first occurrence, as an
identifier, an integer or a question atom, into a dict the parser looks
kinds up in, so a bad character raises before any syntax error, at the
leftmost place.  No per-token tuple is built: an error's line and column
are worked out by scanning the text again up to the word at fault.

The parser is one operator-precedence loop over one explicit stack
(Dijkstra's shunting-yard) that reads formulas and programs together.
An identifier or a bracketed group in program position may be
either sort, so it is read once as a sort-neutral operand, and the token
after it fixes its sort: a formula operator, `?` or `^` makes it a test's
formula, while `;`, `+`, `*` or a program's closing bracket makes it a
program.  So no token is read twice, nothing recurses, and parentheses nest
to any depth.  A syntax error is reported at the first token that no
reading of the text can take.

Texts that restate each other, such as the lines of a derivation, can
share one `Groups` table.  A parenthesized group in formula position
reads as the same node wherever it stands, so the table keeps that node
under the group's id, and a later occurrence of the group, in that text or
a later one, is read as the node by jumping past its `)`.  Ids are
hash-consed from a group's words and its inner groups' ids in one pass
over the parentheses, so computing them is linear however deep groups
nest.  A group in program position is not kept, since its sort is open.
Without a table the loop is the same and nothing is kept.

The printer is one table walked by one loop.  `_shape` states the sugar
rules once: it gives a node's binding level and its text as literal
strings and (child, context) pairs, sugar where the expanded pattern is
found and core syntax otherwise.  `_emit` expands those from one explicit
stack and parenthesizes a node whose level is below its context, so no
depth of nesting recurses.  One rule reads the context itself: a `(.)`
node that is the left operand of `(.)` prints as a plain `(.)` chain,
never as `^k` or `<->`, so `r (.) r (.) x` does not read `r^2 (.) x`.
Since trees are interned, parsing the printed text returns the very node
`f`.

Prints that restate each other, such as the lines of a derivation or the
members of a closure, can share one text table, a dict, as their parses
share `Groups`.  A node's text in a context is the same wherever it
stands, so given a table the same loop also records where each (node,
context) pair it expands starts and ends in its output, and a later
occurrence of the pair, in that text or a later one, appends that span
(joined into one string on its first reuse) instead of expanding the
node again.  Without a table it records nothing, as `_parse` keeps no
group without `Groups`.
"""

from __future__ import annotations

import re
from itertools import compress, count, islice

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


# Binding levels, loose to tight, two apart: an operand that must bind
# tighter than its operator sits at the operator's level + 1, so only the
# left operand of (.) sits at _ODOT itself.  Program levels are _PROG and
# up, so `_shape` finds a formula in a program context (or a program below
# one) in no branch and raises the type error, and the parser tells a
# formula operator from a program one by its level.
_IFF, _IMP, _OR, _AND, _OPLUS, _ODOT, _POST, _PRE, _ATOM = range(2, 20, 2)
_PROG, _UNION, _SEQ, _STAR, _PATOM = range(20, 30, 2)

# The operators, each stated once for the parser and the printer.  A row is
# (binding level, constructor, 1 if right associative, printed text); the
# parser pushes the row itself and reduces it by its constructor.  A
# postfix operator reduces only what binds tighter, as if right associative.
_OPERATORS = {
    "<->": (_IFF, iff, 0, " <-> "),
    "->": (_IMP, Implies, 1, " -> "),
    "|": (_OR, lor, 0, " | "),
    "&": (_AND, land, 0, " & "),
    "(+)": (_OPLUS, oplus, 0, " (+) "),
    "(.)": (_ODOT, odot, 0, " (.) "),
    "^": (_POST, power, 1, "^"),
    "+": (_UNION, Union, 0, " + "),
    ";": (_SEQ, Seq, 0, ";"),
    "*": (_STAR, Star, 1, "*"),
}

_MAX_K = 10_000  # largest k in ^k and k.

# Whitespace, then a token: an identifier or a question atom (one may
# lack its closing brace), a negated question atom, an integer, a
# punctuation mark of several characters, or any one other character.
# Identifiers come first, as they are the most common word; `_IDENT` is
# their rule, which `is_identifier` reads too.
_IDENT = re.compile(r"[^\W\d_]\w*")
_TOKEN = re.compile(r"\s*(" + _IDENT.pattern + r"(?:\{[^}]*\}?)?|~" + _IDENT.pattern + r"\{[^}]*\}?|[0-9]+|\(\+\)|\(\.\)|<->|->|\S)")
_PUNCT = frozenset(("(+)", "(.)", "<->", "->", *"()[]<>|&^;+*?.~"))
_END = "end of input"  # the word after the last, and its kind


def _position(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _offset(text: str, i: int) -> int:
    """Where the i-th word of text starts (its length for _END)."""
    m = next(islice(_TOKEN.finditer(text), i, None), None)
    return len(text) if m is None else m.start(1)


def is_identifier(name: str) -> bool:
    """Whether name is one identifier word, which parses as the variable
    or the atomic program of that name: all of it matches `_IDENT`, and
    its first character is a letter (`_IDENT` also starts a word with
    characters such as ², which `_tokenize` refuses)."""
    return _IDENT.fullmatch(name) is not None and name[0].isalpha()


def _tokenize(text: str) -> tuple[list[str], dict[str, str]]:
    """The words of text, ending in _END, and the kind of each word that is
    no punctuation mark: "ident", "int" or "qatom" (a punctuation mark is
    its own kind).  Each distinct word is classified once, in the order of
    first occurrence, so the leftmost bad word raises."""
    words = _TOKEN.findall(text)
    kinds = {}
    for word in dict.fromkeys(words):
        if word in _PUNCT:
            continue
        head = word[word[0] == "~"]  # the letter a question atom starts with
        if "0" <= head <= "9":
            kinds[word] = "int"
        elif not head.isalpha():  # such as $, ² or ١
            line, col = _position(text, _offset(text, words.index(word)) + (word[0] == "~"))
            raise ParseError(f"unexpected character {head!r} at line {line}, column {col}", line, col)
        elif "{" not in word:
            kinds[word] = "ident"
        elif word[-1] != "}":
            line, col = _position(text, _offset(text, words.index(word)))
            raise ParseError(f"unterminated '{{' in question atom at line {line}, column {col}", line, col)
        else:
            kinds[word] = "qatom"
    words.append(_END)
    return words, kinds


class Groups:
    """The group table that related texts share: `ids` maps a group's key,
    its words with each inner group replaced by that group's id, to its id,
    and `nodes` maps the id of a group read in formula position to its
    node."""

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.nodes: dict[int, Formula] = {}

    def spans(self, words: list[str]) -> list:
        """A list beside `words` that holds, at each ( that has its ), the
        index of that ), and there the group's id.  Only the parentheses
        are visited one by one: the words of the open groups are kept in one
        list, each group's from the offset that its ( pushed on `opened`."""
        ids, spans, opened, items, last = self.ids, [None] * len(words), [], [], 0
        for i in compress(count(), map("()".__contains__, words)):
            if last < i:
                items += words[last:i]
            last = i + 1
            if words[i] == "(":
                opened.append(i)
                opened.append(len(items))
            elif opened:
                off = opened.pop()
                if off != len(items) - 1 or type(items[-1]) is not int:  # ((x)) has the id of (x)
                    key = tuple(items[off:])
                    del items[off:]
                    items.append(ids.setdefault(key, len(ids)))
                spans[i] = items[-1]
                spans[opened.pop()] = i
        return spans


# Markers on the operator stack, as (level, closing token, constructor).
# Those at level 1 open a formula, those at level 0 a program, so the level
# of the stack's top tells which sort an operand there has; both stop every
# reduction, since operators sit at level 2 and up.  _TEST marks where the
# formula of a test starts: `?` closes it.  A `(` opened where a program
# may stand (_GROUP) holds either sort.
_TEST = (1, "?", None)
_FORMULA_GROUP = (1, ")", None)
_FORMULA_END = (1, _END, None)
_GROUP = (0, ")", None)
_PROGRAM_END = (0, _END, None)
# What a prefix pushes: `~` itself, or the marker that `]` or `>` turns into
# the box or diamond of the program read up to it.
_PREFIXES = {"~": (_PRE, Not, None), "[": (0, "]", Box), "<": (0, ">", diamond)}


def parse_formula(text: str, groups: Groups | None = None) -> Formula:
    """The formula text reads; with `groups`, its groups are looked up in
    and added to that table."""
    return _parse(text, _FORMULA_END, groups)


def parse_program(text: str, groups: Groups | None = None) -> Program:
    return _parse(text, _PROGRAM_END, groups)


def _parse(text: str, end: tuple, groups: Groups | None):
    """Shunting-yard over `ops` (operators and markers) and `vals`
    (operands); a str operand is an identifier whose sort is not fixed."""
    words, kinds = _tokenize(text)
    spans, nodes = ([None] * len(words), {}) if groups is None else (groups.spans(words), groups.nodes)
    ops, vals, i = [end], [], 0
    while True:  # at an operand
        word = words[i]
        kind = kinds.get(word, word)
        i += 1
        formula = 1 <= ops[-1][0] < _PROG
        if kind == "ident":
            vals.append(Var(word) if formula else word)
        elif kind == "(":
            close = spans[i - 1] if formula else None
            if close is None or (node := nodes.get(spans[close])) is None:
                ops.append(_FORMULA_GROUP if formula else _GROUP)
                continue
            vals.append(node)  # a group read before: skip to its )
            i = close + 1
        elif kind == "qatom" and not formula:
            vals.append(Atomic("".join(word.split())))
        else:
            if not formula:  # a formula starts here, as a test's
                ops.append(_TEST)
            if kind in _PREFIXES:
                ops.append(_PREFIXES[kind])
                continue
            if kind == "int" and words[i] == ".":
                ops.append((_PRE, times, _count(text, words, i - 1)))
                i += 1
                continue
            if word not in ("0", "1"):
                either = ("0 or 1" if kind == "int" else "formula",) + (() if formula else ("program",))
                raise _error(text, words, kinds, i - 1, either)
            vals.append(ONE if word == "1" else ZERO)
        while True:  # after an operand; a word that is no punctuation here is an error
            word = words[i]
            i += 1
            top = vals[-1]
            neutral = type(top) is str
            row = _OPERATORS.get(word)
            if row is not None:
                level, make, right, _ = row
                if (level < _PROG) != (1 <= ops[-1][0] < _PROG):
                    # of the other sort: only a neutral operand takes it, as a test's formula
                    if not neutral:
                        raise _error(text, words, kinds, i - 1, _closers(ops, False))
                    vals[-1] = Var(top)
                    ops.append(_TEST)
                elif neutral:
                    vals[-1] = Atomic(top)
                if ops[-1][0] >= level + right:
                    _reduce(ops, vals, level + right)
                if make is Star:
                    vals[-1] = Star(vals[-1])
                elif make is not power:
                    ops.append(row)
                    break
                elif kinds.get(words[i]) != "int":
                    raise _error(text, words, kinds, i, ("int",))
                else:
                    vals[-1] = power(vals[-1], _count(text, words, i))
                    i += 1
                continue
            if neutral:
                if word == "?":
                    vals[-1] = Test(Var(top))
                    continue
                if word == ")" and ops[-1] is _GROUP:  # (a) keeps its sort open
                    ops.pop()
                    continue
                vals[-1] = Atomic(top)
            _reduce(ops, vals, 2)
            mark = ops[-1]
            if mark[1] != word:
                if not (word == ")" and mark is _TEST and ops[-2] is _GROUP):
                    raise _error(text, words, kinds, i - 1, _closers(ops, neutral))
                ops[-2:] = [_TEST]  # a formula in parentheses
                continue
            ops.pop()
            if mark is end:
                return vals[0]
            if mark is _TEST:
                vals[-1] = Test(vals[-1])
            elif mark[2] is not None:  # ] or > ends a box or diamond's program
                ops.append((_PRE, mark[2], vals.pop()))
                break
            elif mark is _FORMULA_GROUP and (gid := spans[i - 1]) is not None:
                nodes[gid] = vals[-1]  # kept for the group's next occurrence


def _reduce(ops: list, vals: list, floor: int) -> None:
    """Apply the operators on top of `ops` whose level is floor or more."""
    while ops[-1][0] >= floor:
        op = ops.pop()
        last = vals.pop()
        if op[0] != _PRE:
            vals[-1] = op[1](vals[-1], last)
        else:
            vals.append(op[1](last) if op[2] is None else op[1](op[2], last))


def _count(text: str, words: list[str], i: int) -> int:
    """The k of ^k or k. at word i, which builds a k-long chain: at most _MAX_K."""
    word = words[i]
    k = int(word) if len(word.lstrip("0")) <= 5 else _MAX_K + 1
    if k > _MAX_K:
        line, col = _position(text, _offset(text, i))
        raise ParseError(f"power or multiple above {_MAX_K} at line {line}, column {col}", line, col, ("int",))
    return k


def _closers(ops: list, neutral: bool) -> tuple[str, ...]:
    """The tokens that could have ended the operand just read."""
    i = len(ops) - 1
    while ops[i][0] >= 2:
        i -= 1
    out = {ops[i][1]}
    if ops[i] is _TEST and ops[i - 1] is _GROUP:
        out.add(")")
    if neutral:
        out.add("?")
    return tuple(sorted(out))


def _error(text: str, words: list[str], kinds: dict[str, str], i: int, expected: tuple[str, ...]) -> ParseError:
    """The syntax error at word i."""
    line, col = _position(text, _offset(text, i))
    return ParseError(
        f"syntax error at line {line}, column {col}: expected {' or '.join(expected)}, found {kinds.get(words[i], words[i])}",
        line,
        col,
        expected,
    )


# --- printing -------------------------------------------------------------


def format_formula(f: Formula, texts: dict | None = None) -> str:
    """Canonical text; parsing it back yields the same (interned) node.
    With `texts`, a text table, subterms printed before under that table
    are copied from it, and those printed now are added to it."""
    return _emit(f, 0, texts)


def format_program(p: Program, texts: dict | None = None) -> str:
    return _emit(p, _PROG, texts)


def _emit(node, ctx: int, texts: dict | None = None) -> str:
    """node's text in context ctx, written from one stack of strings and
    (node, context) pairs, so that no depth of nesting recurses.  A node's
    first part is taken at once and the rest go on the stack.

    With `texts`, each (node, context) pair expanded here goes into it as
    the span of `out` it printed, (out, start, end): the pair and the
    start are pushed below its parts, and the int marks the span's end
    when it comes off the stack.  A pair found in `texts` appends its
    span, joined into one string the first time.  The chain lengths that
    `_repeats` finds go into the same table, keyed by the chain node
    alone, so that prints sharing it walk each chain node once."""
    out, stack = [], []
    lengths = {} if texts is None else texts
    item = (node, ctx)
    while True:
        t = type(item)
        if t is tuple:
            node, ctx = item
            if type(node) is Var and ctx < _PROG:  # binds tightest: never wrapped
                item = node.name
                continue
            if texts is not None:
                span = texts.get(item)
                if span is not None:
                    if type(span) is not str:
                        span = texts[item] = "".join(span[0][span[1] : span[2]])
                    item = span
                    continue
                stack.append(item)
                stack.append(len(out))
            level, parts = _shape(node, ctx, lengths)
            if level < ctx:
                out.append("(")
                stack.append(")")
            stack += parts[:0:-1]
            item = parts[0]
            continue
        if t is str:
            out.append(item)
        else:  # the span that began at item ends here
            texts[stack.pop()] = (out, item, len(out))
        if not stack:
            return "".join(out)
        item = stack.pop()


def _shape(f, ctx: int, lengths: dict):
    """f's binding level and its text, as strings and (child, context)
    pairs: the sugar where the expanded pattern is found, core syntax
    otherwise.  `lengths` holds the chain lengths found so far."""
    t = type(f)
    if ctx >= _PROG:
        if t is Atomic:
            return _PATOM, (f.name,)
        if t is Test:  # binds tightest: never wrapped
            return _PATOM, ((f.formula, 0), "?")
        if t is Star:
            return _STAR, ((f.sub, _STAR), "*")
        if t is Seq:
            return _infix(";", f.left, f.right)
        if t is Union:
            return _infix("+", f.left, f.right)
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
                if k := _repeats(a, b, _match_odot, lengths):
                    return _chain(_POST, "(.)", ((b, _POST + 1), f"^{min(k, _MAX_K)}"), b, k)
                # (x -> y) (.) (y -> x) is x <-> y
                if type(a) is Implies and type(b) is Implies and a.lhs is b.rhs and a.rhs is b.lhs:
                    return _infix("<->", a.lhs, a.rhs)
            return _infix("(.)", a, b)
        if type(g) is Implies and type(g.lhs) is Implies and g.lhs.rhs is g.rhs:  # ~(~x | ~y) is x & y
            x, y = g.lhs.lhs, g.rhs
            if type(x) is Not and type(y) is Not:
                return _infix("&", x.sub, y.sub)
        return _PRE, ("~", (g, _PRE))
    elif t is Implies:
        a, b = f.lhs, f.rhs
        if type(a) is Implies and a.rhs is b:  # (x -> y) -> y is x | y
            return _infix("|", a.lhs, b)
        if type(a) is Not:  # ~x -> y is x (+) y
            if k := _repeats(a.sub, b, _match_oplus, lengths):
                return _chain(_PRE, "(+)", (f"{min(k, _MAX_K)}.", (b, _PRE)), b, k)
            if type(a.sub) is not Implies and type(b) is not Implies:  # else -> reads better
                return _infix("(+)", a.sub, b)
        return _infix("->", a, b)
    raise TypeError(f"not a {'program' if ctx >= _PROG else 'formula'}: {f!r}")


def _infix(op: str, a, b):
    """The shape of a op b: the operand on op's associative side has op's
    level as its context, the other one a level tighter."""
    level, _, right, text = _OPERATORS[op]
    return level, ((a, level + right), text, (b, level + 1 - right))


def _chain(sugar: int, op: str, head: tuple, part, k: int):
    """The shape of the k-fold op chain of part: head alone (x^k or k.x,
    at the sugar's level) for k up to the parser's _MAX_K, else head for
    _MAX_K followed by op part as many times as are left, which parses to
    the same node."""
    if k <= _MAX_K:
        return sugar, head
    level, _, _, text = _OPERATORS[op]
    return level, head + (text, (part, level + 1)) * (k - _MAX_K)


def _repeats(a, part, matcher, lengths: dict) -> int:
    """k if a op part, for the operator `matcher` matches, is the k-fold
    chain of part, else 0.  The walk down the chain of a stops at the
    first part that differs, at part itself or at a node in `lengths`,
    which maps each chain node walked before to the number of parts its
    chain has (0: it is no chain of its right operand); the nodes it
    passed go into `lengths` too, so that each is walked once."""
    passed = []
    while (m := matcher(a)) is not None and m[1] is part and a not in lengths:
        passed.append(a)
        a = m[0]
    # a node walked before, the chain's first part, or something else
    k = lengths[a] if m and m[1] is part else int(m is None and a is part)
    for node in reversed(passed):
        k = lengths[node] = k and k + 1
    return k and k + 1


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
