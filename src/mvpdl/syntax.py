"""Abstract syntax for formulas and regular programs.

Formulas have exactly five core constructors (variable, falsum, negation,
implication, box); everything else (lattice and strong connectives, powers,
diamonds) is sugar that expands to core terms at construction time, so
every semantic operation only ever sees the five core shapes.

Programs are atomic names, tests on formulas, sequential composition,
nondeterministic choice and iteration (star).  This module states the
regular-program laws, once: `laws` gives the law of a box and the
closure members it reads, `star_states` derives from it the ε-free
automaton of a star box, and the Fischer-Ladner closure, the decider and
the model checker all read them.  `plan` states, once, what each
formula's value is computed from and orders the formulas a value
depends on, each after what it reads; the model checker, the decider's
row generator and the propositional truth table all run that order.

Trees are immutable and interned (hash-consed): constructing a node whose
class and fields equal those of a live node returns that node.  So `==`
is `is`, hashing is by identity in O(1), and equal subterms are shared.
The intern table holds its nodes weakly; an entry goes when its node does.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref  # as weakref.WeakValueDictionary uses
from collections import deque
from typing import Container, Iterable, Iterator, Mapping


class _Ref(weakref.ref):
    """Weak reference to an interned node that carries its table key."""

    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    _remove_dead_weakref(_table, ref.key)


# (class, *fields: leaf name or interned children) -> weak reference to the
# node.  Entries change only by two atomic steps, setdefault adding one for
# an absent key and _remove_dead_weakref dropping one whose node is dead,
# so a live node keeps its entry and, across threads too, no two equal
# nodes are ever live.
_table: dict[tuple, _Ref] = {}


class _Node:
    """Shared constructor: one live node per class and field values."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        key = (cls,) + fields
        ref = _table.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = object.__new__(cls)
        if fields:  # unrolled: at most two fields, set by slot name
            names = cls.__slots__
            setattr(node, names[0], fields[0])
            if len(fields) == 2:
                setattr(node, names[1], fields[1])
        ref = _Ref(node, _forget)
        ref.key = key
        while (old := _table.setdefault(key, ref)) is not ref:
            live = old()
            if live is not None:
                return live  # another thread built it meanwhile
            _remove_dead_weakref(_table, key)  # its _forget is still to run
        return node

    def __reduce__(self):
        # copies and unpickled nodes are built through __new__, so interned
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Formula(_Node):
    """Base class of the five core formula shapes."""

    __slots__ = ()

    def __repr__(self):
        from .parser import format_formula

        return f"Formula({format_formula(self)!r})"


class Program(_Node):
    """Base class of the five program shapes."""

    __slots__ = ()

    def __repr__(self):
        from .parser import format_program

        return f"Program({format_program(self)!r})"


class Var(Formula):
    __slots__ = ("name",)


class Zero(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("sub",)


class Implies(Formula):
    __slots__ = ("lhs", "rhs")


class Box(Formula):
    __slots__ = ("prog", "body")


class Atomic(Program):
    __slots__ = ("name",)


class Test(Program):
    __slots__ = ("formula",)
    __test__ = False  # not a pytest case, despite the name


class Seq(Program):
    __slots__ = ("left", "right")


class Union(Program):
    __slots__ = ("left", "right")


class Star(Program):
    __slots__ = ("sub",)


ZERO = Zero()
ONE = Not(ZERO)


# --- sugar ---------------------------------------------------------------
#
# Expansions follow the usual Lukasiewicz abbreviations:
#   a | b   := (a -> b) -> b              (join, pointwise max)
#   a & b   := ~(~a | ~b)                 (meet, pointwise min)
#   a (+) b := ~a -> b                    (strong disjunction, truncated sum)
#   a (.) b := ~(~a (+) ~b)               (strong conjunction)
#   a <-> b := (a -> b) (.) (b -> a)
#   <prog>a := ~[prog]~a
#   a^k     := a (.) ... (.) a  (k times, a^0 = 1)
#   k.a     := a (+) ... (+) a  (k times, 0.a = 0)


def lor(a: Formula, b: Formula) -> Formula:
    return Implies(Implies(a, b), b)


def land(a: Formula, b: Formula) -> Formula:
    return Not(lor(Not(a), Not(b)))


def oplus(a: Formula, b: Formula) -> Formula:
    return Implies(Not(a), b)


def odot(a: Formula, b: Formula) -> Formula:
    return Not(oplus(Not(a), Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return odot(Implies(a, b), Implies(b, a))


def diamond(prog: Program, body: Formula) -> Formula:
    return Not(Box(prog, Not(body)))


def power(a: Formula, k: int) -> Formula:
    """k-fold strong conjunction a (.) ... (.) a, with a^0 = 1."""
    if k < 0:
        raise ValueError("negative power")
    if k == 0:
        return ONE
    out = a
    for _ in range(k - 1):
        out = odot(out, a)
    return out


def times(k: int, a: Formula) -> Formula:
    """k-fold strong disjunction a (+) ... (+) a, with 0.a = 0."""
    if k < 0:
        raise ValueError("negative multiplicity")
    if k == 0:
        return ZERO
    out = a
    for _ in range(k - 1):
        out = oplus(out, a)
    return out


def big_meet(parts: Iterable[Formula]) -> Formula:
    """Left fold of &.  The empty meet is 1."""
    out = None
    for p in parts:
        out = p if out is None else land(out, p)
    return ONE if out is None else out


def big_join(parts: Iterable[Formula]) -> Formula:
    """Left fold of |.  The empty join is 0."""
    out = None
    for p in parts:
        out = p if out is None else lor(out, p)
    return ZERO if out is None else out


# --- traversal helpers ---------------------------------------------------


def variables_of(f: Formula | Program) -> set[str]:
    """Names of all propositional variables, including inside tests."""
    out: set[str] = set()
    _walk(f, out, None)
    return out


def atomic_programs_of(f: Formula | Program) -> set[str]:
    """Names of all atomic programs, including under star and tests."""
    out: set[str] = set()
    _walk(f, None, out)
    return out


def _walk(node, vars_out, atoms_out):
    seen = set()
    stack = [node]
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        t = type(x)
        if t is Var:
            if vars_out is not None:
                vars_out.add(x.name)
        elif t is Not:
            stack.append(x.sub)
        elif t is Implies:
            stack.append(x.lhs)
            stack.append(x.rhs)
        elif t is Box:
            stack.append(x.prog)
            stack.append(x.body)
        elif t is Atomic:
            if atoms_out is not None:
                atoms_out.add(x.name)
        elif t is Test:
            stack.append(x.formula)
        elif t in (Seq, Union):
            stack.append(x.left)
            stack.append(x.right)
        elif t is Star:
            stack.append(x.sub)


def substitute(
    f: Formula, sub: Mapping[str, Formula], psub: Mapping[str, Program] | None = None
) -> Formula:
    """Simultaneously replace variables by formulas and atomic programs by
    programs, inside tests too.

    The replacements are inserted as they are: a program put in for an
    atomic name keeps the variables of its tests, and a formula put in
    for a variable keeps its atomic programs.
    """
    if not sub and not psub:
        return f
    return rewrite(f, sub, psub or {}, {})


def substitute_atomics(f: Formula, sub: Mapping[str, Program]) -> Formula:
    """Replace atomic programs by programs throughout a formula."""
    if not sub:
        return f
    return rewrite(f, {}, sub, {})


def rewrite(
    f: Formula | Program,
    sub: Mapping[str, Formula],
    psub: Mapping[str, Program],
    done: dict[Formula | Program, Formula | Program],
) -> Formula | Program:
    """The one substitution loop behind `substitute` and box abstraction.

    `done` maps nodes of f to their replacements; those nodes are
    replaced whole and never entered, like variables named in `sub` and
    atomic programs named in `psub`.  The loop keeps an explicit stack, so
    depth is bounded by memory, not the interpreter's recursion limit; it
    visits each shared subterm once and rebuilds a node only when one of
    its children changed.
    """
    stack = [f]
    while stack:
        x = stack[-1]
        if x in done:
            stack.pop()
            continue
        t = type(x)
        if t is Var:
            out = sub.get(x.name, x)
        elif t is Atomic:
            out = psub.get(x.name, x)
        elif t is Zero:
            out = x
        elif t is Not or t is Star or t is Test:
            c = x.formula if t is Test else x.sub
            a = done.get(c)
            if a is None:
                stack.append(c)
                continue
            out = x if a is c else t(a)
        else:
            if t is Implies:
                l, r = x.lhs, x.rhs
            elif t is Box:
                l, r = x.prog, x.body
            else:  # Seq, Union
                l, r = x.left, x.right
            a = done.get(l)
            b = done.get(r)
            if a is None or b is None:
                stack.append(r)
                stack.append(l)
                continue
            out = x if a is l and b is r else t(a, b)
        done[x] = out
        stack.pop()
    return done[f]


# --- the regular-program laws ---------------------------------------------
#
# A box over a program takes its value from a few closure members, by one
# law per program shape; laws(g) gives the law and those members:
#
#   [a]φ      ATOM  (φ,)              minimum of φ over the a-successors
#   [α;β]φ    MIN   ([α][β]φ,)        = [α][β]φ
#   [α+β]φ    MIN   ([α]φ, [β]φ)      = min([α]φ, [β]φ)
#   [ψ?]φ     TEST  (ψ, φ)            φ where ψ is 1, and 1 elsewhere
#   [β*]φ     STAR  (φ, [β][β*]φ)     greatest X with X = min(φ, [β]X)

ATOM, MIN, TEST, STAR = "atom", "min", "test", "star"


def laws(g: Box) -> tuple[str, tuple[Formula, ...]]:
    """The law of box g and the closure members it reads, in the order
    of the table above."""
    prog, body = g.prog, g.body
    t = type(prog)
    if t is Atomic:
        return ATOM, (body,)
    if t is Seq:
        return MIN, (Box(prog.left, Box(prog.right, body)),)
    if t is Union:
        return MIN, (Box(prog.left, body), Box(prog.right, body))
    if t is Test:
        return TEST, (prog.formula, body)
    if t is Star:
        return STAR, (body, Box(prog.sub, g))
    raise TypeError(f"not a program: {prog!r}")


Edge = tuple[str | None, Formula | None, Formula | None]


def star_states(g: Box) -> dict[Formula, list[Edge]]:
    """The automaton of a star box g = [β*]φ over atomic programs and
    tests, read off the laws; it has no other ε-moves.

    Its states are g and the bodies of the atomic and test members on its
    chain, closure members [β'][β*]φ (the Glushkov or Antimirov states of
    β*), g first.  Each state maps to its edges (name, gate, target): one
    step of atomic program `name` into state `target`; with no name, a
    test, which stays at its world and passes where the gate formula has
    value 1; with all three None, acceptance, reaching φ.  A state's edges
    come from following the laws from it: MIN and an inner star go on to
    every member, g accepts and goes on to [β]g, and an atomic or test
    member ends in an edge.  Every member met is a box [π]g or g itself,
    so φ is reached only through g.  A test is a step of its own rather
    than a condition folded into the next atomic step, so the automaton
    stays linear in β: k test choices in sequence would otherwise give
    2^k combined conditions.
    """
    auto: dict[Formula, list[Edge]] = {g: []}
    todo = [g]
    while todo:
        state = todo.pop()
        edges = auto[state]
        seen = set()
        work = [state]
        while work:
            x = work.pop()
            if x in seen:
                continue
            seen.add(x)
            op, members = laws(x)
            if x is g:
                edges.append((None, None, None))
                work.append(members[1])
            elif op is ATOM or op is TEST:
                edge = (x.prog.name, None, members[0]) if op is ATOM else (None, members[0], members[1])
                edges.append(edge)
                if edge[2] not in auto:
                    auto[edge[2]] = []
                    todo.append(edge[2])
            else:  # MIN, or a star inside β
                work.extend(members)
    return auto


# --- dependency order ------------------------------------------------------
#
# A formula's value is computed from the values of a few others, one step
# per formula, (formula, op, reads, automaton):
#
#   p       VAR     ()
#   0       FALSUM  ()
#   ~g      NOT     (g,)
#   g -> h  IMP     (g, h)
#   [π]φ    its law and the members it reads (`laws`), except that a
#           star box [β*]φ reads φ and the test gates of its automaton,
#           carried as the fourth field, and not its chain [β][β*]φ,
#           which reads the star box back
#
# Anything else is a step with op None that reads nothing, for the caller
# to reject in its own words.

VAR, FALSUM, NOT, IMP = "var", "falsum", "not", "imp"

_DONE = object()  # on the plan's stack above a step whose reads are entered

Step = tuple[Formula, str | None, tuple[Formula, ...], dict[Formula, list[Edge]] | None]


def plan(roots: Iterable[Formula], known: Container[Formula] = ()) -> Iterator[Step]:
    """The steps of every formula the roots' values depend on, each after
    the steps of the formulas it reads, every formula once; formulas in
    `known`, and what only they lead to, are left out.

    The walk keeps an explicit stack, so depth is bounded by memory.  It
    is lazy and enters a formula's reads last first (h before g in
    g -> h), so a caller that stops at its first bad step stops where a
    depth-first walk would.  The TypeError of `laws` for a box over
    something that is not a program is raised on entering the box, and a
    formula put into `known` before the walk enters it is skipped.
    """
    seen = set()
    stack: list = list(roots)  # formulas to enter, and each entered step above _DONE
    push = stack.append
    while stack:
        g = stack.pop()
        if g is _DONE:  # the reads of the step below it are done
            yield stack.pop()
            continue
        if g in seen or g in known:
            continue
        seen.add(g)
        t, auto = type(g), None
        if t is Not:
            op, reads = NOT, (g.sub,)
        elif t is Implies:
            op, reads = IMP, (g.lhs, g.rhs)
        elif t is Box:
            op, reads = laws(g)
            if op is STAR:
                auto = star_states(g)
                reads = (g.body, *(gate for edges in auto.values() for _, gate, _ in edges if gate is not None))
        else:
            yield (g, VAR if t is Var else FALSUM if t is Zero else None, (), None)
            continue
        push((g, op, reads, auto))
        push(_DONE)
        stack += reads


# --- decomposition closure -------------------------------------------------


def fl_closure(seed: Formula | Iterable[Formula]) -> list[Formula]:
    """Least formula set containing the seed and closed under decomposition.

    The rules: subformulas of ~ and ->; and the body of a box with the
    members its law reads (see `laws`).  Returns the members in
    deterministic first-reached (breadth-first) order; the seed comes
    first.
    """
    if isinstance(seed, Formula):
        seeds = [seed]
    else:
        seeds = list(seed)
    out: dict[Formula, None] = {}
    queue: deque[Formula] = deque()

    def add(g: Formula):
        if g not in out:
            out[g] = None
            queue.append(g)

    for s in seeds:
        add(s)
    while queue:
        g = queue.popleft()
        t = type(g)
        if t is Not:
            add(g.sub)
        elif t is Implies:
            add(g.lhs)
            add(g.rhs)
        elif t is Box:
            add(g.body)
            for m in laws(g)[1]:
                add(m)
    return list(out)
