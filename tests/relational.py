"""Relational reference evaluator, the oracle for the model checker.

Every program's relation is built in full from the regular operations
(composition, union, test as a partial identity over fully true worlds,
star as reflexive-transitive closure by a search from every world), and
the box is the minimum of the body over the built successor lists.  This
is the model checker's former design, kept here so that the column
fixpoints in `mvpdl.kripke` are compared with an independent
implementation.  It reads only a model's public fields.
"""

from __future__ import annotations

from mvpdl.kripke import KripkeModel
from mvpdl.syntax import (
    Atomic,
    Box,
    Formula,
    Implies,
    Not,
    Program,
    Seq,
    Star,
    Test,
    Union,
    Var,
    Zero,
)


class Relational:
    """Successor lists of every program, and values by box-as-minimum."""

    def __init__(self, m: KripkeModel):
        self.m = m
        self.n = m.n
        self.idx = {w: i for i, w in enumerate(m.worlds)}
        self._succ: dict[Program, list[tuple[int, ...]]] = {}
        self._prof: dict[Formula, list[int]] = {}

    def relation(self, prog: Program) -> frozenset[tuple[str, str]]:
        """Induced relation of a program, as world-name pairs."""
        succ = self.successors(prog)
        names = self.m.worlds
        return frozenset((names[u], names[v]) for u in range(len(names)) for v in succ[u])

    def successors(self, prog: Program) -> list[tuple[int, ...]]:
        got = self._succ.get(prog)
        if got is not None:
            return got
        count = len(self.m.worlds)
        t = type(prog)
        if t is Atomic:
            sets: list[set[int]] = [set() for _ in range(count)]
            for u, v in self.m.relations.get(prog.name, frozenset()):
                sets[self.idx[u]].add(self.idx[v])
            succ = [tuple(sorted(s)) for s in sets]
        elif t is Test:
            col = self.profile(prog.formula)
            succ = [(w,) if col[w] == self.n else () for w in range(count)]
        elif t is Seq:
            first = self.successors(prog.left)
            second = self.successors(prog.right)
            succ = [tuple(sorted({x for v in first[w] for x in second[v]})) for w in range(count)]
        elif t is Union:
            left = self.successors(prog.left)
            right = self.successors(prog.right)
            succ = [tuple(sorted(set(left[w]) | set(right[w]))) for w in range(count)]
        elif t is Star:
            base = self.successors(prog.sub)
            succ = []
            for w in range(count):
                seen = {w}
                todo = [w]
                while todo:
                    u = todo.pop()
                    for v in base[u]:
                        if v not in seen:
                            seen.add(v)
                            todo.append(v)
                succ.append(tuple(sorted(seen)))
        else:
            raise TypeError(f"not a program: {prog!r}")
        self._succ[prog] = succ
        return succ

    def profile(self, f: Formula) -> list[int]:
        """Numerator of f at every world, in world order."""
        got = self._prof.get(f)
        if got is not None:
            return got
        n = self.n
        t = type(f)
        if t is Var:
            col = [self.m.atomic_value(w, f.name).num for w in self.m.worlds]
        elif t is Zero:
            col = [0] * len(self.m.worlds)
        elif t is Not:
            col = [n - x for x in self.profile(f.sub)]
        elif t is Implies:
            col = [min(n, n - x + y) for x, y in zip(self.profile(f.lhs), self.profile(f.rhs))]
        elif t is Box:
            body = self.profile(f.body)
            col = [min((body[v] for v in vs), default=n) for vs in self.successors(f.prog)]
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._prof[f] = col
        return col
