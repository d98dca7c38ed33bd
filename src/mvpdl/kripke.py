"""Finite (n+1)-valued Kripke models and many-valued model checking.

Worlds carry crisp accessibility relations per atomic program and exact
truth values per propositional variable.  The box takes the minimum of
the body over a program's successors, with the empty minimum equal to 1
so dead ends validate every box.

Evaluation computes whole value columns (one numerator per world)
bottom-up over shared subterms and caches them per model.  A box maps
its body column to a new column by the regular-program laws, so only
atomic successor and predecessor lists are ever built, lazily per
atomic program:

    [a]f      minimum of f over the a-successors (n at dead ends)
    [g?]f     f where g has value 1, and 1 elsewhere (tests are partial
              identities over fully true worlds: [q?]p <-> ~q^n | p)
    [a;b]f  = [a][b]f
    [a+b]f  = min([a]f, [b]f)
    [b*]f   = gfp X. min(f, [b]X)

Star over an atomic program or a union of atomic programs floods
backward: worlds are taken in ascending body value, and each one not yet
reached hands its value to every unreached world that reaches it through
unreached worlds.  The reached set stays closed under predecessors, so a
world is first reached from the lowest-valued world it can reach: the
minimum over its star successors, in O(W + E + n).  Any other star
iterates X -> min(f, [b]X) from X = f.  The map is monotone and the
first step cannot rise, so the iterates fall; every fixpoint lies below
each of them, and the value chain is finite, so they stop at the
greatest fixpoint.

Programs are walked with explicit stacks, so program depth is bounded by
memory rather than by the interpreter's recursion limit.  Models are
immutable after construction.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from .luk import TruthValue
from .syntax import (
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


class ModelError(ValueError):
    """Malformed model or evaluation against undeclared vocabulary."""


class KripkeModel:
    """Finite world set, atomic relations, and an exact atomic valuation.

    relations maps atomic program names to world-name pairs; valuation maps
    variable names to a per-world value (numerator int or TruthValue).  The
    valuation must be total on worlds x declared variables.  Atomic
    programs that were never declared denote the empty relation.
    """

    __slots__ = (
        "n",
        "worlds",
        "variables",
        "relations",
        "_widx",
        "_vcols",
        "_zeros",
        "_adj",
        "_prof",
    )

    def __init__(
        self,
        n: int,
        worlds: Sequence[str],
        relations: Mapping[str, Iterable[tuple[str, str]]],
        valuation: Mapping[str, Mapping[str, int | TruthValue]],
    ):
        if n < 1:
            raise ModelError("resolution must be >= 1")
        self.n = n
        self.worlds = tuple(worlds)
        if not self.worlds:
            raise ModelError("a model needs at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise ModelError("duplicate world names")
        self._widx = {w: i for i, w in enumerate(self.worlds)}
        rels = {}
        for atom, pairs in relations.items():
            out = set()
            for u, v in pairs:
                if u not in self._widx or v not in self._widx:
                    raise ModelError(f"relation {atom!r} uses undeclared world in ({u!r}, {v!r})")
                out.add((u, v))
            rels[atom] = frozenset(out)
        self.relations = rels
        self._vcols: dict[str, list[int]] = {}
        for var, per_world in valuation.items():
            col = []
            for w in self.worlds:
                if w not in per_world:
                    raise ModelError(f"valuation of {var!r} is missing world {w!r}")
                v = per_world[w]
                if isinstance(v, TruthValue):
                    if v.n != n:
                        raise ModelError(f"value {v} of {var!r} at {w!r} is not at /{n}")
                    v = v.num
                if not 0 <= v <= n:
                    raise ModelError(f"numerator {v} of {var!r} at {w!r} out of range 0..{n}")
                col.append(v)
            self._vcols[var] = col
        self.variables = tuple(sorted(self._vcols))
        self._zeros = [0] * len(self.worlds)
        self._adj: dict[tuple[str, bool], list[list[int]]] = {}
        self._prof: dict[Formula, list[int]] = {}

    # -- evaluation --

    def value(self, world: str, f: Formula) -> TruthValue:
        """Truth value of f at a world."""
        idx = self._widx.get(world)
        if idx is None:
            raise ModelError(f"undeclared world {world!r}")
        return TruthValue(self._profile(f)[idx], self.n)

    def value_profile(self, f: Formula) -> dict[str, TruthValue]:
        """Truth value of f at every world."""
        col = self._profile(f)
        return {w: TruthValue(col[i], self.n) for i, w in enumerate(self.worlds)}

    def satisfies(self, world: str, f: Formula) -> bool:
        """Whether f is true (value 1) at the world."""
        return self.value(world, f).num == self.n

    def globally_true(self, f: Formula) -> bool:
        """Whether f is true at every world."""
        n = self.n
        return all(x == n for x in self._profile(f))

    def falsifying_world(self, f: Formula) -> tuple[str, TruthValue] | None:
        """First world where f is not true, with its value there."""
        col = self._profile(f)
        for i, x in enumerate(col):
            if x != self.n:
                return self.worlds[i], TruthValue(x, self.n)
        return None

    def atomic_value(self, world: str, var: str) -> TruthValue:
        col = self._vcols.get(var)
        if col is None:
            raise ModelError(f"undeclared variable {var!r}")
        idx = self._widx.get(world)
        if idx is None:
            raise ModelError(f"undeclared world {world!r}")
        return TruthValue(col[idx], self.n)

    # -- internals --

    def _profile(self, f: Formula) -> list[int]:
        prof = self._prof
        got = prof.get(f)
        if got is not None:
            return got
        n = self.n
        stack: list[tuple[Formula, bool]] = [(f, False)]
        while stack:
            node, ready = stack.pop()
            if not ready:
                if node in prof:
                    continue
                t = type(node)
                if t is Var:
                    col = self._vcols.get(node.name)
                    if col is None:
                        raise ModelError(f"undeclared variable {node.name!r}")
                    prof[node] = col
                elif t is Zero:
                    prof[node] = self._zeros
                elif t is Not:
                    stack.append((node, True))
                    stack.append((node.sub, False))
                elif t is Implies:
                    stack.append((node, True))
                    stack.append((node.lhs, False))
                    stack.append((node.rhs, False))
                elif t is Box:
                    stack.append((node, True))
                    stack.append((node.body, False))
                    # test formulas inside the program are evaluated first
                    progs = [node.prog]
                    while progs:
                        p = progs.pop()
                        pt = type(p)
                        if pt is Test:
                            stack.append((p.formula, False))
                        elif pt is Seq or pt is Union:
                            progs.append(p.left)
                            progs.append(p.right)
                        elif pt is Star:
                            progs.append(p.sub)
                        elif pt is not Atomic:
                            raise ModelError(f"not a program: {p!r}")
                else:
                    raise ModelError(f"cannot evaluate {node!r}")
            else:
                t = type(node)
                if t is Not:
                    col = [n - x for x in prof[node.sub]]
                elif t is Implies:
                    a = prof[node.lhs]
                    b = prof[node.rhs]
                    col = [n if x <= y else n - x + y for x, y in zip(a, b)]
                else:  # Box
                    col = self._box(node.prog, prof[node.body])
                prof[node] = col
        return prof[f]

    def _box(self, prog: Program, body: list[int]) -> list[int]:
        """Column of [prog] over a body column; the columns of the
        program's test formulas are already in the profile cache."""
        n = self.n
        done: list[list[int]] = []  # columns of finished steps
        # steps: (_BOX, program, column) applies a box to a column;
        # (_THEN, program, None) applies it to the last finished column;
        # (_MIN, None, None) merges the last two; (_STEP, program, (f, X))
        # takes one top-down star iterate X -> min(f, [program]X).
        todo: list[tuple] = [(_BOX, prog, body)]
        while todo:
            op, p, arg = todo.pop()
            if op == _THEN:
                todo.append((_BOX, p, done.pop()))
            elif op == _MIN:
                right = done.pop()
                done.append([x if x < y else y for x, y in zip(done.pop(), right)])
            elif op == _STEP:
                f, x = arg
                y = [a if a < b else b for a, b in zip(f, done.pop())]
                if y == x:
                    done.append(x)
                else:
                    todo.append((_STEP, p, (f, y)))
                    todo.append((_BOX, p, y))
            elif type(p) is Atomic:
                done.append(self._atomic_box(p.name, arg))
            elif type(p) is Test:
                cond = self._prof[p.formula]
                done.append([x if c == n else n for x, c in zip(arg, cond)])
            elif type(p) is Seq:
                todo.append((_THEN, p.left, None))
                todo.append((_BOX, p.right, arg))
            elif type(p) is Union:
                todo.append((_MIN, None, None))
                todo.append((_BOX, p.right, arg))
                todo.append((_BOX, p.left, arg))
            else:  # Star
                atoms = _union_atoms(p.sub)
                if atoms is not None:
                    done.append(self._flood(atoms, arg))
                else:
                    todo.append((_STEP, p.sub, (arg, arg)))
                    todo.append((_BOX, p.sub, arg))
        return done.pop()

    def _atomic_box(self, name: str, body: list[int]) -> list[int]:
        n = self.n
        col = []
        for vs in self._adjacency(name, False):
            m = n
            for v in vs:
                bv = body[v]
                if bv < m:
                    m = bv
                    if m == 0:
                        break
            col.append(m)
        return col

    def _flood(self, atoms: set[str], body: list[int]) -> list[int]:
        """[(a1+...+ak)*] over a body column, by backward flooding from
        the worlds in ascending body value."""
        preds = [self._adjacency(a, True) for a in atoms]
        buckets: list[list[int]] = [[] for _ in range(self.n + 1)]
        for w, x in enumerate(body):
            buckets[x].append(w)
        col = [-1] * len(body)
        for x, seeds in enumerate(buckets):
            for s in seeds:
                if col[s] >= 0:
                    continue
                col[s] = x
                todo = [s]
                while todo:
                    v = todo.pop()
                    for pred in preds:
                        for u in pred[v]:
                            if col[u] < 0:
                                col[u] = x
                                todo.append(u)
        return col

    def _adjacency(self, name: str, backward: bool) -> list[list[int]]:
        """Successor (or predecessor) index lists of an atomic program."""
        key = (name, backward)
        got = self._adj.get(key)
        if got is not None:
            return got
        idx = self._widx
        lists: list[list[int]] = [[] for _ in self.worlds]
        for u, v in self.relations.get(name, ()):
            if backward:
                lists[idx[v]].append(idx[u])
            else:
                lists[idx[u]].append(idx[v])
        self._adj[key] = lists
        return lists


_BOX, _THEN, _MIN, _STEP = range(4)


def _union_atoms(prog: Program) -> set[str] | None:
    """Names of the atomic programs of a union of atomic programs, or
    None for any other shape."""
    names = set()
    todo = [prog]
    while todo:
        p = todo.pop()
        t = type(p)
        if t is Atomic:
            names.add(p.name)
        elif t is Union:
            todo.append(p.left)
            todo.append(p.right)
        else:
            return None
    return names


def random_model(
    seed: int,
    n: int,
    world_count: int,
    atom_names: Sequence[str] = ("a", "b"),
    var_names: Sequence[str] = ("p", "q"),
    edge_density: float = 0.3,
) -> KripkeModel:
    """Deterministic pseudo-random model: independent edges, uniform values."""
    if world_count < 1:
        raise ModelError("world_count must be >= 1")
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(world_count)]
    relations = {}
    for atom in atom_names:
        pairs = set()
        for u in worlds:
            for v in worlds:
                if rng.random() < edge_density:
                    pairs.add((u, v))
        relations[atom] = pairs
    valuation = {}
    for var in var_names:
        valuation[var] = {w: rng.randint(0, n) for w in worlds}
    return KripkeModel(n, worlds, relations, valuation)


def disjoint_union(models: Sequence[KripkeModel]) -> KripkeModel:
    """One model holding every input side by side, worlds renamed m<i>:<w>.

    No edges are added between parts, so values at a renamed world agree
    with the original model.  All parts must share the resolution and
    declare the same variables.
    """
    if not models:
        raise ModelError("need at least one model")
    n = models[0].n
    variables = set(models[0].variables)
    for m in models[1:]:
        if m.n != n:
            raise ModelError("mixed resolutions in union")
        if set(m.variables) != variables:
            raise ModelError("mixed variable sets in union")
    worlds = []
    relations: dict[str, set[tuple[str, str]]] = {}
    valuation: dict[str, dict[str, int]] = {v: {} for v in variables}
    for i, m in enumerate(models):
        rename = {w: f"m{i}:{w}" for w in m.worlds}
        worlds.extend(rename[w] for w in m.worlds)
        for atom, pairs in m.relations.items():
            relations.setdefault(atom, set()).update((rename[u], rename[v]) for u, v in pairs)
        for var in variables:
            for w in m.worlds:
                valuation[var][rename[w]] = m.atomic_value(w, var).num
    return KripkeModel(n, worlds, relations, valuation)


# --- model file format -----------------------------------------------------
#
#   # comment
#   n = 4
#   worlds: u v
#   rel a: u->v, u->u
#   val p: u=3/4 v=1/4
#
# Every declared variable must list every world, with denominators equal
# to the declared n.


def parse_model(text: str) -> KripkeModel:
    n = None
    worlds: list[str] = []
    relations: dict[str, set[tuple[str, str]]] = {}
    valuation: dict[str, dict[str, int]] = {}

    def err(lineno, msg):
        raise ModelError(f"line {lineno}: {msg}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n") and "=" in line and ":" not in line:
            head, _, tail = line.partition("=")
            if head.strip() != "n":
                err(lineno, f"unrecognized line {line!r}")
            try:
                n = int(tail.strip())
            except ValueError:
                err(lineno, f"bad resolution {tail.strip()!r}")
            continue
        if line.startswith("worlds:"):
            worlds.extend(line[len("worlds:") :].split())
            continue
        if line.startswith("rel "):
            head, sep, tail = line[4:].partition(":")
            if not sep:
                err(lineno, "missing ':' in rel line")
            atom = head.strip()
            pairs = relations.setdefault(atom, set())
            tail = tail.strip()
            if tail:
                for chunk in tail.split(","):
                    u, sep2, v = chunk.partition("->")
                    if not sep2:
                        err(lineno, f"bad edge {chunk.strip()!r}, expected u->v")
                    pairs.add((u.strip(), v.strip()))
            continue
        if line.startswith("val "):
            head, sep, tail = line[4:].partition(":")
            if not sep:
                err(lineno, "missing ':' in val line")
            var = head.strip()
            entries = valuation.setdefault(var, {})
            for chunk in tail.split():
                w, sep2, frac = chunk.partition("=")
                if not sep2:
                    err(lineno, f"bad entry {chunk!r}, expected world=i/n")
                num, sep3, den = frac.partition("/")
                if not sep3:
                    err(lineno, f"bad fraction {frac!r}")
                try:
                    num_i, den_i = int(num), int(den)
                except ValueError:
                    err(lineno, f"bad fraction {frac!r}")
                if n is not None and den_i != n:
                    err(lineno, f"denominator {den_i} does not match n = {n}")
                entries[w.strip()] = (num_i, den_i, lineno)
            continue
        err(lineno, f"unrecognized line {line!r}")
    if n is None:
        raise ModelError("missing 'n = <int>' line")
    cleaned: dict[str, dict[str, int]] = {}
    for var, entries in valuation.items():
        cleaned[var] = {}
        for w, (num_i, den_i, lineno) in entries.items():
            if den_i != n:
                err(lineno, f"denominator {den_i} does not match n = {n}")
            cleaned[var][w] = num_i
    return KripkeModel(n, worlds, relations, cleaned)


def format_model(m: KripkeModel, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"n = {m.n}")
    lines.append("worlds: " + " ".join(m.worlds))
    order = {w: i for i, w in enumerate(m.worlds)}
    for atom in sorted(m.relations):
        pairs = sorted(m.relations[atom], key=lambda uv: (order[uv[0]], order[uv[1]]))
        body = ", ".join(f"{u}->{v}" for u, v in pairs)
        lines.append(f"rel {atom}: {body}")
    for var in m.variables:
        body = " ".join(f"{w}={m.atomic_value(w, var)}" for w in m.worlds)
        lines.append(f"val {var}: {body}")
    return "\n".join(lines) + "\n"


def load_model(path) -> KripkeModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
