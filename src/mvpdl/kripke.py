"""Finite (n+1)-valued Kripke models and many-valued model checking.

Worlds carry crisp accessibility relations per atomic program and exact
truth values per propositional variable.  The box takes the minimum of
the body over a program's successors, with the empty minimum equal to 1
so dead ends validate every box.

A model stores its edges once, as successor index lists per declared
atomic program, built while the world names are checked; predecessor
lists are built from them on first use, and the world-name pairs of
`relations` only when something reads that attribute.

Evaluation computes whole value columns, one per step of `syntax.plan`
and each from the columns the step reads, and caches them per model; the
plan leaves out what the cache holds.  A column is one int of
`luk.Lanes`: the numerator at world i sits in lane i, of the fewest whole
bytes that hold n below a guard bit, so the connectives and the MIN and
TEST steps are a few integer operations on every world at once.  A box
takes its column from the columns of the closure members its law reads
(`syntax.laws`), so only the atomic index lists are ever read:

    [a]f      ATOM  minimum of f over the a-successors (n at dead ends)
    [a;b]f    MIN   the column of [a][b]f
    [a+b]f    MIN   the pointwise minimum of [a]f and [b]f
    [g?]f     TEST  f where g has value 1, and 1 elsewhere (tests are
                    partial identities over fully true worlds)
    [b*]f     STAR  one flood over the states of its automaton

A minimum over successor lists is no lane operation, so atomic boxes and
star floods unpack the columns they read into lists of numerators and
pack the columns they compute.

A star box g = [b*]f is read through its automaton,
`syntax.star_states`, which its plan step carries (the step reads f and
the tests' formulas): states s (g and closure members [b'][b*]f) whose
edges take one atomic step, or a test that stays at worlds where its
formula has value 1, or accept.  The value of state s at world w is the
minimum of f over the worlds where some path from (w, s) through worlds
x states accepts; with no such world it is 1.  The flood computes that
for every state at once, backward over worlds x states: accepting pairs
are taken in ascending f value, and each one not yet reached hands its
value to every unreached pair that reaches it through unreached pairs.
The reached set stays closed under predecessors, so a pair is first
reached from the lowest-valued accepting pair it can reach, which is its
value; each pair and each edge between pairs is handled once, in
O((W + E) * states) after sorting the W worlds by f value, for E atomic
edges and any n.  The columns of the other states are cached too, and a
later step for one of them is skipped.

The plan keeps an explicit stack, so depth is bounded by memory rather
than by the interpreter's recursion limit.  Models are immutable after
construction.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from .luk import Lanes, TruthValue
from .syntax import ATOM, FALSUM, IMP, MIN, NOT, STAR, TEST, VAR, Formula, plan


class ModelError(ValueError):
    """Malformed model or evaluation against undeclared vocabulary."""


class KripkeModel:
    """Finite world set, atomic relations, and an exact atomic valuation.

    relations maps atomic program names to world-name pairs (a pair given
    twice counts once); valuation maps variable names to a per-world value
    (numerator int or TruthValue).  The valuation must be total on worlds
    x declared variables and name no other world.  Atomic programs that
    were never declared denote the empty relation.
    """

    __slots__ = (
        "n",
        "worlds",
        "variables",
        "_widx",
        "_succ",
        "_pred",
        "_view",
        "_vcols",
        "_lanes",
        "_tvs",
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
        widx = self._widx = {w: i for i, w in enumerate(self.worlds)}
        self._succ: dict[str, list[list[int]]] = {}
        for atom, pairs in relations.items():
            lists: list[list[int]] = [[] for _ in self.worlds]
            for u, v in pairs:
                try:
                    lists[widx[u]].append(widx[v])
                except KeyError:
                    raise ModelError(f"relation {atom!r} uses undeclared world in ({u!r}, {v!r})") from None
            self._succ[atom] = lists
        self._pred: dict[str, list[list[int]]] = {}
        self._view: dict[str, frozenset[tuple[str, str]]] | None = None
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
                elif type(v) is not int:  # a bool or a float would print as True/2 or 0.5/2
                    raise ModelError(f"numerator {v!r} of {var!r} at {w!r} is not an integer")
                if not 0 <= v <= n:
                    raise ModelError(f"numerator {v} of {var!r} at {w!r} out of range 0..{n}")
                col.append(v)
            if len(per_world) != len(col):
                extra = next(w for w in per_world if w not in widx)
                raise ModelError(f"valuation of {var!r} uses undeclared world {extra!r}")
            self._vcols[var] = col
        self.variables = tuple(sorted(self._vcols))
        self._lanes = Lanes(n, len(self.worlds))
        self._tvs: dict[int, TruthValue] = {}
        self._prof: dict[Formula, int] = {}

    @property
    def relations(self) -> dict[str, frozenset[tuple[str, str]]]:
        """Each declared atomic program's edges as a frozenset of
        world-name pairs, built from the index lists on first read."""
        view = self._view
        if view is None:
            ws = self.worlds
            view = self._view = {
                atom: frozenset((ws[u], ws[v]) for u, vs in enumerate(lists) for v in vs)
                for atom, lists in self._succ.items()
            }
        return view

    # -- evaluation --

    def value(self, world: str, f: Formula) -> TruthValue:
        """Truth value of f at a world."""
        idx = self._widx.get(world)
        if idx is None:
            raise ModelError(f"undeclared world {world!r}")
        return TruthValue(self._lanes.lane(self._profile(f), idx), self.n)

    def value_profile(self, f: Formula) -> dict[str, TruthValue]:
        """Truth value of f at every world."""
        col = self._column(f)
        tvs = self._tvs  # one shared TruthValue per numerator
        for x in set(col).difference(tvs):
            tvs[x] = TruthValue(x, self.n)
        return dict(zip(self.worlds, map(tvs.__getitem__, col)))

    def satisfies(self, world: str, f: Formula) -> bool:
        """Whether f is true (value 1) at the world."""
        return self.value(world, f).num == self.n

    def globally_true(self, f: Formula) -> bool:
        """Whether f is true at every world."""
        return self._profile(f) == self._lanes.top

    def falsifying_world(self, f: Formula) -> tuple[str, TruthValue] | None:
        """First world where f is not true, with its value there."""
        col = self._profile(f)
        i = self._lanes.first_below_top(col)
        if i is None:
            return None
        return self.worlds[i], TruthValue(self._lanes.lane(col, i), self.n)

    def atomic_value(self, world: str, var: str) -> TruthValue:
        col = self._vcols.get(var)
        if col is None:
            raise ModelError(f"undeclared variable {var!r}")
        idx = self._widx.get(world)
        if idx is None:
            raise ModelError(f"undeclared world {world!r}")
        return TruthValue(col[idx], self.n)

    # -- internals --

    def _column(self, f: Formula) -> list[int]:
        """Numerator of f at every world, in world order."""
        return self._lanes.unpack(self._profile(f))

    def _profile(self, f: Formula) -> int:
        prof = self._prof
        got = prof.get(f)
        if got is not None:
            return got
        lanes = self._lanes
        try:
            for g, op, reads, auto in plan((f,), prof):
                if op is IMP:
                    col = lanes.imp(prof[reads[0]], prof[reads[1]])
                elif op is NOT:
                    col = lanes.top - prof[reads[0]]
                elif op is VAR:
                    col = self._vcols.get(g.name)
                    if col is None:
                        raise ModelError(f"undeclared variable {g.name!r}")
                    col = lanes.pack(col)
                elif g in prof:  # a box a star flood cached after the plan entered it
                    continue
                elif op is ATOM:
                    col = self._atomic_box(g.prog.name, prof[reads[0]])
                elif op is MIN:
                    col = prof[reads[0]]
                    if len(reads) == 2:
                        col = lanes.meet(col, prof[reads[1]])
                elif op is TEST:
                    col = lanes.test(prof[reads[0]], prof[reads[1]])
                elif op is STAR:
                    col = self._star(g, auto)
                elif op is FALSUM:
                    col = 0
                else:
                    raise ModelError(f"cannot evaluate {g!r}")
                prof[g] = col
        except TypeError as e:  # from `laws` in the plan: a box over something else
            raise ModelError(str(e)) from None
        return prof[f]

    def _atomic_box(self, name: str, packed: int) -> int:
        n = self.n
        body = self._lanes.unpack(packed)
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
        return self._lanes.pack(col)

    def _star(self, g: Formula, auto: dict) -> int:
        """Column of star box g from one backward flood over worlds x the
        states of its automaton `auto` (`star_states`); the columns of the
        other states are cached too."""
        n, prof, lanes = self.n, self._prof, self._lanes
        body = lanes.unpack(prof[g.body])
        index = {state: i for i, state in enumerate(auto)}
        cols = [[n] * len(body) for _ in auto]  # n until reached below n
        accepting = []
        into: list[list[tuple[int, list[list[int]]]]] = [[] for _ in auto]  # per target state
        for i, edges in enumerate(auto.values()):
            for name, gate, target in edges:
                if target is None:
                    accepting.append(i)
                elif name is None:  # a test: the worlds where the gate is 1, staying
                    gated = [[w] if x == n else [] for w, x in enumerate(lanes.unpack(prof[gate]))]
                    into[index[target]].append((i, gated))
                else:
                    into[index[target]].append((i, self._adjacency(name, True)))
        # accepting pairs in ascending value; ties in any order, as a pair's
        # value is the lowest one it reaches whichever is taken first
        for w in sorted((w for w, x in enumerate(body) if x < n), key=body.__getitem__):
            x = body[w]
            for i in accepting:
                col = cols[i]
                if col[w] < n:
                    continue
                col[w] = x
                todo = [(w, i)]
                while todo:
                    v, t = todo.pop()
                    for s, preds in into[t]:
                        c = cols[s]
                        for u in preds[v]:
                            if c[u] == n:
                                c[u] = x
                                todo.append((u, s))
        prof.update(zip(auto, map(lanes.pack, cols)))
        return prof[g]

    def _adjacency(self, name: str, backward: bool) -> Sequence[Sequence[int]]:
        """Successor (or predecessor) index lists of an atomic program;
        predecessor lists are built from the successor lists on first use."""
        succ = self._succ.get(name)
        if succ is None:  # undeclared: the empty relation
            return ((),) * len(self.worlds)
        if not backward:
            return succ
        pred = self._pred.get(name)
        if pred is None:
            pred = [[] for _ in succ]
            for u, vs in enumerate(succ):
                for v in vs:
                    pred[v].append(u)
            self._pred[name] = pred
        return pred


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
    if not 0 <= edge_density <= 1:  # NaN too
        raise ModelError(f"edge density must be in [0, 1], got {edge_density}")
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(world_count)]
    relations = {}
    for atom in atom_names:
        relations[atom] = [(u, v) for u in worlds for v in worlds if rng.random() < edge_density]
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
    worlds: list[str] = []
    relations: dict[str, list[tuple[str, str]]] = {}
    valuation: dict[str, dict[str, int]] = {v: {} for v in variables}
    for i, m in enumerate(models):
        names = [f"m{i}:{w}" for w in m.worlds]
        worlds.extend(names)
        for atom, lists in m._succ.items():
            relations.setdefault(atom, []).extend((names[u], names[v]) for u, vs in enumerate(lists) for v in vs)
        for var in variables:
            valuation[var].update(zip(names, m._vcols[var]))
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
    # sources and targets in two lists: no tuple per edge is kept, so a
    # large file does not set off the cycle collector again and again
    relations: dict[str, tuple[list[str], list[str]]] = {}
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
            us, vs = relations.setdefault(atom, ([], []))
            tail = tail.strip()
            if tail:
                for chunk in tail.split(","):
                    u, sep2, v = chunk.partition("->")
                    if not sep2:
                        err(lineno, f"bad edge {chunk.strip()!r}, expected u->v")
                    us.append(u.strip())
                    vs.append(v.strip())
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
                if w in entries:
                    err(lineno, f"world {w!r} given twice for {var!r}")
                entries[w] = (num_i, den_i, lineno)
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
    return KripkeModel(n, worlds, {atom: zip(us, vs) for atom, (us, vs) in relations.items()}, cleaned)


def format_model(m: KripkeModel, comments: Sequence[str] = ()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"n = {m.n}")
    lines.append("worlds: " + " ".join(m.worlds))
    ws = m.worlds
    for atom, lists in sorted(m._succ.items()):
        body = ", ".join(f"{ws[u]}->{ws[v]}" for u, vs in enumerate(lists) for v in sorted(set(vs)))
        lines.append(f"rel {atom}: {body}")
    for var in m.variables:
        body = " ".join(f"{w}={x}/{m.n}" for w, x in zip(ws, m._vcols[var]))
        lines.append(f"val {var}: {body}")
    return "\n".join(lines) + "\n"


def load_model(path) -> KripkeModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
