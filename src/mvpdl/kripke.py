"""Finite (n+1)-valued Kripke models and many-valued model checking.

Worlds carry crisp accessibility relations per atomic program and exact
truth values per propositional variable.  The box takes the minimum of
the body over a program's successors, with the empty minimum equal to 1
so dead ends validate every box.

A model stores its edges once, as successor index lists per declared
atomic program, built while the world names are checked or, from the
package's own producers, taken as they are (`KripkeModel._indexed`);
predecessor lists are built from them on first use, and the world-name
pairs of `relations` only when something reads that attribute.

Evaluation computes whole value columns, one per step of `syntax.plan`
and each from the columns the step reads, and caches them per model; the
plan leaves out what the cache holds.  The steps run in `luk.Lanes.run`,
the loop the truth table runs too; the model gives it the columns of
its variables and its atomic box and star kernels.  A column is one int of
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
    [b*]f     STAR  rounds of atomic boxes, or one flood, over the
                    states of its automaton

An atomic box has one of two kernels, chosen per program when the model
is set up, by the world count, the relation's shape and the lane width
alone; no option selects it.  Where the model has from _LAYER_FLOOR (16)
to _LAYER_CAP (4,096) worlds, every world has at most two successors and
a lane is one byte (n <= 127), as in the question relations of `ulam`'s
game models, the model keeps two successor layers beside the lists: the
low bytes of each world's first and second successor index and, per
256-lane table of the body that a successor lies in, a byte-lane mask of
the worlds whose successor lies there.  The box then cuts the body's
bytes into 256-byte tables and, per table, maps the low bytes of both
layers through it with one `bytes.translate`, keeps the masked lanes and
ORs them together, starting from n in the lanes of missing successors;
one `Lanes.meet` of the two layers ends it, in C with no Python step per
world.  The rule reads the out-degree because each successor slot is one
layer over every world, the lane width because a table maps single
bytes, and the world count because below the floor the layers cost more
to build than their boxes save (`sat`'s witness models, of a few worlds,
are checked once) and because each table costs a pass over every world,
so that above the cap the box gains less and less over the loop while
the layers still cost their build.  Every other relation (out-degree 3
or more, wider lanes, fewer or more worlds, or an undeclared program)
unpacks the body into numerators and takes each world's minimum in a
loop that stops at 0.  Star floods unpack the columns they read in the
same way and pack the columns they compute.

A star box g = [b*]f is read through its automaton,
`syntax.star_states`, which its plan step carries (the step reads f and
the tests' formulas): states s (g and closure members [b'][b*]f) whose
edges take one atomic step, or a test that stays at worlds where its
formula has value 1, or accept.  The value of state s at world w is the
minimum of f over the worlds where some path from (w, s) through worlds
x states accepts; with no such world it is 1.  These columns are the
greatest fixpoint of X_s = the meet over s's edges of f (acceptance) and
[a]X_t (a step of a into t) (Kozen 1983).  Where every edge accepts or
steps along a program with successor layers (`_iterates`), the columns
are computed by rounds from f at accepting states and 1 at the others,
each round updating every state from its edges, a layered box and a meet
per edge, in C with no per-world Python and no predecessor lists,
until a round changes no column.  A round moves values at least one
step, so the rounds needed grow with how far each world's minimum lies:
the two-question stars [(Q+Q')*]p of the game models at m = 4..6 settle
in 2 or 3.  After _STAR_ROUNDS rounds per state the rounds give up and
the flood runs, so such a star costs at most about one flood more.
Every other star (a test on an edge, an undeclared program, a relation
without layers) takes the flood.  Either way the columns of every state
are cached, and a later step for one of them is skipped.

The flood computes the columns for every state at once, backward over
worlds x states: accepting pairs are taken in ascending f value, and
each one not yet reached hands its value to every unreached pair that
reaches it through unreached pairs.  The reached set stays closed under
predecessors, so a pair is first reached from the lowest-valued
accepting pair it can reach, which is its value; each pair and each edge
between pairs is handled once, in O((W + E) * states) after sorting the
W worlds by f value, for E atomic edges and any n.

The plan keeps an explicit stack, so depth is bounded by memory rather
than by the interpreter's recursion limit.  Models are immutable after
construction.
"""

from __future__ import annotations

import random
import struct
from itertools import zip_longest
from typing import Iterable, Mapping, Sequence

from .luk import Lanes, TruthValue
from .parser import ParseError, is_identifier, parse_formula, parse_program
from .syntax import ATOM, STAR, VAR, Atomic, Formula, Step, Var, plan


# Rounds per automaton state that a star's column iteration may take
# before the flood takes over.  One round of the game's two-question star
# [(Q{x}+Q{y})*]p at 729 worlds (two layered boxes of about 12 us and two
# meets) takes about 30 us, against 0.5-0.9 ms for the flood with the two
# predecessor lists it builds, so 8 rounds cost about half a flood: a star
# that falls back costs about 1.5 times what the flood alone does ([a*]p on
# a 729-world a-cycle: 0.25-0.38 ms by the flood, 0.37-0.41 ms by 8 rounds
# and the flood).  The game's two-question stars settle in 2 or 3 rounds.
_STAR_ROUNDS = 8

# Fewest worlds for which a model keeps successor layers.  On random
# out-degree 0-2 models at n = 2, a box by the layers saves about 0.1-1.0 us
# below 16 worlds (0.6-1.3 against 0.9-2.4 us by the loop at 2-14
# worlds), while the layers of two programs add 7-12 us (100-190 %) to
# building the model; `sat`'s witness models, of a few worlds, are built
# to be checked once.
_LAYER_FLOOR = 16

# Most worlds for which a model keeps successor layers, 16 tables of 256
# lanes.  A layered box makes one pass over every world per table, so its
# cost grows with the square of the world count: on random out-degree 0-2
# models at n = 2 a box took 84-95 against 233-249 us by the loop at 2,048
# worlds, 227-228 against 443-453 us at 4,096, 502-511 against 662-675 us
# at 6,144 and 883-923 against 924-941 us at 8,192, while the layers of
# two programs add 1.4-1.6 ms to building a 4,096-world model and 2.8 ms
# at 6,144 (`BENCH_translate_gather.json`).  At the cap a box is twice as
# fast as the loop and the layers pay for themselves within four boxes.
# The layers' 2-byte successor indices also need the cap below 65,280.
_LAYER_CAP = 4096


class ModelError(ValueError):
    """Malformed model or evaluation against undeclared vocabulary."""


def _world_index(worlds: Iterable[str]) -> tuple[tuple[str, ...], dict[str, int]]:
    """The world names as a tuple and each name's index in it."""
    worlds = tuple(worlds)
    if not worlds:
        raise ModelError("a model needs at least one world")
    widx = {w: i for i, w in enumerate(worlds)}
    if len(widx) != len(worlds):
        raise ModelError("duplicate world names")
    return worlds, widx


_ENDS_NAME = {"world": (",", "->", "#", "="), "program": ("#", ":"), "variable": ()}


def _parses_back(name: str, kind: str) -> bool:
    """Whether a world ("world"), program ("program") or variable
    ("variable") name reads back from a model file as itself: one word with
    nothing that would end it in its line (a world name sits in rel chunks
    and val entries, and a program name, whose braces may hold any text,
    before a line's ':'), and a program or variable name parses back as
    that atomic program or variable."""
    if kind != "world" and is_identifier(name):  # most names, without the parser
        return True
    if name.split() != [name] or any(b in name for b in _ENDS_NAME[kind]):
        return False
    if kind == "world":
        return True
    parse, node = (parse_program, Atomic) if kind == "program" else (parse_formula, Var)
    try:
        return parse(name) == node(name)
    except ParseError:
        return False


# Successor layers of a relation in a model of _LAYER_FLOOR to _LAYER_CAP
# worlds: the low bytes of the first successors of every world, then of
# the second ones; per 256-lane table of the body that some successor
# lies in, the table's first lane and a mask of 0xFF in the byte lanes
# whose successor lies in it; and n in the lanes of missing successors.
_Tables = tuple[bytes, tuple[tuple[int, int], ...], int]

_MISSING = 0xFF00  # a successor slot left empty: high byte 255, in no table


def _tables(lists: list[list[int]], n: int) -> _Tables:
    """The layers of successor lists of at most two entries.  The
    successor indices are written as 2-byte little-endian words, whose
    low and high bytes are every other byte on any machine, and each
    table's mask is a translate of the high bytes; no Python step runs
    per world."""
    count = len(lists)
    first, second = zip_longest(*lists, (_MISSING,) * 2, fillvalue=_MISSING)  # two layers at least
    words = struct.pack(f"<{2 * count}H", *first[:count], *second[:count])
    low, high = words[0::2], words[1::2]
    tables = []
    for t in range((count + 255) // 256):
        mask = int.from_bytes(high.translate(bytes(t) + b"\xff" + bytes(255 - t)), "little")
        if mask:  # a table no successor lies in is left out
            tables.append((256 * t, mask))
    fill = int.from_bytes(high.translate(bytes(255) + bytes((n,))), "little")
    return low, tuple(tables), fill


class KripkeModel:
    """Finite world set, atomic relations, and an exact atomic valuation.

    relations maps atomic program names to world-name pairs (a pair given
    twice counts once); valuation maps variable names to a per-world value
    (numerator int or TruthValue).  The valuation must be total on worlds
    x declared variables and name no other world.  Atomic programs that
    were never declared denote the empty relation.

    This constructor is the validated API.  The package's own producers
    (`ulam.build_game_model`, `sat`'s witnesses, `filtration.filter_model`'s
    quotients) already hold successor index lists and numerator columns,
    and build through `_indexed`, which checks only the world names;
    `parse_model`, which checks its file as it reads it, ends in `_setup`.
    """

    __slots__ = (
        "n",
        "worlds",
        "variables",
        "_widx",
        "_succ",
        "_layers",
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
        worlds, widx = _world_index(worlds)
        succ: dict[str, list[list[int]]] = {}
        for atom, pairs in relations.items():
            lists: list[list[int]] = [[] for _ in worlds]
            for u, v in pairs:
                try:
                    lists[widx[u]].append(widx[v])
                except KeyError:
                    raise ModelError(f"relation {atom!r} uses undeclared world in ({u!r}, {v!r})") from None
            succ[atom] = lists
        vcols: dict[str, list[int]] = {}
        for var, per_world in valuation.items():
            col = []
            for w in worlds:
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
            vcols[var] = col
        self._setup(n, worlds, widx, succ, vcols)

    @classmethod
    def _indexed(
        cls, n: int, worlds: Sequence[str], succ: dict[str, list[list[int]]], vcols: dict[str, list[int]]
    ) -> KripkeModel:
        """A model from index-level parts that its caller built correctly:
        successor index lists per atomic program, one per world and each
        without repeats (successor layers read their lengths), and a
        numerator column per variable in 0..n, in world order.  Only the
        world names are checked (`_world_index`); the lists and columns
        are kept as they are, not copied."""
        model = cls.__new__(cls)
        model._setup(n, *_world_index(worlds), succ, vcols)
        return model

    def _setup(
        self,
        n: int,
        worlds: tuple[str, ...],
        widx: dict[str, int],
        succ: dict[str, list[list[int]]],
        vcols: dict[str, list[int]],
    ) -> None:
        """Set every field from checked index-level parts: successor index
        lists per atomic program and a numerator column per variable.  The
        constructor, `_indexed` and `parse_model` all end here."""
        self.n = n
        self.worlds = worlds
        self._widx = widx
        self._succ = succ
        self._pred: dict[str, list[list[int]]] = {}
        self._lanes = Lanes(n, len(worlds))
        self._layers: dict[str, _Tables] = {}
        if self._lanes.width == 8 and _LAYER_FLOOR <= len(worlds) <= _LAYER_CAP:
            for atom, lists in succ.items():
                if max(map(len, lists)) <= 2:
                    self._layers[atom] = _tables(lists, n)
        self._view: dict[str, frozenset[tuple[str, str]]] | None = None
        self._vcols = vcols
        self.variables = tuple(sorted(vcols))
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
        try:
            self._lanes.run(plan((f,), prof), prof, self._leaf)
        except TypeError as e:  # from `laws` in the plan: a box over something else
            raise ModelError(str(e)) from None
        return prof[f]

    def _leaf(self, step: Step) -> int:
        """The column of a variable, atomic box or star box step."""
        g, op, reads, auto = step
        if op is ATOM:
            return self._atomic_box(g.prog.name, self._prof[reads[0]])
        if op is STAR:
            return self._star(g, auto)
        if op is VAR:
            col = self._vcols.get(g.name)
            if col is None:
                raise ModelError(f"undeclared variable {g.name!r}")
            return self._lanes.pack(col)
        raise ModelError(f"cannot evaluate {g!r}")

    def _atomic_box(self, name: str, packed: int) -> int:
        n, lanes = self.n, self._lanes
        layers = self._layers.get(name)
        if layers is not None:  # per 256-lane table of the body, one translate of both layers
            low, tables, col = layers  # col starts at n in the slots of missing successors
            raw = packed.to_bytes(lanes.count + 255, "little")  # every table a full 256 bytes
            for start, mask in tables:
                col |= int.from_bytes(low.translate(raw[start : start + 256]), "little") & mask
            width = 8 * lanes.count
            return lanes.meet(col & ((1 << width) - 1), col >> width)
        body = lanes.unpack(packed)
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
        return lanes.pack(col)

    def _star(self, g: Formula, auto: dict) -> int:
        """Column of star box g; the columns of every state of its
        automaton `auto` (`star_states`) are cached.  Where `_iterates`
        holds they come from `_star_rounds`, each round O(W) in C per edge
        and at most _STAR_ROUNDS rounds per state before the flood runs
        instead; otherwise from the flood, O((W + E) * states) in Python."""
        f = self._prof[g.body]
        self._prof.update(zip(auto, self._star_rounds(auto, f) if self._iterates(auto) else self._flood(auto, f)))
        return self._prof[g]

    def _iterates(self, auto: dict) -> bool:
        """Whether every edge of a star automaton accepts or takes one step
        of a program with successor layers (no test, no undeclared
        program)."""
        return all(target is None or name in self._layers for edges in auto.values() for name, _, target in edges)

    def _star_rounds(self, auto: dict, f: int) -> list[int]:
        """Every state's column as the greatest fixpoint of X_s = the meet
        over s's edges of f (acceptance) and [a]X_t (a step into t), by
        rounds from f at accepting states and top at the others; by the
        flood if a round still changes a column after _STAR_ROUNDS rounds
        per state.  A round updates the states in turn, each edge from the
        columns so far, which only fall, so X_s stays at or below f where s
        accepts."""
        meet = self._lanes.meet
        cols = {s: f if (None, None, None) in edges else self._lanes.top for s, edges in auto.items()}
        for _ in range(_STAR_ROUNDS * len(auto)):
            settled = True
            for s, edges in auto.items():
                col = cols[s]
                for name, _, t in edges:
                    if t is not None:
                        cols[s] = meet(cols[s], self._atomic_box(name, cols[t]))
                settled = settled and cols[s] == col
            if settled:
                return list(cols.values())
        return self._flood(auto, f)

    def _flood(self, auto: dict, f: int) -> list[int]:
        """Every state's column from one backward flood over worlds x the
        states of the automaton."""
        n, prof, lanes = self.n, self._prof, self._lanes
        body = lanes.unpack(f)
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
        return list(map(lanes.pack, cols))

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
#   worlds: u v w
#   rel a: u->v w, w->w
#   val p: u=3/4 v=1/4 w=0/4
#
# A rel chunk names one source world and one or more targets; the
# one-target chunk u->v is the same grammar.  rel lines come after the
# worlds line, so each chunk goes straight into successor index lists.
# Every declared variable must list every world, with denominators equal
# to the declared n.  Each distinct value text (`3/4`) is converted once
# per file: it enters a table from text to numerator the first time it
# passes the checks, and every later entry reads it from there.  The
# table holds only texts the file uses, so nothing in a load depends on n.


def parse_model(text: str) -> KripkeModel:
    n = None
    names: list[str] = []
    widx: dict[str, int] | None = None  # fixed by the first rel line
    succ: dict[str, list[list[int]]] = {}
    vals: list[tuple[int, str, str]] = []  # val lines, read once n is known
    var_names: set[str] = set()

    def err(lineno, msg):
        raise ModelError(f"line {lineno}: {msg}") from None

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
            if n < 1:
                err(lineno, "resolution must be >= 1")
            continue
        if line.startswith("worlds:"):
            if widx is not None:
                err(lineno, "worlds line after a rel line")
            words = line[len("worlds:") :].split()
            if any(b in line for b in _ENDS_NAME["world"]):  # rare: find the name at fault
                bad = next(w for w in words if not _parses_back(w, "world"))
                err(lineno, f"world name {bad!r} does not parse back as itself")
            names.extend(words)
            continue
        if line.startswith("rel "):
            head, sep, tail = line[4:].partition(":")
            if not sep:
                err(lineno, "missing ':' in rel line")
            atom = head.strip()
            lists = succ.get(atom)
            if lists is None:  # the atom's first rel line
                if not _parses_back(atom, "program"):
                    err(lineno, f"program name {atom!r} does not parse back as itself")
                if widx is None:
                    if not names:
                        err(lineno, "rel line before any world is declared")
                    worlds, widx = _world_index(names)
                lists = succ[atom] = [[] for _ in worlds]
            tail = tail.strip()
            if tail:
                for chunk in tail.split(","):
                    u, _, vs = chunk.partition("->")
                    u, vs = u.strip(), vs.split()  # no targets without the arrow
                    if not (u and vs):
                        err(lineno, f"bad edge {chunk.strip()!r}, expected u->v")
                    try:
                        row = lists[widx[u]]
                        for v in vs:
                            row.append(widx[v])
                    except KeyError as e:
                        err(lineno, f"relation {atom!r} uses undeclared world {e.args[0]!r}")
                    if len(vs) > 1 and len(set(vs)) < len(vs):
                        err(lineno, f"repeated target in {chunk.strip()!r}")
            continue
        if line.startswith("val "):
            head, sep, tail = line[4:].partition(":")
            if not sep:
                err(lineno, "missing ':' in val line")
            var = head.strip()
            if var not in var_names:  # the variable's first val line
                if not _parses_back(var, "variable"):
                    err(lineno, f"variable name {var!r} does not parse back as itself")
                var_names.add(var)
            vals.append((lineno, var, tail))
            continue
        err(lineno, f"unrecognized line {line!r}")
    if n is None:
        raise ModelError("missing 'n = <int>' line")
    if widx is None:
        worlds, widx = _world_index(names)
    vcols: dict[str, list[int]] = {}
    strays: dict[str, tuple[int, str]] = {}  # a variable's first undeclared world, reported last
    nums: dict[str, int] = {}  # value texts that passed the checks, to their numerators
    for lineno, var, tail in vals:
        col = vcols.get(var)
        if col is None:
            col = vcols[var] = [-1] * len(worlds)
        for chunk in tail.split():
            w, sep, frac = chunk.partition("=")
            x = nums.get(frac)
            if x is None:  # "" (no '=') fails the fraction check, so never enters
                if not sep:
                    err(lineno, f"bad entry {chunk!r}, expected world=i/n")
                num, _, den = frac.partition("/")
                try:
                    x, den_i = int(num), int(den)
                except ValueError:
                    err(lineno, f"bad fraction {frac!r}")
                if den_i != n:
                    err(lineno, f"denominator {den_i} does not match n = {n}")
                if not 0 <= x <= n:
                    err(lineno, f"numerator {x} of {var!r} at {w!r} out of range 0..{n}")
                nums[frac] = x
            i = widx.get(w)
            if i is None:
                strays.setdefault(var, (lineno, w))
            elif col[i] >= 0:
                err(lineno, f"world {w!r} given twice for {var!r}")
            else:
                col[i] = x
    for var, col in vcols.items():
        if -1 in col:
            raise ModelError(f"valuation of {var!r} is missing world {worlds[col.index(-1)]!r}")
        if var in strays:
            err(strays[var][0], f"valuation of {var!r} uses undeclared world {strays[var][1]!r}")
    model = KripkeModel.__new__(KripkeModel)
    model._setup(n, worlds, widx, succ, vcols)
    return model


def format_model(m: KripkeModel, comments: Sequence[str] = ()) -> str:
    """Model file text: one rel chunk per world with successors, its
    targets in world order.  A model with a name that the file would not
    read back as itself is refused."""
    for kind, names in (("world", m.worlds), ("program", sorted(m._succ)), ("variable", m.variables)):
        for name in names:
            if not _parses_back(name, kind):
                raise ModelError(f"{kind} name {name!r} does not parse back as itself")
    # each line of a comment is its own comment line, as parse_model splits them
    lines = [f"# {part}" for c in comments for part in c.splitlines() or [""]]
    lines.append(f"n = {m.n}")
    lines.append("worlds: " + " ".join(m.worlds))
    ws = m.worlds
    for atom, lists in sorted(m._succ.items()):
        body = ", ".join(f"{ws[u]}->" + " ".join(ws[v] for v in sorted(set(vs))) for u, vs in enumerate(lists) if vs)
        lines.append(f"rel {atom}: {body}")
    for var in m.variables:
        body = " ".join(f"{w}={x}/{m.n}" for w, x in zip(ws, m._vcols[var]))
        lines.append(f"val {var}: {body}")
    return "\n".join(lines) + "\n"


def load_model(path) -> KripkeModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())
