"""Satisfiability and validity over finite (n+1)-valued models, by
elimination over closure rows.

A row assigns a value to every member of the formula's closure,
respecting the connective arithmetic and the program laws of
`syntax.laws`: MIN and TEST fix a box from other members, and a star box
must meet its unfolding law (`_Rows.generate`, which also drops rows by
two refinement rules over the atomic and star boxes).  Variables,
atomic boxes and star boxes are its free positions; the other members
are computed in the order of `syntax.plan`, whose steps also carry the
star boxes' automata.  `_Rows` reads every table it needs, the steps,
the atomic boxes per program and the rules, off one walk of that plan.
Row v is an allowed a-successor of row w when v[ψ] >= w[[a]ψ] for every
[a]ψ in the closure.  β-steps between rows run through the automaton of
[β*]φ (`syntax.star_states`): from row w in state s an edge takes one
allowed step of its atomic program into its target state, or a test
that stays at w when w values its formula at n, or accepts at w itself.
Elimination repeats two rules until neither drops a row:

* Box rule: drop w when some [a]ψ = c < n in w has no surviving allowed
  successor v with v[ψ] = c.
* Star rule: drop w when some [β*]φ = c < n in w, from the automaton's
  first state, accepts at no surviving row with φ = c along allowed
  steps between surviving rows.

Both rules take one backward flood over rows x automaton states, with
row sets as bitsets (`_Rows.pre`); the box rule's automaton is one
a-step into a state that accepts.

Soundness: the row of every world of every model survives.  It is a
generated row, and no rule drops it first: a box value below n is the
minimum over successors, attained at some successor, whose row is an
allowed successor and survives; a star value c below n is attained at
some world on a β-path, and every step of that path is an allowed
β-step between surviving rows.  So when no row giving the formula its
goal value survives, no model has such a world: a complete negative
verdict.

Completeness: take any set S of rows with every allowed edge among them
as a model, each row a world valued by its variables.  When elimination
inside S keeps S, every row's values are the real ones (truth lemma, by
induction over the closure).  For an atomic box the allowed edges give
value >= w[[a]ψ] and the box rule attains it.  For a star, w[[β*]φ] <=
w[φ] and w[[β*]φ] <= w[[β][β*]φ], so along allowed β-steps the value
does not decrease and every reachable row has φ >= w[[β*]φ]; the star
rule reaches a row with φ equal to it when it is below n.  Conversely,
the rows of the worlds of any model, with every allowed edge, pass both
rules by the soundness argument.  So a set of rows is a model with the
rows' values exactly when elimination inside it keeps it; the surviving
rows form one (`_Rows.model`), and a model of k worlds gives one of at
most k rows.

The search looks for a small witness first: single goal rows with their
loops (a linear scan, not charged to the budget), then, under the
candidate budget, sets of up to max_worlds rows (2 when unbounded),
goal rows of the highest formula value first.  Unbounded, it then takes
the surviving rows reachable from the first surviving goal row, also
when the budget runs out first.  The model checker re-checks every
witness before it is reported.

The one exponential step is the row enumeration, capped at
_ROW_ENUM_CAP free assignments.  Past the cap there are no rows and so
no negative verdict; the search then tries the models of 1, 2, ...
worlds over the formula's vocabulary, up to max_worlds, and raises
BudgetExceeded when none of them is a witness.  A size is begun only
when all its models fit what is left of the budget, so a size whose
count does not fit ends the scan at once.

Validity is decided by searching for a world where the formula's value
falls below 1, which is the same search as satisfiability of the negated
n-th power but over the smaller closure of the formula itself.

`enumerate_oracle` is an intentionally naive exhaustive enumeration over
all models of one exact size, kept separate from the decision procedure
so the two can arbitrate each other.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .kripke import KripkeModel
from .luk import BudgetExceeded  # raised with the search's stats when its budget or cap runs out
from .syntax import (
    ATOM,
    FALSUM,
    IMP,
    MIN,
    NOT,
    STAR,
    VAR,
    Box,
    Formula,
    Program,
    atomic_programs_of,
    fl_closure,
    laws,
    plan,
    variables_of,
)

DEFAULT_BUDGET = 10**6
_ROW_ENUM_CAP = 400_000  # free-member assignments the row enumeration may visit
_ORACLE_GUARD = 3  # most worlds the oracle enumerates models of


@dataclass
class SearchStats:
    atoms_generated: int = 0
    nodes_explored: int = 0
    wall_time: float = 0.0


@dataclass
class Satisfiable:
    """A checked witness: value(model, world, formula) meets the goal."""

    model: KripkeModel
    world: str
    bound_used: int
    stats: SearchStats

    is_sat = True


@dataclass
class Unsatisfiable:
    """No witness of at most bound_used worlds.  Complete: no model at
    all, and bound_used is the number of rows elimination ran on (at most
    _ROW_ENUM_CAP): every world of every model has its row among them.
    Incomplete: a model exists, but none that small."""

    bound_used: int
    complete: bool
    stats: SearchStats

    is_sat = False


SatResult = Satisfiable | Unsatisfiable


class OracleGuard(ValueError):
    """Oracle asked for a size past its guard."""


def decide_sat(
    f: Formula, n: int, max_worlds: int | None = None, budget: int = DEFAULT_BUDGET
) -> SatResult:
    """Search for a model and world where f is true (value 1)."""
    return _search(f, n, want_true=True, max_worlds=max_worlds, budget=budget)


def decide_valid(
    f: Formula, n: int, max_worlds: int | None = None, budget: int = DEFAULT_BUDGET
) -> SatResult:
    """Refutation search: find a world where f's value falls below 1.

    `Satisfiable` carries a refuting witness; a complete `Unsatisfiable`
    means f is valid.  Equivalent to decide_sat of ~(f^n), but run over
    the closure of f itself, which is much smaller.
    """
    return _search(f, n, want_true=False, max_worlds=max_worlds, budget=budget)


def is_validity_verdict(result: SatResult) -> bool:
    """Whether a decide_valid result certifies validity."""
    return not result.is_sat and result.complete


# --- rows -------------------------------------------------------------------


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Rows:
    """The consistent closure rows of one formula at one resolution, their
    cuts, allowed edges and two drop rules, and the model of any row set.
    Once generated, row i is bit i of a row set, a Python int."""

    def __init__(self, f: Formula, n: int):
        self.n = n
        self.closure = fl_closure(f)
        index = self.index = {g: i for i, g in enumerate(self.closure)}
        self.free: list[int] = []  # slots of the variables, atomic boxes and star boxes
        self.derived: list[tuple[int, str, int, int]] = []  # (slot, op, a, b) in plan order
        self.unfold: list[tuple[int, int, int]] = []  # [b*]f: (slot, slot of f, slot of [b][b*]f)
        self.vars: dict[str, int] = {}
        self.boxes: dict[str, list[tuple[int, int]]] = {}  # per atomic name: (box slot, body slot)
        # a row valuing [α]φ at c < n needs an α-path, read off the
        # automaton, to a row valuing φ at c; α is an atomic program (box
        # rule) or a star (star rule): (slot, body slot, box, automaton)
        self.rules: list[tuple[int, int, Box, dict]] = []
        for g, op, reads, auto in plan(self.closure):
            i = index[g]
            if op is VAR:
                self.free.append(i)
                self.vars[g.name] = i
            elif op is ATOM or op is STAR:
                self.free.append(i)
                body = index[g.body]
                if op is ATOM:
                    self.boxes.setdefault(g.prog.name, []).append((i, body))
                    auto = {g: [(g.prog.name, None, g.body)], g.body: [(None, None, None)]}
                else:
                    self.unfold.append((i, body, index[laws(g)[1][1]]))
                self.rules.append((i, body, g, auto))
            elif op is not FALSUM:  # NOT, IMP, MIN or TEST
                self.derived.append((i, op, index[reads[0]], index[reads[-1]]))
        self.rows: list[tuple[int, ...]] = []
        self._cuts: dict[tuple[int, int, int], int] = {}
        self._preds: dict[str, list[tuple[int, int]]] = {}
        self._into: dict[int, list[list[tuple[int, str | None, int]]]] = {}

    def free_assignments(self) -> int:
        return (self.n + 1) ** len(self.free)

    def generate(self) -> list[tuple[int, ...]]:
        """All locally consistent rows, in ascending tuple order, refined;
        they are also kept as the rows."""
        n, free, derived, unfold = self.n, self.free, self.derived, self.unfold
        vals = [0] * len(self.closure)  # falsum slots are never written
        rows = []
        for choice in itertools.product(range(n + 1), repeat=len(free)):
            for i, v in zip(free, choice):
                vals[i] = v
            for i, op, a, b in derived:
                x = vals[a]
                y = vals[b]
                if op is IMP:
                    vals[i] = n if x <= y else n - x + y
                elif op is MIN:
                    vals[i] = x if x < y else y
                elif op is NOT:
                    vals[i] = n - x
                else:  # TEST: a is the test formula, b the body
                    vals[i] = y if x == n else n
            # Star boxes are free but must satisfy the unfolding law.
            for i, a, b in unfold:
                x = vals[a]
                y = vals[b]
                if vals[i] != (x if x < y else y):
                    break
            else:
                rows.append(tuple(vals))
        rows.sort()
        self.rows = self._refine(rows)
        return self.rows

    def _refine(self, rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Fixpoint of two rules over the atomic and star boxes that drop
        rows no model can produce.

        Soundness rests on one invariant: the row of every world of every
        model survives.  It holds for the generated rows, and each rule,
        applied to rows for which it holds, drops only rows that no world
        can have.

        * Floor: a box [α]φ is the minimum of φ over the α-successors of a
          world, or 1 without any.  Every successor is a world, so its row
          survives, and its φ-value is at least the least φ-value of any
          surviving row; a row whose box value lies below that least
          value cannot come from a model.
        * Monotonicity: if every surviving row values body f at most body
          g, then f -> g holds at every world of every model, so the
          boxes over one program are ordered the same way; rows breaking
          that order are dropped.

        Dropping rows can raise a least value or establish a new body
        ordering, hence the fixpoint.

        The rules read only the boxes of the elimination rules.  A box
        over a sequence, choice or test takes its value from those boxes
        by its law (a minimum, or its body or n), so, by induction over
        the program, it meets both rules in every row once they do.  Both
        rules' drop conditions are monotone: a row dropped from a set is
        dropped from every subset.  So either rule set reaches the same
        greatest fixpoint, the rows on which every rule holds.

        The verdict does not need these rules: every row they drop, the
        elimination drops too.  They are a pre-filter for speed, cheaper
        per row than the box and star rules; without them the decide
        benchmark's ops take about 30 % longer in total.
        """
        by_prog: dict[Program, list[tuple[int, int]]] = {}
        for box, body, g, _ in self.rules:
            by_prog.setdefault(g.prog, []).append((box, body))
        boxes = [pair for pairs in by_prog.values() for pair in pairs]
        groups = [pairs for pairs in by_prog.values() if len(pairs) > 1]
        changed = True
        while changed and rows:
            changed = False
            for box, body in boxes:
                least = min((row[body] for row in rows), default=0)
                if least:
                    kept = [row for row in rows if row[box] >= least]
                    if len(kept) != len(rows):
                        rows = kept
                        changed = True
            for pairs in groups:
                for box1, body1 in pairs:
                    for box2, body2 in pairs:
                        if box1 == box2:
                            continue
                        if all(row[body1] <= row[body2] for row in rows):
                            kept = [row for row in rows if row[box1] <= row[box2]]
                            if len(kept) != len(rows):
                                rows = kept
                                changed = True
        return rows

    def cut(self, slot: int, lo: int, hi: int) -> int:
        """The rows valuing closure member `slot` from lo to hi."""
        got = self._cuts.get((slot, lo, hi))
        if got is None:
            bits = "".join("1" if lo <= row[slot] <= hi else "0" for row in reversed(self.rows))
            got = self._cuts[slot, lo, hi] = int(bits, 2)
        return got

    def succ(self, a: str, w: int) -> int:
        """The allowed a-successors of row w: the rows v with v[ψ] >=
        w[[a]ψ] for every [a]ψ in the closure."""
        row = self.rows[w]
        return reduce(and_, (self.cut(body, row[box], self.n) for box, body in self.boxes[a]))

    def _pred(self, a: str) -> list[tuple[int, int]]:
        """The rows grouped by their values of the a-box bodies, each
        group with the rows it is an allowed a-successor of."""
        got = self._preds.get(a)
        if got is None:
            pairs = self.boxes[a]
            groups: dict[tuple[int, ...], int] = {}
            for i, row in enumerate(self.rows):
                key = tuple(row[body] for _, body in pairs)
                groups[key] = groups.get(key, 0) | 1 << i
            got = self._preds[a] = [
                (group, reduce(and_, (self.cut(box, 0, c) for (box, _), c in zip(pairs, key))))
                for key, group in groups.items()
            ]
        return got

    def pre(self, slot: int, auto: dict, rows: int, alive: int) -> int:
        """The alive rows from which the automaton of rule `slot` accepts
        in rows (a subset of alive), along allowed edges between alive
        rows: one backward flood over rows x states, as bitsets.

        The automaton's states are taken by position, the box first, and
        one more for acceptance; per target, its edges (source, atomic
        name or None, gate rows), the gate rows valuing a test's formula
        at n, or all rows."""
        into = self._into.get(slot)
        if into is None:
            index = {state: i for i, state in enumerate(auto)}
            index[None] = len(auto)
            into = self._into[slot] = [[] for _ in index]
            for i, edges in enumerate(auto.values()):
                for name, gate, target in edges:
                    ok = -1 if gate is None else self.cut(self.index[gate], self.n, self.n)
                    into[index[target]].append((i, name, ok))
        reached = [0] * len(into)
        work = [(len(into) - 1, rows)]
        while work:
            t, x = work.pop()
            for i, name, ok in into[t]:  # name None: a test or acceptance, no step
                step = x if name is None else alive & reduce(or_, (r for grp, r in self._pred(name) if grp & x), 0)
                new = step & ok & ~reached[i]
                if new:
                    reached[i] |= new
                    work.append((i, new))
        return reached[0]

    def eliminate(self, alive: int) -> int:
        """Drop rows breaking a rule until none does; the rows kept."""
        dropped = True
        while dropped:
            dropped = False
            for slot, body, _, auto in self.rules:
                for c in range(self.n):
                    need = alive & self.cut(slot, c, c)
                    if need:
                        bad = need & ~self.pre(slot, auto, alive & self.cut(body, c, c), alive)
                        if bad:
                            alive &= ~bad
                            dropped = True
        return alive

    def alone(self, w: int) -> bool:
        """Whether row w with its allowed loops passes both rules: each
        program with a box below n needs the loop, attaining every box,
        and a star below n must be attained at w itself."""
        row, n = self.rows[w], self.n
        for pairs in self.boxes.values():
            if any(row[box] < n for box, _ in pairs) and any(row[body] != row[box] for box, body in pairs):
                return False
        return all(row[body] == row[slot] for slot, body, _, _ in self.rules if row[slot] < n)

    def reach(self, w: int, alive: int) -> int:
        """The alive rows reachable from row w along allowed edges."""
        seen = frontier = 1 << w
        while frontier:
            step = reduce(or_, (self.succ(a, v) for v in _bits(frontier) for a in self.boxes), 0)
            frontier = step & alive & ~seen
            seen |= frontier
        return seen

    def model(self, members: int) -> KripkeModel:
        """The rows of members as worlds s0, s1, ..., in row order, each
        valued by its variables, with every allowed edge among them."""
        order = list(_bits(members))
        pos = {i: k for k, i in enumerate(order)}
        succ = {a: [[pos[v] for v in _bits(self.succ(a, u) & members)] for u in order] for a in self.boxes}
        vcols = {name: [self.rows[i][slot] for i in order] for name, slot in self.vars.items()}
        return KripkeModel._indexed(self.n, [f"s{k}" for k in range(len(order))], succ, vcols)


# --- search -----------------------------------------------------------------


def _meets_goal(value: int, n: int, want_true: bool) -> bool:
    return value == n if want_true else value < n


def _search(
    f: Formula, n: int, want_true: bool, max_worlds: int | None, budget: int
) -> SatResult:
    if n < 1:
        raise ValueError("resolution must be >= 1")
    if max_worlds is not None and max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    stats = SearchStats()
    start = time.perf_counter()
    try:
        return _decide(f, n, want_true, max_worlds, budget, stats)
    finally:  # also for BudgetExceeded, which carries the stats
        stats.wall_time = time.perf_counter() - start


def _decide(
    f: Formula, n: int, want_true: bool, max_worlds: int | None, budget: int, stats: SearchStats
) -> SatResult:
    info = _Rows(f, n)
    if info.free_assignments() > _ROW_ENUM_CAP:
        # No rows, so no negative verdict: only a small model can answer.
        # A size is begun only when all its models fit what is left of the
        # budget: (n+1)^(v*k) valuations times 2^(a*k*k) relations.
        v, a = len(variables_of(f)), len(atomic_programs_of(f))
        for k in itertools.count(1) if max_worlds is None else range(1, max_worlds + 1):
            if (n + 1) ** (v * k) * 2 ** (a * k * k) > budget - stats.nodes_explored:
                break
            hit = _first_witness(f, n, want_true, _models(f, n, k), stats)
            if hit is not None:
                return hit
        raise BudgetExceeded(
            f"no verdict: the row space of {n + 1}^{len(info.free)} assignments is past the "
            f"cap of {_ROW_ENUM_CAP}, and no witness is among {stats.nodes_explored} models",
            stats,
        )
    rows = info.generate()
    stats.atoms_generated = len(rows)
    fi = info.index[f]
    goals = sorted(
        (i for i, row in enumerate(rows) if _meets_goal(row[fi], n, want_true)),
        key=lambda i: -rows[i][fi],
    )

    def found(members: int, w: int) -> Satisfiable:
        """The model of the rows of members, checked at row w."""
        model = info.model(members)
        world = model.worlds[(members & ((1 << w) - 1)).bit_count()]  # w's rank in members
        if not _meets_goal(model.value(world, f).num, n, want_true):
            raise RuntimeError(f"witness row {w} fails the model check")
        return Satisfiable(model=model, world=world, bound_used=len(model.worlds), stats=stats)

    for w in goals:  # one world with its loops: linear, so not charged
        stats.nodes_explored += 1
        if info.alone(w):
            return found(1 << w, w)
    alive = info.eliminate((1 << len(rows)) - 1) if goals else 0
    goals = [w for w in goals if alive >> w & 1]
    if not goals:
        return Unsatisfiable(bound_used=len(rows), complete=True, stats=stats)

    tries = (  # a goal row and k - 1 rows it reaches, k up to max_worlds (2 unbounded)
        (w, others)
        for k in range(2, (max_worlds or 2) + 1)
        for w in goals
        for others in itertools.combinations(_bits(info.reach(w, alive) & ~(1 << w)), k - 1)
    )
    for w, others in itertools.islice(tries, budget):
        stats.nodes_explored += 1
        kept = info.eliminate(sum(1 << i for i in others) | 1 << w)
        if kept >> w & 1:
            return found(kept, w)
    # Unbounded, the reach set is a witness anyway, so an exhausted budget
    # only ends the hunt for a smaller one.
    if max_worlds is None:
        return found(info.reach(goals[0], alive), goals[0])
    if next(tries, None) is not None:
        raise BudgetExceeded(f"state budget of {budget} candidates exhausted; raise it to go on", stats)
    return Unsatisfiable(bound_used=max_worlds, complete=False, stats=stats)


# --- independent oracle -----------------------------------------------------


def enumerate_oracle(f: Formula, n: int, exact_worlds: int) -> SatResult:
    """Exhaustive enumeration of every model with exactly exact_worlds
    worlds over the formula's own variables and atomic programs.

    Definitive for that size.  Deliberately has no shortcuts and shares
    nothing with the elimination beyond the model checker, so the two
    can cross-validate.
    """
    if exact_worlds < 1:
        raise ValueError("exact_worlds must be >= 1")
    if exact_worlds > _ORACLE_GUARD:
        raise OracleGuard(f"oracle guard is {_ORACLE_GUARD} worlds, asked for {exact_worlds}")
    start = time.perf_counter()
    stats = SearchStats()
    hit = _first_witness(f, n, True, _models(f, n, exact_worlds), stats)
    stats.wall_time = time.perf_counter() - start
    if hit is not None:
        return hit
    complete = exact_worlds >= (n + 1) ** len(fl_closure(f))
    return Unsatisfiable(bound_used=exact_worlds, complete=complete, stats=stats)


def _models(f: Formula, n: int, k: int):
    """Every model of k worlds over f's variables and atomic programs."""
    ids = range(k)
    worlds = [f"u{i}" for i in ids]
    var_names = sorted(variables_of(f))
    atom_names = sorted(atomic_programs_of(f))
    for values in itertools.product(range(n + 1), repeat=len(var_names) * k):
        for masks in itertools.product(range(1 << k * k), repeat=len(atom_names)):  # bit u*k+v: edge u -> v
            succ = {a: [[v for v in ids if m >> (u * k + v) & 1] for u in ids] for a, m in zip(atom_names, masks)}
            yield KripkeModel._indexed(n, worlds, succ, {x: list(values[i * k : i * k + k]) for i, x in enumerate(var_names)})


def _first_witness(f, n, want_true, models, stats: SearchStats) -> Satisfiable | None:
    """The first of models with a world meeting the goal, each model
    counted as explored."""
    for model in models:
        stats.nodes_explored += 1
        for w in model.worlds:
            if _meets_goal(model.value(w, f).num, n, want_true):
                return Satisfiable(model=model, world=w, bound_used=len(model.worlds), stats=stats)
