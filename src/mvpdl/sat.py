"""Satisfiability and validity over finite (n+1)-valued models.

Satisfiability search runs in two cooperating layers under one state
budget, deepening the world count from 1 upward:

* Candidate worlds are first abstracted as rows: assignments of a value
  to every member of the formula's closure that respect the connective
  arithmetic, the program unfolding laws, and the test law.  Variables,
  atomic boxes and star boxes are the free positions; everything else is
  derived.  Real worlds always project to such rows, so when no row gives
  the goal value the formula is settled outright, and models never need
  more worlds than there are distinct rows.
* For a fixed world count, either the row subsets are enumerated and
  atomic relations assigned against the box constraints (small row
  spaces), or plain models over the formula's vocabulary are enumerated
  directly (small vocabularies).  Every candidate that survives is
  re-checked with the model checker before it is reported, so a reported
  witness is always genuine.

A completed search below the closure bound is a definitive negative; an
exhausted budget raises instead of reporting anything.

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
from math import comb

from .kripke import KripkeModel
from .syntax import (
    Atomic,
    Box,
    Formula,
    Program,
    Implies,
    Not,
    Seq,
    Star,
    Test,
    Union,
    Var,
    atomic_programs_of,
    fl_closure,
    variables_of,
)

DEFAULT_BUDGET = 10**6
_ROW_ENUM_CAP = 300_000  # skip row abstraction past this many free assignments
_SUBSET_CAP = 60_000  # row-subset route only below this many subsets
_FANOUT_CAP = 4_096  # and only when the relation fan-out stays below this


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
    """No witness up to bound_used worlds; definitive when complete."""

    bound_used: int
    complete: bool
    stats: SearchStats

    is_sat = False


SatResult = Satisfiable | Unsatisfiable


class BudgetExceeded(RuntimeError):
    """State budget ran out before the search settled; not a verdict."""

    def __init__(self, message: str, stats: SearchStats):
        super().__init__(message)
        self.stats = stats


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


# --- row abstraction --------------------------------------------------------


_NOT, _IMP, _TEST, _MIN = range(4)  # ops of the row plan


class _Rows:
    """Consistent closure rows for one formula at one resolution."""

    def __init__(self, f: Formula, n: int):
        self.n = n
        self.closure = fl_closure(f)
        self.index = {g: i for i, g in enumerate(self.closure)}
        self.var_slots = [g for g in self.closure if type(g) is Var]
        self.abox_slots = [
            g for g in self.closure if type(g) is Box and type(g.prog) is Atomic
        ]
        self.star_slots = [
            g for g in self.closure if type(g) is Box and type(g.prog) is Star
        ]
        self.free = self.var_slots + self.abox_slots + self.star_slots
        self.rows: list[tuple[int, ...]] | None = None

    def free_assignments(self) -> int:
        return (self.n + 1) ** len(self.free)

    def generate(self) -> list[tuple[int, ...]]:
        """All locally consistent rows, in ascending tuple order."""
        if self.rows is not None:
            return self.rows
        n = self.n
        free = [self.index[g] for g in self.free]
        plan, unfold = self._plan()
        vals = [0] * len(self.closure)  # falsum slots are never written
        rows = []
        for choice in itertools.product(range(n + 1), repeat=len(free)):
            for i, v in zip(free, choice):
                vals[i] = v
            for i, op, a, b in plan:
                x = vals[a]
                y = vals[b]
                if op == _IMP:
                    vals[i] = n if x <= y else n - x + y
                elif op == _MIN:
                    vals[i] = x if x < y else y
                elif op == _NOT:
                    vals[i] = n - x
                else:  # _TEST: a is the test formula, b the body
                    vals[i] = y if x == n else n
            # Star boxes are free but must satisfy the unfolding law.
            if all(vals[i] == min(vals[a], vals[b]) for i, a, b in unfold):
                rows.append(tuple(vals))
        rows.sort()
        self.rows = self._refine(rows)
        return self.rows

    def _plan(self) -> tuple[list[tuple[int, int, int, int]], list[tuple[int, int, int]]]:
        """The derived members as (slot, op, a, b) steps over slots, each
        after the slots it reads, and the unfolding law of each star box
        [b*]f as (slot, slot of f, slot of [b][b*]f).

        Derived members follow the connectives and the test, seq and
        union laws; a dependency cycle would have to pass through a free
        member, so the order exists.
        """
        index = self.index
        steps: dict[int, tuple[int, int, int, int]] = {}
        unfold = []
        for i, g in enumerate(self.closure):
            t = type(g)
            if t is Not:
                steps[i] = (i, _NOT, index[g.sub], index[g.sub])
            elif t is Implies:
                steps[i] = (i, _IMP, index[g.lhs], index[g.rhs])
            elif t is Box:
                prog = g.prog
                pt = type(prog)
                if pt is Test:
                    steps[i] = (i, _TEST, index[prog.formula], index[g.body])
                elif pt is Seq:
                    j = index[Box(prog.left, Box(prog.right, g.body))]
                    steps[i] = (i, _MIN, j, j)
                elif pt is Union:
                    a, b = index[Box(prog.left, g.body)], index[Box(prog.right, g.body)]
                    steps[i] = (i, _MIN, a, b)
                elif pt is Star:
                    unfold.append((i, index[g.body], index[Box(prog.sub, g)]))
        plan = []
        placed = set(range(len(self.closure))) - steps.keys()
        for root in steps:
            stack = [root]
            while stack:
                i = stack[-1]
                todo = [j for j in steps[i][2:] if j not in placed]
                if todo:
                    stack += todo
                    continue
                stack.pop()
                if i not in placed:
                    placed.add(i)
                    plan.append(steps[i])
        return plan, unfold

    def _refine(self, rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """Fixpoint of two rules that drop rows no model can produce.

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
        """
        by_prog: dict[Program, list[tuple[int, int]]] = {}
        for g in self.closure:
            if type(g) is Box:
                by_prog.setdefault(g.prog, []).append((self.index[g], self.index[g.body]))
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


# --- search -----------------------------------------------------------------


def _meets_goal(value: int, n: int, want_true: bool) -> bool:
    return value == n if want_true else value < n


def _search(
    f: Formula, n: int, want_true: bool, max_worlds: int | None, budget: int
) -> SatResult:
    start = time.perf_counter()
    stats = SearchStats()
    if n < 1:
        raise ValueError("resolution must be >= 1")
    rows_info = _Rows(f, n)
    theoretical = (n + 1) ** len(rows_info.closure)
    if max_worlds is None:
        max_worlds = theoretical
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")

    rows: list[tuple[int, ...]] | None = None
    goal_rows: list[int] = []
    if rows_info.free_assignments() <= _ROW_ENUM_CAP:
        rows = rows_info.generate()
        stats.atoms_generated = len(rows)
        fi = rows_info.index[f]
        goal_rows = [i for i, row in enumerate(rows) if _meets_goal(row[fi], n, want_true)]
        if not goal_rows:
            stats.wall_time = time.perf_counter() - start
            return Unsatisfiable(bound_used=theoretical, complete=True, stats=stats)

    var_names = sorted(variables_of(f))
    atom_names = sorted(atomic_programs_of(f))
    definitive = min(theoretical, len(rows)) if rows is not None else theoretical
    top = min(max_worlds, definitive)

    for k in range(1, top + 1):
        hit = None
        if rows is not None and _row_route_fits(len(rows), k, len(atom_names)):
            hit = _row_route(f, n, want_true, k, rows_info, rows, set(goal_rows), stats, budget, start)
        else:
            hit = _direct_route(
                f, n, want_true, k, var_names, atom_names, stats, budget, start
            )
        if hit is not None:
            model, world = hit
            stats.wall_time = time.perf_counter() - start
            return Satisfiable(model=model, world=world, bound_used=k, stats=stats)

    complete = top >= definitive
    stats.wall_time = time.perf_counter() - start
    return Unsatisfiable(
        bound_used=theoretical if complete else top, complete=complete, stats=stats
    )


def _tick(stats: SearchStats, budget: int, start: float):
    stats.nodes_explored += 1
    if stats.nodes_explored > budget:
        stats.wall_time = time.perf_counter() - start
        raise BudgetExceeded(
            f"state budget of {budget} candidates exhausted", stats
        )


def _row_route_fits(row_count: int, k: int, atom_count: int) -> bool:
    if k > row_count:
        return False
    if comb(row_count, k) > _SUBSET_CAP:
        return False
    return (2**k) ** (k * max(atom_count, 1)) <= _FANOUT_CAP


def _row_route(f, n, want_true, k, rows_info, rows, goal_set, stats, budget, start):
    """Models over k distinct rows: assign atomic relations against the
    box constraints, then re-check the real value."""
    closure_index = rows_info.index
    abox_by_atom: dict[str, list[tuple[int, int]]] = {}
    for g in rows_info.abox_slots:
        abox_by_atom.setdefault(g.prog.name, []).append(
            (closure_index[g], closure_index[g.body])
        )
    atom_names = sorted(atomic_programs_of(f))
    var_slots = rows_info.var_slots
    var_positions = [closure_index[g] for g in var_slots]

    for combo in itertools.combinations(range(len(rows)), k):
        if goal_set.isdisjoint(combo):
            continue
        chosen = [rows[i] for i in combo]
        # Successor-set options per (world, atomic program).
        slot_options: list[list[tuple[int, ...]]] = []
        dead = False
        for atom in atom_names:
            boxes = abox_by_atom.get(atom, ())
            for w in range(k):
                row_w = chosen[w]
                allowed = [
                    v
                    for v in range(k)
                    if all(chosen[v][body_i] >= row_w[box_i] for box_i, body_i in boxes)
                ]
                options = []
                for mask in range(1 << len(allowed)):
                    subset = tuple(allowed[j] for j in range(len(allowed)) if mask >> j & 1)
                    good = True
                    for box_i, body_i in boxes:
                        m = n
                        for v in subset:
                            bv = chosen[v][body_i]
                            if bv < m:
                                m = bv
                        if m != row_w[box_i]:
                            good = False
                            break
                    if good:
                        options.append(subset)
                if not options:
                    dead = True
                    break
                slot_options.append(options)
            if dead:
                break
        if dead:
            continue
        world_names = [f"s{i}" for i in range(k)]
        valuation = {
            g.name: {world_names[w]: chosen[w][pos] for w in range(k)}
            for g, pos in zip(var_slots, var_positions)
        }
        for pick in itertools.product(*slot_options):
            _tick(stats, budget, start)
            relations = {}
            slot = 0
            for atom in atom_names:
                pairs = set()
                for w in range(k):
                    for v in pick[slot]:
                        pairs.add((world_names[w], world_names[v]))
                    slot += 1
                relations[atom] = pairs
            model = KripkeModel(n, world_names, relations, valuation)
            col = [model.value(w, f).num for w in world_names]
            for w in range(k):
                if _meets_goal(col[w], n, want_true):
                    return model, world_names[w]
    return None


def _direct_route(f, n, want_true, k, var_names, atom_names, stats, budget, start):
    """All models of size k over the formula's vocabulary, lexicographically."""
    world_names = [f"s{i}" for i in range(k)]
    all_pairs = [(u, v) for u in world_names for v in world_names]
    rel_masks = range(1 << len(all_pairs))
    for value_choice in itertools.product(range(n + 1), repeat=len(var_names) * k):
        valuation = {
            var: {
                world_names[w]: value_choice[vi * k + w] for w in range(k)
            }
            for vi, var in enumerate(var_names)
        }
        for masks in itertools.product(rel_masks, repeat=len(atom_names)):
            _tick(stats, budget, start)
            relations = {
                atom: {
                    all_pairs[j]
                    for j in range(len(all_pairs))
                    if masks[ai] >> j & 1
                }
                for ai, atom in enumerate(atom_names)
            }
            model = KripkeModel(n, world_names, relations, valuation)
            col = [model.value(w, f).num for w in world_names]
            for w in range(k):
                if _meets_goal(col[w], n, want_true):
                    return model, world_names[w]
    return None


# --- independent oracle -----------------------------------------------------


def enumerate_oracle(
    f: Formula, n: int, exact_worlds: int, guard: int = 3
) -> SatResult:
    """Exhaustive enumeration of every model with exactly exact_worlds
    worlds over the formula's own variables and atomic programs.

    Definitive for that size.  Deliberately has no shortcuts and shares
    nothing with decide_sat beyond the model checker, so the two can
    cross-validate.
    """
    if exact_worlds < 1:
        raise ValueError("exact_worlds must be >= 1")
    if exact_worlds > guard:
        raise OracleGuard(f"oracle guard is {guard} worlds, asked for {exact_worlds}")
    start = time.perf_counter()
    stats = SearchStats()
    worlds = [f"u{i}" for i in range(exact_worlds)]
    var_names = sorted(variables_of(f))
    atom_names = sorted(atomic_programs_of(f))
    pairs = [(u, v) for u in worlds for v in worlds]
    for value_choice in itertools.product(range(n + 1), repeat=len(var_names) * exact_worlds):
        valuation = {}
        for vi, var in enumerate(var_names):
            valuation[var] = {
                worlds[w]: value_choice[vi * exact_worlds + w] for w in range(exact_worlds)
            }
        for masks in itertools.product(range(1 << len(pairs)), repeat=len(atom_names)):
            stats.nodes_explored += 1
            relations = {}
            for ai, atom in enumerate(atom_names):
                relations[atom] = {pairs[j] for j in range(len(pairs)) if masks[ai] >> j & 1}
            model = KripkeModel(n, worlds, relations, valuation)
            for w in worlds:
                if model.value(w, f).num == n:
                    stats.wall_time = time.perf_counter() - start
                    return Satisfiable(model=model, world=w, bound_used=exact_worlds, stats=stats)
    stats.wall_time = time.perf_counter() - start
    complete = exact_worlds >= (n + 1) ** len(fl_closure(f))
    return Unsatisfiable(bound_used=exact_worlds, complete=complete, stats=stats)
