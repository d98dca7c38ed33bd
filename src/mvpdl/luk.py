"""Arithmetic of the (n+1)-valued Lukasiewicz truth set.

Values are the fractions i/n for 0 <= i <= n, kept exact as an integer
numerator paired with the step count n.  Negation is 1-x and implication
is min(1-x+y, 1); the strong and lattice connectives derive from those.
Values at different resolutions never mix: the sets of values are
incomparable in general, so a mismatch is an error, not a coercion.

Each connective is stated as sugar over implication and zero in
`syntax`, and as integer operations in `Lanes`; this module has no
numerator-level layer beside them.  A connective on `TruthValue`s is
`eval_prop` of its sugar, and `eval_prop`, the algebra's identities and
the threshold search all run a formula's plan on `Lanes`.

Also provides exhaustive propositional tautology checking and the
synthesis of one-variable threshold formulas (value 1 from i/n upward,
0 below) and point indicators, built only from the doubling maps
x (+) x and x (.) x.

The connectives on packed columns, `Lanes`, are stated here once: a
column of values is one int with one lane of bits per value, and each
connective is a few integer operations on every lane at once (broadword
arithmetic, Knuth TAOCP 4A 7.1.3).  The model checker keeps its value
columns in them, one lane per world.

`Lanes.run` is the one interpreter of `syntax.plan` steps: it computes
the connectives and the MIN and TEST steps of boxes from the columns of
what they read, and asks its caller for the leaves.  The model checker
gives it value columns and its box and star kernels; the truth table
gives it, per block of rows, the leaves' columns and no leaf kernel.
The tautology check reads the whole (n+1)**k table of k leaves, a lane
of n.bit_length()+1 bits per row.  A table's steps and its leaves come
from one `plan` walk that enters no box: the leaves are its VAR steps,
sorted by name, and for a `luk` step of `proofs` its box steps after
them, so a box is a value of its own and nothing inside it is read.  A
column of a block of rows is at most 4 KiB and a block's columns at most
1 MiB together: the last leaves run through all their values in a block
(3,125 rows at n = 4), and the leading ones that do not fit are
constant per block.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from typing import Callable, Iterable, Mapping

from .parser import parse_formula
from .syntax import FALSUM, IMP, MIN, NOT, TEST, VAR, Box, Formula, Not, Step, Var, land, odot, oplus, plan


class ResolutionMismatch(ValueError):
    """Raised when values from different truth sets are combined."""


class UnboundVariable(KeyError):
    """Raised when evaluation meets a variable missing from the assignment."""


class BudgetExceeded(RuntimeError):
    """A budget ran out before the work settled; not a verdict.  The
    decider's carries its `sat.SearchStats`; one raised by `charge` has
    none."""

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats


def charge(size: int, budget: int | None, what: str) -> None:
    """Refuse, before it starts, a loop of `size` steps past the budget
    (None: no budget); `what` says what the size counts."""
    if budget is None:
        return
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if size > budget:
        raise BudgetExceeded(f"{what}, past the budget of {budget}; raise it to go on")


@dataclass(frozen=True)
class TruthValue:
    """The value num/n in the (n+1)-element truth set."""

    num: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"resolution must be >= 1, got {self.n}")
        if type(self.num) is not int:  # a bool or a float would print as True/2 or 0.5/2
            raise ValueError(f"numerator {self.num!r} is not an integer")
        if not 0 <= self.num <= self.n:
            raise ValueError(f"numerator {self.num} out of range 0..{self.n}")

    @property
    def is_top(self) -> bool:
        return self.num == self.n

    def __str__(self):
        return f"{self.num}/{self.n}"

    def __le__(self, other: "TruthValue") -> bool:
        _same_resolution(self, other)
        return self.num <= other.num

    def __lt__(self, other: "TruthValue") -> bool:
        _same_resolution(self, other)
        return self.num < other.num


def tv(num: int, n: int) -> TruthValue:
    return TruthValue(num, n)


def top(n: int) -> TruthValue:
    return TruthValue(n, n)


def _same_resolution(x: TruthValue, y: TruthValue) -> None:
    if x.n != y.n:
        raise ResolutionMismatch(f"cannot combine values at /{x.n} and /{y.n}")


# --- propositional evaluation --------------------------------------------


def _table(roots: tuple[Formula, ...], boxes: bool = False) -> tuple[list[Step], list[Formula]]:
    """The steps of the roots' truth table, from one `plan` walk that
    enters no box, and its leaves: the VAR steps, sorted by name, and,
    with boxes, then the box steps, each a value of its own; without, a
    box is an error."""
    steps = list(plan(roots, enter_boxes=False))
    found = [g for g, op, _, _ in steps if op is None]
    for g in found:
        if type(g) is not Box:
            raise TypeError(f"not a formula: {g!r}")
        if not boxes:
            raise ValueError("modal formula passed to propositional evaluation")
    return steps, sorted((g for g, op, _, _ in steps if op is VAR), key=attrgetter("name")) + found


def eval_prop_num(f: Formula, env: Mapping[str, int], n: int) -> int:
    """Evaluate a modality-free formula; env maps names to numerators."""
    steps, leaves = _table((f,))
    try:
        cols = {g: env[g.name] for g in leaves}
    except KeyError as exc:
        raise UnboundVariable(exc.args[0]) from None
    Lanes(n, 1).run(steps, cols)
    return cols[f]


def eval_prop(f: Formula, assignment: Mapping[str, TruthValue], n: int | None = None) -> TruthValue:
    """Value of a modality-free formula under a total assignment.

    The resolution is taken from the assignment; pass n explicitly for
    formulas without variables.
    """
    if n is None:
        resolutions = {v.n for v in assignment.values()}
        if len(resolutions) > 1:
            raise ResolutionMismatch(f"mixed resolutions in assignment: {sorted(resolutions)}")
        if not resolutions:
            raise ValueError("assignment is empty; pass the resolution n explicitly")
        n = resolutions.pop()
    env = {}
    for name, v in assignment.items():
        if v.n != n:
            raise ResolutionMismatch(f"assignment value {v} is not at /{n}")
        env[name] = v.num
    return TruthValue(eval_prop_num(f, env, n), n)


# Truth-table rows `mvpdl taut` and a `luk` step of `mvpdl prove` read at
# most unless told otherwise: about two seconds of packed arithmetic.
DEFAULT_ROWS = 10**8


def prop_counterexample(f: Formula, n: int, budget: int | None = None) -> dict[str, TruthValue] | None:
    """First assignment (in lexicographic order) with value below 1, if any.

    Exhausts the full table, so the cost is (n+1)**#variables lanes of
    packed arithmetic (see `failing_row`).  With a budget, a table of
    more rows raises `BudgetExceeded` before any row is built.
    """
    leaves, row = failing_row(f, n, budget)
    return None if row is None else {g.name: TruthValue(i, n) for g, i in zip(leaves, row)}


def failing_row(
    f: Formula, n: int, budget: int | None = None, boxes: bool = False
) -> tuple[list[Formula], tuple[int, ...] | None]:
    """The leaves of f's truth table and the numerators they take on its
    first row, in lexicographic order, on which f is below 1 (None if f
    is 1 on every row).

    The leaves are read off f's one `plan` walk, which enters no box:
    its variables, sorted by name, and, with boxes, then its maximal
    boxes, each a value of its own: f is then 1 on every row exactly
    when it is an instance of an (n+1)-valued tautology, the `luk` step
    of `proofs`.  Without boxes a box is an error.  With a
    budget, a table of more rows raises `BudgetExceeded` before any
    row is built.

    The table is evaluated a block of rows at a time, by `Lanes.run` with
    one lane of n.bit_length() + 1 bits per row, row 0 of the block in
    the lowest lane; the leaves' columns are given, so the run skips
    their steps.  The last t leaves run through all their values in a
    block (`_ramps`) and the leading ones are constant in it, so the
    blocks follow the rows' order.
    """
    steps, leaves = _table((f,), boxes)
    k = len(leaves)
    charge((n + 1) ** k, budget, f"the truth table has {n + 1}^{k} rows")
    w = n.bit_length() + 1
    base = n + 1
    lanes_cap = max(1, min(_COLUMN_BITS, _BLOCK_BITS // len(steps)) // w)
    t = 0
    while t < k and base ** (t + 1) <= lanes_cap:
        t += 1
    lanes = Lanes(n, base**t, w)
    trailing = _ramps(n, t)
    for lead in itertools.product(range(base), repeat=k - t):
        cols = dict(zip(leaves, (*[v * lanes.ones for v in lead], *trailing)))
        lanes.run(steps, cols)
        row = lanes.first_below_top(cols[f])
        if row is not None:
            return leaves, lead + tuple(row // base ** (t - 1 - i) % base for i in range(t))
    return leaves, None


# A column of a block of the packed table has at most _COLUMN_BITS bits
# (4 KiB: on larger ints each operation costs more per lane), and the
# columns of a block together at most _BLOCK_BITS (1 MiB).
_COLUMN_BITS = 1 << 15
_BLOCK_BITS = 1 << 23


class Lanes:
    """Columns of count values 0..n, each column one int with value i in
    lane i of `width` bits (lane 0 lowest); width > n.bit_length().

    Every value lies below its lane's top bit, the guard, so each
    connective is a few integer operations on every lane at once without
    a borrow crossing lanes (broadword arithmetic, Knuth TAOCP 4A 7.1.3):
    (x | H) - y keeps the guard exactly where x >= y, which masks the low
    bits' x - y.  Without a width the lanes are the fewest whole bytes
    that hold n below the guard; `pack` and `unpack` convert such columns
    to and from value lists.
    """

    __slots__ = ("count", "width", "shift", "ones", "high", "top")

    def __init__(self, n: int, count: int, width: int | None = None):
        if width is None:
            width = 8 * (n.bit_length() // 8 + 1)  # the fewest bytes above n's top bit
        self.count, self.width = count, width
        self.shift = width - 1
        self.ones = _repunit(count, width)
        self.high = self.ones << self.shift
        self.top = n * self.ones

    def imp(self, x: int, y: int) -> int:
        """x -> y, that is n - max(x - y, 0), in every lane."""
        d = (x | self.high) - y
        g = d & self.high
        return self.top - (d & (g - (g >> self.shift)))

    def meet(self, x: int, y: int) -> int:
        """min(x, y) in every lane: x (.) (x -> y)."""
        return x + self.imp(x, y) - self.top

    def test(self, c: int, x: int) -> int:
        """x in the lanes where c is n, and n in the others."""
        g = (((self.top - c) | self.high) - self.ones) & self.high  # guards where c < n
        return x + ((self.top - x) & (g - (g >> self.shift)))

    def lane(self, col: int, i: int) -> int:
        return (col >> (i * self.width)) & ((1 << self.width) - 1)

    def first_below_top(self, col: int) -> int | None:
        """Index of the lowest lane of col below n, or None."""
        diff = col ^ self.top
        return ((diff & -diff).bit_length() - 1) // self.width if diff else None

    def unpack(self, col: int) -> list[int]:
        """The values of a column of byte lanes, lane 0 first."""
        size = self.width // 8
        raw = col.to_bytes(size * self.count, "little")
        if size == 1:
            return list(raw)
        return [int.from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]

    def pack(self, values: list[int]) -> int:
        """The column of byte lanes that holds the values, lane 0 first."""
        size = self.width // 8
        if size == 1:
            return int.from_bytes(bytes(values), "little")
        return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in values), "little")

    def run(self, steps: Iterable[Step], cols: dict[Formula, int], leaf: Callable[[Step], int] | None = None) -> None:
        """Put the column of each `syntax.plan` step into cols, from the
        columns of the formulas it reads, which cols holds by then.

        IMP, NOT, FALSUM, MIN and TEST steps are computed here; leaf(step)
        gives the column of every other one (VAR, ATOM, STAR) or rejects
        it.  A step other than IMP or NOT whose formula cols already holds
        is skipped: a truth table gives its leaves' columns, and a leaf
        may put in the columns of formulas the plan has entered but not
        yet reached (the states of a star's automaton).
        """
        imp, top = self.imp, self.top
        for step in steps:
            g, op, reads, _ = step
            if op is IMP:
                col = imp(cols[reads[0]], cols[reads[1]])
            elif op is NOT:
                col = top - cols[reads[0]]
            elif g in cols:
                continue
            elif op is MIN:
                col = cols[reads[0]] if len(reads) == 1 else self.meet(cols[reads[0]], cols[reads[1]])
            elif op is TEST:
                col = self.test(cols[reads[0]], cols[reads[1]])
            elif op is FALSUM:
                col = 0
            else:
                col = leaf(step)
            cols[g] = col


@lru_cache(maxsize=32)
def _ramps(n: int, t: int) -> tuple[int, ...]:
    """The columns of the last t leaves of a table over a block of
    (n+1)**t rows, a lane of w = n.bit_length() + 1 bits per row: leaf i
    holds 0 in the first run = (n+1)**(t-1-i) lanes, 1 in the next run,
    and so on up to n, then again from 0.  One period of n+1 runs is a
    count in fields of w * run bits, spread over each run's lanes."""
    base, w = n + 1, n.bit_length() + 1
    cols = []
    for i in range(t):
        run = base ** (t - 1 - i)
        cols.append(_counting(base, w * run) * _repunit(run, w) * _repunit(base**i, w * run * base))
    return tuple(cols)


def _repunit(count: int, bits: int) -> int:
    """1 in each of count fields of the given width."""
    return ((1 << (bits * count)) - 1) // ((1 << bits) - 1)


def _counting(count: int, bits: int) -> int:
    """v in field v for v < count, fields of the given width: the sum of
    v * x**v with x = 2**bits, in closed form, so that the cost does not
    grow with count squared."""
    x = 1 << bits
    return (x - (count << (bits * count)) + ((count - 1) << (bits * (count + 1)))) // ((x - 1) ** 2)


def is_tautology_prop(f: Formula, n: int) -> bool:
    """Whether f evaluates to 1 under every assignment over the truth set."""
    return prop_counterexample(f, n) is None


def unary_table(f: Formula, n: int, var: str = "p") -> tuple[int, ...]:
    """Value profile of a one-variable formula over all points, as numerators."""
    steps, leaves = _table((f,))
    for g in leaves:
        if g.name != var:
            raise UnboundVariable(g.name)
    lanes = Lanes(n, n + 1)
    cols = dict.fromkeys(leaves, lanes.pack(list(range(n + 1))))  # point x in lane x
    lanes.run(steps, cols)
    return tuple(lanes.unpack(cols[f]))


# --- threshold and indicator synthesis -----------------------------------

_P = Var("p")

# Constant-1 and constant-0 one-variable formulas: p (+) ~p and p (.) ~p.
TAUT_ONE = oplus(_P, Not(_P))
TAUT_ZERO = odot(_P, Not(_P))

_tau_lock = threading.Lock()
_tau_cache: dict[int, dict[int, Formula]] = {}


def _threshold_family(n: int) -> dict[int, Formula]:
    """Breadth-first search over unary maps reachable from the identity.

    Post-composing x -> x (+) x doubles and truncates; x -> x (.) x doubles
    down and truncates.  The reachable function space on n+1 points is
    finite, so the search terminates; the first formula reaching each
    threshold table is kept, which fixes the synthesized formula per (i, n).
    """
    targets = {
        tuple(n if x >= i else 0 for x in range(n + 1)): i for i in range(1, n + 1)
    }
    found: dict[int, Formula] = {}
    ident = tuple(range(n + 1))
    queue: list[tuple[tuple[int, ...], Formula]] = [(ident, _P)]
    seen = {ident}
    while queue and len(found) < n:
        next_queue: list[tuple[tuple[int, ...], Formula]] = []
        for table, ast in queue:
            i = targets.get(table)
            if i is not None and i not in found:
                found[i] = ast
            for new_ast in (oplus(ast, ast), odot(ast, ast)):
                new_table = unary_table(new_ast, n)
                if new_table not in seen:
                    seen.add(new_table)
                    next_queue.append((new_table, new_ast))
        queue = next_queue
    missing = [i for i in range(1, n + 1) if i not in found]
    if missing:  # unreachable for the doubling maps, kept as a hard guard
        raise RuntimeError(f"threshold synthesis failed for i={missing} at n={n}")
    return found


def synth_tau(i: int, n: int) -> Formula:
    """One-variable formula in p whose value is 1 for x >= i/n and 0 below.

    i = 0 and i = n+1 are accepted and both return the constant-1 formula
    p (+) ~p, the conventional reading of the degenerate thresholds.
    """
    if n < 1:
        raise ValueError("resolution must be >= 1")
    if i in (0, n + 1):
        return TAUT_ONE
    if not 1 <= i <= n:
        raise ValueError(f"threshold index {i} out of range 0..{n + 1}")
    with _tau_lock:
        family = _tau_cache.get(n)
        if family is None:
            family = _threshold_family(n)
            _tau_cache[n] = family
        return family[i]


def synth_indicator(i: int, n: int) -> Formula:
    """One-variable formula whose value is 1 exactly at the point i/n.

    Built as tau_i & ~tau_{i+1}.  The out-of-range upper threshold (i = n)
    uses the constant-0 formula p (.) ~p so that the top indicator is the
    characteristic function of {1}; the constant-1 convention stated for
    degenerate thresholds would collapse it to 0.
    """
    if not 0 <= i <= n:
        raise ValueError(f"indicator index {i} out of range 0..{n}")
    low = synth_tau(i, n) if i >= 1 else TAUT_ONE
    high = synth_tau(i + 1, n) if i + 1 <= n else TAUT_ZERO
    return land(low, Not(high))


# --- algebraic identities -------------------------------------------------


# Each identity is the text of its equation: two formulas in x, y and z.
_MV_EQUATIONS = ("1->x=x", "(x->y)->y=(y->x)->x", "(~x->~y)->(y->x)=1", "(x->y)->((y->z)->(x->z))=1")


def mv_equation_failures(n: int) -> list[tuple[str, int, int, int]]:
    """Exhaustively check the four defining identities of the value algebra.

    As printed, two of the four need the standard reading: the first is
    checked as 1 -> x = x (not x -> 1 = x, which already fails at x = 0),
    and the third as (x -> y) -> y = (y -> x) -> x.  Returns the list of
    failing (equation, x, y, z) numerator triples, grouped per identity in
    the order above and each group in lexicographic order; variables an
    identity does not use read 0.  Empty means all hold.

    Each identity is one table of its k variables, one lane of
    n.bit_length() + 1 bits per row in `itertools.product` order, and
    its two sides are compared lane by lane.
    """
    bad: list[tuple[str, int, int, int]] = []
    base, w = n + 1, n.bit_length() + 1
    for equation in _MV_EQUATIONS:
        lhs, rhs = map(parse_formula, equation.split("="))
        steps, leaves = _table((lhs, rhs))
        lanes = Lanes(n, base ** len(leaves), w)
        cols = dict(zip(leaves, _ramps(n, len(leaves))))
        lanes.run(steps, cols)
        for i, row in enumerate(itertools.product(range(base), repeat=len(leaves))):
            if lanes.lane(cols[lhs], i) != lanes.lane(cols[rhs], i):
                bad.append((equation, *row, *[0] * (3 - len(row))))
    return bad
