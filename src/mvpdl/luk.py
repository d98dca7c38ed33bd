"""Arithmetic of the (n+1)-valued Lukasiewicz truth set.

Values are the fractions i/n for 0 <= i <= n, kept exact as an integer
numerator paired with the step count n.  Negation is 1-x and implication
is min(1-x+y, 1); the strong and lattice connectives derive from those.
Values at different resolutions never mix: the sets of values are
incomparable in general, so a mismatch is an error, not a coercion.

Also provides exhaustive propositional tautology checking and the
synthesis of one-variable threshold formulas (value 1 from i/n upward,
0 below) and point indicators, built only from the doubling maps
x (+) x and x (.) x.

The connectives on packed columns, `Lanes`, are stated here once: a
column of values is one int with one lane of bits per value, and each
connective is a few integer operations on every lane at once (broadword
arithmetic, Knuth TAOCP 4A 7.1.3).  The model checker keeps its value
columns in them, one lane per world.

A formula is lowered to a straight-line program of implications in the
order of `syntax.plan`.  The tautology check reads the whole (n+1)**k
table of k variables as such columns, a lane of n.bit_length()+1 bits
per row.  A column of a block of rows is at most 4 KiB and a block's
columns at most 1 MiB together: the last variables run through all
their values in a block (3,125 rows at n = 4), and the leading ones that
do not fit are constant per block.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Mapping

from .syntax import FALSUM, IMP, NOT, VAR, ZERO, Formula, Not, Var, land, odot, oplus, plan


class ResolutionMismatch(ValueError):
    """Raised when values from different truth sets are combined."""


class UnboundVariable(KeyError):
    """Raised when evaluation meets a variable missing from the assignment."""


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


def all_values(n: int) -> Iterator[TruthValue]:
    for i in range(n + 1):
        yield TruthValue(i, n)


def _same_resolution(x: TruthValue, y: TruthValue) -> int:
    if x.n != y.n:
        raise ResolutionMismatch(f"cannot combine values at /{x.n} and /{y.n}")
    return x.n


# Numerator-level connectives; the hot paths work on plain ints.


def neg_i(x: int, n: int) -> int:
    return n - x


def imp_i(x: int, y: int, n: int) -> int:
    return min(n - x + y, n)


def oplus_i(x: int, y: int, n: int) -> int:
    return min(x + y, n)


def odot_i(x: int, y: int, n: int) -> int:
    return max(x + y - n, 0)


def equiv_i(x: int, y: int, n: int) -> int:
    return n - abs(x - y)


def neg(x: TruthValue) -> TruthValue:
    return TruthValue(x.n - x.num, x.n)


def implies(x: TruthValue, y: TruthValue) -> TruthValue:
    n = _same_resolution(x, y)
    return TruthValue(imp_i(x.num, y.num, n), n)


def strong_or(x: TruthValue, y: TruthValue) -> TruthValue:
    n = _same_resolution(x, y)
    return TruthValue(oplus_i(x.num, y.num, n), n)


def strong_and(x: TruthValue, y: TruthValue) -> TruthValue:
    n = _same_resolution(x, y)
    return TruthValue(odot_i(x.num, y.num, n), n)


def join(x: TruthValue, y: TruthValue) -> TruthValue:
    n = _same_resolution(x, y)
    return TruthValue(max(x.num, y.num), n)


def meet(x: TruthValue, y: TruthValue) -> TruthValue:
    n = _same_resolution(x, y)
    return TruthValue(min(x.num, y.num), n)


def equiv(x: TruthValue, y: TruthValue) -> TruthValue:
    n = _same_resolution(x, y)
    return TruthValue(equiv_i(x.num, y.num, n), n)


# --- propositional evaluation --------------------------------------------


def _lower(f: Formula) -> tuple[list[str], list[tuple[int, int]], int]:
    """Straight-line program of a modality-free formula, in the order of
    `syntax.plan`.

    Returns (names, steps, root) over a row of slots: slot i < len(names)
    holds the value of variable names[i] (names sorted), the next slot
    holds 0, and step k computes slot len(names) + 1 + k as the
    implication of the two slots it names; ~g is lowered as g -> 0.
    """
    names: list[Formula] = []
    pending = []
    for g, op, reads, _ in plan((f,)):
        if op is VAR:
            names.append(g)
        elif op is NOT or op is IMP:
            pending.append((g, reads[0], reads[1] if op is IMP else ZERO))
        elif op is None:
            raise TypeError(f"not a formula: {g!r}")
        elif op is not FALSUM:
            raise ValueError("modal formula passed to propositional evaluation")
    names.sort(key=attrgetter("name"))
    slot = {g: i for i, g in enumerate(names)}
    slot[ZERO] = zero = len(names)
    steps: list[tuple[int, int]] = []
    for g, a, b in pending:
        steps.append((slot[a], slot[b]))
        slot[g] = zero + len(steps)
    return [g.name for g in names], steps, slot[f]


def _run(steps: list[tuple[int, int]], root: int, nums, n: int) -> int:
    """Value of a lowered formula; nums lists the variables' numerators."""
    vals = list(nums)
    vals.append(0)
    for i, j in steps:
        x = vals[i]
        y = vals[j]
        vals.append(n if x <= y else n - x + y)
    return vals[root]


def eval_prop_num(f: Formula, env: Mapping[str, int], n: int) -> int:
    """Evaluate a modality-free formula; env maps names to numerators."""
    names, steps, root = _lower(f)
    try:
        nums = [env[name] for name in names]
    except KeyError as exc:
        raise UnboundVariable(exc.args[0]) from None
    return _run(steps, root, nums, n)


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


def prop_counterexample(f: Formula, n: int) -> dict[str, TruthValue] | None:
    """First assignment (in lexicographic order) with value below 1, if any.

    Exhausts the full table, so the cost is (n+1)**#variables lanes of
    packed arithmetic (see `_first_failing_row`).
    """
    names, steps, root = _lower(f)
    nums = _first_failing_row(len(names), steps, root, n)
    if nums is None:
        return None
    return {name: TruthValue(i, n) for name, i in zip(names, nums)}


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


def _first_failing_row(k: int, steps: list[tuple[int, int]], root: int, n: int) -> tuple[int, ...] | None:
    """The numerators of the first row of k variables, in
    `itertools.product` order, on which the lowered formula is below n.

    The table is evaluated a block of rows at a time, each slot's column
    `Lanes` with one lane of n.bit_length() + 1 bits per row, row 0 of
    the block in the lowest lane.  The last t variables run through all
    their values in a block and the leading ones are constant in it, so
    the blocks follow the rows' order.
    """
    w = n.bit_length() + 1
    base = n + 1
    lanes_cap = max(1, min(_COLUMN_BITS, _BLOCK_BITS // (k + 1 + len(steps))) // w)
    t = 0
    while t < k and base ** (t + 1) <= lanes_cap:
        t += 1
    lanes = Lanes(n, base**t, w)
    imp = lanes.imp
    trailing = [_ramp(base, base ** (t - 1 - i), lanes.count, w) for i in range(t)]
    for lead in itertools.product(range(base), repeat=k - t):
        vals = [v * lanes.ones for v in lead]
        vals += trailing
        vals.append(0)
        push = vals.append
        for i, j in steps:
            push(imp(vals[i], vals[j]))
        row = lanes.first_below_top(vals[root])
        if row is not None:
            digits = []
            for _ in range(t):
                row, v = divmod(row, base)
                digits.append(v)
            return lead + tuple(reversed(digits))
    return None


def _ramp(count: int, run: int, lanes: int, w: int) -> int:
    """The column of lanes lanes of width w that holds 0 in the first run
    lanes, 1 in the next run, and so on up to count - 1, then again from 0."""
    period_bits = w * run * count
    return _counting(count, w * run) * _repunit(run, w) * _repunit(lanes // (run * count), period_bits)


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
    return tuple(eval_prop_num(f, {var: i}, n) for i in range(n + 1))


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
            for new_table, new_ast in (
                (tuple(min(2 * x, n) for x in table), oplus(ast, ast)),
                (tuple(max(2 * x - n, 0) for x in table), odot(ast, ast)),
            ):
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


def mv_equation_failures(n: int) -> list[tuple[str, int, int, int]]:
    """Exhaustively check the four defining identities of the value algebra.

    As printed, two of the four need the standard reading: the first is
    checked as 1 -> x = x (not x -> 1 = x, which already fails at x = 0),
    and the third as (x -> y) -> y = (y -> x) -> x.  Returns the list of
    failing (equation, x, y, z) numerator triples; empty means all hold.
    """
    bad: list[tuple[str, int, int, int]] = []
    rng = range(n + 1)
    for x in rng:
        if imp_i(n, x, n) != x:
            bad.append(("1->x=x", x, 0, 0))
        for y in rng:
            if imp_i(imp_i(x, y, n), y, n) != imp_i(imp_i(y, x, n), x, n):
                bad.append(("(x->y)->y=(y->x)->x", x, y, 0))
            if imp_i(imp_i(neg_i(x, n), neg_i(y, n), n), imp_i(y, x, n), n) != n:
                bad.append(("(~x->~y)->(y->x)=1", x, y, 0))
            for z in rng:
                lhs = imp_i(imp_i(x, y, n), imp_i(imp_i(y, z, n), imp_i(x, z, n), n), n)
                if lhs != n:
                    bad.append(("(x->y)->((y->z)->(x->z))=1", x, y, z))
    return bad
