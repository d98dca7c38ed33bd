"""Quotients of models by value-agreement on a formula's closure.

Two worlds are identified when they give the same value to every member
of the closure of the seed formula.  The quotient keeps an atomic edge
between classes whenever some representatives were related, and values a
variable at a class as the join over the class members.  The class count
is bounded by (n+1) to the closure size, which is what makes the
satisfiability search finite.

Also builds, for any class-saturated world set E, a formula that is true
exactly on E: per class, the meet over the closure of point indicators
composed with the closure formulas; then the join over the classes in E.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .luk import synth_indicator
from .kripke import KripkeModel
from .syntax import Formula, big_join, big_meet, fl_closure, substitute


class NotSaturated(ValueError):
    """Raised when a world set is not a union of equivalence classes."""


@dataclass
class FiltrationResult:
    quotient: KripkeModel
    class_of: dict[str, str]
    seed: Formula
    closure: tuple[Formula, ...]
    class_values: dict[str, tuple[int, ...]]


def _classes(m: KripkeModel, seed: Formula):
    """The closure of the seed, the value tuples over it (closure members
    in construction order) that worlds of m take, in ascending order, and
    the index in that order of each world's tuple: its class."""
    closure = fl_closure(seed)
    sigs = list(zip(*[m._column(g) for g in closure]))  # per world index
    index = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return closure, list(index), [index[sig] for sig in sigs]


def equivalence_classes(m: KripkeModel, seed: Formula) -> list[list[str]]:
    """Partition of the worlds by agreement on the closure of the seed.

    Classes come in ascending order of their value tuple over the closure
    (closure members in construction order); members keep world order.
    """
    _, sigs, cls = _classes(m, seed)
    groups: list[list[str]] = [[] for _ in sigs]
    for w, i in zip(m.worlds, cls):
        groups[i].append(w)
    return groups


def filter_model(m: KripkeModel, seed: Formula) -> FiltrationResult:
    """Quotient of m through the closure of the seed formula."""
    closure, sigs, cls = _classes(m, seed)
    names = [f"c{i}" for i in range(len(sigs))]
    succ: dict[str, list[list[int]]] = {}
    for atom, lists in m._succ.items():
        targets: list[set[int]] = [set() for _ in names]
        for c, vs in zip(cls, lists):
            targets[c].update(map(cls.__getitem__, vs))
        succ[atom] = [sorted(t) for t in targets]
    vcols: dict[str, list[int]] = {}
    for var in m.variables:
        col = [0] * len(names)  # every class has a member
        for c, v in zip(cls, m._vcols[var]):
            if v > col[c]:
                col[c] = v
        vcols[var] = col
    quotient = KripkeModel._indexed(m.n, names, succ, vcols)
    class_of = {w: names[c] for w, c in zip(m.worlds, cls)}
    return FiltrationResult(quotient, class_of, seed, tuple(closure), dict(zip(names, sigs)))


def characteristic_formula(m: KripkeModel, seed: Formula, world_set: Iterable[str]) -> Formula:
    """Formula true exactly on a class-saturated world set of m.

    Per class, each closure member is forced to its class value by the
    matching point indicator; the meet of those is true exactly on the
    class, and the join over the classes inside the set does the rest.
    The empty set yields the falsum (nowhere true).
    """
    target = set(world_set)
    unknown = target - set(m.worlds)
    if unknown:
        raise NotSaturated(f"unknown worlds: {sorted(unknown)}")
    closure, sigs, cls = _classes(m, seed)
    inside = {i for w, i in zip(m.worlds, cls) if w in target}
    split = inside & {i for w, i in zip(m.worlds, cls) if w not in target}
    if split:
        members = {w for w, i in zip(m.worlds, cls) if i == min(split)}
        raise NotSaturated(
            f"set splits a class: contains {sorted(members & target)} "
            f"but not {sorted(members - target)}"
        )
    return big_join(
        [
            big_meet([substitute(synth_indicator(v, m.n), {"p": g}) for g, v in zip(closure, sigs[i])])
            for i in sorted(inside)
        ]
    )
