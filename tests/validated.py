"""References built another way than the code they check: a model rebuilt
through the validated constructor, for the producers that build through
`KripkeModel._indexed` (`random_model`, `disjoint_union`, game models,
decider witnesses, the decider's enumeration of small models and
filtration quotients), and the box abstraction of a `luk` line, for the
truth table that takes a line's maximal boxes as leaves instead."""

from __future__ import annotations

from mvpdl.kripke import KripkeModel
from mvpdl.syntax import Box, Formula, Implies, Not, Var, rewrite


def assert_same_as_validated(model: KripkeModel) -> None:
    """The model's index lists are in range and repeat no successor, and
    it has the worlds, the successor set per world and program, and the
    columns of `KripkeModel(n, worlds, model.relations, valuation)` built
    from its own data."""
    count = len(model.worlds)
    for atom, lists in model._succ.items():
        assert len(lists) == count, atom
        for vs in lists:
            assert all(type(v) is int and 0 <= v < count for v in vs), (atom, vs)
            assert len(set(vs)) == len(vs), (atom, vs)
    valuation = {var: dict(zip(model.worlds, model._vcols[var])) for var in model.variables}
    ref = KripkeModel(model.n, model.worlds, model.relations, valuation)
    assert ref.worlds == model.worlds
    assert ref.variables == model.variables
    assert ref._succ.keys() == model._succ.keys()
    for atom, lists in ref._succ.items():
        assert list(map(set, lists)) == list(map(set, model._succ[atom])), atom
    assert ref._vcols == model._vcols
    assert ref._layers.keys() == model._layers.keys()


def abstract_boxes(f: Formula) -> Formula:
    """Replace each maximal boxed subformula by a variable; equal (hence
    identical) boxes share one variable, numbered left to right."""
    boxes: dict[Formula, Formula] = {}
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        t = type(g)
        if t is Box:
            boxes[g] = Var(f"#b{len(boxes)}")
        elif t is Not:
            stack.append(g.sub)
        elif t is Implies:
            stack.append(g.rhs)
            stack.append(g.lhs)
    return rewrite(f, {}, {}, boxes)
