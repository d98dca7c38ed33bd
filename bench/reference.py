"""Independent references the benchmark checks mvpdl's answers against.

Written straight from the semantics: values are numerators 0..n of the
(n+1)-valued Lukasiewicz chain, negation is n-x, implication min(n, n-x+y),
and [alpha]phi at w is the minimum of phi over the alpha-successors of w
(n when there are none).  Successors of compound programs are computed per
world from the regular operations, with a breadth-first search for star;
no relation is ever materialised for the whole model.  Trees are walked by
class name, so nothing here calls into mvpdl.
"""

from __future__ import annotations

import itertools


class Relational:
    """Evaluator over a structure given by `n`, an atomic successor
    function and a variable valuation, with per-world memo tables."""

    def __init__(self, n: int, successors, valuation):
        self.n = n
        self._atomic = successors  # (program name, world) -> iterable of worlds
        self._var = valuation  # (variable name, world) -> numerator
        self._values: dict = {}
        self._succ: dict = {}
        self._pinned: list = []  # keeps memo keys' objects alive

    @classmethod
    def of_model(cls, n: int, worlds, relations, value_of):
        """From a model's world list, relation pairs and `value_of(var, w)`."""
        adj: dict[tuple[str, str], list[str]] = {}
        for atom, pairs in relations.items():
            for u, v in pairs:
                adj.setdefault((atom, u), []).append(v)
        return cls(n, lambda atom, w: adj.get((atom, w), ()), value_of)

    def value(self, f, w) -> int:
        key = (id(f), w)
        got = self._values.get(key)
        if got is not None:
            return got
        n = self.n
        cls = type(f).__name__
        if cls == "Var":
            v = self._var(f.name, w)
        elif cls == "Zero":
            v = 0
        elif cls == "Not":
            v = n - self.value(f.sub, w)
        elif cls == "Implies":
            v = min(n, n - self.value(f.lhs, w) + self.value(f.rhs, w))
        elif cls == "Box":
            v = n
            for u in self.successors(f.prog, w):
                v = min(v, self.value(f.body, u))
                if v == 0:
                    break
        else:
            raise TypeError(f"not a formula node: {cls}")
        self._values[key] = v
        self._pinned.append(f)
        return v

    def successors(self, prog, w) -> frozenset:
        key = (id(prog), w)
        got = self._succ.get(key)
        if got is not None:
            return got
        cls = type(prog).__name__
        if cls == "Atomic":
            out = frozenset(self._atomic(prog.name, w))
        elif cls == "Test":
            out = frozenset((w,)) if self.value(prog.formula, w) == self.n else frozenset()
        elif cls == "Seq":
            out = frozenset(
                x for v in self.successors(prog.left, w) for x in self.successors(prog.right, v)
            )
        elif cls == "Union":
            out = self.successors(prog.left, w) | self.successors(prog.right, w)
        elif cls == "Star":
            seen = {w}
            todo = [w]
            while todo:
                u = todo.pop()
                for v in self.successors(prog.sub, u):
                    if v not in seen:
                        seen.add(v)
                        todo.append(v)
            out = frozenset(seen)
        else:
            raise TypeError(f"not a program node: {cls}")
        self._succ[key] = out
        self._pinned.append(prog)
        return out


def model_reference(m) -> Relational:
    """Relational evaluator over a KripkeModel's public fields."""
    return Relational.of_model(m.n, m.worlds, m.relations, lambda var, w: m.atomic_value(w, var).num)


# --- propositional truth tables -----------------------------------------


def _abstract(f, fresh: dict):
    """Replace maximal boxed subformulas by variables; equal boxes share one."""
    cls = type(f).__name__
    if cls == "Box":
        return ("var", fresh.setdefault(f, f"#box{len(fresh)}"))
    if cls == "Var":
        return ("var", f.name)
    if cls == "Zero":
        return ("zero",)
    if cls == "Not":
        return ("not", _abstract(f.sub, fresh))
    if cls == "Implies":
        return ("imp", _abstract(f.lhs, fresh), _abstract(f.rhs, fresh))
    raise TypeError(f"not a formula node: {cls}")


def _variables(t, out: set) -> set:
    if t[0] == "var":
        out.add(t[1])
    for child in t[1:]:
        if isinstance(child, tuple):
            _variables(child, out)
    return out


def _eval(t, env, n) -> int:
    tag = t[0]
    if tag == "var":
        return env[t[1]]
    if tag == "zero":
        return 0
    if tag == "not":
        return n - _eval(t[1], env, n)
    return min(n, n - _eval(t[1], env, n) + _eval(t[2], env, n))


def abstraction_size(f) -> int:
    """Variables of f once its boxed subformulas are abstracted: the
    truth table of a `luk` line has (n+1) to this many rows."""
    return len(_variables(_abstract(f, {}), set()))


def is_luk_tautology(f, n: int) -> bool:
    """Whether f, with its boxed subformulas abstracted, takes value n
    under every assignment of 0..n to its variables."""
    t = _abstract(f, {})
    names = sorted(_variables(t, set()))
    for nums in itertools.product(range(n + 1), repeat=len(names)):
        if _eval(t, dict(zip(names, nums)), n) != n:
            return False
    return True


# --- searching game with lies -------------------------------------------


def game_update(state: tuple, question: frozenset, positive: bool) -> tuple:
    """Each candidate the answer refutes loses one step, floored at 0.
    Candidates are 1..m; the question holds candidate numbers."""
    return tuple(
        max(x - 1, 0) if ((i + 1) in question) != positive else x for i, x in enumerate(state)
    )


def game_states(m: int, n: int, depth: int) -> set[tuple]:
    """States reachable from all-n within `depth` answers, by plain BFS."""
    questions = [
        frozenset(i + 1 for i in range(m) if mask >> i & 1) for mask in range(1 << m)
    ]
    start = (n,) * m
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for q in questions:
                for positive in (True, False):
                    t = game_update(s, q, positive)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return seen


def question_members(name: str) -> frozenset:
    """Candidate numbers named by an atomic program `Q{1,3}`."""
    if not (name.startswith("Q{") and name.endswith("}")):
        raise ValueError(f"not a question name: {name!r}")
    body = name[2:-1]
    return frozenset(int(x) for x in body.split(",") if x.strip())


def game_reference(m: int, n: int, depth: int) -> tuple[set, Relational]:
    """Reachable states and an evaluator over them, worlds being state
    tuples and question Q stepping to either answer's update when that
    state is reachable."""
    states = game_states(m, n, depth)

    def successors(name, s):
        q = question_members(name)
        return [t for t in (game_update(s, q, True), game_update(s, q, False)) if t in states]

    def valuation(var, s):
        if not var.startswith("p_"):
            raise KeyError(var)
        return s[int(var[2:]) - 1]

    return states, Relational(n, successors, valuation)


def state_of_world(name: str) -> tuple:
    """State tuple of a game world named `s<v1>_<v2>_...`."""
    return tuple(int(x) for x in name[1:].split("_"))
