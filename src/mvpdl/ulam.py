"""Question-answer search games with a lying answerer, as Kripke models.

One player fixes an element of a finite search space M and may lie up to
n-1 times; the other asks subset questions "is it in Q?".  A state of
knowledge assigns each candidate m the value 1 - r(m)/n, where r(m)
counts the answers refuting m; a candidate at 0 is safely excluded.

A positive answer to Q is the map valued 1 on Q and (n-1)/n off Q; the
negative answer is the positive answer to the complement.  Each answer
updates the state by pointwise strong conjunction, i.e. every refuted
candidate drops by exactly one step, floored at 0.

The induced model has states of knowledge as worlds, one atomic program
per question Q (written Q{...}) whose relation steps to either answer's
update, and one variable p_m per candidate valued f(m) at state f.
Worlds are the states reachable from the initial all-ones state within a
question budget d: since an answer lowers any chosen set of values by one
step, they are exactly the states with every value at least n - d,
(min(n, d) + 1)^|M| of them.  A flag restores the full (n+1)^|M| space
instead; depth n already reaches every state and edge of it.

One breadth-first exploration finds the worlds and the edges together:
it visits each state once, updates it by both answers to every question
(one `update_state` call each), appends an unseen successor while the
question budget lasts, and records the successor's index under the
question's name.  The full space starts with every state and, being
closed under updates, never appends.  The state count is known exactly
before the pass starts, so the work budget on states times questions and
then the state cap are each one comparison, made before any question is
built.
The model is built from those successor index lists and the states'
value columns as they are, through the index-level constructor
`KripkeModel._indexed`, which checks only the world names; no edge is
written out as a pair of world names.  The pair constructor
`KripkeModel(n, worlds, relations, valuation)` stays the validated API
for models built outside the package.

A `GameConfig` refuses an element whose question name Q{e} or variable
p_e does not read back as that element (a comma, a space, a brace), so
a specification always names the question it reads as.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .kripke import KripkeModel, _parses_back
from .luk import charge
from .parser import parse_formula
from .syntax import Atomic, Formula, atomic_programs_of, substitute_atomics


_STATE_CAP = 200_000  # most states a game model may have
DEFAULT_PAIRS = 10**7  # state-question pairs an exploration may visit by default


class GameError(ValueError):
    pass


@dataclass(frozen=True)
class KnowledgeState:
    """Map from the search space to truth values, kept as numerators."""

    elements: tuple[str, ...]
    values: tuple[int, ...]
    n: int

    def __post_init__(self):
        if len(self.elements) != len(self.values):
            raise GameError("one value per element required")
        if any(not 0 <= v <= self.n for v in self.values):
            raise GameError("state value out of range")

    def value_of(self, element: str) -> int:
        return self.values[self.elements.index(element)]

    def final_candidate(self) -> str | None:
        """The unique element still above 0, if exactly one remains."""
        alive = [m for m, v in zip(self.elements, self.values) if v > 0]
        return alive[0] if len(alive) == 1 else None

    def __str__(self):
        body = ", ".join(f"{m}={v}/{self.n}" for m, v in zip(self.elements, self.values))
        return f"({body})"


@dataclass(frozen=True)
class GameConfig:
    """A game's search space, lie bound n and question budget.  Frozen,
    so the element set, kept once for every membership check, stays the
    set of its elements."""

    elements: tuple[str, ...]
    n: int
    depth: int
    full_space: bool = False
    element_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "element_set", frozenset(self.elements))
        if not self.elements:
            raise GameError("search space must be nonempty")
        if len(self.element_set) != len(self.elements):
            raise GameError("duplicate elements in search space")
        if self.n < 1:
            raise GameError("n must be >= 1")
        if self.depth < 0:
            raise GameError("depth must be >= 0")
        for m in self.elements:  # else a spec could name another question, or none
            name, var = "Q{" + m + "}", f"p_{m}"
            try:
                back = _parses_back(name, "program") and _parses_back(var, "variable") and parse_question(self, name)
            except GameError:  # members that are no elements
                back = None
            if back != {m}:
                raise GameError(f"element {m!r} does not read back from its question name {name!r} or variable {var!r}")

    def start(self) -> KnowledgeState:
        return KnowledgeState(self.elements, (self.n,) * len(self.elements), self.n)


def positive_answer(cfg: GameConfig, question: Iterable[str]) -> KnowledgeState:
    """The map valued 1 on the question set and (n-1)/n outside it."""
    q = _as_set(cfg, question)
    vals = tuple(cfg.n if m in q else cfg.n - 1 for m in cfg.elements)
    return KnowledgeState(cfg.elements, vals, cfg.n)


def negative_answer(cfg: GameConfig, question: Iterable[str]) -> KnowledgeState:
    return positive_answer(cfg, cfg.element_set - _as_set(cfg, question))


def update_state(
    cfg: GameConfig, state: KnowledgeState, question: Iterable[str], positive: bool
) -> KnowledgeState:
    """Pointwise strong conjunction with the chosen answer map."""
    answer = positive_answer(cfg, question) if positive else negative_answer(cfg, question)
    vals = tuple(
        max(x + y - cfg.n, 0) for x, y in zip(state.values, answer.values)
    )
    return KnowledgeState(cfg.elements, vals, cfg.n)


def _as_set(cfg: GameConfig, question: Iterable[str]) -> frozenset[str]:
    q = frozenset(question)
    unknown = q - cfg.element_set
    if unknown:
        raise GameError(f"question names unknown elements: {sorted(unknown)}")
    return q


def question_name(cfg: GameConfig, question: Iterable[str]) -> str:
    """Canonical atomic-program name of a subset question."""
    q = _as_set(cfg, question)
    return "Q{" + ",".join(m for m in cfg.elements if m in q) + "}"


def parse_question(cfg: GameConfig, name: str) -> frozenset[str]:
    """Set named by Q{...} or its complement ~Q{...}."""
    text = name.strip()
    complement = text.startswith("~")
    if complement:
        text = text[1:]
    if not (text.startswith("Q{") and text.endswith("}")):
        raise GameError(f"not a question name: {name!r}")
    body = text[2 : -1].strip()
    members = frozenset(x.strip() for x in body.split(",") if x.strip()) if body else frozenset()
    members = _as_set(cfg, members)
    return cfg.element_set - members if complement else members


def all_questions(cfg: GameConfig) -> list[frozenset[str]]:
    """Every subset of the search space, in bitmask order."""
    ms = cfg.elements
    return [
        frozenset(m for i, m in enumerate(ms) if mask >> i & 1)
        for mask in range(1 << len(ms))
    ]


def state_world_name(state: KnowledgeState) -> str:
    return "s" + "_".join(str(v) for v in state.values)


def world_name_state(cfg: GameConfig, name: str) -> KnowledgeState:
    if not name.startswith("s"):
        raise GameError(f"not a state world: {name!r}")
    vals = tuple(int(x) for x in name[1:].split("_"))
    return KnowledgeState(cfg.elements, vals, cfg.n)


def _explore(
    cfg: GameConfig, budget: int | None = DEFAULT_PAIRS
) -> tuple[list[KnowledgeState], dict[str, list[list[int]]]]:
    """The game's states and, per question name, each state's successor
    indices, from one breadth-first pass over `update_state`.

    The pass visits every state with each of the 2^m questions.  One
    answer lowers each value by at most one step, and the positive answer
    to Q lowers exactly the values off Q, so the states within d questions
    are exactly those with every value at least n - d: there are
    S = (min(n, d) + 1)^m of them, and (n+1)^m with full_space.  Before
    any question is built, S * 2^m past the budget raises
    `luk.BudgetExceeded`, and S past `_STATE_CAP` a `GameError`.
    """
    m = len(cfg.elements)
    base = cfg.n + 1 if cfg.full_space else min(cfg.n, cfg.depth) + 1
    charge(base**m << m, budget, f"the game model has up to {base}^{m} states times 2^{m} questions")
    if base**m > _STATE_CAP:
        raise GameError(f"state budget of {_STATE_CAP} exceeded")
    if cfg.full_space:  # closed under updates, so nothing is appended
        values = itertools.product(range(cfg.n, -1, -1), repeat=m)
        states = [KnowledgeState(cfg.elements, v, cfg.n) for v in values]
    else:
        states = [cfg.start()]
    index = {s: i for i, s in enumerate(states)}
    questions = [(question_name(cfg, q), q) for q in all_questions(cfg)]
    succ: dict[str, list[list[int]]] = {name: [] for name, _ in questions}
    depth, level_end = 0, len(states)
    for i, state in enumerate(states):  # states grows while it is read
        if i == level_end:
            depth, level_end = depth + 1, len(states)
        for name, q in questions:
            row: list[int] = []
            for positive in (True, False):
                nxt = update_state(cfg, state, q, positive)
                j = index.get(nxt)
                if j is None and depth < cfg.depth:
                    j = index[nxt] = len(states)
                    states.append(nxt)
                if j is not None and j not in row:  # past the budget the edge leaves the model
                    row.append(j)
            succ[name].append(row)
    return states, succ


def reachable_states(cfg: GameConfig) -> list[KnowledgeState]:
    """The game model's states: those reachable from the initial one
    within the question budget, or the full space with full_space."""
    return _explore(cfg)[0]


def build_game_model(cfg: GameConfig, budget: int | None = DEFAULT_PAIRS) -> KripkeModel:
    """The game as a model: every question is an atomic program, and an
    edge under Q goes from f to f updated by either answer to Q.

    Edges are taken between every pair of worlds that the update equation
    relates, so paths of honest play can be checked against box formulas.

    When the depth budget d < n truncates the space before it closes
    under updates, a frontier state keeps the edges to states inside the
    model and loses those to states past the budget, so box formulas
    there read only part of the answers; specifications should be checked
    at depth n or more, which reaches every state and edge and gives the
    full_space model in breadth-first rather than product order.

    A game whose states times questions (exactly counted, see `_explore`)
    are past the budget raises `luk.BudgetExceeded`; None lifts the
    budget.  One of more than `_STATE_CAP` states raises `GameError`.
    Both are raised before any question is built.
    """
    states, succ = _explore(cfg, budget)
    columns = zip(*(s.values for s in states))
    vcols = {f"p_{m}": list(col) for m, col in zip(cfg.elements, columns)}
    return KripkeModel._indexed(cfg.n, [state_world_name(s) for s in states], succ, vcols)


def check_spec(
    cfg: GameConfig, spec: Formula | str, model: KripkeModel | None = None, budget: int | None = DEFAULT_PAIRS
) -> tuple[bool, KnowledgeState | None]:
    """Whether a specification holds at every reachable state.

    Atomic programs in the formula must be question names.  On failure
    the violating state is returned alongside False.  Without a model,
    the game model is built within the budget.
    """
    f = parse_formula(spec) if isinstance(spec, str) else spec
    m = model if model is not None else build_game_model(cfg, budget)
    # a name the model declares is that question; any other (a complement
    # ~Q{..}, members out of order) is renamed to its canonical question
    renames = {
        name: Atomic(question_name(cfg, parse_question(cfg, name)))
        for name in atomic_programs_of(f)
        if name not in m._succ
    }
    f = substitute_atomics(f, renames)
    bad = m.falsifying_world(f)
    if bad is None:
        return True, None
    return False, world_name_state(cfg, bad[0])


def run_game(
    cfg: GameConfig,
    questions: Sequence[Iterable[str]],
    answers: Sequence[bool],
) -> list[KnowledgeState]:
    """Trajectory of states from the initial one through the given
    question/answer sequence (True = positive answer)."""
    if len(questions) != len(answers):
        raise GameError("one answer per question required")
    state = cfg.start()
    out = [state]
    for q, positive in zip(questions, answers):
        state = update_state(cfg, state, q, positive)
        out.append(state)
    return out
