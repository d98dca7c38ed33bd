"""The searching game with lies and its model construction."""

import hashlib
import tracemalloc

import pytest
from validated import assert_same_as_validated

from mvpdl import ulam
from mvpdl.kripke import format_model
from mvpdl.sat import BudgetExceeded
from mvpdl.ulam import (
    GameConfig,
    GameError,
    KnowledgeState,
    all_questions,
    build_game_model,
    check_spec,
    negative_answer,
    parse_question,
    positive_answer,
    question_name,
    reachable_states,
    run_game,
    state_world_name,
    update_state,
    world_name_state,
)


def cfg3(n=2, depth=3, **kw) -> GameConfig:
    return GameConfig(elements=("1", "2", "3"), n=n, depth=depth, **kw)


def test_positive_answer_examples():
    cfg = cfg3()
    assert positive_answer(cfg, {"1"}).values == (2, 1, 1)
    assert positive_answer(cfg, {"1", "2", "3"}).values == (2, 2, 2)
    assert positive_answer(cfg, set()).values == (1, 1, 1)


def test_answer_duality():
    cfg = cfg3()
    for q in all_questions(cfg):
        assert negative_answer(cfg, q) == positive_answer(cfg, set(cfg.elements) - set(q))


def test_update_examples():
    cfg = cfg3()
    start = cfg.start()
    assert start.values == (2, 2, 2)
    after = update_state(cfg, start, {"1"}, positive=True)
    assert after.values == (2, 1, 1)
    again = update_state(cfg, after, {"1"}, positive=False)
    assert again.values == (1, 1, 1)


def test_positive_update_is_idempotent_on_members():
    cfg = cfg3()
    state = cfg.start()
    for _ in range(4):
        nxt = update_state(cfg, state, {"2"}, positive=True)
        assert nxt.value_of("2") == state.value_of("2")
        state = nxt


def test_final_candidate():
    cfg = cfg3()
    assert KnowledgeState(cfg.elements, (0, 1, 0), 2).final_candidate() == "2"
    assert KnowledgeState(cfg.elements, (2, 2, 2), 2).final_candidate() is None
    assert KnowledgeState(cfg.elements, (0, 0, 0), 2).final_candidate() is None


def test_question_names():
    cfg = cfg3()
    assert question_name(cfg, {"3", "1"}) == "Q{1,3}"
    assert parse_question(cfg, "Q{1,3}") == frozenset({"1", "3"})
    assert parse_question(cfg, "~Q{1, 3}") == frozenset({"2"})
    assert parse_question(cfg, "Q{}") == frozenset()
    with pytest.raises(GameError):
        parse_question(cfg, "Q{7}")
    with pytest.raises(GameError):
        parse_question(cfg, "r")


def test_tiny_game_model_matches_hand_enumeration():
    cfg = GameConfig(elements=("1",), n=1, depth=1)
    m = build_game_model(cfg)
    assert set(m.worlds) == {"s1", "s0"}
    expected = {("s1", "s1"), ("s1", "s0"), ("s0", "s0")}
    assert m.relations["Q{1}"] == frozenset(expected)
    assert m.relations["Q{}"] == frozenset(expected)


def test_initial_state_has_full_values():
    cfg = cfg3()
    m = build_game_model(cfg)
    start = state_world_name(cfg.start())
    for i, el in enumerate(cfg.elements):
        assert m.atomic_value(start, f"p_{el}").is_top


def test_valuation_matches_states_exactly():
    cfg = cfg3(depth=2)
    m = build_game_model(cfg)
    for w in m.worlds:
        state = world_name_state(cfg, w)
        for el in cfg.elements:
            assert m.atomic_value(w, f"p_{el}").num == state.value_of(el)


def _oracle_reachable(cfg: GameConfig) -> set[tuple[int, ...]]:
    # independent breadth-first enumeration over raw value tuples
    n, size = cfg.n, len(cfg.elements)
    questions = [
        tuple(mask >> i & 1 for i in range(size)) for mask in range(1 << size)
    ]

    def apply(state, q, positive):
        out = []
        for i in range(size):
            inside = q[i] == 1
            refuted = (not inside) if positive else inside
            out.append(max(state[i] - 1, 0) if refuted else state[i])
        return tuple(out)

    start = (n,) * size
    seen = {start}
    frontier = [start]
    for _ in range(cfg.depth):
        nxt = []
        for s in frontier:
            for q in questions:
                for positive in (True, False):
                    t = apply(s, q, positive)
                    if t not in seen:
                        seen.add(t)
                        nxt.append(t)
        frontier = nxt
    return seen


@pytest.mark.parametrize("n,depth", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_reachable_states_match_oracle(n, depth):
    cfg = cfg3(n=n, depth=depth)
    got = {s.values for s in reachable_states(cfg)}
    assert got == _oracle_reachable(cfg)


def test_edges_never_increase_knowledge_and_step_once():
    cfg = cfg3(depth=3)
    m = build_game_model(cfg)
    states = {w: world_name_state(cfg, w) for w in m.worlds}
    for atom, pairs in m.relations.items():
        for u, v in pairs:
            su, sv = states[u], states[v]
            for x, y in zip(su.values, sv.values):
                assert y <= x
                assert y in (x, max(x - 1, 0))


def test_specs_from_the_example():
    cfg = cfg3(depth=3)
    m = build_game_model(cfg)
    for q in all_questions(cfg):
        name = question_name(cfg, q)
        for el in cfg.elements:
            ok, _ = check_spec(cfg, f"[{name}]p_{el} -> p_{el}", model=m)
            assert ok, (name, el)
    # asking and then asking the complement decays the threshold by two steps
    ok, _ = check_spec(cfg, "[Q{1};~Q{1}]1", model=m)
    assert ok


def test_truncated_frontier_makes_boxes_vacuous():
    # depth 1 over two elements stops before the space closes: both
    # answers to Q{1} take the frontier state (1/2, 1/2) past the model,
    # so its [Q{1}] boxes are vacuously 1 and the soundness spec fails there
    cfg = GameConfig(elements=("1", "2"), n=2, depth=1)
    ok, state = check_spec(cfg, "[Q{1}]p_1 -> p_1")
    assert not ok
    assert state.values == (1, 1)
    # one more round saturates the space and restores the spec
    ok, _ = check_spec(GameConfig(elements=("1", "2"), n=2, depth=2), "[Q{1}]p_1 -> p_1")
    assert ok
    cfg_full = GameConfig(elements=("1", "2"), n=2, depth=1, full_space=True)
    ok, _ = check_spec(cfg_full, "[Q{1}]p_1 -> p_1")
    assert ok


def test_spec_counterexample():
    cfg = cfg3(depth=2)
    ok, state = check_spec(cfg, "p_1 -> [Q{2}]p_1")
    assert not ok
    assert state is not None
    assert state.value_of("1") > 0
    # a complement or a reordered name reads the canonical question, not
    # an undeclared program, whose box would hold vacuously
    want = check_spec(cfg, "p_1 -> [Q{2,3}]p_1")
    assert not want[0]
    for name in ("~Q{1}", "Q{3,2}"):
        assert check_spec(cfg, f"p_1 -> [{name}]p_1") == want


def test_spec_parses_only_names_the_model_does_not_declare(monkeypatch):
    cfg = cfg3(depth=2)
    m = build_game_model(cfg)
    parsed = []

    def spy(cfg, name):
        parsed.append(name)
        return parse_question(cfg, name)

    monkeypatch.setattr(ulam, "parse_question", spy)
    canonical = "p_1 -> [Q{2,3}]p_1 & [Q{1}]p_2"
    want = check_spec(cfg, canonical, model=m)
    assert not want[0]
    assert parsed == []
    assert check_spec(cfg, "p_1 -> [~Q{1}]p_1 & [Q{1}]p_2", model=m) == want
    assert check_spec(cfg, "p_1 -> [Q{3,2}]p_1 & [Q{1}]p_2", model=m) == want
    assert parsed == ["~Q{1}", "Q{3,2}"]


def test_unknown_question_in_spec():
    cfg = cfg3(depth=1)
    with pytest.raises(GameError):
        check_spec(cfg, "[r]p_1 -> p_1")


def test_run_game_trajectory():
    cfg = cfg3()
    traj = run_game(cfg, [{"1"}, {"2"}], [True, False])
    assert [s.values for s in traj] == [(2, 2, 2), (2, 1, 1), (2, 0, 1)]
    with pytest.raises(GameError):
        run_game(cfg, [{"1"}], [True, False])


def test_full_space_flag():
    cfg = GameConfig(elements=("1", "2"), n=1, depth=0, full_space=True)
    m = build_game_model(cfg)
    assert len(m.worlds) == 4


def test_config_validation():
    with pytest.raises(GameError):
        GameConfig(elements=(), n=1, depth=1)
    with pytest.raises(GameError):
        GameConfig(elements=("1", "1"), n=1, depth=1)
    with pytest.raises(GameError):
        GameConfig(elements=("1",), n=0, depth=1)
    # Q{a,b} reads back as elements a and b, Q{ a} as element a, and the
    # formula lexer reads Q{x y} as Q{xy}
    for elements in (("a,b", "c"), (" a", "a"), ("x y", "z"), ("", "a")):
        with pytest.raises(GameError, match="does not read back"):
            GameConfig(elements=elements, n=1, depth=1)
    assert GameConfig(elements=("a", "b2", "élément"), n=1, depth=1).elements == ("a", "b2", "élément")


def _game(m, n, depth, full_space=False) -> GameConfig:
    return GameConfig(elements=tuple(str(i) for i in range(1, m + 1)), n=n, depth=depth, full_space=full_space)


@pytest.mark.parametrize("m,n,depth,states", [(3, 2, 3, 27), (5, 1, 2, 32), (2, 2, 1, 4), (2, 2, 0, 1)])
def test_each_answer_update_is_made_once(monkeypatch, m, n, depth, states):
    calls = []
    update = ulam.update_state
    monkeypatch.setattr(ulam, "update_state", lambda *args: calls.append(1) or update(*args))
    model = build_game_model(_game(m, n, depth))
    assert len(model.worlds) == states
    assert len(calls) == states * 2**m * 2


def test_game_model_files_are_pinned():
    # reachable, truncated (depth 1) and full-space models, written as
    # model files: world order, names, edges and values all show here
    digest = hashlib.sha256()
    for m, n, depth, full_space in (
        (3, 2, 3, False),
        (2, 2, 1, False),
        (3, 3, 1, False),
        (4, 1, 2, False),
        (2, 2, 0, True),
        (2, 3, 1, True),
        (3, 1, 0, True),
        (1, 1, 5, False),
    ):
        digest.update(format_model(build_game_model(_game(m, n, depth, full_space))).encode())
    assert digest.hexdigest() == "aa65a76d88f7726da31fd655565753443ba73d398020be186de43b7117e87762"


def test_truncated_frontier_keeps_edges_inside_the_model():
    model = build_game_model(_game(2, 2, 1))
    rel = model.relations
    assert {v for u, v in rel["Q{}"] if u == "s2_1"} == {"s2_1"}
    assert {v for u, v in rel["Q{1,2}"] if u == "s2_1"} == {"s2_1"}
    assert {v for u, v in rel["Q{1}"] if u == "s2_1"} == {"s1_1"}
    assert {v for u, v in rel["Q{2}"] if u == "s2_1"} == {"s1_1"}


def test_state_cap_is_one_check(monkeypatch):
    # 27 reachable states at (3, 2, 3) and 27 in the full space at (3, 2, 0)
    for cfg in (_game(3, 2, 3), _game(3, 2, 0, full_space=True)):
        monkeypatch.setattr(ulam, "_STATE_CAP", 27)
        assert len(build_game_model(cfg).worlds) == 27
        monkeypatch.setattr(ulam, "_STATE_CAP", 26)
        with pytest.raises(GameError) as err:
            build_game_model(cfg)
        assert str(err.value) == "state budget of 26 exceeded"
        with pytest.raises(GameError):
            reachable_states(cfg)


@pytest.mark.parametrize(
    "m,n,depth,full_space", [(3, 2, 3, False), (5, 1, 2, False), (4, 2, 3, False), (2, 3, 1, True)]
)
def test_game_model_matches_the_validated_constructor(m, n, depth, full_space):
    cfg = _game(m, n, depth, full_space)
    model = build_game_model(cfg)
    assert_same_as_validated(model)
    states = reachable_states(cfg)
    assert model.worlds == tuple(map(state_world_name, states))
    for i, element in enumerate(cfg.elements):
        assert model._vcols[f"p_{element}"] == [s.values[i] for s in states]


def test_state_count_is_exact_and_depth_n_reaches_the_full_space():
    # an answer lowers any chosen set of values by one step, so within d
    # questions the states are those with every value at least n - d
    def as_sets(model):
        values = {p: dict(zip(model.worlds, col)) for p, col in model._vcols.items()}
        return set(model.worlds), model.relations, values

    for m in range(1, 6):
        for n in range(1, 5):
            full = build_game_model(_game(m, n, 0, full_space=True))
            assert len(full.worlds) == (n + 1) ** m
            for depth in range(6):
                model = build_game_model(_game(m, n, depth))
                assert len(model.worlds) == (min(n, depth) + 1) ** m, (m, n, depth)
                if depth == n - 1:
                    assert len(model.worlds) < len(full.worlds)
                if depth == n and m <= 4 and n <= 3:
                    assert as_sets(model) == as_sets(full), (m, n)


def test_game_build_keeps_no_edge_copy():
    # the model's index lists are the exploration's own, so the build's
    # allocation peak stays near what the model keeps (a copy of the edges
    # as world-name pairs took it to about 3 times)
    cfg = _game(5, 2, 3)
    build_game_model(cfg)  # lazy imports and parser caches, outside the count
    tracemalloc.start()
    try:
        model = build_game_model(cfg)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.worlds) == 243
    assert peak <= 1.5 * retained, (peak, retained)


def test_exploration_budget_bounds_states_times_questions(monkeypatch):
    # exactly (min(n, depth) + 1)^m states, and (n+1)^m in the full space,
    # each with 2^m questions; the check comes before any question is built
    class Built(Exception):
        pass

    def no_questions(cfg):
        raise Built

    monkeypatch.setattr(ulam, "all_questions", no_questions)
    for cfg, states in (
        (_game(9, 3, 1), 2**9),  # 262,144 state-question pairs
        (_game(6, 3, 2), 3**6),  # the largest benchmark config
        (_game(2, 2, 1), 4),
        (_game(1, 1, 5), 2),
        (_game(2, 3, 0, full_space=True), 16),
        (_game(2, 2, 10**18), 9),  # a depth past n counts as n
        (_game(16, 1, 1), 2**16),
    ):
        bound = states << len(cfg.elements)
        with pytest.raises(Built):
            build_game_model(cfg, bound)
        with pytest.raises(BudgetExceeded) as err:
            check_spec(cfg, "p_1", budget=bound - 1)
        m = len(cfg.elements)
        assert str(err.value) == (
            f"the game model has up to {states} states times 2^{m} questions, "
            f"past the budget of {bound - 1}; raise it to go on"
        )
        with pytest.raises(Built if bound <= ulam.DEFAULT_PAIRS else BudgetExceeded):
            build_game_model(cfg)
    assert ulam.DEFAULT_PAIRS < 2**32
    with pytest.raises(Built):
        build_game_model(_game(16, 1, 1), None)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        build_game_model(_game(2, 2, 1), -1)
