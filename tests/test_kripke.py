"""Model checking: box semantics against the relational oracle, file format."""

import hashlib
import random
from importlib.resources import files

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvpdl import cli, kripke
from mvpdl.filtration import filter_model
from mvpdl.kripke import (
    KripkeModel,
    ModelError,
    disjoint_union,
    format_model,
    load_model,
    parse_model,
    random_model,
)
from mvpdl.luk import tv
from mvpdl.parser import ParseError, format_formula, is_identifier, parse_formula, parse_program
from mvpdl.syntax import STAR, Atomic, Box, Implies, Not, Seq, Star, Test, Union, Var, plan, power, star_states
from mvpdl.tautologies import random_formula, random_program
from mvpdl.ulam import GameConfig, build_game_model
from relational import Relational


def counterexample_model() -> KripkeModel:
    return KripkeModel(4, ["u", "v"], {"a": [("u", "v")]}, {"p": {"u": 3, "v": 1}})


def test_worked_counterexample_values():
    m = counterexample_model()
    assert m.value("u", parse_formula("[a*]p")) == tv(1, 4)
    assert m.value("u", parse_formula("[a*](p -> [a]p)")) == tv(2, 4)
    assert m.value("u", parse_formula("p & [a*](p -> [a]p)")) == tv(2, 4)
    # dead end: the box over no successors is 1
    assert m.value("v", parse_formula("[a]p")) == tv(4, 4)
    # hence the unpowered induction shape fails at u
    f = parse_formula("(p & [a*](p -> [a]p)) -> [a*]p")
    assert m.value("u", f) == tv(3, 4)
    assert not m.satisfies("u", f)
    assert not m.globally_true(f)


def test_relation_examples():
    rel = Relational(counterexample_model()).relation
    assert rel(parse_program("a*")) == frozenset({("u", "u"), ("u", "v"), ("v", "v")})
    assert rel(parse_program("a;a")) == frozenset()
    # tests require the value to be exactly 1
    m2 = KripkeModel(2, ["u", "v"], {}, {"q": {"u": 2, "v": 1}})
    assert Relational(m2).relation(parse_program("q?")) == frozenset({("u", "u")})
    # undeclared atomic programs denote the empty relation
    assert rel(parse_program("zz")) == frozenset()


def test_star_is_least_reflexive_transitive_closure():
    # independent oracle: boolean matrix powering up to saturation
    rng = random.Random(11)
    for trial in range(40):
        m = random_model(seed=trial, n=2, world_count=rng.randrange(1, 6), edge_density=0.3)
        idx = {w: i for i, w in enumerate(m.worlds)}
        k = len(m.worlds)
        base = [[False] * k for _ in range(k)]
        for u, v in m.relations["a"]:
            base[idx[u]][idx[v]] = True
        closure = [[i == j for j in range(k)] for i in range(k)]
        changed = True
        while changed:
            changed = False
            for i in range(k):
                for j in range(k):
                    if not closure[i][j] and any(closure[i][x] and base[x][j] for x in range(k)):
                        closure[i][j] = True
                        changed = True
        expected = {
            (m.worlds[i], m.worlds[j]) for i in range(k) for j in range(k) if closure[i][j]
        }
        assert Relational(m).relation(Star(Atomic("a"))) == frozenset(expected)


def test_box_antitone_in_the_relation():
    # more successors can only drag the box value down
    rng = random.Random(23)
    bigger = Union(Atomic("a"), Atomic("b"))
    for trial in range(40):
        m = random_model(seed=100 + trial, n=3, world_count=rng.randrange(1, 5), var_names=("p", "q", "r"))
        body = random_formula(rng, 2)
        small_prof = m.value_profile(Box(Atomic("a"), body))
        big_prof = m.value_profile(Box(bigger, body))
        for w in m.worlds:
            assert big_prof[w].num <= small_prof[w].num


def test_loop_invariance_transfer_on_models():
    # whenever (f -> [a]f)^n holds everywhere, f -> [a*]f holds everywhere
    rng = random.Random(37)
    hits = 0
    for trial in range(300):
        n = rng.choice((1, 2, 3))
        m = random_model(seed=2000 + trial, n=n, world_count=rng.randrange(1, 5), var_names=("p", "q", "r"))
        f = random_formula(rng, rng.randrange(3))
        premise = power(Implies(f, Box(Atomic("a"), f)), n)
        if m.globally_true(premise):
            hits += 1
            assert m.globally_true(Implies(f, Box(Star(Atomic("a")), f)))
    assert hits > 20  # the conditional must not pass vacuously


def test_globally_true_and_counterexample():
    m = counterexample_model()
    assert m.globally_true(parse_formula("0 -> p"))
    assert m.globally_true(parse_formula("[a*]p -> p"))
    bad = m.falsifying_world(parse_formula("p"))
    assert bad == ("u", tv(3, 4))


def test_value_profile_matches_value():
    m = counterexample_model()
    f = parse_formula("[a*](p -> [a]p)")
    prof = m.value_profile(f)
    for w in m.worlds:
        assert prof[w] == m.value(w, f)
    # one shared value object per numerator
    big = random_model(seed=9, n=2, world_count=40)
    values = list(big.value_profile(parse_formula("[a*]p -> q")).values())
    assert len({id(v) for v in values}) == len(set(values))


def test_random_model_contract():
    a = random_model(seed=5, n=3, world_count=4, edge_density=0.5)
    b = random_model(seed=5, n=3, world_count=4, edge_density=0.5)
    assert a.relations == b.relations
    assert all(a.atomic_value(w, v) == b.atomic_value(w, v) for w in a.worlds for v in a.variables)
    empty = random_model(seed=1, n=2, world_count=3, edge_density=0.0)
    assert all(not pairs for pairs in empty.relations.values())
    full = random_model(seed=1, n=2, world_count=3, edge_density=1.0)
    assert all(len(pairs) == 9 for pairs in full.relations.values())
    for density in (2, -0.1, float("nan")):
        with pytest.raises(ModelError, match=r"edge density must be in \[0, 1\]"):
            random_model(seed=1, n=2, world_count=3, edge_density=density)


def test_model_validation_errors():
    with pytest.raises(ModelError):
        KripkeModel(2, [], {}, {})
    with pytest.raises(ModelError):
        KripkeModel(2, ["u", "u"], {}, {})
    with pytest.raises(ModelError):
        KripkeModel(2, ["u"], {"a": [("u", "w")]}, {})
    with pytest.raises(ModelError):
        KripkeModel(2, ["u", "v"], {}, {"p": {"u": 1}})
    with pytest.raises(ModelError):
        KripkeModel(2, ["u"], {}, {"p": {"u": 3}})
    with pytest.raises(ModelError, match="valuation of 'p' uses undeclared world 'z'"):
        KripkeModel(2, ["u", "v"], {}, {"p": {"u": 1, "z": 0, "v": 2}})
    # numerators are ints: 0.5 and True would print as 0.5/2 and True/2
    for v in (0.5, 2.0, True, False, "1"):
        with pytest.raises(ModelError, match=f"numerator {v!r} of 'q' at 'v' is not an integer"):
            KripkeModel(2, ["u", "v"], {}, {"p": {"u": 1, "v": 2}, "q": {"u": 0, "v": v}})
    assert KripkeModel(2, ["u"], {}, {"p": {"u": tv(1, 2)}}).value("u", Var("p")) == tv(1, 2)
    m = counterexample_model()
    with pytest.raises(ModelError):
        m.value("zz", parse_formula("p"))
    with pytest.raises(ModelError):
        m.value("u", parse_formula("undeclared"))
    # boxes over a formula, built through the API
    for prog in (Var("p"), Seq(Atomic("a"), Var("p")), Star(Var("p"))):
        with pytest.raises(ModelError, match="not a program"):
            m.value("u", Box(prog, Var("p")))


def test_model_file_round_trip():
    m = counterexample_model()
    text = format_model(m)
    again = parse_model(text)
    assert again.worlds == m.worlds
    assert again.relations == m.relations
    for w in m.worlds:
        assert again.atomic_value(w, "p") == m.atomic_value(w, "p")
    assert format_model(again) == text


def test_model_file_parsing():
    text = """
    # a comment
    n = 2
    worlds: u v
    rel a: u->v, v->v
    rel b:
    val p: u=1/2 v=0/2
    """
    m = parse_model(text)
    assert m.worlds == ("u", "v")
    assert m.relations["a"] == frozenset({("u", "v"), ("v", "v")})
    assert m.relations["b"] == frozenset()
    assert m.atomic_value("u", "p") == tv(1, 2)


def test_model_file_garbage_raises_model_errors_only():
    rng = random.Random(8)
    pieces = ["n = 2", "worlds: u v", "rel a:", "val p:", "u->v", "u=1/2", "#x", "=", "->", "wat", ""]
    for _ in range(300):
        text = "\n".join(rng.choice(pieces) for _ in range(rng.randrange(1, 8)))
        try:
            parse_model(text)
        except ModelError:
            pass


def test_model_file_errors():
    with pytest.raises(ModelError, match="line 1"):
        parse_model("wat")
    with pytest.raises(ModelError, match="denominator"):
        parse_model("n = 2\nworlds: u\nval p: u=1/3\n")
    with pytest.raises(ModelError, match="missing"):
        parse_model("worlds: u\nval p: u=1/2\n")
    with pytest.raises(ModelError, match="edge"):
        parse_model("n = 2\nworlds: u\nrel a: u=v\n")
    with pytest.raises(ModelError, match="undeclared world 'z'"):
        parse_model("n = 2\nworlds: u v\nval p: u=1/2 v=2/2 z=0/2\n")
    with pytest.raises(ModelError, match="line 4: world 'u' given twice for 'p'"):
        parse_model("n = 2\nworlds: u v\nval p: u=1/2 v=2/2\nval p: u=0/2\n")
    with pytest.raises(ModelError, match="line 3: world 'v' given twice"):
        parse_model("n = 2\nworlds: u v\nval p: v=1/2 u=2/2 v=0/2\n")
    # two texts of one numerator load alike, whichever comes first
    assert parse_model("n = 2\nworlds: u v w\nval p: u=01/2 v=1/2 w=01/2\n")._vcols == {"p": [1, 1, 1]}
    assert parse_model("n = 2\nworlds: u v\nval p: u=1/2 v=01/2\n")._vcols == {"p": [1, 1]}
    # a text that first fails in a later val line reports that line, its
    # variable and its world, after other texts were stored; a stored text
    # still meets the world checks
    head = "n = 2\nworlds: u v\nval p: u=1/2 v=2/2\n"
    for line, msg in (
        ("val q: u=2/2 v=3/2", "line 4: numerator 3 of 'q' at 'v' out of range 0..2"),
        ("val q: u=1/2 v=1/3", "line 4: denominator 3 does not match n = 2"),
        ("val q: u=2/2 v=1/x", "line 4: bad fraction '1/x'"),
        ("val q: u=2/2 v", "line 4: bad entry 'v', expected world=i/n"),
        ("val q: u=1/2 u=1/2", "line 4: world 'u' given twice for 'q'"),
        ("val q: u=1/2", "valuation of 'q' is missing world 'v'"),
        ("val q: u=1/2 v=2/2 z=1/2", "line 4: valuation of 'q' uses undeclared world 'z'"),
    ):
        with pytest.raises(ModelError) as err:
            parse_model(f"{head}{line}\n")
        assert str(err.value) == msg, line


def test_model_file_chunk_errors():
    head = "n = 2\nworlds: u v\n"
    for rel, msg in (
        ("rel a: u->", "line 3: bad edge 'u->', expected u->v"),
        ("rel a: ->v", "line 3: bad edge '->v', expected u->v"),
        ("rel a: u->v, , v->u", "line 3: bad edge '', expected u->v"),
        ("rel a: u->v z", "line 3: relation 'a' uses undeclared world 'z'"),
        ("rel a: z->v", "line 3: relation 'a' uses undeclared world 'z'"),
        ("rel a: u->v u v", "line 3: repeated target in 'u->v u v'"),
        ("rel a: u v->v", "line 3: relation 'a' uses undeclared world 'u v'"),
    ):
        with pytest.raises(ModelError) as err:
            parse_model(f"{head}{rel}\nval p: u=0/2 v=2/2\n")
        assert str(err.value) == msg, rel
    with pytest.raises(ModelError) as err:
        parse_model("n = 2\nworlds: u\nrel a: u->u\nworlds: v\n")
    assert str(err.value) == "line 4: worlds line after a rel line"
    with pytest.raises(ModelError) as err:
        parse_model("n = 2\nrel a: u->u\nworlds: u\n")
    assert str(err.value) == "line 2: rel line before any world is declared"
    # spaces around the arrow and between targets are no error, a source
    # may head several chunks, and an edge in two chunks counts once
    m = parse_model(f"{head}rel a:  u -> v   u ,v->v, u->v\nrel b:\nval p: u=0/2 v=2/2\n")
    assert m.relations == {"a": {("u", "v"), ("u", "u"), ("v", "v")}, "b": frozenset()}
    assert format_model(m) == f"{head}rel a: u->u v, v->v\nrel b: \nval p: u=0/2 v=2/2\n"


def test_model_file_names_must_parse_back():
    head = "n = 1\nworlds: w1\n"
    for line, msg in (
        ("rel 2}: w1->w1", "line 3: program name '2}' does not parse back as itself"),
        ("rel Q{1: w1->w1", "line 3: program name 'Q{1' does not parse back as itself"),
        ("rel : w1->w1", "line 3: program name '' does not parse back as itself"),
        ("val p q: w1=1/1", "line 3: variable name 'p q' does not parse back as itself"),
        ("val 1: w1=1/1", "line 3: variable name '1' does not parse back as itself"),
    ):
        with pytest.raises(ModelError) as err:
            parse_model(f"{head}{line}\n")
        assert str(err.value) == msg
    m = parse_model(f"{head}rel Q{{1,2}}: w1->w1\nrel ~Q{{2}}: w1->w1\nval p_1: w1=1/1\n")
    assert m.value("w1", parse_formula("[Q{1,2}]p_1 & [~Q{2}]0")).num == 0


@pytest.mark.parametrize(
    "worlds, relations, valuation, kind, name",
    [
        (["a,b", "c"], {"a": [("a,b", "c")]}, {}, "world", "a,b"),
        (["u=1"], {}, {"p": {"u=1": 1}}, "world", "u=1"),
        (["u v"], {}, {}, "world", "u v"),
        (["u->v"], {}, {}, "world", "u->v"),
        (["p#1"], {}, {}, "world", "p#1"),
        ([""], {}, {}, "world", ""),
        (["u"], {"a b": [("u", "u")]}, {}, "program", "a b"),
        (["u"], {"Q{1:2}": [("u", "u")]}, {}, "program", "Q{1:2}"),
        (["u"], {"Q{#}": []}, {}, "program", "Q{#}"),
        (["u"], {}, {"p q": {"u": 0}}, "variable", "p q"),
    ],
)
def test_format_model_refuses_names_that_do_not_read_back(worlds, relations, valuation, kind, name):
    # the constructor takes these names, but a file stating them would not
    # load or would load other names, so writing the model is refused
    m = KripkeModel(1, worlds, relations, valuation)
    with pytest.raises(ModelError) as err:
        format_model(m)
    assert str(err.value) == f"{kind} name {name!r} does not parse back as itself"


@pytest.mark.parametrize("name", ["a,b", "u->v", "a=b"])
def test_model_file_world_names_must_parse_back(name):
    # a world name that format_model would refuse does not load either
    with pytest.raises(ModelError) as err:
        parse_model(f"n = 1\nworlds: w1 {name} w2\nval p: w1=1/1\n")
    assert str(err.value) == f"line 2: world name {name!r} does not parse back as itself"


@pytest.mark.parametrize("comment", ["one\nworlds: x", "one\nn = 3"])
def test_format_model_comments_with_line_breaks_round_trip(comment):
    # each line of a comment is written as a comment line of its own, so it
    # can neither declare worlds nor change n
    m = parse_model("n = 2\nworlds: u v\nrel a: u->v\nval p: u=0/2 v=2/2\n")
    text = format_model(m, comments=[comment])
    assert text.startswith("# one\n# " + comment.splitlines()[1] + "\n")
    again = parse_model(text)
    assert (again.n, again.worlds, again.relations) == (m.n, m.worlds, m.relations)
    assert format_model(again) == format_model(m)


_READABLE = {
    "world": ["u", "v", "w1", "m0:w0", "-", ">", "u-", "Q{1}", ":", "n"],
    "program": ["a", "b", "Q{1,2}", "~Q{2}", "Q{}", "Q{u-}"],
    "variable": ["p", "q", "p_1"],
}
_MARKS = ["->", ",", ":", "#", "=", " ", "\x1c", "\u2028", "", "-", ">", "~", "{", "}"]


@st.composite
def _named_models(draw) -> KripkeModel:
    """Models over names that read back, one of which is swapped for a
    mark, with or without letters around it, that may end a name in a
    model file (a program's inside Q{...})."""
    n = draw(st.integers(1, 5))
    names = {kind: draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)) for kind, pool in _READABLE.items()}
    kind = draw(st.sampled_from(sorted(names)))
    odd = draw(st.sampled_from(["", "u"])) + draw(st.sampled_from(_MARKS)) + draw(st.sampled_from(["", "v"]))
    odd = f"Q{{{odd}}}" if kind == "program" else odd
    if odd not in names[kind]:
        names[kind][0] = odd
    worlds = names["world"]
    edges = st.lists(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds)), max_size=6)
    relations = {a: [(worlds[0], worlds[-1]), *draw(edges)] for a in names["program"]}
    values = st.lists(st.integers(0, n), min_size=len(worlds), max_size=len(worlds))
    valuation = {p: dict(zip(worlds, draw(values))) for p in names["variable"]}
    return KripkeModel(n, worlds, relations, valuation)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(_named_models())
def test_every_written_model_reads_back(m):
    try:
        text = format_model(m)
    except ModelError:
        return
    again = parse_model(text)
    assert (again.n, again.worlds, again._vcols) == (m.n, m.worlds, m._vcols)
    assert {a: [set(vs) for vs in lists] for a, lists in again._succ.items()} == {
        a: [set(vs) for vs in lists] for a, lists in m._succ.items()
    }


def test_model_file_at_wide_resolutions():
    # reading a value costs the same at every n, so a file at n = 2**63
    # loads as fast as one at n = 4
    for n in (2**31, 2**63, 2**70):
        m = KripkeModel(n, ["u", "v"], {"a": [("u", "v"), ("v", "v")]}, {"p": {"u": 0, "v": n}, "q": {"u": n - 1, "v": 1}})
        text = format_model(m)
        again = parse_model(text)
        assert (again.n, again.worlds, again._succ, again._vcols) == (m.n, m.worlds, m._succ, m._vcols)
        assert again.variables == m.variables
        assert format_model(again) == text
        with pytest.raises(ModelError) as err:
            parse_model(text.replace(f"v={n}/{n}", f"v={n + 1}/{n}"))
        assert str(err.value) == f"line 4: numerator {n + 1} of 'p' at 'v' out of range 0..{n}"


def test_model_file_names_are_parsed_once(monkeypatch):
    # a file written one edge or one value per line parses each name once
    calls = []
    parses_back = kripke._parses_back
    monkeypatch.setattr(kripke, "_parses_back", lambda name, kind: calls.append(name) or parses_back(name, kind))
    text = "n = 1\nworlds: u v\n" + "rel a: u->v\nrel a: v->v\n" * 3 + "val p: u=0/1\nval p: v=1/1\n"
    assert parse_model(text).relations == {"a": {("u", "v"), ("v", "v")}}
    assert calls == ["a", "p"]


def test_model_file_value_texts_are_read_once(monkeypatch):
    # 300 entries over five value texts: int() reads n once and each text's
    # numerator and denominator once
    model = random_model(seed=3, n=4, world_count=100, atom_names=["a"], var_names=["p", "q", "r"])
    texts = {f"{x}/4" for col in model._vcols.values() for x in col}
    assert len(texts) == 5
    calls = []
    monkeypatch.setattr(kripke, "int", lambda x: calls.append(x) or int(x), raising=False)
    assert parse_model(format_model(model))._vcols == model._vcols
    assert sorted(calls) == sorted(["4", *(part for t in texts for part in t.split("/"))])


def _parses_back_by_the_parser(name: str, kind: str) -> bool:
    """`kripke._parses_back` for a program or variable name, always by the
    parser: the rule that its identifier fast path must agree with."""
    if name.split() != [name] or any(b in name for b in kripke._ENDS_NAME[kind]):
        return False
    parse, node = (parse_program, Atomic) if kind == "program" else (parse_formula, Var)
    try:
        return parse(name) == node(name)
    except ParseError:
        return False


_NAME_CORPUS = ("a", "p_1", "Q{1,3}", "~Q{1}", "Q{1", "Q{}x", "²a", "a²", "_a", "a_", "1", "0", "1a", "ab c", " a")
_NAME_CORPUS += ("é", "e\u0301", "ß", "Ωmega", "x٣", "٣x", "a:b", "a#b", "a~b", "~a", "{a}", "a}", "a\tb", "")


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(st.text(alphabet="aQz_~{},:# \t1²ßΩ٣\u0301", max_size=5) | st.sampled_from(_NAME_CORPUS))
def test_identifier_names_parse_back_without_the_parser(name):
    parsed = []
    with pytest.MonkeyPatch.context() as patch:
        for parse in ("parse_formula", "parse_program"):
            real = getattr(kripke, parse)
            patch.setattr(kripke, parse, lambda text, real=real: parsed.append(text) or real(text))
        for kind in ("program", "variable"):
            assert kripke._parses_back(name, kind) is _parses_back_by_the_parser(name, kind), (name, kind)
    assert not (is_identifier(name) and parsed)


def _one_edge_per_chunk(text: str) -> str:
    """Model text with every rel chunk split into one chunk per edge."""
    lines = []
    for line in text.splitlines():
        if line.startswith("rel "):
            head, _, body = line.partition(": ")
            chunks = [chunk.partition("->") for chunk in body.split(", ") if chunk]
            line = f"{head}: " + ", ".join(f"{u}->{v}" for u, _, vs in chunks for v in vs.split())
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_one_edge_per_chunk_files_load_as_before():
    # the models of test_format_model_output_is_pinned, written one edge per
    # chunk, give byte for byte the text format_model wrote before a chunk
    # could name several targets, and load to the model of the new text
    def loaded(text):
        m = parse_model(text)
        return m.worlds, m._succ, m._vcols, m.variables

    texts = []
    for seed in range(60):
        m = random_model(
            seed=seed,
            n=1 + seed % 4,
            world_count=1 + seed % 9,
            atom_names=("a", "b", "c")[: seed % 4],
            edge_density=(0.0, 0.2, 0.6)[seed % 3],
        )
        texts.append(format_model(m, comments=[f"model {seed}"]))
        doubled = {a: sorted(pairs) * 2 for a, pairs in m.relations.items()}
        values = {v: {w: m.atomic_value(w, v) for w in m.worlds} for v in m.variables}
        texts.append(format_model(KripkeModel(m.n, m.worlds[::-1], doubled, values)))
    bundled = files("mvpdl").joinpath("data/counterexample.kml").read_text(encoding="utf-8")
    assert _one_edge_per_chunk(bundled) == bundled
    texts.append(format_model(parse_model(bundled)))
    digest = hashlib.sha256()
    for text in texts:
        old = _one_edge_per_chunk(text)
        digest.update(old.encode())
        assert loaded(old) == loaded(text), text
    assert digest.hexdigest() == "2887fcafdc4c65275c2b257438b41ef450f3a3c282864267cd32e24a28138473"


def _shaped(pairs, kind):
    """The same edges as a list with duplicates, a set or a one-shot generator."""
    if kind == "list":
        return pairs + pairs[::2]
    if kind == "set":
        return set(pairs)
    return (uv for uv in pairs)


def test_relations_given_as_list_set_or_generator():
    rng = random.Random(91)
    names = {"var_names": ("p", "q"), "atom_names": ("a", "b", "c")}
    for trial in range(40):
        base = random_model(
            seed=trial, n=rng.randint(1, 4), world_count=rng.randint(1, 8), edge_density=rng.choice((0.0, 0.2, 0.5))
        )
        valuation = {v: {w: base.atomic_value(w, v) for w in base.worlds} for v in base.variables}
        formulas = [random_formula(rng, 3, **names) for _ in range(4)]
        formulas.append(Box(Star(random_program(rng, 2, **names)), random_formula(rng, 2, **names)))
        for kind in ("list", "set", "generator"):
            rels = {a: _shaped(sorted(pairs), kind) for a, pairs in base.relations.items()}
            m = KripkeModel(base.n, base.worlds, rels, valuation)
            assert m.relations == base.relations, kind
            assert m.relations is m.relations
            oracle = Relational(m)
            for f in formulas:
                got = m.value_profile(f)
                assert got == base.value_profile(f), (kind, format_formula(f))
                assert [got[w].num for w in m.worlds] == oracle.profile(f), (kind, format_formula(f))
            assert format_model(m) == format_model(base)
    for kind in ("list", "set", "generator"):
        pairs = _shaped([("u", "u"), ("u", "w")], kind)
        with pytest.raises(ModelError) as err:
            KripkeModel(2, ["u"], {"a": pairs}, {})
        assert str(err.value) == "relation 'a' uses undeclared world in ('u', 'w')"


def test_loaded_model_is_used_without_the_pair_view(monkeypatch, tmp_path, capsys):
    text = format_model(random_model(seed=3, n=3, world_count=30, edge_density=0.2))
    path = tmp_path / "m.kml"
    path.write_text(text, encoding="utf-8")

    def no_view(self):
        raise AssertionError("the relations view was built")

    monkeypatch.setattr(KripkeModel, "relations", property(no_view))
    m = load_model(path)
    f = parse_formula("[(a+b)*](p -> [a]q) | <b;a>p")
    m.falsifying_world(f)
    m.value_profile(f)
    filter_model(m, f)
    disjoint_union([m, m])
    assert format_model(m) == text
    assert cli.main(["check", "--model", str(path), "[a*]p"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


def test_format_model_output_is_pinned():
    # sha256 of format_model's output since a rel chunk names one source
    # and all its targets; test_one_edge_per_chunk_files_load_as_before pins
    # the one-edge-per-chunk text of the same models, as written before
    digest = hashlib.sha256()
    for seed in range(60):
        m = random_model(
            seed=seed,
            n=1 + seed % 4,
            world_count=1 + seed % 9,
            atom_names=("a", "b", "c")[: seed % 4],
            edge_density=(0.0, 0.2, 0.6)[seed % 3],
        )
        digest.update(format_model(m, comments=[f"model {seed}"]).encode())
        doubled = {a: sorted(pairs) * 2 for a, pairs in m.relations.items()}
        values = {v: {w: m.atomic_value(w, v) for w in m.worlds} for v in m.variables}
        digest.update(format_model(KripkeModel(m.n, m.worlds[::-1], doubled, values)).encode())
    digest.update(format_model(load_model(files("mvpdl").joinpath("data/counterexample.kml"))).encode())
    assert digest.hexdigest() == "49c6869937267715beace0e825cadf593970a0f051f4e67b4b8fd90499b18e0b"


def test_concurrent_reads_are_consistent():
    # models are immutable; concurrent evaluation hits shared caches
    from concurrent.futures import ThreadPoolExecutor

    m = random_model(seed=77, n=3, world_count=5, var_names=("p", "q", "r"))
    formulas = [parse_formula(t) for t in ("[a*](p -> [b]q)", "<(a+b)*>r", "p (.) q (+) r")]
    expected = [m.value_profile(f) for f in formulas]

    def worker(_):
        fresh = random_model(seed=77, n=3, world_count=5, var_names=("p", "q", "r"))
        return [fresh.value_profile(f) for f in formulas], [m.value_profile(f) for f in formulas]

    with ThreadPoolExecutor(max_workers=8) as pool:
        for fresh_prof, shared_prof in pool.map(worker, range(16)):
            assert fresh_prof == expected
            assert shared_prof == expected


def test_disjoint_union_preserves_values():
    ms = [random_model(seed=i, n=2, world_count=2 + i % 2) for i in range(5)]
    union = disjoint_union(ms)
    f = parse_formula("[a*](p -> [b]q) (+) q")
    for i, m in enumerate(ms):
        prof = m.value_profile(f)
        for w in m.worlds:
            assert union.value(f"m{i}:{w}", f) == prof[w]


def _has_compound_star(f) -> bool:
    """Whether a star over anything but a union of atomic programs occurs."""
    stack = [f]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is Star:
            atoms = [x.sub]
            while atoms and type(atoms[-1]) in (Atomic, Union):
                y = atoms.pop()
                if type(y) is Union:
                    atoms += [y.left, y.right]
            if atoms:
                return True
        for attr in ("sub", "lhs", "rhs", "prog", "body", "formula", "left", "right"):
            if hasattr(x, attr):
                stack.append(getattr(x, attr))
    return False


def test_column_fixpoints_match_relational_oracle():
    # differential: value columns against box-as-minimum over built relations
    rng = random.Random(20261017)
    compound_stars = 0
    for trial in range(1500):
        n = rng.randint(1, 4)
        m = random_model(
            seed=rng.randrange(2**31),
            n=n,
            world_count=rng.randint(1, 12),
            edge_density=rng.choice((0.0, 0.1, 0.25, 0.5)),
        )
        # program c is never declared by the model
        names = {"var_names": ("p", "q"), "atom_names": ("a", "b", "c")}
        f = random_formula(rng, rng.randint(2, 4), **names)
        if trial % 3 == 0:
            f = Implies(Box(Star(random_program(rng, 3, **names)), random_formula(rng, 2, **names)), f)
        want = Relational(m).profile(f)
        got = m.value_profile(f)
        assert [got[w].num for w in m.worlds] == want, (trial, format_formula(f))
        compound_stars += _has_compound_star(f)
    assert compound_stars > 250  # stars with more than one automaton state or with tests


def test_fixed_star_and_test_shapes_match_relational_oracle():
    texts = [
        "[(a;b)*]q",
        "[(a+q?)*]p",
        "[(p?;a)*]q",
        "[((a;b)*;c)*]p",
        "[(a+b+c)*]p",
        "[(a*)*](p -> [b]q)",
        "[((p -> [a*]q)?;b)*]<(a;q?)*>p",
        "[(a;a)*]p & [a*][b*]q",
        "[(([q?]p)?;(a+b*))*]p",
        "[(p?)*]q",
        "[(a*;p?)*]q",
        "[((a+p?)*;b)*]q",
        "[(q?;(p?+a))*]p",
        "[((a;b)*)*]p",
    ]
    for seed in range(60):
        density = (0.0, 0.15, 0.4)[seed % 3]
        m = random_model(seed=seed, n=1 + seed % 4, world_count=1 + seed % 12, edge_density=density)
        oracle = Relational(m)
        for t in texts:
            f = parse_formula(t)
            got = m.value_profile(f)
            assert [got[w].num for w in m.worlds] == oracle.profile(f), (seed, t)


def test_even_steps_star_on_a_long_path():
    # [(a;a)*]p at world i is the minimum of p over worlds i, i+2, ...
    size = 2000
    worlds = [f"w{i}" for i in range(size)]
    path = {"a": list(zip(worlds, worlds[1:]))}
    rng = random.Random(5)
    for values in ([4] * (size - 1) + [0], [rng.randint(0, 4) for _ in worlds]):
        m = KripkeModel(4, worlds, path, {"p": dict(zip(worlds, values))})
        got = m.value_profile(parse_formula("[(a;a)*]p"))
        want = [min(values[i::2]) for i in range(size)]
        assert [got[w].num for w in worlds] == want


def test_deep_program_evaluates_like_a_box_chain():
    cycle = [("w0", "w1"), ("w1", "w2"), ("w2", "w0")]
    m = KripkeModel(2, ["w0", "w1", "w2"], {"a": cycle}, {"p": {"w0": 2, "w1": 1, "w2": 0}})
    # 100,000-deep ~ and -> chains: the plan's stack, not the recursion limit
    negations = implications = Var("p")
    for _ in range(100_000):
        negations = Not(negations)
        implications = Implies(Var("p"), implications)
    assert m.value("w2", negations) == tv(0, 2)  # p is 0 at w2, under an even number of ~
    assert m.value("w2", implications) == tv(2, 2)
    depth = 1500
    left = right = Atomic("a")
    chain = Box(Atomic("a"), Var("p"))
    for _ in range(depth):
        left = Seq(left, Atomic("a"))
        right = Seq(Atomic("a"), right)
        chain = Box(Atomic("a"), chain)
    want = m.value("w0", chain)
    assert want == tv(1, 2)  # 1501 steps round the 3-cycle end at w1
    assert m.value("w0", Box(left, Var("p"))) == want
    assert m.value("w0", Box(right, Var("p"))) == want
    assert m.value("w1", Box(Star(right), Var("p"))) == tv(0, 2)


def test_value_profiles_are_pinned():
    # sha256 of the value columns the model checker gave before one
    # dependency order (`syntax.plan`) replaced its own stack walk; seven
    # formulas per model, so later ones meet columns cached by earlier ones
    rng = random.Random(20261019)
    names = {"var_names": ("p", "q", "r"), "atom_names": ("a", "b", "c")}
    digest = hashlib.sha256()
    count = 0
    for _ in range(300):
        m = random_model(
            seed=rng.randrange(2**31),
            n=rng.randint(1, 4),
            world_count=rng.randint(1, 9),
            atom_names=("a", "b"),
            var_names=("p", "q", "r"),
            edge_density=rng.choice((0.0, 0.15, 0.35, 0.6)),
        )
        for k in range(7):
            f = random_formula(rng, rng.randint(1, 4), **names)
            if k % 3 == 1:  # a star over a program with tests, or a nested star
                inner = Star(random_program(rng, 2, **names))
                prog = Seq(Test(random_formula(rng, 2, **names)), rng.choice((inner, Union(inner, Atomic("a")))))
                f = Implies(Box(Star(prog), random_formula(rng, 2, **names)), f)
            elif k % 3 == 2:
                f = Box(Star(random_program(rng, 3, **names)), f)
            prof = m.value_profile(f)
            digest.update(repr([prof[w].num for w in m.worlds]).encode())
            count += 1
    assert count >= 2000
    assert digest.hexdigest() == "fd536c22c833e643236256cc96bea4c9ab1852966d19e9fc295028ada9667922"


# Resolutions on both sides of lane widths a packed value column can take
# (127 | 128 and 2**63 - 1 | 2**63 cross a byte), and world counts around
# a byte.
LANE_EDGES = (1, 127, 128, 255, 256, 2**15, 2**31, 2**63 - 1, 2**63, 2**70)
WORLD_COUNTS = (1, 7, 8, 9, 300)


def edge_model(rng, n, count, density):
    """Random model whose values are mostly 0, 1, n//2, n - 1 or n, so
    that the lowest and the top lane values occur at every resolution."""
    worlds = [f"w{i}" for i in range(count)]
    relations = {a: [(u, v) for u in worlds for v in worlds if rng.random() < density] for a in ("a", "b")}
    picks = (0, 1, n // 2, n - 1, n)
    valuation = {
        var: {w: rng.choice(picks) if rng.random() < 0.8 else rng.randint(0, n) for w in worlds}
        for var in ("p", "q", "r")
    }
    return KripkeModel(n, worlds, relations, valuation)


def edge_formulas(rng, count):
    """count random formulas: plain ones, stars over tests, and f -> f,
    which is true everywhere."""
    names = {"var_names": ("p", "q", "r"), "atom_names": ("a", "b")}
    out = []
    for k in range(count):
        f = random_formula(rng, rng.randint(1, 4), **names)
        if k % 3 == 1:
            test = Test(random_formula(rng, 2, **names))
            then = rng.choice((Star(random_program(rng, 2, **names)), Atomic("b")))
            f = Implies(Box(Star(Seq(test, then)), random_formula(rng, 2, **names)), f)
        elif k % 3 == 2:
            f = Implies(f, f)
        out.append(f)
    return out


def test_lane_boundary_profiles_are_pinned():
    # sha256 of value_profile, falsifying_world and globally_true taken
    # with list value columns, before the columns were packed into lanes
    rng = random.Random(20261020)
    digest = hashlib.sha256()
    for n in LANE_EDGES:
        for count in WORLD_COUNTS:
            density = 0.01 if count == 300 else rng.choice((0.0, 0.2, 0.5))
            m = edge_model(rng, n, count, density)
            for f in edge_formulas(rng, 9):
                prof = m.value_profile(f)
                row = ([prof[w].num for w in m.worlds], m.falsifying_world(f), m.globally_true(f))
                digest.update(repr(row).encode())
    assert digest.hexdigest() == "ba286a56637ae6ee00736747240840d16c79a2fb1807553b791a453fc2df57ad"


def test_lane_boundary_columns_match_relational_oracle():
    rng = random.Random(20261021)
    for n in LANE_EDGES:
        models = [edge_model(rng, n, count, rng.choice((0.1, 0.3))) for count in WORLD_COUNTS[:-1]]
        if n in (1, 255, 2**15, 2**63, 2**70):
            models.append(edge_model(rng, n, 300, 0.004))
        for m in models:
            oracle = Relational(m)
            for f in edge_formulas(rng, 12):
                want = oracle.profile(f)
                prof = m.value_profile(f)
                assert [prof[w].num for w in m.worlds] == want, (n, len(m.worlds), format_formula(f))
                bad = next((i for i, x in enumerate(want) if x != n), None)
                assert m.globally_true(f) is (bad is None)
                assert m.falsifying_world(f) == (None if bad is None else (m.worlds[bad], tv(want[bad], n)))
                w = rng.randrange(len(m.worlds))
                assert m.value(m.worlds[w], f) == tv(want[w], n)


# one box of each kind over a and b, with c never declared
_KERNEL_BOXES = tuple(
    parse_formula(t)
    for t in ("[a]p", "[b]q", "[c]p", "[a][b]q", "[a+b]p", "[a;b]q", "[b;c]p", "[a*]p", "[(a+b)*]q", "[(a;b)*]p", "[a*;b]q", "<a>p")
)


@st.composite
def _low_degree_models(draw):
    """n, each world's targets under a and b, and the values of p and q.
    A program's out-degree is at most a drawn cap of 0 to 3, and targets
    may repeat and loop back."""
    n = draw(st.sampled_from((1, 4, 127, 128)))
    count = draw(st.integers(1, 8))
    world = st.integers(0, count - 1)
    edges = {}
    for atom in ("a", "b"):
        cap = draw(st.integers(0, 3))
        edges[atom] = draw(st.lists(st.lists(world, max_size=cap), min_size=count, max_size=count))
    values = {p: draw(st.lists(st.integers(0, n), min_size=count, max_size=count)) for p in ("p", "q")}
    return n, edges, values


_FIXED_SHAPES = (
    {"a": [[0], [], [1, 1]], "b": [[0, 2, 1], [1], []]},  # self-loops, a dead end, a repeat
    {"a": [[], [], []], "b": [[2, 2, 2], [0, 0], [2]]},  # an empty program
)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_low_degree_models())
@example((127, _FIXED_SHAPES[0], {"p": [127, 0, 64], "q": [3, 127, 0]}))
@example((128, _FIXED_SHAPES[0], {"p": [128, 0, 64], "q": [3, 128, 0]}))
@example((1, _FIXED_SHAPES[1], {"p": [1, 0, 1], "q": [0, 1, 1]}))
@example((4, {"a": [[0, 0]], "b": [[]]}, {"p": [2], "q": [4]}))
def test_both_box_kernels_match_relational_oracle(spec):
    # the model is read from a file written one edge per chunk, so a
    # target given twice sits twice in its successor list; it is read at
    # the real layer floor, which these models lie below, and with the
    # floor at one world, so that the layers serve every model they can
    n, edges, values = spec
    worlds = [f"w{i}" for i in range(len(values["p"]))]
    lines = [f"n = {n}", "worlds: " + " ".join(worlds)]
    for atom, targets in edges.items():
        lines.append(f"rel {atom}: " + ", ".join(f"w{u}->w{v}" for u, vs in enumerate(targets) for v in vs))
    for var, col in values.items():
        lines.append(f"val {var}: " + " ".join(f"{w}={x}/{n}" for w, x in zip(worlds, col)))
    for floor in (kripke._LAYER_FLOOR, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kripke, "_LAYER_FLOOR", floor)
            m = parse_model("\n".join(lines) + "\n")
        for atom, targets in edges.items():
            layered = floor <= len(worlds) <= kripke._LAYER_CAP and n <= 127
            assert (atom in m._layers) is (layered and max(map(len, targets)) <= 2)
        oracle = Relational(m)
        for f in _KERNEL_BOXES:
            got = m.value_profile(f)
            assert [got[w].num for w in worlds] == oracle.profile(f), format_formula(f)


_EDGE_BOXES = tuple(parse_formula(t) for t in ("[a]p", "[b]q", "[c]q", "[a+b]p", "[a;b]q", "[a][c]p -> [b]q"))


@pytest.mark.parametrize("count", (254, 255, 256, 257, 511, 512, 513, kripke._LAYER_CAP))
def test_layered_boxes_match_loop_and_oracle_at_table_edges(count):
    # world counts on both sides of each 256-lane table edge, and the cap,
    # whose last table is full; half the targets of a and b lie next to a
    # table edge, and a world has 0 to 2, while c steps from every other
    # world to world 0 only, so its gather leaves out every table but the
    # first
    rng = random.Random(count)
    n = (1, 4, 127)[count % 3]
    edges = (0, 1, 254, 255, 256, 257, 510, 511, 512, count - 257, count - 256, count - 2, count - 1)
    near = [v for v in edges if 0 <= v < count]
    worlds = [f"w{i}" for i in range(count)]
    relations = {
        atom: [
            (w, worlds[rng.choice(near) if rng.random() < 0.5 else rng.randrange(count)])
            for w in worlds
            for _ in range(rng.randint(0, 2))
        ]
        for atom in "ab"
    }
    relations["c"] = [(w, "w0") for w in worlds[::2]]
    valuation = {p: {w: rng.randint(0, n) for w in worlds} for p in "pq"}
    m = KripkeModel(n, worlds, relations, valuation)
    assert set(m._layers) == {"a", "b", "c"}
    assert [start for start, _ in m._layers["c"][1]] == [0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kripke, "_LAYER_FLOOR", count + 1)
        loop = KripkeModel(n, worlds, relations, valuation)
    assert loop._layers == {}
    oracle = Relational(m)
    for f in _EDGE_BOXES:
        assert m._column(f) == loop._column(f) == oracle.profile(f), format_formula(f)


def _no_flood(model, auto, f):
    raise AssertionError("the rounds did not settle")


def test_box_kernel_choice_is_pinned():
    # every question of the benchmark's game configs has at most two
    # successors per world and takes the layers, gathered from one 256-lane
    # table at 81 and 243 worlds and three at 729, and a star over two
    # questions takes the rounds and settles without the flood; the check
    # workload's 300-world models have larger out-degrees and take the loop
    # and the flood, and so does a model below the layer floor or above the
    # layer cap
    rng = random.Random(0)
    for (m, n, depth), count, tables in (((4, 2, 3), 81, 1), ((5, 2, 3), 243, 1), ((6, 2, 2), 729, 3), ((6, 3, 2), 729, 3)):
        model = build_game_model(GameConfig(tuple(str(i) for i in range(1, m + 1)), n, depth))
        assert len(model._succ) == 2**m and set(model._layers) == set(model._succ)
        assert len(model.worlds) == count
        assert max(len(layers[1]) for layers in model._layers.values()) == tables
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(KripkeModel, "_flood", _no_flood)
            for _ in range(4):
                x, y = rng.sample(sorted(model._succ), 2)
                g = Box(Star(Union(Atomic(x), Atomic(y))), Var(f"p_{rng.randrange(1, m + 1)}"))
                assert model._iterates(star_states(g))
                model._profile(g)
    for seed, density in enumerate((0.02, 0.035, 0.05)):
        model = random_model(seed, 4, 300, edge_density=density)
        assert model._layers == {} and set(model._succ) == {"a", "b"}
        for text in ("[a*]p", "[(a+b)*]q", "<(a+b)*>p", "[a*][b*]q -> [(a+b)*]p"):
            stars = [auto for _, op, _, auto in plan((parse_formula(text),), {}) if op is STAR]
            assert stars and not any(map(model._iterates, stars))
    cap = kripke._LAYER_CAP
    for count, layered in ((3, False), (15, False), (16, True), (cap, True), (cap + 1, False)):
        worlds = [f"w{i}" for i in range(count)]
        ring = {"a": [(w, worlds[i - 1]) for i, w in enumerate(worlds)]}
        model = KripkeModel(2, worlds, ring, {"p": dict.fromkeys(worlds, 1)})
        assert bool(model._layers) is model._iterates(star_states(parse_formula("[a*]p"))) is layered


# stars whose automata step only along a, b and c, one of them with inner stars
_ROUND_STARS = tuple(parse_formula(t) for t in ("[a*]p", "[(a+b)*]q", "[(a;b)*]p", "[((a;b)*;c)*]q", "[(a*;b)*](p -> q)"))


@st.composite
def _layered_models(draw):
    """n, each world's targets under a, b and c (at most two, which may
    repeat and loop back), and the values of p and q."""
    n = draw(st.sampled_from((1, 2, 4, 127)))
    count = draw(st.integers(1, 24))
    world = st.integers(0, count - 1)
    edges = {atom: draw(st.lists(st.lists(world, max_size=2), min_size=count, max_size=count)) for atom in "abc"}
    values = {p: draw(st.lists(st.integers(0, n), min_size=count, max_size=count)) for p in ("p", "q")}
    return n, edges, values


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(_layered_models())
def test_star_rounds_match_flood_and_relational_oracle(spec):
    # every model keeps layers (the floor at one world) and the rounds may
    # run until they settle, so each automaton state's column from the
    # rounds is compared with the flood's, which reads no layers, and with
    # the oracle's; a star with a test takes the flood
    n, edges, values = spec
    worlds = [f"w{i}" for i in range(len(values["p"]))]
    relations = {a: [(worlds[u], worlds[v]) for u, vs in enumerate(targets) for v in vs] for a, targets in edges.items()}
    valuation = {p: dict(zip(worlds, col)) for p, col in values.items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kripke, "_LAYER_FLOOR", 1)
        patch.setattr(kripke, "_STAR_ROUNDS", 10**6)
        m = KripkeModel(n, worlds, relations, valuation)
        assert set(m._layers) == ({"a", "b", "c"} if n <= 127 else set())
        oracle = Relational(m)
        for g in _ROUND_STARS:
            auto = star_states(g)
            f = m._profile(g.body)
            assert m._iterates(auto)
            cols = m._star_rounds(auto, f)
            assert cols == m._flood(auto, f), format_formula(g)
            assert [m._lanes.unpack(col) for col in cols] == [oracle.profile(s) for s in auto], format_formula(g)
        tested = parse_formula("[(p?;a)*]q")
        assert not m._iterates(star_states(tested))
        assert m._column(tested) == oracle.profile(tested)


def test_star_rounds_fall_back_to_the_flood_on_a_long_cycle(monkeypatch):
    # one a-cycle of 40 worlds whose only 0 is 39 steps from world 0:
    # [a*]p takes one round per step, more than _STAR_ROUNDS, so the
    # rounds give up and the flood computes the column
    worlds = [f"w{i}" for i in range(40)]
    cycle = {"a": [(w, worlds[(i + 1) % 40]) for i, w in enumerate(worlds)]}
    m = KripkeModel(2, worlds, cycle, {"p": {w: 0 if w == "w39" else 2 for w in worlds}})
    g = parse_formula("[a*]p")
    assert 40 > kripke._STAR_ROUNDS + 1 and m._iterates(star_states(g))
    floods = []
    flood = KripkeModel._flood
    monkeypatch.setattr(KripkeModel, "_flood", lambda self, auto, f: floods.append(auto) or flood(self, auto, f))
    assert m._column(g) == [0] * 40 and len(floods) == 1
