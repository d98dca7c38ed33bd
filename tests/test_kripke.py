"""Model checking: box semantics against the relational oracle, file format."""

import hashlib
import random
from importlib.resources import files

import pytest

from mvpdl import cli
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
from mvpdl.parser import format_formula, parse_formula, parse_program
from mvpdl.syntax import Atomic, Box, Implies, Not, Seq, Star, Test, Union, Var, power
from mvpdl.tautologies import random_formula, random_program
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
    # sha256 of format_model's output before successor index lists
    # replaced the stored pair sets
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
    assert digest.hexdigest() == "2887fcafdc4c65275c2b257438b41ef450f3a3c282864267cd32e24a28138473"


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
