"""Axiom instantiation, line checking, the loop-invariance derivation."""

import hashlib
import random
import re
from pathlib import Path

import pytest
from timing import time_ratio
from validated import abstract_boxes

import mvpdl
from mvpdl.kripke import random_model
from mvpdl.parser import parse_formula, parse_program
from mvpdl.proofs import (
    AxiomRef,
    Derivation,
    DerivationFormatError,
    IncompleteSubstitution,
    Luk,
    ModusPonens,
    Necessitation,
    Premise,
    Substitution,
    axiom_ids,
    axiom_template,
    check_derivation,
    check_line,
    derive_loop_invariance,
    derive_loop_invariance_plain,
    format_derivation,
    instantiate_axiom,
    is_modal_luk_tautology,
    parse_derivation,
    proves,
)
from mvpdl.syntax import (
    Atomic,
    Box,
    Implies,
    Not,
    Seq,
    Star,
    Var,
    atomic_programs_of,
    iff,
    land,
    lor,
    power,
    substitute,
    variables_of,
)
from mvpdl.tautologies import random_formula, random_program

P, Q = Var("p"), Var("q")
A = Atomic("a")


def test_axiom_test_schema_instantiation():
    # [q?]p with q := r, p := s at n = 2
    got = instantiate_axiom("test", 2, fsub={"q": Var("r"), "p": Var("s")})
    from mvpdl.syntax import Test

    expected = iff(
        Box(Test(Var("r")), Var("s")),
        lor(Not(power(Var("r"), 2)), Var("s")),
    )
    assert got == expected


def test_axiom_induction_instantiation():
    got = instantiate_axiom("ind", 2, fsub={"p": P}, psub={"a": A})
    expected = Implies(
        land(P, Box(Star(A), power(Implies(P, Box(A, P)), 2))),
        Box(Star(A), P),
    )
    assert got == expected


def test_axiom_seq_instantiation_with_compound_program():
    prog = parse_program("a;b")
    got = instantiate_axiom("seq", 1, fsub={"p": P}, psub={"a": prog, "b": Atomic("c")})
    assert got == iff(
        Box(Seq(prog, Atomic("c")), P), Box(prog, Box(Atomic("c"), P))
    )


def test_incomplete_substitution_is_an_error():
    with pytest.raises(IncompleteSubstitution):
        instantiate_axiom("K", 2, fsub={"p": P})
    with pytest.raises(IncompleteSubstitution):
        instantiate_axiom("union", 2, fsub={"p": P}, psub={"a": A})
    with pytest.raises(ValueError):
        instantiate_axiom("nope", 2)


def test_an_axiom_has_the_same_symbols_at_every_n():
    for axiom_id in axiom_ids():
        templates = [axiom_template(axiom_id, n) for n in range(1, 9)]
        symbols = {(frozenset(variables_of(t)), frozenset(atomic_programs_of(t))) for t in templates}
        assert len(symbols) == 1, axiom_id


def test_axiom_templates_are_built_once_per_n(monkeypatch):
    from mvpdl import tautologies

    first = {(axiom_id, n): axiom_template(axiom_id, n) for axiom_id in axiom_ids() for n in range(1, 7)}
    for (axiom_id, n), template in first.items():
        assert axiom_template(axiom_id, n) is template
    # test and ind are built from power chains, which are not built again
    monkeypatch.setattr(tautologies, "power", None)
    for (axiom_id, n), template in first.items():
        assert axiom_template(axiom_id, n) is template
    # each call still hands out a list of its own
    assert tautologies.schema_formulas(5, 2) == tautologies.schema_formulas(5, 2)
    assert tautologies.schema_formulas(5, 2) is not tautologies.schema_formulas(5, 2)


def test_a_luk_line_past_its_budget_raises_before_reading_a_row(monkeypatch):
    from mvpdl import luk
    from mvpdl.sat import BudgetExceeded

    d = parse_derivation("1. q ; premise\n2. [a]p -> q -> [a]p ; luk\n", 2)  # leaves q and [a]p: 9 rows
    assert check_derivation(d, 9) is None
    monkeypatch.setattr(luk.Lanes, "run", None)  # no row is read past the budget
    monkeypatch.setattr(luk, "_ramps", None)
    for check in (lambda: check_derivation(d, 8), lambda: check_line(d, 2, 8)):
        with pytest.raises(BudgetExceeded, match=r"^the truth table has 3\^2 rows, past the budget of 8; raise it"):
            check()
    with pytest.raises(ValueError, match="^budget must be >= 0$"):
        check_derivation(d, -1)


def test_incomplete_substitutions_are_reported_as_before():
    # the message the walk of the template at n gave, for every subset of
    # an axiom's symbols left unmapped; errors keep their order: an unknown
    # axiom first, then a template that cannot be built, then the symbols
    for n in (1, 6):
        for axiom_id in axiom_ids():
            template = axiom_template(axiom_id, n)
            symbols = sorted(variables_of(template)) + sorted(atomic_programs_of(template))
            for mask in range(1 << len(symbols)):
                kept = [s for i, s in enumerate(symbols) if mask >> i & 1]
                fsub = {s: P for s in kept if s not in ("a", "b")}
                psub = {s: A for s in kept if s in ("a", "b")}
                missing = sorted(set(symbols) - set(kept))
                if not missing:
                    assert instantiate_axiom(axiom_id, n, fsub, psub) == substitute(template, fsub, psub)
                    continue
                with pytest.raises(IncompleteSubstitution) as err:
                    instantiate_axiom(axiom_id, n, fsub, psub)
                assert str(err.value) == f"axiom {axiom_id} leaves {missing} unmapped"
    with pytest.raises(ValueError, match="^unknown axiom 'nope'$"):
        instantiate_axiom("nope", 6)
    with pytest.raises(ValueError, match="^negative power$"):
        instantiate_axiom("ind", -1)


def test_axiom_instances_are_valid_in_random_models():
    rng = random.Random(64)
    for n in (1, 2):
        models = [
            random_model(seed=40 + j, n=n, world_count=1 + j % 3, var_names=("p", "q", "r"))
            for j in range(12)
        ]
        for axiom_id in axiom_ids():
            for _ in range(4):
                f = instantiate_axiom(
                    axiom_id,
                    n,
                    fsub={"p": random_formula(rng, 1), "q": random_formula(rng, 1)},
                    psub={"a": random_program(rng, 1), "b": random_program(rng, 1)},
                )
                for m in models:
                    assert m.globally_true(f), (axiom_id, n)


def test_modal_abstraction():
    f = Implies(Box(A, P), Box(A, P))
    g = abstract_boxes(f)
    assert type(g) is Implies and g.lhs == g.rhs  # same box, same variable
    assert is_modal_luk_tautology(f, 2)
    assert not is_modal_luk_tautology(Implies(Box(A, P), P), 2)
    assert not is_modal_luk_tautology(parse_formula("p | ~p"), 2)
    assert is_modal_luk_tautology(parse_formula("p | ~p"), 1)


def test_deep_luk_line_checks():
    d = parse_derivation("1. [a]p^300 -> [a]p^300 ; luk\n", 2)
    assert check_derivation(d) is None
    # 100,000-deep ~ and -> chains
    negations = implications = P
    for _ in range(100_000):
        negations = Not(negations)
        implications = Implies(P, implications)
    d = Derivation(n=2)
    d.add(Implies(P, negations), Luk())
    d.add(implications, Luk())
    assert check_derivation(d) is None


def test_check_line_modus_ponens():
    d = Derivation(n=2)
    l1 = d.add(P, Premise())
    l2 = d.add(Implies(P, Q), Premise())
    l3 = d.add(Q, ModusPonens(l1, l2))
    assert check_line(d, l3) is None
    # citing a non-implication as the major premise
    d2 = Derivation(n=2)
    a = d2.add(P, Premise())
    b = d2.add(Q, Premise())
    c = d2.add(Q, ModusPonens(a, b))
    assert "major premise shape" in check_line(d2, c)


def test_check_line_necessitation():
    d = Derivation(n=1)
    l1 = d.add(P, Premise())
    l2 = d.add(Box(Star(A), P), Necessitation(l1, Star(A)))
    assert check_line(d, l2) is None
    d.add(Box(A, Q), Necessitation(l1, A))
    assert "necessitation" in check_line(d, 3)


def test_check_line_substitution():
    d = Derivation(n=2)
    l1 = d.add(Implies(P, P), Premise())
    l2 = d.add(Implies(Box(A, Q), Box(A, Q)), Substitution(l1, {"p": Box(A, Q)}))
    assert check_line(d, l2) is None


def test_forward_and_missing_references():
    d = Derivation(n=1)
    d.add(Q, ModusPonens(2, 3))
    assert "forward" in check_derivation(d)[1] or "missing" in check_derivation(d)[1]


def test_empty_derivation_checks_vacuously():
    assert check_derivation(Derivation(n=2)) is None


def test_axiom_line_must_match_instantiation():
    d = Derivation(n=2)
    d.add(P, AxiomRef("K", fsub={"p": P, "q": Q}, psub={"a": A}))
    assert "mismatch" in check_line(d, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_loop_invariance_derivation_checks(n):
    d = derive_loop_invariance(P, A, n)
    assert check_derivation(d) is None
    assert d.conclusion == Implies(P, Box(Star(A), P))
    assert d.premises == [power(Implies(P, Box(A, P)), n)]


def test_loop_invariance_with_compound_parts():
    phi = parse_formula("p (+) q")
    alpha = parse_program("a;b + c*")
    for n in (1, 2):
        d = derive_loop_invariance(phi, alpha, n)
        assert check_derivation(d) is None


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("derive", [derive_loop_invariance, derive_loop_invariance_plain])
def test_loop_invariance_when_alpha_tests_p(derive, n):
    # the axiom instance must not rewrite the test p? inside alpha when
    # phi replaces p
    d = derive(Q, parse_program("p?;a"), n)
    assert check_derivation(d) is None


def test_loop_invariance_degenerates_classically():
    d = derive_loop_invariance(P, A, 1)
    assert d.premises == [Implies(P, Box(A, P))]  # power 1 is the bare premise


def test_loop_invariance_conclusion_transfers_semantically():
    rng = random.Random(2024)
    hits = 0
    for trial in range(200):
        n = rng.choice((1, 2))
        m = random_model(seed=880 + trial, n=n, world_count=rng.randrange(1, 4), var_names=("p", "q", "r"))
        phi = random_formula(rng, rng.randrange(2))
        d = derive_loop_invariance(phi, A, n)
        if m.globally_true(d.premises[0]):
            hits += 1
            assert m.globally_true(d.conclusion)
    assert hits > 15


def test_loop_invariance_plain_variant():
    d = derive_loop_invariance_plain(P, A, 2)
    assert check_derivation(d) is None
    assert len(d.premises) == 2
    assert d.conclusion == Implies(P, Box(Star(A), P))


def test_theoremhood_requires_no_premises():
    d = derive_loop_invariance(P, A, 2)
    assert not proves(d, d.conclusion)
    d2 = Derivation(n=2)
    d2.add(Implies(P, P), Luk())
    assert proves(d2, Implies(P, P))


def test_derivation_file_round_trip():
    d = derive_loop_invariance(parse_formula("p (.) q"), parse_program("a + b"), 2)
    text = format_derivation(d)
    again = parse_derivation(text, 2)
    assert [ln.formula for ln in again.lines] == [ln.formula for ln in d.lines]
    assert check_derivation(again) is None
    assert format_derivation(again) == text


def test_derivation_file_errors():
    with pytest.raises(DerivationFormatError, match="numbered"):
        parse_derivation("2. p ; premise\n", 1)
    with pytest.raises(DerivationFormatError):
        parse_derivation("1. p q ; premise\n", 1)
    with pytest.raises(DerivationFormatError):
        parse_derivation("1. p ; because\n", 1)
    with pytest.raises(DerivationFormatError, match="formulas"):
        parse_derivation("1. p ; sub(1; a := b)\n", 1)


def test_binding_errors_name_the_line():
    head = "1. p ; premise\n# a comment\n2. [a]p ; nec(1, [a])\n"
    for just, message in (
        ("axiom(K; p := p ->; a := a)", "line 4: syntax error at line 1, column 5: expected formula, found end of input"),
        ("axiom(K; p := p; q := q; a := a +)", "line 4: syntax error at line 1, column 4: expected formula or program, found end of input"),
        ("axiom(K; p q)", "line 4: bad binding 'p q'"),
        ("sub(1; p := (q)", "line 4: syntax error at line 1, column 3: expected ), found end of input"),
        ("sub(2; p := q; r)", "line 4: syntax error at line 1, column 2: expected end of input, found ;"),
        ("sub(2; p)", "line 4: bad binding 'p'"),
    ):
        with pytest.raises(DerivationFormatError) as err:
            parse_derivation(f"{head}3. [a]p -> [a]p ; {just}\n", 2)
        assert str(err.value) == message


def test_derivations_parse_in_linear_time():
    # one group table per derivation: keys are hash-consed from inner
    # groups' ids, never from text sliced once per nesting level, so a
    # deep line costs about what parsing it alone costs
    for deep in ("(" * 100_000 + "p" + ")" * 100_000, "(q -> " * 10_000 + "p" + ")" * 10_000):
        text = f"1. {deep} ; premise\n"
        assert parse_derivation(text, 1).lines[0].formula is parse_formula(deep)
        assert time_ratio(lambda: parse_derivation(text, 1), lambda: parse_formula(deep), 3) < 2
    # each line restates the one before it inside parentheses
    formulas = ["p"]
    for _ in range(199):
        formulas.append(f"({formulas[-1]}) -> q")
    text = "".join(f"{i}. {f} ; premise\n" for i, f in enumerate(formulas, start=1))
    assert [ln.formula for ln in parse_derivation(text, 1).lines] == [parse_formula(f) for f in formulas]
    assert time_ratio(lambda: parse_derivation(text, 1), lambda: [parse_formula(f) for f in formulas], 3) < 2


def test_lines_split_in_linear_time():
    # the formula ends at the rightmost ; whose remainder is a
    # justification; a backtracking pattern took 1.2 s to reject the first
    # line at 88 KB and four times that at twice the size
    cases = (
        (" ; mp(1, 2)", " ; x", "cannot parse"),
        (" ; x(1, 2)", " ; y)", "cannot parse"),
        (" ; mp(1, 2)", "", "unexpected character ',' at line 1, column 9"),
    )
    lines = {k: ["1. p" + part * k + tail for part, tail, _ in cases] for k in (8_000, 16_000)}  # 88, 176 KB
    for line, (_, _, message) in zip(lines[8_000], cases):
        with pytest.raises(DerivationFormatError, match=message) as caught:
            parse_derivation(line, 1)
        assert len(str(caught.value)) < 100  # the message quotes a prefix, not the 88 KB line

    def reject(k):  # the lines that no ; splits
        for line in lines[k][:2]:
            with pytest.raises(DerivationFormatError):
                parse_derivation(line, 1)

    assert time_ratio(lambda: reject(16_000), lambda: reject(8_000), 9) < 2.5
    # a ; inside the formula stays there when a later one ends it
    assert parse_derivation("1. [a;b]p ; premise\n", 1).lines[0].formula is parse_formula("[a;b]p")


def test_threshold_box_interchange_semantically():
    # [a]tau_i(p) <-> tau_i([a]p): the alternative reading of the
    # doubling axioms, confirmed on random models per resolution
    from mvpdl.luk import synth_tau

    for n in (1, 2, 3):
        models = [
            random_model(seed=430 + 10 * n + j, n=n, world_count=1 + j % 3, var_names=("p", "q"))
            for j in range(30)
        ]
        for i in range(1, n + 1):
            tau = synth_tau(i, n)
            f = iff(
                Box(A, substitute(tau, {"p": P})),
                substitute(tau, {"p": Box(A, P)}),
            )
            for m in models:
                assert m.globally_true(f), (i, n)


def test_checked_theorems_are_valid_in_random_models():
    # soundness sampling over derivations assembled from axioms and rules
    rng = random.Random(505)
    for n in (1, 2, 3):
        d = Derivation(n=n)
        k_line = d.add(
            instantiate_axiom("K", n, fsub={"p": P, "q": Q}, psub={"a": A}),
            AxiomRef("K", fsub={"p": P, "q": Q}, psub={"a": A}),
        )
        d.add(Box(Star(A), d.lines[k_line - 1].formula), Necessitation(k_line, Star(A)))
        sub = {"p": random_formula(rng, 1), "q": random_formula(rng, 1)}
        d.add(substitute(d.lines[1].formula, sub), Substitution(2, sub))
        assert check_derivation(d) is None
        models = [
            random_model(seed=660 + 10 * n + j, n=n, world_count=1 + j % 3, var_names=("p", "q", "r"))
            for j in range(200)
        ]
        for line in d.lines:
            for m in models:
                assert m.globally_true(line.formula)


def _derivation_corpus():
    """(text, n, line) triples: loop invariance by both derivers at
    n = 1..6 (every third with a sub line), one instance of each axiom at
    n = 1..4 and the bundled file, unchanged (line 0) and, for each of
    their lines, three copies with one character of that line deleted,
    inserted or swapped with its neighbour and, if it binds, one with its
    first `:=` made `=` (line: that line's number)."""
    rng = random.Random(14)
    texts = []
    for k in range(24):
        derive = (derive_loop_invariance, derive_loop_invariance_plain)[k % 2]
        n = 1 + k % 6
        d = derive(random_formula(rng, rng.randrange(1, 4)), random_program(rng, rng.randrange(1, 3)), n)
        if k % 3 == 0:
            fsub = {"p": random_formula(rng, 2), "q": random_formula(rng, 1)}
            d.add(substitute(d.lines[0].formula, fsub), Substitution(1, fsub))
        texts.append((format_derivation(d), n))
    ids = axiom_ids()
    for k in range(4 * len(ids)):
        axiom_id, n = ids[k % len(ids)], 1 + k // len(ids)
        fsub = {v: random_formula(rng, 2) for v in ("p", "q")}
        psub = {a: random_program(rng, 2) for a in ("a", "b")}
        d = Derivation(n=n)
        d.add(instantiate_axiom(axiom_id, n, fsub, psub), AxiomRef(axiom_id, fsub, psub))
        texts.append((format_derivation(d), n))
    bundled = Path(mvpdl.__file__).parent / "data" / "loop_invariance_n2.prf"
    texts.append((bundled.read_text(encoding="utf-8"), 2))
    alphabet = "pq ab()[]<>~&|;*?^+-.0123{}:=,#"
    corpus = [(text, n, 0) for text, n in texts]
    for text, n in texts:
        lines = text.splitlines()
        for i, line in enumerate(lines):
            for edit in range(3):
                j = rng.randrange(len(line))
                if edit == 0:
                    s = line[:j] + line[j + 1 :]
                elif edit == 1:
                    s = line[:j] + rng.choice(alphabet) + line[j:]
                else:
                    s = line[:j] + line[j + 1 : j + 2] + line[j] + line[j + 2 :]
                corpus.append(("\n".join(lines[:i] + [s] + lines[i + 1 :]) + "\n", n, i + 1))
            if ":=" in line:  # a binding without its :=
                s = line.replace(":=", "=", 1)
                corpus.append(("\n".join(lines[:i] + [s] + lines[i + 1 :]) + "\n", n, i + 1))
    return corpus


def _derivation_result(text, n):
    try:
        return format_derivation(parse_derivation(text, n))
    except DerivationFormatError as exc:
        # a `cannot parse` message quotes at most 60 characters of its line;
        # the digest keeps the opening quote and the first 60 characters,
        # which messages quoting the whole line share
        return "error: " + re.sub(r"(cannot parse .{61}).*", r"\1", str(exc))


def test_derivation_parses_are_pinned():
    # sha256 of what parse_derivation returned for each text before one
    # group table per derivation: the printed derivation or the error.  A
    # syntax error in an axiom or sub binding is pinned as the line-numbered
    # DerivationFormatError that the parser of that time did not yet raise
    # (it let the ParseError or an unnumbered "bad binding" through).
    results = [_derivation_result(text, n) for text, n, _ in _derivation_corpus()]
    digest = hashlib.sha256("\n".join(results).encode())
    assert digest.hexdigest() == "83699a1b97cf3abc86a9c33515268bf07f4b4fc5cc28d96c9cee6b3d73cfdaae"


def test_printed_derivations_are_pinned():
    # sha256 of format_derivation before one text table served all the
    # lines, nec programs and bindings of a derivation
    rng = random.Random(26)
    texts = []
    for n in range(1, 7):
        for derive in (derive_loop_invariance, derive_loop_invariance_plain):
            for _ in range(4):
                phi = random_formula(rng, rng.randrange(1, 4), var_names=("p", "q"))
                alpha = random_program(rng, rng.randrange(3), var_names=("p", "q"))
                texts.append(format_derivation(derive(phi, alpha, n)))
    bundled = Path(mvpdl.__file__).parent / "data" / "loop_invariance_n2.prf"
    texts.append(format_derivation(parse_derivation(bundled.read_text(encoding="utf-8"), 2)))
    digest = hashlib.sha256("\n".join(texts).encode())
    assert digest.hexdigest() == "299ab4a03255e6e79f1153d65462fb3f75add0f779c267956298e8a2711d1f28"
