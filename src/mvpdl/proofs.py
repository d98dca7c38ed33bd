"""Hilbert-style derivation checking for the (n+1)-valued dynamic system.

The axioms are the table `_AXIOMS`: oplus and odot are stated there, in
the package's own notation, and every other axiom is a schema of the
`tautologies` registry, named there by its index.  All are over formula
metavariables p, q and program metavariables a, b.  An axiom line is
checked against one simultaneous substitution of formulas for p, q and
programs for a, b; a test inside a substituted program keeps its own
variables.

Deduction rules are modus ponens, necessitation, and uniform substitution
of formulas for variables (also inside tests).  The propositional base is
discharged by the `luk` justification: the line is accepted when it is
1 on every row of the (n+1)-valued truth table whose leaves are its
variables and its maximal boxed subformulas, each box (identical ones
being one) a value of its own.

A derivation may open with premise lines; theoremhood requires none.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from typing import Mapping

from .luk import DEFAULT_ROWS, failing_row
from .parser import Groups, ParseError, format_formula, format_program, parse_formula, parse_program
from .syntax import (
    Box,
    Formula,
    Implies,
    Program,
    Star,
    atomic_programs_of,
    land,
    power,
    substitute,
    variables_of,
)
from .tautologies import schema_templates, template

# each axiom by its text, or by its schema index in `tautologies`; in the
# order axiom_ids gives
_AXIOMS = {
    "K": 14, "oplus": "[a](p (+) p) <-> [a]p (+) [a]p", "odot": "[a](p (.) p) <-> [a]p (.) [a]p",
    "union": 1, "seq": 2, "test": 5, "fix": 10, "trans": 13, "ind": 12,
}

# the program metavariables a binding may name
_PROGRAMS = ("a", "b")


class IncompleteSubstitution(ValueError):
    """An axiom instantiation left a schematic symbol unmapped."""


def axiom_ids() -> tuple[str, ...]:
    return tuple(_AXIOMS)


def axiom_template(axiom_id: str, n: int) -> Formula:
    """The axiom over p, q, a, b."""
    source = _AXIOMS.get(axiom_id)
    if source is None:
        raise ValueError(f"unknown axiom {axiom_id!r}")
    return template(source) if type(source) is str else schema_templates(source, n)[0]


def instantiate_axiom(
    axiom_id: str,
    n: int,
    fsub: Mapping[str, Formula] | None = None,
    psub: Mapping[str, Program] | None = None,
) -> Formula:
    """Fill an axiom schema by one simultaneous substitution.  Every
    schematic symbol must be mapped."""
    template = axiom_template(axiom_id, n)
    fsub = fsub or {}
    psub = psub or {}
    variables, programs = _vocabulary(axiom_id)
    missing = variables.difference(fsub) | programs.difference(psub)
    if missing:
        raise IncompleteSubstitution(f"axiom {axiom_id} leaves {sorted(missing)} unmapped")
    return substitute(template, fsub, psub)


@cache
def _vocabulary(axiom_id: str) -> tuple[frozenset[str], frozenset[str]]:
    """The schematic variables and programs of an axiom, which are the same
    at every n: read once, from its template at n = 1."""
    template = axiom_template(axiom_id, 1)
    return frozenset(variables_of(template)), frozenset(atomic_programs_of(template))


# --- derivations ------------------------------------------------------------


@dataclass
class Premise:
    pass


@dataclass
class AxiomRef:
    axiom_id: str
    fsub: dict[str, Formula] = field(default_factory=dict)
    psub: dict[str, Program] = field(default_factory=dict)


@dataclass
class Luk:
    pass


@dataclass
class ModusPonens:
    minor: int  # line holding phi
    major: int  # line holding phi -> psi


@dataclass
class Necessitation:
    source: int
    prog: Program


@dataclass
class Substitution:
    source: int
    fsub: dict[str, Formula] = field(default_factory=dict)


Justification = Premise | AxiomRef | Luk | ModusPonens | Necessitation | Substitution


@dataclass
class Line:
    formula: Formula
    justification: Justification


@dataclass
class Derivation:
    """Numbered proof lines at a fixed resolution; references are 1-based."""

    n: int
    lines: list[Line] = field(default_factory=list)

    def add(self, formula: Formula, justification: Justification) -> int:
        self.lines.append(Line(formula, justification))
        return len(self.lines)

    @property
    def premises(self) -> list[Formula]:
        return [ln.formula for ln in self.lines if isinstance(ln.justification, Premise)]

    @property
    def conclusion(self) -> Formula | None:
        return self.lines[-1].formula if self.lines else None


def is_modal_luk_tautology(f: Formula, n: int, budget: int | None = None) -> bool:
    """The `luk` acceptance test: f is 1 on every row of the truth table
    whose leaves are its variables and its maximal boxes (`luk.failing_row`).
    With a budget, a table of more rows raises `luk.BudgetExceeded`."""
    return failing_row(f, n, budget, boxes=True)[1] is None


def check_line(d: Derivation, lineno: int, budget: int = DEFAULT_ROWS) -> str | None:
    """None when the 1-based line is justified; otherwise the violation.
    A `luk` line whose truth table has more than budget rows raises
    `luk.BudgetExceeded`."""
    if not 1 <= lineno <= len(d.lines):
        return f"no line {lineno}"
    line = d.lines[lineno - 1]
    j = line.justification
    if isinstance(j, Premise):
        return None
    if isinstance(j, Luk):
        if not is_modal_luk_tautology(line.formula, d.n, budget):
            return "not an instance of an (n+1)-valued propositional tautology"
        return None
    if not isinstance(j, (AxiomRef, ModusPonens, Necessitation, Substitution)):
        return f"unknown justification {j!r}"
    refs = (j.minor, j.major) if isinstance(j, ModusPonens) else () if isinstance(j, AxiomRef) else (j.source,)
    for ref in refs:  # minor before major
        if not 1 <= ref <= len(d.lines):
            return f"reference to missing line {ref}"
        if ref >= lineno:
            return f"forward reference to line {ref}"
    cited = [d.lines[ref - 1].formula for ref in refs]
    if isinstance(j, ModusPonens):
        minor, major = cited
        if type(major) is not Implies:
            return "major premise shape: cited line is not an implication"
        if major.lhs != minor:
            return "modus ponens: antecedent does not match the minor premise"
        if major.rhs != line.formula:
            return "modus ponens: consequent does not match this line"
        return None
    if isinstance(j, AxiomRef):
        try:
            expected = instantiate_axiom(j.axiom_id, d.n, j.fsub, j.psub)
        except ValueError as exc:
            return str(exc)
        rule = "axiom instance mismatch"
    elif isinstance(j, Necessitation):
        expected, rule = Box(j.prog, cited[0]), "necessitation"
    else:
        expected, rule = substitute(cited[0], j.fsub), "substitution"
    return None if line.formula == expected else f"{rule}: expected {format_formula(expected)}"


def check_derivation(d: Derivation, budget: int = DEFAULT_ROWS) -> tuple[int, str] | None:
    """First failing (line number, reason), or None when all lines check;
    `check_line` says what the budget bounds."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    for lineno in range(1, len(d.lines) + 1):
        reason = check_line(d, lineno, budget)
        if reason is not None:
            return lineno, reason
    return None


def proves(d: Derivation, f: Formula) -> bool:
    """Whether d is a premise-free checked derivation ending in f."""
    return not d.premises and d.conclusion == f and check_derivation(d) is None


# --- loop invariance --------------------------------------------------------


def derive_loop_invariance(phi: Formula, alpha: Program, n: int) -> Derivation:
    """Checked derivation of phi -> [alpha*]phi from (phi -> [alpha]phi)^n."""
    d = Derivation(n=n)
    _derive_from_power(d, phi, alpha)
    return d


def derive_loop_invariance_plain(phi: Formula, alpha: Program, n: int) -> Derivation:
    """Variant starting from the unpowered premise phi -> [alpha]phi.

    The jump from the premise to its n-th power is admissible for the
    system (powering preserves theoremhood) but not derivable from the
    rules alone, so the power enters as a second premise line here.
    """
    d = Derivation(n=n)
    d.add(Implies(phi, Box(alpha, phi)), Premise())
    _derive_from_power(d, phi, alpha)
    return d


def _derive_from_power(d: Derivation, phi: Formula, alpha: Program) -> None:
    """Append to d the premise (phi -> [alpha]phi)^n and the steps from it
    to phi -> [alpha*]phi.

    The steps: necessitate the premise under the star; a propositional
    step packs phi with the boxed premise; the induction axiom plus a
    transitivity step then reach the boxed conclusion.
    """
    star = Star(alpha)
    premise = power(Implies(phi, Box(alpha, phi)), d.n)
    boxed = Box(star, premise)
    packed = land(phi, boxed)
    goal = Box(star, phi)
    l1 = d.add(premise, Premise())
    l2 = d.add(boxed, Necessitation(l1, star))
    l3 = d.add(Implies(boxed, Implies(phi, packed)), Luk())
    l4 = d.add(Implies(phi, packed), ModusPonens(l2, l3))
    l5 = d.add(
        Implies(
            Implies(phi, packed),
            Implies(Implies(packed, goal), Implies(phi, goal)),
        ),
        Luk(),
    )
    l6 = d.add(Implies(Implies(packed, goal), Implies(phi, goal)), ModusPonens(l4, l5))
    l7 = d.add(
        Implies(packed, goal),
        AxiomRef("ind", fsub={"p": phi}, psub={"a": alpha}),
    )
    d.add(Implies(phi, goal), ModusPonens(l7, l6))


# --- derivation files -------------------------------------------------------
#
#   1. (p -> [a]p)^2 ; premise
#   2. [a*](p -> [a]p)^2 ; nec(1, [a*])
#   4. p -> p & [a*](p -> [a]p)^2 ; mp(2, 3)
#   7. ... ; axiom(ind; p := p; a := a)
#   9. ... ; sub(1; p := q (+) q)

_STEP_RE = re.compile(r"(\d+)\s*\.\s*")
_JUST_RE = re.compile(r"\s*((?:mp|nec|axiom|sub)\s*\(|premise$|luk$)")
_MP_RE = re.compile(r"^mp\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)$")
_NEC_RE = re.compile(r"^nec\s*\(\s*(\d+)\s*,\s*\[(.*)\]\s*\)$")
_AX_RE = re.compile(r"^axiom\s*\((.*)\)$")
_SUB_RE = re.compile(r"^sub\s*\(\s*(\d+)\s*(?:;(.*))?\)$")
_BIND_SPLIT = re.compile(r";(?=\s*[A-Za-z_]\w*\s*:=)")


class DerivationFormatError(ValueError):
    pass


def _split_line(line: str) -> tuple[int, str, str] | None:
    """(step number, formula text, justification text) of a stripped line
    `N. formula ; justification`, or None.  The formula ends at the
    rightmost `;` whose remainder is a justification: `premise`, `luk`, or
    mp, nec, axiom or sub with its arguments in parentheses that end the
    line.  Each `;` is tried once, from the right, and each try reads only
    the spaces and the name after it, so a line splits in linear time."""
    m = _STEP_RE.match(line)
    if m is None:
        return None
    start = m.end()
    closed = line[-1] == ")"
    semi = len(line)
    while (semi := line.rfind(";", start + 1, semi)) >= 0:
        j = _JUST_RE.match(line, semi + 1)
        if j is not None and (closed or j.group(1)[-1] != "("):
            return int(m.group(1)), line[start:semi].rstrip(), line[j.start(1) :]
        if not closed:  # premise or luk, which end the line, follow its last ;
            return None
    return None


def _parse_bindings(text: str, lineno: int, groups: Groups):
    fsub: dict[str, Formula] = {}
    psub: dict[str, Program] = {}
    if not text or not text.strip():
        return fsub, psub
    for chunk in _BIND_SPLIT.split(text):
        name, sep, value = chunk.partition(":=")
        if not sep:
            raise DerivationFormatError(f"line {lineno}: bad binding {chunk.strip()!r}")
        name = name.strip()
        value = value.strip()
        try:
            if name in _PROGRAMS:
                psub[name] = parse_program(value, groups)
            else:
                fsub[name] = parse_formula(value, groups)
        except ParseError as exc:
            raise DerivationFormatError(f"line {lineno}: {exc}") from None
    return fsub, psub


def parse_derivation(text: str, n: int) -> Derivation:
    """The derivation a text states, one step a line.  Its formulas,
    nec programs and bindings are parsed with one group table, so a group
    that an earlier line stated is not read again."""
    d = Derivation(n=n)
    groups = Groups()
    expected = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = _split_line(stripped)
        if parts is None:
            shown = stripped if len(stripped) <= 60 else stripped[:60] + "…"  # a line may run to megabytes
            raise DerivationFormatError(f"line {lineno}: cannot parse {shown!r}")
        index, formula_text, just_text = parts
        if index != expected:
            raise DerivationFormatError(
                f"line {lineno}: step numbered {index}, expected {expected}"
            )
        expected += 1
        try:
            formula = parse_formula(formula_text, groups)
        except ParseError as exc:
            raise DerivationFormatError(f"line {lineno}: {exc}") from None
        d.add(formula, _parse_justification(just_text, lineno, groups))
    return d


def _parse_justification(text: str, lineno: int, groups: Groups) -> Justification:
    text = text.strip()
    if text == "premise":
        return Premise()
    if text == "luk":
        return Luk()
    m = _MP_RE.match(text)
    if m:
        return ModusPonens(int(m.group(1)), int(m.group(2)))
    m = _NEC_RE.match(text)
    if m:
        try:
            prog = parse_program(m.group(2), groups)
        except ParseError as exc:
            raise DerivationFormatError(f"line {lineno}: {exc}") from None
        return Necessitation(int(m.group(1)), prog)
    m = _AX_RE.match(text)
    if m:
        inner = m.group(1)
        head, _, rest = inner.partition(";")
        fsub, psub = _parse_bindings(rest, lineno, groups)
        return AxiomRef(head.strip(), fsub, psub)
    m = _SUB_RE.match(text)
    if m:
        fsub, psub = _parse_bindings(m.group(2) or "", lineno, groups)
        if psub:
            raise DerivationFormatError(f"line {lineno}: sub only substitutes formulas")
        return Substitution(int(m.group(1)), fsub)
    raise DerivationFormatError(f"line {lineno}: unknown justification {text!r}")


def format_derivation(d: Derivation) -> str:
    """The text of d, one step a line.  Its formulas, nec programs and
    bindings are printed with one text table, so a subterm that an earlier
    line printed is copied, not printed again."""
    texts: dict = {}
    out = []
    for i, line in enumerate(d.lines, start=1):
        out.append(f"{i}. {format_formula(line.formula, texts)} ; {_format_justification(line.justification, texts)}")
    return "\n".join(out) + "\n"


def _format_justification(j: Justification, texts: dict) -> str:
    if isinstance(j, Premise):
        return "premise"
    if isinstance(j, Luk):
        return "luk"
    if isinstance(j, ModusPonens):
        return f"mp({j.minor}, {j.major})"
    if isinstance(j, Necessitation):
        return f"nec({j.source}, [{format_program(j.prog, texts)}])"
    if isinstance(j, AxiomRef):
        bits = [j.axiom_id]
        bits += [f"{k} := {format_formula(v, texts)}" for k, v in sorted(j.fsub.items())]
        bits += [f"{k} := {format_program(v, texts)}" for k, v in sorted(j.psub.items())]
        return f"axiom({'; '.join(bits)})"
    if isinstance(j, Substitution):
        bits = [str(j.source)]
        tail = "; ".join(f"{k} := {format_formula(v, texts)}" for k, v in sorted(j.fsub.items()))
        return f"sub({bits[0]}; {tail})" if tail else f"sub({bits[0]})"
    raise TypeError(f"unknown justification {j!r}")
