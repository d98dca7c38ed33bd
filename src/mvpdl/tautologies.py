"""Registry of the eighteen validity schemas over programs and the box.

`_SCHEMAS` is the registry: each index maps to the schema's name and its
formulas, written in the package's own notation (`mvpdl.parser`) over
formula metavariables p, q and program metavariables a, b.  Items 1-13
are the regular-program laws (union, composition, test, star unfolding,
transitivity, and the n-fold induction law); 14-17 are box/diamond
transfer laws; 18 commutes the box and diamond with any one-variable
threshold map whose interpretation is monotone increasing, sampled here
from the synthesized thresholds.  Items 5, 12 and 18 depend on n, so
they are given as builders of their formulas at n rather than as text.

Schemas 15 and 17 bundle a matching pair of formulas, and 18 gives two
per threshold; `schema_formulas` therefore returns a list.
"""

from __future__ import annotations

import random
from functools import cache

from .luk import synth_tau
from .parser import parse_formula
from .syntax import (
    Atomic,
    Box,
    Formula,
    Implies,
    Not,
    Program,
    Seq,
    Star,
    Test,
    Union,
    Var,
    ZERO,
    diamond,
    iff,
    land,
    lor,
    odot,
    oplus,
    power,
    substitute,
)

_P = Var("p")
_Q = Var("q")
_A = Atomic("a")


def _threshold_maps(n: int) -> list[Formula]:
    return [
        iff(substitute(tau, {"p": modal(_A, _P)}), modal(_A, tau))
        for tau in (synth_tau(i, n) for i in range(1, n + 1))
        for modal in (Box, diamond)
    ]


# each schema by index: its name, then its formula texts or the builder
# of its formulas at n
_SCHEMAS = {
    1: ("box-union", "[a + b]p <-> [a]p & [b]p"),
    2: ("box-composition", "[a;b]p <-> [a][b]p"),
    3: ("diamond-union", "<a + b>p <-> <a>p | <b>p"),
    4: ("diamond-composition", "<a;b>p <-> <a><b>p"),
    5: ("test", lambda n: [iff(Box(Test(_Q), _P), lor(Not(power(_Q, n)), _P))]),  # [q?]p <-> ~(q^n) | p
    6: ("star-reflexive", "[a*]p -> p"),
    7: ("diamond-star-reflexive", "p -> <a*>p"),
    8: ("star-step", "[a*]p -> [a]p"),
    9: ("diamond-star-step", "<a>p -> <a*>p"),
    10: ("star-unfold", "[a*]p <-> p & [a][a*]p"),
    11: ("diamond-star-unfold", "<a*>p <-> p | <a><a*>p"),
    12: (  # p & [a*]((p -> [a]p)^n) -> [a*]p
        "induction",
        lambda n: [Implies(land(_P, Box(Star(_A), power(Implies(_P, Box(_A, _P)), n))), Box(Star(_A), _P))],
    ),
    13: ("star-transitive", "[a*]p -> [a*][a*]p"),
    14: ("normality", "[a](p -> q) -> [a]p -> [a]q"),
    15: ("meet-join-transfer", "[a](p & q) <-> [a]p & [a]q", "<a>(p | q) <-> <a>p | <a>q"),
    16: ("join-under-box", "[a]p | [a]q -> [a](p | q)"),
    17: ("strong-conjunction-transfer", "[a]p (.) <a>q -> <a>(p (.) q)", "<a>(p (.) q) -> <a>p (.) <a>q"),
    18: ("threshold-commutation", _threshold_maps),  # tau(M p) <-> M tau(p), M = [a] or <a>
}

SCHEMA_COUNT = len(_SCHEMAS)
SCHEMA_NAMES = {index: row[0] for index, row in _SCHEMAS.items()}


@cache
def template(text: str) -> Formula:
    """The formula a schema or axiom text states, parsed once per process."""
    return parse_formula(text)


def schema_formulas(index: int, n: int) -> list[Formula]:
    """Template formulas of one schema at the given resolution, in a new
    list; `schema_templates` holds them."""
    return list(schema_templates(index, n))


@cache
def schema_templates(index: int, n: int) -> tuple[Formula, ...]:
    """Template formulas of one schema at the given resolution, built or
    parsed once per (index, n) in a process."""
    row = _SCHEMAS.get(index)
    if row is None:
        raise ValueError(f"schema index {index} out of range 1..{SCHEMA_COUNT}")
    if callable(row[1]):
        return tuple(row[1](n))
    return tuple(template(text) for text in row[1:])


# --- random instances -------------------------------------------------------


def random_formula(
    rng: random.Random,
    depth: int,
    var_names=("p", "q", "r"),
    atom_names=("a", "b"),
) -> Formula:
    """Depth-bounded random formula, exercising sugar constructors too."""
    if depth <= 0 or rng.random() < 0.2:
        return ZERO if rng.random() < 0.1 else Var(rng.choice(var_names))
    pick = rng.randrange(8)
    if pick == 0:
        return Not(random_formula(rng, depth - 1, var_names, atom_names))
    if pick == 1:
        return Implies(
            random_formula(rng, depth - 1, var_names, atom_names),
            random_formula(rng, depth - 1, var_names, atom_names),
        )
    if pick == 2:
        return Box(
            random_program(rng, depth - 1, var_names, atom_names),
            random_formula(rng, depth - 1, var_names, atom_names),
        )
    if pick == 3:
        return diamond(
            random_program(rng, depth - 1, var_names, atom_names),
            random_formula(rng, depth - 1, var_names, atom_names),
        )
    ctor = (lor, land, oplus, odot)[pick - 4]
    return ctor(
        random_formula(rng, depth - 1, var_names, atom_names),
        random_formula(rng, depth - 1, var_names, atom_names),
    )


def random_program(
    rng: random.Random,
    depth: int,
    var_names=("p", "q", "r"),
    atom_names=("a", "b"),
) -> Program:
    if depth <= 0 or rng.random() < 0.4:
        return Atomic(rng.choice(atom_names))
    pick = rng.randrange(4)
    if pick == 0:
        return Seq(
            random_program(rng, depth - 1, var_names, atom_names),
            random_program(rng, depth - 1, var_names, atom_names),
        )
    if pick == 1:
        return Union(
            random_program(rng, depth - 1, var_names, atom_names),
            random_program(rng, depth - 1, var_names, atom_names),
        )
    if pick == 2:
        return Star(random_program(rng, depth - 1, var_names, atom_names))
    return Test(random_formula(rng, depth - 1, var_names, atom_names))


def random_instance(
    rng: random.Random,
    index: int,
    n: int,
    depth: int = 1,
    var_names=("p", "q", "r"),
    atom_names=("a", "b"),
) -> list[Formula]:
    """One random instantiation of a schema's formulas."""
    fsub = {
        "p": random_formula(rng, depth, var_names, atom_names),
        "q": random_formula(rng, depth, var_names, atom_names),
    }
    psub = {
        "a": random_program(rng, depth, var_names, atom_names),
        "b": random_program(rng, depth, var_names, atom_names),
    }
    return [substitute(f, fsub, psub) for f in schema_formulas(index, n)]
