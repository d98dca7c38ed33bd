"""Registry of the eighteen validity schemas over programs and the box.

The schemas are templates over formula metavariables p, q and program
metaprograms a, b.  Items 1-13 are the regular-program laws (union,
composition, test, star unfolding, transitivity, and the n-fold
induction law); 14-17 are box/diamond transfer laws; 18 commutes the box
and diamond with any one-variable threshold map whose interpretation is
monotone increasing, sampled here from the synthesized thresholds.

Schemas 15 and 17 bundle a matching pair of formulas; `schema_formulas`
therefore returns a list.
"""

from __future__ import annotations

import random
from typing import Mapping

from .luk import synth_tau
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
_B = Atomic("b")

SCHEMA_COUNT = 18

SCHEMA_NAMES = {
    1: "box-union",
    2: "box-composition",
    3: "diamond-union",
    4: "diamond-composition",
    5: "test",
    6: "star-reflexive",
    7: "diamond-star-reflexive",
    8: "star-step",
    9: "diamond-star-step",
    10: "star-unfold",
    11: "diamond-star-unfold",
    12: "induction",
    13: "star-transitive",
    14: "normality",
    15: "meet-join-transfer",
    16: "join-under-box",
    17: "strong-conjunction-transfer",
    18: "threshold-commutation",
}


def schema_formulas(index: int, n: int) -> list[Formula]:
    """Template formulas of one schema at the given resolution."""
    p, q, a, b = _P, _Q, _A, _B
    if index == 1:
        return [iff(Box(Union(a, b), p), land(Box(a, p), Box(b, p)))]
    if index == 2:
        return [iff(Box(Seq(a, b), p), Box(a, Box(b, p)))]
    if index == 3:
        return [iff(diamond(Union(a, b), p), lor(diamond(a, p), diamond(b, p)))]
    if index == 4:
        return [iff(diamond(Seq(a, b), p), diamond(a, diamond(b, p)))]
    if index == 5:
        return [iff(Box(Test(q), p), lor(Not(power(q, n)), p))]
    if index == 6:
        return [Implies(Box(Star(a), p), p)]
    if index == 7:
        return [Implies(p, diamond(Star(a), p))]
    if index == 8:
        return [Implies(Box(Star(a), p), Box(a, p))]
    if index == 9:
        return [Implies(diamond(a, p), diamond(Star(a), p))]
    if index == 10:
        return [iff(Box(Star(a), p), land(p, Box(a, Box(Star(a), p))))]
    if index == 11:
        return [iff(diamond(Star(a), p), lor(p, diamond(a, diamond(Star(a), p))))]
    if index == 12:
        return [Implies(land(p, Box(Star(a), power(Implies(p, Box(a, p)), n))), Box(Star(a), p))]
    if index == 13:
        return [Implies(Box(Star(a), p), Box(Star(a), Box(Star(a), p)))]
    if index == 14:
        return [Implies(Box(a, Implies(p, q)), Implies(Box(a, p), Box(a, q)))]
    if index == 15:
        return [
            iff(Box(a, land(p, q)), land(Box(a, p), Box(a, q))),
            iff(diamond(a, lor(p, q)), lor(diamond(a, p), diamond(a, q))),
        ]
    if index == 16:
        return [Implies(lor(Box(a, p), Box(a, q)), Box(a, lor(p, q)))]
    if index == 17:
        return [
            Implies(odot(Box(a, p), diamond(a, q)), diamond(a, odot(p, q))),
            Implies(diamond(a, odot(p, q)), odot(diamond(a, p), diamond(a, q))),
        ]
    if index == 18:
        out = []
        for i in range(1, n + 1):
            tau = synth_tau(i, n)
            out.append(iff(substitute(tau, {"p": Box(a, p)}), Box(a, substitute(tau, {"p": p}))))
            out.append(
                iff(substitute(tau, {"p": diamond(a, p)}), diamond(a, substitute(tau, {"p": p})))
            )
        return out
    raise ValueError(f"schema index {index} out of range 1..{SCHEMA_COUNT}")


def instantiate(
    f: Formula,
    fsub: Mapping[str, Formula] | None = None,
    psub: Mapping[str, Program] | None = None,
) -> Formula:
    """Fill a schema by one simultaneous substitution: formulas replace
    variables and programs replace atomic placeholders, and neither
    replacement is rewritten by the other (a test inside a substituted
    program keeps its own variables)."""
    return substitute(f, fsub or {}, psub)


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
    return [instantiate(f, fsub, psub) for f in schema_formulas(index, n)]
