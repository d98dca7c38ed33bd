"""Toolkit for finitely-valued propositional dynamic logic.

Parse formulas and regular programs, evaluate them in (n+1)-valued Kripke
models, decide satisfiability and validity at desk scale, check
Hilbert-style derivations, and build question-answer game models.

`import mvpdl` loads no module of the package: each public name loads its
module the first time it is read (PEP 562), so a process pays only for
the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, grouped by the module that defines each.
_EXPORTS = {
    "luk": (
        "BudgetExceeded", "ResolutionMismatch", "TruthValue", "eval_prop", "is_tautology_prop",
        "mv_equation_failures", "prop_counterexample", "synth_indicator", "synth_tau",
    ),
    "syntax": (
        "Atomic", "Box", "Formula", "Implies", "Not", "Program", "Seq", "Star", "Test", "Union", "Var",
        "Zero", "ZERO", "ONE", "diamond", "fl_closure", "iff", "land", "lor", "odot", "oplus", "power",
        "substitute", "times",
    ),
    "parser": ("ParseError", "format_formula", "format_program", "parse_formula", "parse_program"),
    "kripke": ("KripkeModel", "ModelError", "disjoint_union", "format_model", "parse_model", "random_model"),
    "filtration": ("FiltrationResult", "characteristic_formula", "equivalence_classes", "filter_model"),
    "sat": (
        "SatResult", "Satisfiable", "Unsatisfiable", "decide_sat", "decide_valid", "enumerate_oracle",
        "is_validity_verdict",
    ),
    "proofs": (
        "Derivation", "check_derivation", "check_line", "derive_loop_invariance", "format_derivation",
        "instantiate_axiom", "parse_derivation",
    ),
    "ulam": ("GameConfig", "KnowledgeState", "build_game_model", "check_spec", "update_state"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
