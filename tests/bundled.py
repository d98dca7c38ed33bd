"""The models that ship with the package, read from its data files."""

from __future__ import annotations

from importlib.resources import files

from mvpdl.kripke import KripkeModel, parse_model


def counterexample_model() -> KripkeModel:
    """The two-world countermodel to the unpowered induction formula,
    `mvpdl/data/counterexample.kml`, loaded afresh on every call, so no
    caller sees another's warm caches."""
    return parse_model(files("mvpdl").joinpath("data/counterexample.kml").read_text(encoding="utf-8"))
