"""Two rules the package's source keeps, read off its syntax trees: it has
no runtime dependencies, every module importing only the standard library
and mvpdl itself; and it builds its own models from index lists, never
through the validated pair constructor."""

import ast
import sys
from pathlib import Path

import mvpdl


def test_package_imports_only_the_standard_library():
    modules = sorted(Path(mvpdl.__file__).parent.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "mvpdl", f"{path.name} imports {name}"


def test_package_never_calls_the_pair_constructor():
    # `KripkeModel(n, worlds, relations, valuation)` checks every pair and
    # value again; the package's producers already hold successor index
    # lists and numerator columns, and hand them to `KripkeModel._indexed`
    calls = []
    for path in sorted(Path(mvpdl.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "KripkeModel":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
