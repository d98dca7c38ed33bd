"""The package has no runtime dependencies: every module imports only the
standard library and mvpdl itself."""

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
