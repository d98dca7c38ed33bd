"""`import mvpdl` loads no module of the package; each public name loads
its module on first use, and each command loads only what it calls.

Which modules a call loads is read in a fresh interpreter, since this
process has loaded every module by the time a test runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mvpdl

ENV = dict(os.environ, PYTHONPATH=str(Path(mvpdl.__file__).parents[1]))


def fresh(code: str):
    """The JSON that `code` prints last, run in a new interpreter."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "json.dumps(sorted(m.split('.')[1] for m in sys.modules if m.startswith('mvpdl.')))"


def test_import_loads_no_submodule():
    assert fresh(f"import json, sys, mvpdl; print({LOADED})") == []


def test_check_loads_only_the_model_checker(tmp_path):
    model = tmp_path / "model.kml"
    model.write_text("n = 2\nworlds: u v\nrel a: u->v\nval p: u=2/2 v=2/2\n")
    code = (
        "import json, sys\nfrom mvpdl import cli\n"
        f"assert cli.main(['check', '--model', {str(model)!r}, '[a]p']) == 0\nprint({LOADED})"
    )
    assert fresh(code) == ["cli", "kripke", "luk", "parser", "syntax"]


def test_taut_and_ulam_build_never_load_the_decider():
    code = (
        "import json, sys\nfrom mvpdl import cli\n"
        "assert cli.main(['taut', 'p -> q -> p', '--n', '2']) == 0\nbefore = 'mvpdl.sat' in sys.modules\n"
        "assert cli.main(['taut', 'p -> q -> p', '--n', '2', '--budget', '8']) == 2\n"
        "past = 'mvpdl.sat' in sys.modules\n"
        "assert cli.main(['ulam', 'build', '--m', '2', '--n', '1', '--budget', '7']) == 2\n"
        "print(json.dumps([before, past, 'mvpdl.sat' in sys.modules]))"
    )
    assert fresh(code) == [False, False, False]


def test_prove_loads_neither_the_model_checker_nor_the_decider_within_its_budget():
    bundled = str(Path(mvpdl.__file__).parent / "data" / "loop_invariance_n2.prf")
    code = (
        "import json, sys\nfrom mvpdl import cli\n"
        f"assert cli.main(['prove', {bundled!r}, '--n', '2']) == 0\n"
        "loaded = sorted(m.split('.')[1] for m in sys.modules if m.startswith('mvpdl.'))\n"
        f"assert cli.main(['prove', {bundled!r}, '--n', '2', '--budget', '26']) == 2\n"
        "print(json.dumps([loaded, 'mvpdl.sat' in sys.modules]))"
    )
    loaded, sat_after = fresh(code)
    assert not {"kripke", "sat"} & set(loaded) and "proofs" in loaded
    assert not sat_after


def test_ulam_check_leaves_the_decider_and_proofs_unloaded():
    code = (
        "import json, sys\nfrom mvpdl import cli\n"
        "assert cli.main(['ulam', 'check', '--m', '3', '--n', '2', '--depth', '2', '--spec', '[Q{1}]p_1 -> p_1']) == 0\n"
        f"print({LOADED})"
    )
    assert not {"sat", "proofs"} & set(fresh(code))


def test_each_name_is_its_modules_object():
    assert len(mvpdl.__all__) == len(set(mvpdl.__all__)) == 67
    assert set(mvpdl.__all__) <= set(dir(mvpdl))
    for module, names in mvpdl._EXPORTS.items():
        loaded = importlib.import_module(f"mvpdl.{module}")
        for name in names:
            assert getattr(mvpdl, name) is getattr(loaded, name), name
    assert not hasattr(mvpdl, "no_such_name")


def test_star_import_and_the_readme_example():
    code = (
        "import json, mvpdl\nns = {}\nexec('from mvpdl import *', ns)\n"
        "from mvpdl import KripkeModel, parse_formula, decide_valid\n"
        "m = KripkeModel(4, ['u', 'v'], {'a': [('u', 'v')]}, {'p': {'u': 3, 'v': 1}})\n"
        "r = decide_valid(parse_formula('[a*]p -> p'), 1)\n"
        "print(json.dumps([sorted(set(mvpdl.__all__) - set(ns)), str(m.value('u', parse_formula('[a*]p'))),"
        " r.is_sat, r.complete]))"
    )
    assert fresh(code) == [[], "1/4", False, True]
