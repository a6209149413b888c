"""Source rules checked on the code itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparsefact

SOURCE = Path(sparsefact.__file__).parent


@pytest.mark.parametrize("module", sorted(p.stem for p in SOURCE.glob("*.py")))
def test_factoring_engines_have_no_assert(module):
    # python -O strips assert statements, so no check anywhere in the
    # package may be one: a failed check raises an exception instead
    path = SOURCE / (module + ".py")
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], "assert statements in %s at lines %s" % (path, lines)


@pytest.mark.parametrize("module", sorted(p.stem for p in SOURCE.glob("*.py")))
def test_no_private_parameters(module):
    # a setting only the module itself may pass is a second path through the
    # function; give that path its own function or drop it
    path = SOURCE / (module + ".py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                v for v in (a.vararg, a.kwarg) if v is not None]
            found += ["%s:%d" % (p.arg, node.lineno) for p in params
                      if p.arg.startswith("_")]
    assert found == [], "_-prefixed parameters in %s: %s" % (path, found)


def test_import_leaves_out_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, which would add
    # their memory and start-up time to every process that imports sparsefact
    code = ("import sys, sparsefact; print(sorted(m for m in ('dataclasses', "
            "'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
