"""Source rules checked on the code itself."""

import ast
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
