"""Source rules checked on the code itself."""

import ast
import importlib

import pytest


@pytest.mark.parametrize("module", ["bifactor", "unifactor", "factorizer"])
def test_factoring_engines_have_no_assert(module):
    # python -O strips assert statements, so no check in the factoring
    # engines or their driver may be one: a failed check raises a
    # SparsefactError instead
    path = importlib.import_module("sparsefact." + module).__file__
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], "assert statements in %s at lines %s" % (path, lines)
