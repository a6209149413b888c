"""Source rules checked on the code itself."""

import ast
import importlib
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


FACTORING = ("bifactor", "factorizer")


def _cli_call(argv):
    return ("import io, sys\nfrom sparsefact import cli\n"
            "if cli.run(%r, io.StringIO()):\n    sys.exit('run failed')"
            % (argv,))


# (code run in a fresh interpreter, sparsefact modules it must not load):
# without a bytecode cache every module loaded is compiled from source, so
# each entry point loads only the engine it runs
ENTRY_POINTS = [
    ("import sparsefact\nsparsefact.make_field(7)",
     ("sparsepoly", "unifactor", "polytope", "hitting", "resultant", "cli")
     + FACTORING),
    (_cli_call(["polytope", "--json", "x1*x2 + 1"]),
     FACTORING + ("hitting", "resultant")),
    (_cli_call(["hitset", "--n", "2", "--d", "1", "--k", "1"]),
     FACTORING + ("resultant",)),
    (_cli_call(["factor", "x1^2 + 6"]), ("hitting", "resultant")),
]


@pytest.mark.parametrize("code, absent", ENTRY_POINTS,
                         ids=["make_field", "polytope", "hitset", "factor"])
def test_entry_point_loads_only_its_engine(code, absent):
    code += ("\nimport sys\nprint(sorted(m for m in %r "
             "if 'sparsefact.' + m in sys.modules))" % (absent,))
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


# every module a bare `import sparsefact` makes reachable as an attribute
SUBMODULES = ("errors", "field", "sparsepoly", "unifactor", "bifactor",
              "factorizer", "polytope", "hitting", "resultant")


def test_exports_resolve_to_their_home_objects():
    for name in sparsefact.__all__:
        obj = getattr(sparsefact, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("sparsefact.") and getattr(
            home, name) is obj, name
    for module in SUBMODULES:
        assert getattr(sparsefact, module) is importlib.import_module(
            "sparsefact." + module)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from sparsefact import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sparsefact.__all__)
    assert set(sparsefact.__all__) <= set(dir(sparsefact))


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sparsefact.no_such_name


def _package_imports(path, top_level_only):
    """Lines of path that import through the sparsefact package itself:
    `import sparsefact[.x]`, `from sparsefact import`, `from . import`,
    and with top_level_only any import from a submodule in the module
    body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nodes = tree.body if top_level_only else ast.walk(tree)
    lines = []
    for node in nodes:
        if isinstance(node, ast.Import):
            if any(a.name.partition(".")[0] == "sparsefact"
                   for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            package = node.module == "sparsefact" or (
                node.level and not node.module)
            submodule = node.level or (node.module or "").startswith(
                "sparsefact.")
            if package or (top_level_only and submodule):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", sorted(p.stem for p in SOURCE.glob("*.py")))
def test_package_namespace_stays_lazy(module):
    # __init__ imports no module up front, and no module imports through
    # the package, so the lazy exports cannot regress or form a cycle
    path = SOURCE / (module + ".py")
    lines = _package_imports(path, top_level_only=module == "__init__")
    assert lines == [], "package imports in %s at lines %s" % (path, lines)


# the only private names one module takes from another: the monic driver
# lifts along lines with the bivariate engine's y-list kernels and lift
# plan, and the char-p route of the engine takes univariate p-th roots
PRIVATE_IMPORTS = {
    ("factorizer", "bifactor", "_ylist_deg_t"),
    ("factorizer", "bifactor", "_ylist_mul"),
    ("factorizer", "bifactor", "_lift_plan"),
    ("factorizer", "bifactor", "_lift_list"),
    ("bifactor", "unifactor", "_pth_root_poly"),
}


def _private_imports(module):
    """(module, source module, name) for each _-prefixed name that module
    takes from another sparsefact module, by `from ... import` or as an
    attribute of a module it imported that way."""
    path = SOURCE / (module + ".py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("sparsefact")):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if not source or source == "sparsefact":  # a module itself
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.add((module, source, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.add((module, modules[node.value.id], node.attr))
    return found


def test_private_names_stay_in_their_module():
    # a module's _-prefixed names are its own; a new coupling between
    # module internals goes through a public name or onto this list
    found = set().union(*(_private_imports(p.stem)
                          for p in SOURCE.glob("*.py")))
    assert found == PRIVATE_IMPORTS


def _is_elements_call(node):
    return (isinstance(node, ast.Call) and not node.args
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "elements")


def _whole_field_reads(path):
    """Lines of path that consume a field's elements() whole: a list,
    tuple, set or sorted of it, or an islice of it with no stop."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.args
                and _is_elements_call(node.args[0])):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name in ("list", "tuple", "set", "sorted"):
            lines.append(node.lineno)
        elif name == "islice":
            # islice(it, stop) or islice(it, start, stop[, step])
            stop = node.args[2] if len(node.args) > 2 else (
                node.args[1] if len(node.args) == 2 else None)
            if stop is None or (isinstance(stop, ast.Constant)
                                and stop.value is None):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", sorted(p.stem for p in SOURCE.glob("*.py")))
def test_no_whole_field_lists(module):
    # fields go up to 2^16 elements: code reads them by index
    # (ctx.from_index), loops over elements() lazily, or takes a bounded
    # prefix with islice, never a copy of the whole field
    path = SOURCE / (module + ".py")
    lines = _whole_field_reads(path)
    assert lines == [], "whole-field reads in %s at lines %s" % (path, lines)


# the factoring path and the analytics beside it: the engines take nothing
# from the Newton-polytope analytics, the hitting sets, the resultants or
# the command line, so none of their numbers can steer a factorization
ENGINES = ("field", "unifactor", "sparsepoly", "bifactor", "factorizer")
ANALYTICS = {"polytope", "hitting", "resultant", "cli"}


def _sparsefact_imports(module):
    """The sparsefact modules that module imports, by any import form."""
    path = SOURCE / (module + ".py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("sparsefact.")}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("sparsefact")):
            source = (node.module or "").rpartition(".")[2]
            if source and source != "sparsefact":
                found.add(source)
            else:  # modules taken from the package itself
                found |= {a.name for a in node.names}
    return found


@pytest.mark.parametrize("module", ENGINES)
def test_engines_import_no_analytics(module):
    found = sorted(_sparsefact_imports(module) & ANALYTICS)
    assert found == [], "%s imports %s" % (module, found)


def _raised_names(module):
    """The names of the exceptions that module raises: `raise E(...)`,
    `raise E` or `raise errors.E(...)`."""
    path = SOURCE / (module + ".py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                found.add(exc.attr)
    return found


def test_every_error_class_is_raised():
    # an exception class that no code raises is a contract nothing keeps:
    # a caller catching it waits for a signal that never comes
    tree = ast.parse((SOURCE / "errors.py").read_text())
    classes = {node.name for node in tree.body
               if isinstance(node, ast.ClassDef)} - {"SparsefactError"}
    raised = set().union(*(_raised_names(p.stem) for p in SOURCE.glob("*.py")))
    assert sorted(classes - raised) == []


# exported names that no code in the package uses, each with its reason
UNUSED_EXPORTS = {
    "resultant_at_point": "acceptance test_06 checks the paper's resultant "
                          "identities with it",
    "sylvester_matrix": "test_resultant checks resultant_univariate against "
                        "its determinant",
    "minkowski_sum": "kept for Newton-polytope irreducibility certificates "
                     "(ROADMAP direction 12)",
    "is_irreducible": "public univariate API",
}


def _used_names(module):
    """The names that module's code reads, as a name or an attribute,
    leaving out each top-level function's and class's reads of its own
    name."""
    path = SOURCE / (module + ".py")
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for top in tree.body:
        reads = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(top)
                 if isinstance(node, ast.Attribute) or (
                     isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load))}
        found |= reads - {getattr(top, "name", None)}
    return found


def test_every_export_is_used():
    # an exported name that nothing in the package runs is a second surface
    # to keep and test beside the code the engines run: it is used, or it
    # is on UNUSED_EXPORTS with its reason
    used = set().union(*(_used_names(p.stem) for p in SOURCE.glob("*.py")
                         if p.stem != "__init__"))
    unused = set(sparsefact.__all__) - used
    assert sorted(unused - set(UNUSED_EXPORTS)) == []
    assert sorted(set(UNUSED_EXPORTS) - unused) == []


TESTS = Path(__file__).parent


def test_test_imports_are_read():
    # a test module's import that nothing reads hides which API the tests
    # still exercise
    unread = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        reads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread += ["%s:%d %s" % (path.name, node.lineno, name)
                           for name in ((a.asname or a.name).partition(".")[0]
                                        for a in node.names)
                           if name not in reads]
    assert unread == []
