"""Command-line surface: subcommand behavior, JSON schema, exit codes, and
byte-for-byte determinism."""

import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sparsefact import cli, factorizer
from sparsefact.cli import run
from sparsefact.field import make_field
from sparsefact.sparsepoly import SparsePoly, parse_poly, format_poly


def invoke(argv):
    out = io.StringIO()
    status = run(argv, out=out)
    return status, out.getvalue()


# -- factor -------------------------------------------------------------------

def test_factor_text_output():
    status, text = invoke(["factor", "x1*x2 + x2"])
    assert status == 0
    assert text.startswith("field: F_7\n")
    assert "unit:" in text and text.count("factor:") == 2


def test_factor_json_schema():
    status, text = invoke(["factor", "--json", "x1^2 + 6"])
    assert status == 0
    doc = json.loads(text)
    assert doc["field"] == {"p": 7, "ext": 1}
    assert doc["unit"] == 1
    polys = sorted(f["poly"] for f in doc["factors"])
    assert polys == ["x1 + 1", "x1 + 6"]
    assert all(f["multiplicity"] == 1 for f in doc["factors"])


def test_factor_from_file(tmp_path):
    path = tmp_path / "poly.txt"
    path.write_text("x1^2 + 6")
    status, text = invoke(["factor", "--input", str(path)])
    assert status == 0 and text.count("factor:") == 2


def test_factor_other_prime():
    status, text = invoke(["factor", "--prime", "5", "--json", "x1^5 + x2^5"])
    assert status == 0
    doc = json.loads(text)
    assert doc["field"]["p"] == 5
    assert sum(f["multiplicity"] for f in doc["factors"]) == 5


# A product of test_01 blocks over F_3 whose monic driver needs more
# interpolation points than F_3 has, so it runs in F_3^2; the expected bytes
# were produced by the polynomial-basis arithmetic that preceded the
# log/Zech tables.
LIFTED_F3 = ("2*x1^3*x2^2*x3^3 + x1^3*x2^2*x3^2 + 2*x1^3*x2*x3^3"
             " + x1^3*x2*x3^2 + x1^2*x2*x3^3 + 2*x1^2*x2^2*x3"
             " + 2*x1^2*x2*x3^2 + x1^2*x3^3 + 2*x1^2*x2*x3 + 2*x1^2*x3^2"
             " + x1*x2^2*x3 + x1*x2*x3^2 + x1*x2*x3 + x1*x3^2")
LIFTED_F3_JSON = (
    '{"factors": [{"multiplicity": 1, "poly": "x3"}, '
    '{"multiplicity": 1, "poly": "x2 + 1"}, '
    '{"multiplicity": 1, "poly": "x1"}, '
    '{"multiplicity": 1, "poly": "x1*x3 + 2*x1 + 1"}, '
    '{"multiplicity": 1, "poly": "x1*x2*x3 + 2*x2 + 2*x3"}], '
    '"field": {"ext": 1, "p": 3}, "unit": 2}\n')


def test_factor_lifted_golden(monkeypatch):
    lifts = []
    lift_poly = factorizer.lift_poly

    def recording_lift(f, ext):
        lifts.append((ext.p, ext.ell))
        return lift_poly(f, ext)

    monkeypatch.setattr(factorizer, "lift_poly", recording_lift)
    status, text = invoke(["factor", "--json", "--prime", "3", LIFTED_F3])
    assert status == 0
    assert (3, 2) in lifts
    assert text == LIFTED_F3_JSON


# Products with repeated factors over F_3, F_11 and F_101.  The
# three-variable ones go to the monic driver, whose anchor projections are
# not squarefree, so the guesses carry block exponents and blackbox_eval
# takes their roots; the bivariate ones go to the bivariate engine, which
# runs the gcd with the y-derivative, the division by the gcd and the
# multiplicity loop.  The expected bytes of the first seven were produced
# by the FieldElem-coefficient polynomial kernels that preceded the int-log
# ones, those of the last three by the SparsePoly-based bivariate code that
# preceded the y-list one.
NONSQUAREFREE = [
    (11, ["x1*x2 + x3 + 1"] * 2 + ["x1 + x2*x3 + 2"],
      '{"factors": [{"multiplicity": 1, "poly": "x2*x3 + x1 + 2"}, '
      '{"multiplicity": 2, "poly": "x1*x2 + x3 + 1"}], '
      '"field": {"ext": 1, "p": 11}, "unit": 1}\n'),
    (11, ["x1^2 + x2 + 3"] * 3 + ["x1*x2 + 5"],
      '{"factors": [{"multiplicity": 1, "poly": "x1*x2 + 5"}, '
      '{"multiplicity": 3, "poly": "x1^2 + x2 + 3"}], '
      '"field": {"ext": 1, "p": 11}, "unit": 1}\n'),
    (11, ["x1 + x2 + x3"] * 2 + ["x1*x3 + 4"] * 2,
      '{"factors": [{"multiplicity": 2, "poly": "x1*x3 + 4"}, '
      '{"multiplicity": 2, "poly": "x1 + x2 + x3"}], '
      '"field": {"ext": 1, "p": 11}, "unit": 1}\n'),
    (101, ["x2*x3 + x1 + 7"] * 2 + ["x1*x2 + x3 + 1"],
      '{"factors": [{"multiplicity": 2, "poly": "x2*x3 + x1 + 7"}, '
      '{"multiplicity": 1, "poly": "x1*x2 + x3 + 1"}], '
      '"field": {"ext": 1, "p": 101}, "unit": 1}\n'),
    (11, ["x3 + x1*x2 + 2"] * 3 + ["x1 + x3"],
      '{"factors": [{"multiplicity": 1, "poly": "x1 + x3"}, '
      '{"multiplicity": 3, "poly": "x1*x2 + x3 + 2"}], '
      '"field": {"ext": 1, "p": 11}, "unit": 1}\n'),
    (101, ["x1^2*x2 + x2 + 50"] * 2 + ["x1 + 3*x2 + 2"],
      '{"factors": [{"multiplicity": 1, "poly": "x1 + 3*x2 + 2"}, '
      '{"multiplicity": 2, "poly": "x1^2*x2 + x2 + 50"}], '
      '"field": {"ext": 1, "p": 101}, "unit": 1}\n'),
    (101, ["x1 + x2^2 + x3 + 1"] * 2 + ["x1*x2*x3 + 9"],
      '{"factors": [{"multiplicity": 1, "poly": "x1*x2*x3 + 9"}, '
      '{"multiplicity": 2, "poly": "x2^2 + x1 + x3 + 1"}], '
      '"field": {"ext": 1, "p": 101}, "unit": 1}\n'),
    # all x1-exponents divisible by 3: the z = x1^3 substitution, whose
    # factors come back both as cubes and as x1^3 + x2 (not a cube), and
    # the extension-field fallback
    (3, ["x1 + x2"] * 3 + ["x1^3 + x2"],
      '{"factors": [{"multiplicity": 3, "poly": "x1 + x2"}, '
      '{"multiplicity": 1, "poly": "x1^3 + x2"}], '
      '"field": {"ext": 1, "p": 3}, "unit": 1}\n'),
    # leading coefficients in x2: the monicizing transform and its undoing
    (11, ["x1*x2 + 3"] * 2 + ["x1^2*x2 + x1 + 1"],
      '{"factors": [{"multiplicity": 2, "poly": "x1*x2 + 3"}, '
      '{"multiplicity": 1, "poly": "x1^2*x2 + x1 + 1"}], '
      '"field": {"ext": 1, "p": 11}, "unit": 1}\n'),
    (3, ["x1^3*x2 + x2^3 + 2"] * 2,
      '{"factors": [{"multiplicity": 2, "poly": "x1^3*x2 + x2^3 + 2"}], '
      '"field": {"ext": 1, "p": 3}, "unit": 1}\n'),
]


@pytest.mark.parametrize("p,blocks,want", NONSQUAREFREE,
                         ids=["f11-%d" % i for i in range(3)]
                         + ["f101-0", "f11-3", "f101-1", "f101-2",
                            "f3-0", "f11-4", "f3-1"])
def test_factor_nonsquarefree_golden(p, blocks, want):
    ctx = make_field(p)
    n = 3 if any("x3" in b for b in blocks) else 2
    f = SparsePoly.constant(ctx, n, 1)
    for b in blocks:
        f = f * parse_poly(b, ctx, nvars=n)
    status, text = invoke(["factor", "--json", "--prime", str(p),
                           format_poly(f)])
    assert status == 0
    assert text == want


def test_factor_missing_poly():
    status, _ = invoke(["factor"])
    assert status == 1


def test_factor_parse_error():
    status, text = invoke(["factor", "x1 +* 2"])
    assert status == 1 and "error" in text


def test_factor_rejects_strategy_flag():
    # no subcommand takes a hitting-set strategy
    status, _ = invoke(["factor", "--strategy", "ks", "x1*x2 + x2"])
    assert status == 1
    status, _ = invoke(["factor", "--strategy", "grid", "x1*x2 + x2"])
    assert status == 1


def test_factor_overlong_coefficient_exit_1():
    # an element of F_7 takes one residue, so [3, 4] is malformed
    status, text = invoke(["factor", "--json", "[1, 2]*x1 + [3, 4]"])
    assert status == 1 and "error" in text


def test_factor_composite_prime():
    status, _ = invoke(["factor", "--prime", "6", "x1"])
    assert status == 1


# -- verify -------------------------------------------------------------------

def test_verify_true():
    status, text = invoke(["verify", "x1^2 + 6",
                           "--factor", "x1 + 1", "--factor", "x1 + 6"])
    assert status == 0 and "verdict: true" in text


def test_verify_false():
    status, text = invoke(["verify", "x1^2 + 6", "--factor", "x1 + 1"])
    assert status == 0 and "verdict: false" in text


def test_verify_multiplicity_syntax():
    status, text = invoke(["verify", "x1^2 + 2*x1 + 1",
                           "--factor", "x1 + 1:2", "--json"])
    assert status == 0 and json.loads(text) == {"verdict": True}


def test_verify_unit():
    status, text = invoke(["verify", "3*x1 + 3",
                           "--factor", "x1 + 1", "--unit", "3"])
    assert status == 0 and "verdict: true" in text


@pytest.mark.parametrize("poly,factors,verdict", [
    ("y^2 + 6", ["y + 1", "y + 6"], "true"),
    ("x1*y + x1", ["x1", "y + 1"], "true"),
    ("x1^2 + 6", ["y + 1", "y + 6"], "false"),
])
def test_verify_with_y(poly, factors, verdict):
    # f, its factors and the unit share one layout: the x-variables any of
    # them names, then y last, whichever texts have it
    argv = ["verify", poly]
    for h in factors:
        argv += ["--factor", h]
    assert invoke(argv) == (0, "verdict: %s\n" % verdict)


def test_verify_nonconstant_unit_rejected():
    status, _ = invoke(["verify", "x1", "--factor", "x1", "--unit", "x1"])
    assert status == 1


# -- polytope -----------------------------------------------------------------

def test_polytope_report():
    status, text = invoke(["polytope", "--json", "x1*x2 + x1 + x2 + 1"])
    assert status == 0
    doc = json.loads(text)
    assert doc["sparsity"] == 4 and doc["vertex_count"] == 4
    assert doc["bound_holds"] is True
    assert sorted(map(tuple, doc["support"])) == \
        [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_polytope_text():
    status, text = invoke(["polytope", "x1^2 + 6"])
    assert status == 0
    assert "sparsity: 2" in text and "vertices: 2" in text


@pytest.mark.parametrize("argv", [["factor", "x1^2 + 6"],
                                  ["factor", "x1^2 +"]],
                         ids=["factored", "parse-error"])
def test_python_m_sparsefact_matches_run(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-m", "sparsefact"] + argv,
                         env=env, capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stdout) == invoke(argv)
    assert res.stderr == ""


def test_polytope_high_degree_binomial_is_fast():
    # the sparsity-bound exponent for d = 12000 is 5 * 12000^2; deciding it
    # and the cap must not build 2^(5 * 12000^2)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-m", "sparsefact.cli", "polytope", "x1^12000 + 1"],
        env=env, capture_output=True, text=True, timeout=20)
    assert res.returncode == 0, res.stderr
    assert res.stdout == ("sparsity: 2\nvertices: 2\nvertex: (0,)\n"
                          "vertex: (12000,)\nfactor sparsity cap: 12001\n"
                          "bound holds: true\n")


# -- hitset -------------------------------------------------------------------

def test_hitset_dump():
    status, text = invoke(["hitset", "--n", "2", "--d", "2", "--k", "1"])
    assert status == 0
    lines = text.strip().split("\n")
    assert lines[0] == "size: 9" and len(lines) == 10
    assert lines[1] == "0 0"


def test_hitset_limit_and_json():
    status, text = invoke(["hitset", "--n", "2", "--d", "2", "--k", "1",
                           "--limit", "3", "--json"])
    assert status == 0
    doc = json.loads(text)
    assert doc["size"] == 9 and doc["points"] == [[0, 0], [0, 1], [0, 2]]


def test_hitset_strategy_flag_exit_1():
    # the grid is the one construction and takes no sparsity; --strategy
    # and --s are usage errors
    for extra in (["--strategy", "ks"], ["--strategy", "grid"], ["--s", "2"]):
        status, _ = invoke(["hitset", "--n", "2", "--d", "1", "--k", "1"]
                           + extra)
        assert status == 1


class _StopReading(Exception):
    pass


class _ShortReader:
    """An output stream whose reader leaves after a few writes."""

    def __init__(self, writes):
        self.writes = writes

    def write(self, text):
        self.writes -= 1
        if self.writes < 0:
            raise _StopReading


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_hitset_streams_points(extra):
    # points are written as the grid yields them: a reader that leaves
    # after a few lines costs nothing like the memory of all 2^16 points
    tracemalloc.start()
    try:
        with pytest.raises(_StopReading):
            run(["hitset", "--prime", "2", "--n", "16", "--d", "1",
                 "--k", "1"] + extra, out=_ShortReader(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_closed_stdout_exits_1_quietly():
    # `sparsefact hitset ... | head -2`: the reader leaves after two lines,
    # and the process ends with status 1 and nothing on stderr
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "sparsefact.cli", "hitset", "--prime", "2",
         "--n", "16", "--d", "1", "--k", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head[0] == b"size: 65536\n"
    assert err == b"" and status == 1


def test_hitset_field_too_small_exit_2():
    status, text = invoke(["hitset", "--prime", "5", "--n", "3",
                           "--d", "5", "--k", "1"])
    assert status == 2 and "error" in text


# -- examples -----------------------------------------------------------------

def test_examples_eg1():
    status, text = invoke(["examples", "--which", "eg1", "--n", "3",
                           "--d", "2", "--json"])
    assert status == 0
    doc = json.loads(text)
    assert doc["input_sparsity"] == 8 == doc["claimed_input"]
    assert doc["factor_sparsity"] == 8 == doc["claimed_factor"]
    assert doc["divides"] is True


def test_examples_eg2():
    status, text = invoke(["examples", "--which", "eg2", "--prime", "5",
                           "--n", "3", "--d", "2", "--json"])
    assert status == 0
    doc = json.loads(text)
    assert doc["input_sparsity"] == 3 == doc["claimed_input"]
    assert doc["factor_sparsity"] == 6 == doc["claimed_factor"]
    assert doc["divides"] is True


def test_examples_hadamard():
    status, text = invoke(["examples", "--which", "hadamard", "--m", "3",
                           "--json"])
    assert status == 0
    doc = json.loads(text)
    assert doc["support"] == 23
    assert doc["vertices"] == 8
    assert doc["certified_interior_points"] == 16


# -- argument validation ------------------------------------------------------

# Out-of-range arguments: each ends in one "error: ..." line and exit 1, with
# or without python -O.
BAD_ARGUMENTS = [
    ["examples", "--which", "eg2", "--d", "7"],
    ["examples", "--which", "eg2", "--d", "0"],
    ["examples", "--which", "eg2", "--n", "0"],
    ["examples", "--which", "eg1", "--n", "-1"],
    ["examples", "--which", "eg1", "--n", "0"],
    ["examples", "--which", "eg1", "--d", "0"],
    ["hitset", "--n", "1", "--d", "1", "--k", "1", "--limit", "-1"],
    ["hitset", "--n", "0", "--d", "1", "--k", "1"],
    ["examples", "--which", "hadamard", "--m", "5"],
    ["polytope", "--sb-constant", "0", "x1"],
]


@pytest.mark.parametrize("cmd", ["polytope"])
@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_bad_sb_constant_is_usage_error(cmd, value, capsys):
    # a zero denominator used to escape argparse as a ZeroDivisionError
    status, text = invoke([cmd, "--sb-constant", value, "x1"])
    err = capsys.readouterr().err
    assert status == 1 and text == ""
    assert err.endswith("error: argument --sb-constant: invalid Fraction "
                        "value: %r\n" % value)


@pytest.mark.parametrize("argv", BAD_ARGUMENTS, ids=" ".join)
def test_bad_arguments_exit_1(argv):
    status, text = invoke(argv)
    assert status == 1
    assert text.startswith("error: ") and text.count("\n") == 1


def test_bad_arguments_exit_1_optimized(run_optimized):
    lines = ["import io",
             "from sparsefact.cli import run",
             "for argv in %r:" % BAD_ARGUMENTS,
             "    out = io.StringIO()",
             "    status = run(argv, out=out)",
             "    print(status, out.getvalue().startswith('error: '))"]
    assert run_optimized(lines) == "False\n" + "1 True\n" * len(BAD_ARGUMENTS)


def test_cap_flags_only_where_read():
    # only polytope computes a sparsity cap, and no subcommand takes a
    # user's own cap
    for argv in (["factor", "x1*x2 + x2"],
                 ["verify", "x1", "--factor", "x1"],
                 ["hitset", "--n", "1", "--d", "1", "--k", "1"],
                 ["examples", "--which", "eg1"]):
        assert invoke(argv)[0] == 0
        assert invoke(argv + ["--cap", "3"])[0] == 1
        assert invoke(argv + ["--sb-constant", "2"])[0] == 1
    assert invoke(["polytope", "--cap", "3", "x1^2*x2 + x2 + 3"])[0] == 1
    # C = 3/2 gives 2^ceil(3/2 * log2 6) = 16 < 2^6; C = 5 gives the 2^6
    cube = "x1*x2*x3*x4*x5*x6 + 1"
    status, text = invoke(["polytope", "--sb-constant", "3/2", cube])
    assert status == 0 and "factor sparsity cap: 16\n" in text
    status, text = invoke(["polytope", cube])
    assert status == 0 and "factor sparsity cap: 64\n" in text


# The product (x2*x3 + x1)(x1*x2 + x3), which factor --cap 1 once printed
# as one irreducible factor with status 0.
CAP_INPUT = "x1^2*x2 + x1*x2^2*x3 + x1*x3 + x2*x3^2"
# Flags factor and polytope no longer take: usage errors, on stderr.
REMOVED_FLAGS = [
    ["factor", "--cap", "0", CAP_INPUT],
    ["factor", "--cap", "1", CAP_INPUT],
    ["factor", "--sb-constant", "0", "x1"],
    ["factor", "--sb-constant", "1/0", "x1"],
    ["factor", "--sb-constant", "abc", "x1"],
    ["polytope", "--cap", "0", "x1*x2+x1"],
]


@pytest.mark.parametrize("argv", REMOVED_FLAGS, ids=" ".join)
def test_removed_flags_are_usage_errors(argv, capsys):
    status, text = invoke(argv)
    err = capsys.readouterr().err
    assert status == 1 and text == ""
    last = err.splitlines()[-1]
    assert last.startswith("sparsefact: error: unrecognized arguments: ")
    assert argv[1] in last.split()


def test_factor_reports_both_factors_without_a_cap():
    status, text = invoke(["factor", CAP_INPUT])
    assert status == 0
    assert text == ("field: F_7\nunit: 1\nfactor: (x2*x3 + x1)^1\n"
                    "factor: (x1*x2 + x3)^1\n")


# -- contract -----------------------------------------------------------------

def test_unknown_subcommand():
    status, _ = invoke(["frobnicate"])
    assert status == 1


def test_consecutive_runs_byte_identical():
    for argv in (["factor", "--json", "x1*x2 + x2 + x1 + 1"],
                 ["polytope", "--json", "x1^2*x2 + x2 + 3"],
                 ["hitset", "--n", "2", "--d", "1", "--k", "2"],
                 ["examples", "--which", "eg1", "--n", "2", "--d", "3"]):
        assert invoke(argv) == invoke(argv)


def test_parser_built_once_matches_fresh_parser(capsys):
    # bad usage (exit 1, usage text on stderr), then commands that parse
    # defaults, an appended list and positional text
    calls = [["factor", "--cap"],
             ["factor", "--json", "x1^2 + 6"],
             ["verify", "x1^2 + 6", "--factor", "x1 + 1",
              "--factor", "x1 + 6"],
             ["verify", "x1^2 + 6", "--factor", "x1 + 1"],
             ["polytope", "--json", "x1^2*x2 + x2 + 3"]]

    def run_all(fresh):
        got = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            status, text = invoke(argv)
            err = capsys.readouterr()
            got.append((status, text, err.out, err.err))
        return got

    shared = run_all(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert [g[0] for g in shared] == [1, 0, 0, 0, 0]
    assert "error" in shared[0][3]
    assert shared[2][1] == "verdict: true\n"
    assert shared[3][1] == "verdict: false\n"
    assert run_all(fresh=True) == shared


def _readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.splitlines() if line.startswith("sparsefact ")]


def test_readme_cli_lines_run():
    # every command in README's CLI block is a valid invocation
    lines = _readme_cli_lines()
    assert len(lines) >= 7    # the block's seven commands are all found
    for argv in lines:
        assert invoke(argv[1:])[0] == 0, argv
