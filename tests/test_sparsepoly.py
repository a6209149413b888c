"""Sparse polynomial arithmetic, line restriction, the monic transform,
sparse division, and the text grammar."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from sparsefact.errors import (ShapeMismatch, ZeroPolynomial, ZeroDegree,
                               Reject, EmptyVector, ParseError,
                               NoFactorizationFound)
from sparsefact.field import make_field
from sparsefact.sparsepoly import (SparsePoly, Factorization, parse_poly,
                                   format_poly, make_monic, sparse_divide,
                                   phi_score, restrict_to_line,
                                   normalize_scalar, lift_poly, retract_poly)

F7 = make_field(7)
F5 = make_field(5)


def P(text, ctx=F7, nvars=None):
    return parse_poly(text, ctx, nvars=nvars)


def rand_poly(ctx, n, maxdeg, nterms, rng):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(n))
        c = ctx.elem(rng.randint(0, ctx.q - 1))
        if not c.is_zero():
            terms[e] = c
    return SparsePoly(ctx, n, terms)


# -- arithmetic ---------------------------------------------------------------

def test_difference_of_squares():
    assert P("x1 + 1") * P("x1 + 6") == P("x1^2 + 6")


def test_cancellation_to_zero():
    f = P("x1 + 1") + P("6*x1 + 6")
    assert f.is_zero() and f.n == 1


def test_frobenius_collapse_over_f5():
    f = P("x1 + x2 + x3", F5)
    assert f ** 5 == P("x1^5 + x2^5 + x3^5", F5)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        P("x1 + 1") * P("x1 + x2")


def test_mul_commutative_associative_random():
    rng = random.Random(0)
    for _ in range(25):
        f = rand_poly(F7, 3, 2, 3, rng)
        g = rand_poly(F7, 3, 2, 3, rng)
        h = rand_poly(F7, 3, 2, 3, rng)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert (f * g).sparsity() <= f.sparsity() * g.sparsity()


def test_degree_bound_of_divisors():
    # deg_i(g) <= deg_i(f) whenever g | f, via lc multiplicativity
    rng = random.Random(1)
    for _ in range(25):
        g = rand_poly(F7, 2, 2, 3, rng)
        h = rand_poly(F7, 2, 2, 3, rng)
        if g.is_zero() or h.is_zero():
            continue
        f = g * h
        for i in range(2):
            assert g.degree(i) <= f.degree(i)
            lcg, dg = g.lead_and_degrees(i)
            lch, dh = h.lead_and_degrees(i)
            lcf, df = f.lead_and_degrees(i)
            assert df == dg + dh
            assert lcf == lcg * lch


# -- evaluation ---------------------------------------------------------------

def test_evaluate_example():
    f = P("x1^2*x2 + 1")
    assert f.evaluate([F7.elem(2), F7.elem(3)]).serialize() == 6


def test_partial_evaluation():
    f = P("x1*x2")
    assert f.eval_partial({1: F7.zero()}).is_zero()
    g = P("y^2 + 6*x1")   # y maps to the last index
    got = g.eval_partial({0: F7.one()})
    assert got == P("y^2 + 6", nvars=1)


# -- line restriction ---------------------------------------------------------

def test_restrict_to_line_example():
    f = P("x1*x2")
    ft = restrict_to_line(f, [F7.elem(1), F7.elem(1)], [F7.elem(2), F7.elem(3)])
    # (1+t)(1+2t) = 2t^2 + 3t + 1, no y
    assert ft == SparsePoly(F7, 2, {(0, 0): F7.elem(1), (0, 1): F7.elem(3),
                                    (0, 2): F7.elem(2)})


def test_restrict_degenerate_line():
    f = P("y^2 + x1*y + x1^2")
    a = [F7.elem(3)]
    ft = restrict_to_line(f, a, a)
    assert ft.degree(1) == 0
    # matches f(y, a)
    assert ft == SparsePoly(F7, 2, {(2, 0): F7.elem(1), (1, 0): F7.elem(3),
                                    (0, 0): F7.elem(2)})


def test_restrict_y_minus_x():
    f = P("y + 6*x1")
    ft = restrict_to_line(f, [F7.zero()], [F7.one()])
    assert ft == SparsePoly(F7, 2, {(1, 0): F7.one(), (0, 1): F7.elem(6)})


def test_restriction_is_multiplicative():
    rng = random.Random(2)
    for _ in range(20):
        f = rand_poly(F7, 2, 2, 3, rng)
        g = rand_poly(F7, 2, 2, 3, rng)
        a = [F7.elem(rng.randrange(7)) for _ in range(2)]
        b = [F7.elem(rng.randrange(7)) for _ in range(2)]
        assert restrict_to_line(f * g, a, b) == \
            restrict_to_line(f, a, b) * restrict_to_line(g, a, b)


def test_restriction_endpoints():
    rng = random.Random(3)
    for _ in range(20):
        f = rand_poly(F7, 3, 2, 4, rng)
        a = [F7.elem(rng.randrange(7)) for _ in range(3)]
        b = [F7.elem(rng.randrange(7)) for _ in range(3)]
        ft = restrict_to_line(f, a, b)
        assert ft.evaluate([F7.zero(), F7.zero()]) == f.evaluate(a)
        assert ft.evaluate([F7.zero(), F7.one()]) == f.evaluate(b)


# -- leading coefficients -----------------------------------------------------

def test_lead_and_degrees_examples():
    lc, d = P("x1*x2^2 + x2 + 1").lead_and_degrees(1)
    assert d == 2 and lc == P("x1", nvars=2)
    lc, d = P("y^3 + x1*y").lead_and_degrees(1)
    assert d == 3 and lc.is_constant() and lc.constant_value().is_one()
    lc, d = P("5", nvars=1).lead_and_degrees(0)
    assert d == 0 and lc.constant_value().serialize() == 5
    with pytest.raises(ZeroPolynomial):
        SparsePoly.zero(F7, 1).lead_and_degrees(0)


# -- monic transform ----------------------------------------------------------

def test_make_monic_linear():
    fhat, fk, k = make_monic(P("x1*x2 + 1"))
    assert k == 1
    assert fhat == P("y + 1", nvars=1)
    assert fk == P("x1")


def test_make_monic_quadratic():
    fhat, fk, k = make_monic(P("x1*x2^2 + x2 + x1"))
    assert k == 2
    assert fhat == P("y^2 + y + x1^2", nvars=1)
    assert fk == P("x1")


def test_make_monic_already_monic():
    f = P("x2^2 + x1")   # monic in x2
    fhat, fk, k = make_monic(f)
    assert k == 2 and fk.is_constant() and fk.constant_value().is_one()
    assert fhat == P("y^2 + x1", nvars=1)


def test_make_monic_needs_dependence():
    with pytest.raises(ZeroDegree):
        make_monic(P("x1 + 1", nvars=2))


def test_make_monic_bounds_random():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(2, 3)
        f = rand_poly(F7, n, 3, rng.randint(2, 6), rng)
        if f.is_zero() or f.degree(n - 1) < 1:
            continue
        s, d = f.sparsity(), f.max_degree()
        fhat, fk, k = make_monic(f)
        assert fhat.sparsity() <= s ** d
        assert fhat.max_degree() <= d * d
        assert fhat.is_monic_in(n - 1)


# -- sparse division ----------------------------------------------------------

def test_sparse_divide_examples():
    assert sparse_divide(P("x1^2 + 6"), P("x1 + 6"), 2) == P("x1 + 1")
    with pytest.raises(Reject):
        sparse_divide(P("x1", nvars=2), P("x2", nvars=2), 5)
    with pytest.raises(Reject):
        sparse_divide(P("x1^2 + 2*x1 + 1"), P("x1 + 1"), 1)  # cap too small


def test_sparse_divide_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        f = rand_poly(F7, 2, 2, 3, rng)
        g = rand_poly(F7, 2, 2, 3, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert sparse_divide(f * g, g, f.sparsity()) == f


def test_divide_by_zero_polynomial():
    with pytest.raises(ZeroPolynomial):
        sparse_divide(P("x1"), SparsePoly.zero(F7, 1))


# -- refinement score ---------------------------------------------------------

def test_phi_score():
    assert phi_score([2]) == 3
    assert phi_score([1, 1]) == 2
    assert phi_score([1]) == 1
    with pytest.raises(EmptyVector):
        phi_score([])


# -- factorization records ----------------------------------------------------

def test_factorization_expand():
    fac = Factorization(F7.elem(3), [(P("x1 + 1"), 2)])
    assert fac.expand() == P("x1 + 1") * P("x1 + 1") * P("3", nvars=1)
    empty = Factorization(F7.elem(5), [])
    assert empty.expand(F7, 2) == SparsePoly.constant(F7, 2, 5)


def test_assemble_canonicalizes():
    # scalar multiples merge, factors sort, the unit absorbs the scalars
    f = P("2", nvars=1) * P("x1 + 1") * P("x1 + 1") * P("x1 + 6")
    fac = Factorization.assemble(
        f, [(P("x1 + 6"), 1), (P("3*x1 + 3"), 1), (P("x1 + 1"), 1)])
    assert fac.unit.serialize() == 2
    assert fac.parts == [(P("x1 + 1"), 2), (P("x1 + 6"), 1)]
    with pytest.raises(NoFactorizationFound):
        Factorization.assemble(f, [(P("x1 + 1"), 3)])


def test_assemble_check_survives_optimize_flag():
    # python -O strips assert statements; the product check must stay
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = "\n".join([
        "from sparsefact.errors import NoFactorizationFound",
        "from sparsefact.field import make_field",
        "from sparsefact.sparsepoly import Factorization, parse_poly",
        "F7 = make_field(7)",
        "f = parse_poly('x1^2 + 6', F7)",
        "print(__debug__)",
        "try:",
        "    Factorization.assemble(f, [(parse_poly('x1 + 1', F7), 2)])",
        "except NoFactorizationFound:",
        "    print('raised')",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\nraised\n"


def test_normalize_scalar():
    f = P("3*x1 + 1")
    g, c = normalize_scalar(f)
    assert c.serialize() == 3 and g == P("x1 + 5")
    with pytest.raises(ZeroPolynomial):
        normalize_scalar(SparsePoly.zero(F7, 1))


def test_lift_and_retract():
    ext = make_field(7, 2)
    f = P("3*x1*x2 + 5")
    lf = lift_poly(f, ext)
    assert lf.ctx is ext and retract_poly(lf, F7) == f
    bad = SparsePoly(ext, 1, {(1,): ext.elem((0, 1))})
    assert retract_poly(bad, F7) is None


# -- text grammar -------------------------------------------------------------

def test_parse_format_round_trip():
    for text in ["x1^2*x2 + 3*x1 + 6", "y^2 + x1*y + 2", "5", "x3 + x1"]:
        f = P(text)
        assert P(format_poly(f), nvars=f.n) == f


def test_parse_extension_coefficients():
    ctx = make_field(2, 2)
    f = parse_poly("[1,1]*x1 + [0,1]", ctx)
    assert f.terms[(1,)] == ctx.elem((1, 1))
    assert f.terms[(0,)] == ctx.elem((0, 1))


def test_parse_errors():
    for bad in ["", "x0", "x1 +", "+ x1", "x1 ^", "x1 +* 2", "x1 $", "2 3 x1"]:
        with pytest.raises(ParseError):
            P(bad)


def test_parse_merges_repeated_monomials():
    assert P("x1 + x1 + x1") == P("3*x1")
    assert P("x1*x1") == P("x1^2")


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 6)), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_canonical_terms_sorted_graded_lex(raw):
    terms = {}
    for e1, e2, c in raw:
        ce = F7.elem(c)
        if not ce.is_zero():
            terms[(e1, e2)] = ce
    f = SparsePoly(F7, 2, terms)
    keys = [e for e, _ in f.canonical_terms()]
    assert keys == sorted(keys, key=lambda e: (sum(e), e), reverse=True)
