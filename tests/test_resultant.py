"""Sylvester resultants of univariate projections and the commutation with
point evaluation."""

import itertools
import random

import pytest

from sparsefact.errors import DegreeZero, NotMonic, ShapeMismatch
from sparsefact.field import make_field
from sparsefact.sparsepoly import SparsePoly, parse_poly
from sparsefact.unifactor import UniPoly
from sparsefact.resultant import (sylvester_matrix, resultant_univariate,
                                  resultant_at_point)

F7 = make_field(7)


def U(coeffs, ctx=F7):
    return UniPoly(ctx, [ctx.elem(c) for c in coeffs])


def P(text, nvars=None):
    return parse_poly(text, F7, nvars=nvars)


def rand_uni(ctx, deg, rng):
    coeffs = [ctx.elem(rng.randrange(ctx.q)) for _ in range(deg)]
    coeffs.append(ctx.elem(rng.randrange(1, ctx.q)))
    return UniPoly(ctx, coeffs)


# -- univariate resultants ----------------------------------------------------

def test_resultant_linear_pair():
    # Res(y - 3, y - 5) = 3 - 5 = -2 = 5 mod 7
    assert resultant_univariate(U([4, 1]), U([2, 1])).serialize() == 5


def test_resultant_of_self_is_zero():
    f = U([1, 2, 1])
    assert resultant_univariate(f, f).is_zero()


def test_resultant_quadratics():
    # Res(y^2 - 1, y^2 - 4) = (1-4)^2 = 9 = 2 mod 7
    assert resultant_univariate(U([6, 0, 1]), U([3, 0, 1])).serialize() == 2


def test_degree_zero_rejected():
    with pytest.raises(DegreeZero):
        resultant_univariate(U([3]), U([0, 1]))
    with pytest.raises(DegreeZero):
        resultant_univariate(U([0, 1]), U([5]))


def test_sylvester_layout():
    # f = y^2 + 2y + 3, g = y + 4: a 3x3 matrix, one shift of f, two of g
    M = sylvester_matrix(U([3, 2, 1]), U([4, 1]))
    ser = [[v.serialize() for v in row] for row in M]
    assert ser == [[1, 2, 3], [1, 4, 0], [0, 1, 4]]


def test_zero_iff_gcd_nonconstant():
    rng = random.Random(0)
    for _ in range(40):
        f = rand_uni(F7, rng.randint(1, 3), rng)
        g = rand_uni(F7, rng.randint(1, 3), rng)
        r = resultant_univariate(f, g)
        assert r.is_zero() == (f.gcd(g).degree() >= 1)


def test_product_formula_linear_roots():
    # Res(prod (y - a_i), g) = prod g(a_i) for monic f
    rng = random.Random(1)
    for _ in range(20):
        roots = [F7.elem(rng.randrange(7)) for _ in range(2)]
        f = U([1])
        for r in roots:
            f = f * UniPoly(F7, [-r, F7.one()])
        g = rand_uni(F7, rng.randint(1, 3), rng)
        expect = F7.one()
        for r in roots:
            expect = expect * g.evaluate(r)
        assert resultant_univariate(f, g) == expect


# -- resultants at points -----------------------------------------------------

def test_at_point_example():
    f = P("y + 6*x1")   # y - x1
    g = P("y + x1")
    assert resultant_at_point(f, g, [F7.elem(3)]).serialize() == 6


def test_at_point_self_zero():
    f = P("y^2 + x1*y + x2")
    for a1 in range(3):
        for a2 in range(3):
            pt = [F7.elem(a1), F7.elem(a2)]
            assert resultant_at_point(f, f, pt).is_zero()


def test_at_point_requires_monic():
    with pytest.raises(NotMonic):
        resultant_at_point(P("x1*y + 1"), P("y + 1", nvars=1), [F7.one()])


def test_at_point_rejects_wrong_dimension():
    # one x-variable, two coordinates: an error, not a silent truncation
    with pytest.raises(ShapeMismatch):
        resultant_at_point(P("y + x1"), P("y + 2", nvars=1),
                           [F7.one(), F7.one()])


def test_commutation_with_projection():
    rng = random.Random(2)
    for _ in range(30):
        # random y-monic bivariate pair; compare against projecting first
        def monic(dy):
            terms = {(0, dy): F7.one()}
            for j in range(dy):
                for e1 in range(3):
                    c = F7.elem(rng.randrange(7))
                    if not c.is_zero():
                        terms[(e1, j)] = terms.get((e1, j), F7.zero()) + c
            return SparsePoly(F7, 2, {e: c for e, c in terms.items()
                                      if not c.is_zero()})
        f = monic(rng.randint(1, 3))
        g = monic(rng.randint(1, 3))
        a = [F7.elem(rng.randrange(7))]
        fa = UniPoly(F7, [f.eval_partial({0: a[0]}).terms.get((0, j), F7.zero())
                          for j in range(f.degree(1) + 1)])
        ga = UniPoly(F7, [g.eval_partial({0: a[0]}).terms.get((0, j), F7.zero())
                          for j in range(g.degree(1) + 1)])
        assert resultant_at_point(f, g, a) == resultant_univariate(fa, ga)
        # nonzero resultant iff projections coprime
        assert resultant_at_point(f, g, a).is_zero() == \
            (fa.gcd(ga).degree() >= 1)


# -- symbolic sanity (tests-only path) ----------------------------------------

def _symbolic_resultant(f, g):
    """Brute-force Leibniz expansion of the Sylvester determinant with
    SparsePoly entries; tiny cases only."""
    ny = f.n - 1
    d, e = f.degree(ny), g.degree(ny)
    size = d + e
    zero = SparsePoly.zero(f.ctx, f.n)
    fc = [f.coeff_of(ny, d - i) for i in range(d + 1)]
    gc = [g.coeff_of(ny, e - i) for i in range(e + 1)]
    M = []
    for i in range(e):
        M.append([zero] * i + fc + [zero] * (size - d - 1 - i))
    for i in range(d):
        M.append([zero] * i + gc + [zero] * (size - e - 1 - i))
    out = zero
    for perm in itertools.permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    sign = -sign
        term = SparsePoly.constant(f.ctx, f.n,
                                   1 if sign > 0 else f.ctx.p - 1)
        for i in range(size):
            term = term * M[i][perm[i]]
        out = out + term
    return out


def test_symbolic_resultant_sparsity_bound():
    rng = random.Random(3)
    for _ in range(8):
        # y-monic bivariate, individual degrees <= 2
        def monic(dy):
            terms = {(0, dy): F7.one()}
            for j in range(dy):
                e1 = rng.randint(0, 2)
                c = F7.elem(rng.randrange(1, 7))
                terms[(e1, j)] = c
            return SparsePoly(F7, 2, terms)
        f = monic(rng.randint(1, 2))
        g = monic(rng.randint(1, 2))
        R = _symbolic_resultant(f, g)
        d = 2
        s = max(f.sparsity(), g.sparsity())
        assert R.sparsity() <= (2 * d * s) ** (2 * d)
        # symbolic resultant evaluated anywhere equals the projected one
        for a1 in range(7):
            a = [F7.elem(a1)]
            assert R.evaluate(a + [F7.zero()]) == resultant_at_point(f, g, a)
