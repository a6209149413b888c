"""Deterministic hitting sets: grid soundness, boundary sizing, determinism,
and the anchor-point parameter instantiation."""

import itertools

import pytest

from sparsefact.errors import FieldTooSmall
from sparsefact.field import make_field
from sparsefact.sparsepoly import SparsePoly, parse_poly
from sparsefact.hitting import gen_hitting_set
from sparsefact.resultant import resultant_at_point

F7 = make_field(7)
F5 = make_field(5)
F101 = make_field(101)


def test_grid_univariate_linear():
    hs = gen_hitting_set(F7, 1, 1, 1)
    pts = list(hs)
    assert pts == [(F7.elem(0),), (F7.elem(1),)]
    # every nonzero linear univariate is nonzero at 0 or 1
    for a in range(7):
        for b in range(7):
            if a == 0 and b == 0:
                continue
            f = SparsePoly(F7, 1, {(1,): F7.elem(a), (0,): F7.elem(b)})
            f = SparsePoly(F7, 1, {e: c for e, c in f.terms.items()
                                   if not c.is_zero()})
            assert any(not f.evaluate(list(p)).is_zero() for p in pts)


def test_grid_biquadratic_size_and_soundness():
    hs = gen_hitting_set(F7, 2, 2, 1)
    pts = list(hs)
    assert hs.size == 9 and len(pts) == 9
    vals = sorted({p[0].serialize() for p in pts})
    assert vals == [0, 1, 2]
    # exhaustive check over biquadratics with coefficients in {0,1}
    exps = list(itertools.product(range(3), repeat=2))
    for mask in range(1, 1 << len(exps)):
        terms = {exps[i]: F7.one() for i in range(len(exps))
                 if mask >> i & 1}
        f = SparsePoly(F7, 2, terms)
        assert any(not f.evaluate(list(p)).is_zero() for p in pts)


def test_field_too_small_boundary():
    # F_5 supplies exactly 5 distinct values: D=4 is the boundary, D=5 fails
    hs = gen_hitting_set(F5, 3, 2, 2)          # D = k*d = 4
    assert hs.size == 5 ** 3
    with pytest.raises(FieldTooSmall) as ei:
        gen_hitting_set(F5, 3, 5, 1)          # D = 5 needs 6 values
    assert ei.value.required == 6


def test_determinism():
    a = list(gen_hitting_set(F7, 2, 2, 2))
    b = list(gen_hitting_set(F7, 2, 2, 2))
    assert a == b


def test_lexicographic_order():
    pts = list(gen_hitting_set(F7, 2, 1, 1))
    ser = [tuple(c.serialize() for c in p) for p in pts]
    assert ser == sorted(ser)


def test_monotonicity():
    base = gen_hitting_set(F7, 2, 1, 1).size
    assert gen_hitting_set(F7, 2, 2, 1).size >= base
    assert gen_hitting_set(F7, 2, 1, 2).size >= base


def test_exhaustive_grid_soundness_small_family():
    # all nonzero univariate cubics over F_2 embedded in F_7, k=3 products
    # of linear factors have degree <= 3, grid D = 3 must hit them
    hs = gen_hitting_set(F7, 1, 1, 3)
    pts = list(hs)
    for coeffs in itertools.product(range(2), repeat=4):
        if not any(coeffs):
            continue
        f = SparsePoly(F7, 1, {(i,): F7.elem(c)
                               for i, c in enumerate(coeffs) if c})
        assert any(not f.evaluate(list(p)).is_zero() for p in pts)
    # prod_{j=0..7} (x1 - j) over F_101: eight 2-sparse linear factors whose
    # product vanishes on 0..7, so only the ninth grid value hits it
    f = SparsePoly.constant(F101, 1, 1)
    for j in range(8):
        f = f * parse_poly("x1 + %d" % (101 - j), F101)
    hs = gen_hitting_set(F101, 1, 1, 8)
    assert hs.size == 9
    hits = [not f.evaluate(list(p)).is_zero() for p in hs]
    assert hits == [False] * 8 + [True]


def test_anchor_set_separates_square_difference():
    # f = y^2 - x1^2 = (y - x1)(y + x1); Res_y = 2*a at x1 = a, so any
    # anchor point with a != 0 works and the set must contain one.  At d = 1
    # the pairwise resultant 2*x1 has individual degree <= 2d^2 and the
    # product has arity d^2
    hs = gen_hitting_set(F7, 1, 2, 1)
    g = parse_poly("y + 6*x1", F7)   # y - x1
    h = parse_poly("y + x1", F7)
    found = False
    for p in hs:
        r = resultant_at_point(g, h, list(p))
        if not r.is_zero():
            assert r == F7.elem(2) * p[0]
            found = True
            break
    assert found
