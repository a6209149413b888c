"""Newton-polytope analytics: vertex enumeration, Minkowski sums, the
factor-sparsity cap, corner-point bound checks, and the Hadamard family."""

import itertools
import random
from fractions import Fraction

import pytest

from sparsefact.errors import EmptySupport, ShapeMismatch
from sparsefact.field import make_field
from sparsefact.sparsepoly import parse_poly
from tests_oracle import brute_force_vertices
from sparsefact.polytope import (SBConfig, in_hull, support_of,
                                 newton_vertices, minkowski_sum, sparsity_cap,
                                 caratheodory_check, hadamard_example)

F7 = make_field(7)


def rand_poly(ctx, n, maxdeg, nterms, rng):
    from sparsefact.sparsepoly import SparsePoly
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(n))
        c = ctx.elem(rng.randint(0, ctx.q - 1))
        if not c.is_zero():
            terms[e] = c
    return SparsePoly(ctx, n, terms)


# -- vertex enumeration -------------------------------------------------------

def test_unit_square_all_vertices():
    E = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert newton_vertices(E) == sorted(E)


def test_collinear_interior_point():
    assert newton_vertices([(0,), (1,), (2,)]) == [(0,), (2,)]


def test_multilinear_support_is_all_vertices():
    E = list(itertools.product((0, 1), repeat=3))
    assert newton_vertices(E) == sorted(E)


def test_empty_support():
    with pytest.raises(EmptySupport):
        newton_vertices([])


def test_vertices_subset_of_support_random():
    rng = random.Random(0)
    for _ in range(30):
        E = {tuple(rng.randint(0, 3) for _ in range(3))
             for _ in range(rng.randint(1, 12))}
        V = newton_vertices(E)
        assert set(V) <= set(map(tuple, E))


def test_vertices_match_brute_force_oracle():
    rng = random.Random(1)
    for _ in range(40):
        n = rng.randint(1, 3)
        E = {tuple(rng.randint(0, 3) for _ in range(n))
             for _ in range(rng.randint(1, 10))}
        assert newton_vertices(E) == brute_force_vertices(E)


# -- Minkowski sums -----------------------------------------------------------

def test_minkowski_examples():
    A = [(0, 0), (1, 0)]
    B = [(0, 0), (0, 1)]
    S = minkowski_sum(A, B)
    assert S == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(newton_vertices(S)) == 4
    assert minkowski_sum([(2, 3)], B) == [(2, 3), (2, 4)]
    with pytest.raises(ShapeMismatch):
        minkowski_sum([(0,)], [(0, 0)])


def test_minkowski_vertex_monotonicity():
    rng = random.Random(2)
    for _ in range(20):
        A = {tuple(rng.randint(0, 2) for _ in range(2))
             for _ in range(rng.randint(1, 6))}
        B = {tuple(rng.randint(0, 2) for _ in range(2))
             for _ in range(rng.randint(1, 6))}
        vs = len(newton_vertices(minkowski_sum(A, B)))
        assert vs >= max(len(newton_vertices(A)), len(newton_vertices(B)))


def test_product_support_properties():
    # supp(g*h) within supp(g)+supp(h); vertex count and sparsity relations
    rng = random.Random(3)
    for _ in range(20):
        g = rand_poly(F7, 2, 2, 3, rng)
        h = rand_poly(F7, 2, 2, 3, rng)
        if g.is_zero() or h.is_zero():
            continue
        f = g * h
        Sg, Sh, Sf = support_of(g), support_of(h), support_of(f)
        assert Sf <= set(minkowski_sum(Sg, Sh))
        vf = newton_vertices(Sf)
        assert len(vf) >= max(len(newton_vertices(Sg)),
                              len(newton_vertices(Sh)))
        assert f.sparsity() >= len(vf)


# -- sparsity cap -------------------------------------------------------------

def test_sparsity_cap_examples():
    assert sparsity_cap(1, 2, 1) == 2
    assert sparsity_cap(1, 9, 1) == 2
    assert sparsity_cap(3, 8, 1) == 8          # (d+1)^n dominates
    assert sparsity_cap(2, 4, 3) == 16         # (3+1)^2 dominates
    assert sparsity_cap(2, 4, 3, SBConfig(user_cap=5)) == 5


def test_sparsity_cap_monotone():
    base = sparsity_cap(3, 4, 2)
    assert sparsity_cap(3, 5, 2) >= base
    assert sparsity_cap(4, 4, 2) >= base
    assert sparsity_cap(3, 4, 3) >= base


# -- corner-point bound -------------------------------------------------------

def test_caratheodory_multilinear_cube():
    E = list(itertools.product((0, 1), repeat=3))
    rep = caratheodory_check(E, 1)
    assert rep["vertices"] == 8 and rep["size"] == 8 and rep["bound_holds"]


def test_caratheodory_segment():
    rep = caratheodory_check([(0,), (1,), (2,), (3,)], 3)
    assert rep["vertices"] == 2 and rep["bound_holds"]
    assert rep["exponent"] == 45  # ceil(5 * 9 * log2(2))


def test_caratheodory_random_supports():
    rng = random.Random(4)
    for _ in range(25):
        E = {tuple(rng.randint(0, 2) for _ in range(4))
             for _ in range(rng.randint(1, 20))}
        rep = caratheodory_check(E, 2)
        assert rep["bound_holds"]
        assert rep["vertex_list"] == newton_vertices(E)


def test_caratheodory_uniform_cover_tiny():
    E = list(itertools.product((0, 1), repeat=2))
    rep = caratheodory_check(E, 1, uniform_k=3)
    assert rep["uniform_distinct_cover"]


# -- Hadamard family ----------------------------------------------------------

def test_hadamard_m1():
    E, verts, subs = hadamard_example(1)
    assert subs == 2


def test_hadamard_m2():
    E, verts, subs = hadamard_example(2)
    assert subs == 5  # {0}, three lines, the full plane


def test_hadamard_m3():
    E, verts, subs = hadamard_example(3)
    assert subs == 16           # 1 + 7 + 7 + 1 subspaces of F_2^3
    assert len(verts) == 8      # exactly the Hadamard columns
    assert len(E) == 23         # 8 columns + 16 indicators, one shared


def test_in_hull_basic():
    sq = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert in_hull((1, 1), sq)
    assert not in_hull((3, 0), sq)
