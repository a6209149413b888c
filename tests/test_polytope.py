"""Newton-polytope analytics: vertex enumeration, Minkowski sums, the
factor-sparsity cap, corner-point bound checks, and the Hadamard family."""

import itertools
import math
import random
import re
import types
from fractions import Fraction

import pytest

from sparsefact import polytope
from sparsefact.errors import BoundViolation, EmptySupport, ShapeMismatch
from sparsefact.field import make_field
from tests_oracle import (box_sign_exposes, brute_force_vertices,
                          ceil_c_d2_log2_by_powers, feasible_by_elimination)
from sparsefact.polytope import (in_hull, support_of, newton_vertices,
                                 minkowski_sum, sparsity_cap,
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


def lp_vertices(E):
    """The reference: one in_hull LP per point over all the other points."""
    pts = sorted(set(map(tuple, E)))
    return [p for p in pts
            if not in_hull(p, [q for q in pts if q != p])]


# supports for the certificate paths: a constant coordinate (box minimum
# equal to its maximum), collinear points, one point, duplicates, n = 1, and
# sorted orders that put inner points before the vertices covering them
CERTIFICATE_CASES = [
    [(0, 2, 1), (1, 2, 0), (2, 2, 2), (1, 2, 1), (2, 2, 0)],
    [(0, 0), (1, 1), (2, 2), (3, 3)],
    [(1, 0, 2), (2, 1, 2), (3, 2, 2)],
    [(4, 1)],
    [(2,)],
    [(0, 1), (0, 1), (1, 0), (1, 0), (0, 0), (0, 0)],
    [(3,), (0,), (1,), (2,), (1,)],
    [(0, 2), (1, 1), (2, 0)],
    [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)],
    # (1,1) is found inner by an LP, then (1,2) needs an LP without it
    [(0, 0), (1, 1), (1, 2), (3, 3)],
    [(0, 0), (0, 1), (1, 1), (2, 2)],
    # the walk from (1,1) away from (0,0) passes the missing (2,2)
    [(0, 0), (1, 1), (3, 3)],
    # (0,1) is a vertex that its box sign vector ties with (0,0), and that
    # the face walk separates; its rays pass the missing (0,2) and leave
    # the box, or leave it at once
    [(0, 0), (0, 1), (1, 2)],
    # (1,1) lies on no segment, so only an LP shows it inner
    [(0, 0), (3, 0), (0, 3), (1, 1)],
]


@pytest.mark.parametrize("E", CERTIFICATE_CASES)
def test_certificate_cases_match_brute_force_oracle(E):
    assert newton_vertices(E) == brute_force_vertices(E) == lp_vertices(E)


def test_vertices_match_one_lp_per_point(monkeypatch):
    # larger supports than the brute-force oracle can take; both LP answers
    # must occur, so the pruned LP path is exercised and not only certificates
    answers = []

    def recorded(p, pts):
        answers.append(in_hull(p, pts))
        return answers[-1]

    monkeypatch.setattr(polytope, "in_hull", recorded)
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 5)
        d = rng.randint(1, 3)
        E = {tuple(rng.randint(0, d) for _ in range(n))
             for _ in range(rng.randint(11, 30))}
        if rng.randrange(3) == 0:
            E = {p[:-1] + (d,) for p in E}     # a constant coordinate
        assert newton_vertices(E) == lp_vertices(E)
    assert True in answers and False in answers


def test_cube_subsets_need_no_lp(monkeypatch):
    # every point of a subset of {0,1}^n is exposed by its box sign vector
    def no_lp(p, pts):
        raise AssertionError("in_hull called for %r" % (p,))

    monkeypatch.setattr(polytope, "in_hull", no_lp)
    rng = random.Random(6)
    for n in range(1, 6):
        cube = list(itertools.product((0, 1), repeat=n))
        if n <= 3:
            subsets = [S for r in range(1, len(cube) + 1)
                       for S in itertools.combinations(cube, r)]
        else:
            subsets = [rng.sample(cube, rng.randint(1, len(cube)))
                       for _ in range(100)]
        for S in subsets:
            assert newton_vertices(S) == sorted(S)


def test_box_grids_need_no_lp(monkeypatch):
    # a grid point that is not a corner has a coordinate strictly inside
    # the box, so it lies between its two neighbours along that axis
    def no_lp(p, pts):
        raise AssertionError("in_hull called for %r" % (p,))

    monkeypatch.setattr(polytope, "in_hull", no_lp)
    for n in range(1, 5):
        for d in range(1, 4):
            grid = list(itertools.product(range(d + 1), repeat=n))
            assert newton_vertices(grid) == \
                list(itertools.product((0, d), repeat=n))


@pytest.mark.parametrize("E,verts,asked", [
    # (1,1) lies on no segment between support points
    ([(0, 0), (3, 0), (0, 3), (1, 1)], [(0, 0), (0, 3), (3, 0)], [(1, 1)]),
    # (2,) is found between (0,) and (5,) by unit steps; steps of p - q,
    # 2 and -3, would miss both
    ([(0,), (2,), (5,)], [(0,), (5,)], []),
])
def test_lp_only_for_points_on_no_segment(E, verts, asked, monkeypatch):
    seen = []

    def recorded(p, pts):
        seen.append(p)
        return in_hull(p, pts)

    monkeypatch.setattr(polytope, "in_hull", recorded)
    assert newton_vertices(E) == verts
    assert seen == asked


# -- the face walk -------------------------------------------------------------

def supports_like_test_04(rng, count):
    """test_04's draws, in its order: n 1-6, d 1-3, at most 40 points."""
    for _ in range(count):
        n = rng.randint(1, 6)
        d = rng.randint(1, 3)
        size = rng.randint(1, 40)
        yield n, d, {tuple(rng.randint(0, d) for _ in range(n))
                     for _ in range(size)}


def walk_certified(E):
    pts = sorted(E)
    faces = [polytope._face(p, pts) for p in pts]
    assert all(p in F for p, F in zip(pts, faces))
    return [p for p, F in zip(pts, faces) if len(F) == 1]


def test_walk_separates_box_ties(monkeypatch):
    # the box sign vector (0,-1) and the centroid direction (0,-3) of (2,0)
    # both tie it with (3,0); fixing y = 0 leaves the face {(2,0), (3,0)},
    # on which x = 2 is the minimum
    def no_lp(p, pts):
        raise AssertionError("in_hull called for %r" % (p,))

    monkeypatch.setattr(polytope, "in_hull", no_lp)
    E = [(1, 3), (2, 0), (3, 0)]
    assert newton_vertices(E) == E


def test_walk_certifies_vertices_symmetrically():
    rng = random.Random(11)
    sym = random.Random(12)
    beyond_box = 0
    for n, d, E in supports_like_test_04(rng, 150):
        if sym.randrange(4) == 0:                # a constant coordinate
            k, c = sym.randrange(n), sym.randint(0, d)
            E = {p[:k] + (c,) + p[k + 1:] for p in E}
        pts = sorted(E)
        certified = walk_certified(pts)
        if len(pts) <= 10:
            assert set(certified) <= set(brute_force_vertices(pts))
        else:
            for p in certified:
                assert not in_hull(p, [q for q in pts if q != p]), (p, pts)
        boxed = [p for p in pts if box_sign_exposes(p, pts)]
        assert set(boxed) <= set(certified)
        beyond_box += len(certified) - len(boxed)
        # a permutation of the coordinates and reflections e_i -> d - e_i
        perm = sym.sample(range(n), n)
        flip = [sym.randrange(2) for _ in range(n)]

        def image(p):
            return tuple(d - p[j] if f else p[j] for j, f in zip(perm, flip))

        assert walk_certified([image(p) for p in pts]) == \
            sorted(map(image, certified))
    assert beyond_box > 0


def test_04_supports_lp_count(monkeypatch):
    # counts are deterministic: the face walk leaves 271 LPs here, where
    # the box and centroid functionals left 864, so a weaker walk fails
    calls = []

    def counted(p, pts):
        calls.append(p)
        return in_hull(p, pts)

    monkeypatch.setattr(polytope, "in_hull", counted)
    for n, d, E in supports_like_test_04(random.Random(4), 500):
        newton_vertices(E)
    assert len(calls) <= 271


@pytest.mark.parametrize("E,bad", [
    ([(Fraction(1, 2),), (0,), (1,)], (Fraction(1, 2),)),
    ([(0, 0), (1, Fraction(4, 2)), (2, 1)], (1, Fraction(2, 1))),
    ([(0, 0), (1.0, 2), (2, 1)], (1.0, 2)),
    ([(0.5,), (1,)], (0.5,)),
])
def test_non_integer_points_raise(E, bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        newton_vertices(E)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        caratheodory_check(E, 3)


def test_in_hull_takes_fractions():
    assert in_hull((Fraction(1, 2),), [(0,), (1,)])
    assert not in_hull((Fraction(3, 2), 0), [(0, 0), (1, 0), (0, 1)])


def test_non_integer_check_survives_optimize_flag(run_optimized):
    assert run_optimized([
        "from fractions import Fraction",
        "from sparsefact.polytope import newton_vertices",
        "for E in ([(Fraction(1, 2),), (0,), (1,)], [(0, 0), (0.5, 1)]):",
        "    try:",
        "        print(newton_vertices(E))",
        "    except ValueError as e:",
        "        print('raised', e)",
    ]) == ("False\n"
           "raised newton_vertices needs integer points, "
           "got (Fraction(1, 2),)\n"
           "raised newton_vertices needs integer points, got (0.5, 1)\n")


def test_mixed_dimensions_raise_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        in_hull((0,), [(0, 5), (1, 5)])
    with pytest.raises(ShapeMismatch):
        in_hull((0, 0), [(0, 0), (1,)])
    with pytest.raises(ShapeMismatch):
        newton_vertices([(0,), (1, 1), (2,)])
    with pytest.raises(ShapeMismatch):
        minkowski_sum([(0, 0), (1,)], [(0, 0)])
    with pytest.raises(ShapeMismatch):
        minkowski_sum([(0, 0)], [(0, 0), (1, 2, 3)])
    with pytest.raises(ShapeMismatch):
        caratheodory_check([(0, 0), (1,)], 1)


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


def test_sparsity_constant_must_be_positive():
    # C defaults to 5 and may be given as a fraction string
    assert sparsity_cap(6, 2, 1, "3/2") == sparsity_cap(6, 2, 1,
                                                        Fraction(3, 2)) == 16
    assert sparsity_cap(6, 2, 1) == sparsity_cap(6, 2, 1, 5) == 64
    square = list(itertools.product((0, 1), repeat=2))
    assert caratheodory_check(square, 1, "3/2")["exponent"] == 2
    assert caratheodory_check(square, 1)["exponent"] == 5
    for bad in (0, -1, "-1/3"):
        with pytest.raises(ValueError):
            sparsity_cap(6, 2, 1, bad)
        with pytest.raises(ValueError):
            caratheodory_check(square, 1, bad)


SB_CONSTANTS = [Fraction(5), Fraction(1), Fraction(1, 2), Fraction(7, 3),
                Fraction(1, 10), Fraction(3, 7), Fraction(13, 4),
                Fraction(2, 5)]


def test_sparsity_exponent_matches_power_comparison():
    # every power of two M takes the exact rational route, the others the
    # float estimate; d = 0 puts the estimate on an integer
    for C in SB_CONSTANTS:
        for d in range(41):
            for n in range(1, 10):
                M = max(n, 2)
                assert polytope._ceil_c_d2_log2(C, d * d, M) == \
                    ceil_c_d2_log2_by_powers(C, d * d, M), (C, d, n)


@pytest.mark.parametrize("skew", [1 - 2.0 ** -41, 1, 1 + 2.0 ** -41])
@pytest.mark.parametrize("M,C", [
    (3, Fraction(190537, 301994)), (7, Fraction(453601, 1273419)),
    (11, Fraction(851365, 2945239)), (6, Fraction(190537, 164177))])
def test_sparsity_exponent_near_integer_falls_back(M, C, skew, monkeypatch):
    # C*log2(M) lies within the estimate's error bound of an integer, so
    # only the exact power comparison can decide the ceiling, even when a
    # log2 that errs by less than the bound moves the estimate across it
    x = float(C) * math.log2(M)
    assert abs(x - round(x)) <= x * 2.0 ** -40
    want = ceil_c_d2_log2_by_powers(C, 1, M)
    monkeypatch.setattr(polytope, "math", types.SimpleNamespace(
        ceil=math.ceil, log2=lambda v: math.log2(v) * skew))
    assert polytope._ceil_c_d2_log2(C, 1, M) == want


def test_sparsity_cap_and_verdict_match_powers():
    for C in SB_CONSTANTS:
        for d in range(1, 41):
            for n in range(1, 10):
                a = ceil_c_d2_log2_by_powers(C, d * d, max(n, 2))
                for s in (1, 2, 3, 7, 50):
                    assert sparsity_cap(n, s, d, C) == \
                        min(s ** a, (d + 1) ** n), (C, d, n, s)
                for t, size in ((1, 1), (1, 2), (2, 3), (3, 10 ** 6),
                                (2, 2 ** a), (2, 2 ** a + 1)):
                    assert polytope._pow_at_least(t, a, size) == \
                        (t ** a >= size), (C, d, n, t, size)


def test_caratheodory_verdict_matches_powers():
    verdicts = set()
    for C in (Fraction(1, 10), Fraction(1, 40), Fraction(1, 200)):
        for E in [list(itertools.product((0, 1), repeat=3)),
                  [(i,) for i in range(12)],
                  [(i, j) for i in range(4) for j in range(4)]]:
            d = max(max(p) for p in E)
            a = ceil_c_d2_log2_by_powers(C, d * d, max(len(E[0]), 2))
            t = len(newton_vertices(E))
            try:
                rep = caratheodory_check(E, d, C)
            except BoundViolation:
                assert t ** a < len(E)
                verdicts.add(False)
            else:
                assert rep["exponent"] == a and rep["bound_holds"]
                assert t ** a >= len(E)
                verdicts.add(True)
    assert verdicts == {False, True}


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


def test_caratheodory_rejects_bad_input():
    square = list(itertools.product((0, 1), repeat=2))
    for k in (0, -1):
        with pytest.raises(ValueError):
            caratheodory_check(square, 1, uniform_k=k)
    with pytest.raises(ValueError):
        caratheodory_check([(0, 0)], -1)
    # points outside {0..d}^n are bad input, not a failed bound
    with pytest.raises(ValueError):
        caratheodory_check([(0, 0), (1, 1)], 0)
    with pytest.raises(ValueError):
        caratheodory_check([(0, -1), (1, 1)], 1)
    with pytest.raises(ValueError):
        caratheodory_check([(0, 0)], 0, uniform_k=1)
    assert caratheodory_check([(0, 0)], 0)["bound_holds"]


def test_caratheodory_bound_violation_under_tiny_constant():
    # the full grid {0..2}^2 has 4 vertices and 9 points; C = 1/100 gives
    # exponent ceil(4/100) = 1, and 4^1 < 9
    E = list(itertools.product(range(3), repeat=2))
    with pytest.raises(BoundViolation):
        caratheodory_check(E, 2, "1/100")


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


# -- the exact LP against elimination -----------------------------------------

def hull_system(p, pts):
    """in_hull's system: the points as columns over a row of ones."""
    return [list(c) for c in zip(*pts)] + [[1] * len(pts)], list(p) + [1]


def check_lp(A, b, answers):
    want = feasible_by_elimination(A, b)
    assert polytope._lp_feasible(A, b) == want, (A, b)
    assert polytope._lp_feasible([[Fraction(v) for v in row] for row in A],
                                 [Fraction(v) for v in b]) == want
    answers.add(want)


def check_hull(p, pts, answers):
    want = feasible_by_elimination(*hull_system(p, pts))
    assert in_hull(p, pts) == want, (p, pts)
    answers.add(want)


def test_lp_rank_deficient_systems():
    # collinear supports in 3 to 5 dimensions, and a constant coordinate:
    # the hull system has fewer independent rows than rows
    rng = random.Random(7)
    answers = set()
    for n in range(3, 6):
        for _ in range(8):
            w = [rng.randint(-3, 3) for _ in range(n)]
            v = [rng.randint(-2, 2) for _ in range(n)]
            v[rng.randrange(n)] = rng.choice((-1, 1))
            line = [tuple(a + t * c for a, c in zip(w, v))
                    for t in sorted(rng.sample(range(-4, 5), 4))]
            for t in range(-5, 6):
                check_hull(tuple(a + t * c for a, c in zip(w, v)), line,
                           answers)
            off = list(line[1])
            off[rng.randrange(n)] += 1
            check_hull(tuple(off), line, answers)
            A, b = hull_system(line[1], line)
            check_lp(A, b, answers)
    flat = [(x, 2, z) for x in range(3) for z in range(3) if x + z <= 2]
    for p in itertools.product(range(-1, 4), (1, 2, 3), range(-1, 4)):
        check_hull(p, flat, answers)
    assert answers == {False, True}


def test_lp_hadamard_columns():
    # entries +-1 and right-hand sides with negative entries
    rng = random.Random(8)
    answers = set()
    for m in (1, 2, 3):
        E, columns, _ = hadamard_example(m)   # the vertices are H's columns
        k = 1 << m
        assert len(columns) == k
        for p in E:
            check_hull(p, columns, answers)
            check_hull(tuple(-v for v in p), columns, answers)
        H = [list(row) for row in zip(*columns)]
        vectors = (itertools.product((-1, 0, 1), repeat=k) if k <= 4 else
                   [[rng.randint(-2, 2) for _ in range(k)]
                    for _ in range(60)])
        for b in vectors:
            check_lp(H, list(b), answers)
    assert answers == {False, True}


def test_lp_duplicate_columns():
    rng = random.Random(9)
    answers = set()
    for _ in range(40):
        n = rng.randint(1, 3)
        pts = [tuple(rng.randint(0, 3) for _ in range(n))
               for _ in range(rng.randint(1, 4))]
        pts += rng.sample(pts, rng.randint(1, len(pts)))
        p = tuple(rng.randint(0, 3) for _ in range(n))
        check_hull(p, pts, answers)
        A = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(n)]
        A = [row + row[:2] for row in A]
        check_lp(A, [rng.randint(-3, 3) for _ in range(n)], answers)
    assert answers == {False, True}
