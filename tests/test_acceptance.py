"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the toolkit at desk scale:
exact round-trip factorization, oracle agreement, the sparsity-bound
demonstrations, polytope and resultant identities, hitting-set soundness,
transform bounds, black-box consistency, and CLI determinism.
"""

import io
import itertools
import random

from sparsefact.field import make_field
from sparsefact.sparsepoly import SparsePoly, make_monic, normalize_scalar
from sparsefact.unifactor import UniPoly
from sparsefact.polytope import newton_vertices, hadamard_example, in_hull
from sparsefact.hitting import gen_hitting_set
from sparsefact.resultant import resultant_univariate, resultant_at_point
from sparsefact.factorizer import factor, blackbox_eval, _Anchor
from sparsefact.cli import run
from tests_oracle import ref_projection, ref_value

F7 = make_field(7)


def multiset(fac):
    return sorted((normalize_scalar(p)[0].sort_key(), m) for p, m in fac.parts)


def merge(counted):
    out = {}
    for key, m in counted:
        out[key] = out.get(key, 0) + m
    return out


def rand_block(ctx, n, maxdeg, rng):
    """Random nonconstant building block with individual degrees <= maxdeg."""
    while True:
        terms = {}
        for _ in range(rng.randint(2, 3)):
            e = tuple(rng.randint(0, maxdeg) for _ in range(n))
            if sum(e) > maxdeg:          # keep blocks genuinely small
                e = tuple(min(v, 1) for v in e)
            c = ctx.from_index(rng.randrange(1, ctx.q))
            terms[e] = c
        f = SparsePoly(ctx, n, terms)
        if not f.is_zero() and not f.is_constant():
            return f


def test_01_round_trip_soundness():
    # 200 randomized products; output re-multiplies exactly and matches the
    # construction (each block independently factored) up to units/order
    rng = random.Random(20260824)
    primes = [7, 11, 13]
    for trial in range(200):
        ctx = make_field(primes[trial % 3])
        n = rng.randint(2, 4)
        nblocks = rng.randint(1, 3)
        blocks = []
        for _ in range(nblocks):
            b = rand_block(ctx, n, 1, rng)
            mult = rng.randint(1, 2)
            blocks.append((b, mult))
        f = SparsePoly.constant(ctx, n, 1)
        for b, m in blocks:
            for _ in range(m):
                f = f * b
        if f.max_degree() > 3:
            continue
        fac = factor(f)
        assert fac.expand() == f
        want = []
        for b, m in blocks:
            want.extend((key, mm * m) for key, mm in multiset(factor(b)))
        assert merge(multiset(fac)) == merge(want)


def test_02_bivariate_oracle_equivalence():
    rng = random.Random(2)
    done = 0
    while done < 100:
        ctx = make_field([7, 11, 13][done % 3])
        terms = {}
        for _ in range(rng.randint(2, 5)):
            e = (rng.randint(0, 4), rng.randint(0, 4))
            c = ctx.from_index(rng.randrange(ctx.q))
            if not c.is_zero():
                terms[e] = c
        f = SparsePoly(ctx, 2, terms)
        if f.is_zero() or f.is_constant():
            continue
        done += 1
        a = factor(f)
        assert a.expand() == f
        for p, _ in a.parts:
            if 0 < p.degree(0) * p.degree(1) <= 6 and p.degree(0) > 0:
                assert _no_small_divisor(p)


def _no_small_divisor(p):
    from sparsefact.sparsepoly import sparse_divide
    ctx = p.ctx
    dy, dt = p.degree(0), p.degree(1)
    exps = [(ey, et) for ey in range(dy + 1) for et in range(dt + 1)]
    for de in range(1, dy):
        lows = [e for e in exps if e[0] < de]
        for assign in itertools.product(range(min(ctx.q, 3)),
                                        repeat=len(lows)):
            terms = {(de, 0): ctx.one()}
            for e, ci in zip(lows, assign):
                c = ctx.from_index(ci)
                if not c.is_zero():
                    terms[e] = c
            g = SparsePoly(ctx, 2, terms)
            if sparse_divide(p, g) is not None:
                return False
    return True


def test_03_sparsity_bound_examples():
    from sparsefact.cli import _eg1, _eg2
    for n, d in [(2, 3), (3, 2), (4, 2)]:
        f, g = _eg1(F7, n, d)
        assert f.sparsity() == 2 ** n
        assert g.sparsity() == d ** n
    F5 = make_field(5)
    f, g = _eg2(F5, 3, 2)
    assert f.sparsity() == 3
    assert g.sparsity() == 6


def test_04_corner_point_theorem():
    import math
    rng = random.Random(4)
    from tests_oracle import brute_force_vertices  # local helper module
    for _ in range(500):
        n = rng.randint(1, 6)
        d = rng.randint(1, 3)
        size = rng.randint(1, 40)
        E = {tuple(rng.randint(0, d) for _ in range(n)) for _ in range(size)}
        t = len(newton_vertices(E))
        exponent = math.ceil(5 * d * d * math.log2(max(n, 2)) - 1e-12)
        assert t ** exponent >= len(E)
        if len(E) <= 10:
            assert newton_vertices(E) == brute_force_vertices(E)


def test_05_hadamard_tightness():
    E, verts, subspaces = hadamard_example(3)
    assert len(verts) == 8
    assert subspaces == 16
    # every point of E is certified inside the hull of the vertices
    lattice = [p for p in E if all(v in (0, 1) for v in p)]
    assert len(lattice) >= 16
    for p in lattice:
        assert in_hull(p, verts)


def test_06_resultant_identities():
    rng = random.Random(6)
    for trial in range(100):
        ctx = make_field([7, 11, 13][trial % 3])
        n = rng.randint(2, 3)

        def monic(dy):
            terms = {(0,) * (n - 1) + (dy,): ctx.one()}
            for j in range(dy):
                e = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (j,)
                c = ctx.from_index(rng.randrange(1, ctx.q))
                terms[e] = c
            return SparsePoly(ctx, n, terms)
        f = monic(rng.randint(1, 3))
        g = monic(rng.randint(1, 3))
        grid = list(itertools.product(
            list(itertools.islice(ctx.elements(), 3)), repeat=n - 1))
        all_zero = True
        for a in grid:
            fa = ref_projection(f, a)
            ga = ref_projection(g, a)
            r = resultant_at_point(f, g, list(a))
            assert r == resultant_univariate(fa, ga)
            assert r.is_zero() == (fa.gcd(ga).degree() >= 1)
            if not r.is_zero():
                all_zero = False
        if all_zero:
            # shared nonconstant factor certified by a shared projection gcd
            a0 = grid[0]
            fa0, ga0 = ref_projection(f, a0), ref_projection(g, a0)
            assert fa0.gcd(ga0).degree() >= 1


def test_07_hitting_set_soundness_exhaustive():
    for n in (1, 2):
        hs = gen_hitting_set(F7, n, 2, 1)
        pts = list(hs)
        exps = list(itertools.product(range(3), repeat=n))
        for coeffs in itertools.product(range(3), repeat=len(exps)):
            if not any(coeffs):
                continue
            f = SparsePoly(F7, n, {e: F7.elem(c)
                                   for e, c in zip(exps, coeffs) if c})
            assert any(not f.evaluate(list(p)).is_zero() for p in pts)


def test_08_make_monic_bounds():
    rng = random.Random(8)
    done = 0
    while done < 200:
        n = rng.randint(2, 3)
        nterms = rng.randint(2, 20)
        terms = {}
        for _ in range(nterms):
            e = tuple(rng.randint(0, 3) for _ in range(n))
            c = F7.elem(rng.randrange(7))
            if not c.is_zero():
                terms[e] = c
        f = SparsePoly(F7, n, terms)
        if f.is_zero() or f.degree(n - 1) < 1:
            continue
        done += 1
        s, d = f.sparsity(), f.max_degree()
        fhat, fk, k = make_monic(f)
        assert fhat.sparsity() <= s ** d
        assert all(dv <= d * d for dv in fhat.degrees())
        assert fhat.is_monic_in(fhat.n - 1)


def test_09_blackbox_endpoint_consistency():
    rng = random.Random(9)
    for _ in range(50):
        # f = (y + a(x)) * (y + b(x)) with distinct projections at the anchor
        n = rng.randint(1, 2)
        while True:
            av = SparsePoly(F7, n + 1, {
                tuple(rng.randint(0, 1) for _ in range(n)) + (0,):
                F7.elem(rng.randrange(1, 7)) for _ in range(2)})
            bv = SparsePoly(F7, n + 1, {
                tuple(rng.randint(0, 1) for _ in range(n)) + (0,):
                F7.elem(rng.randrange(1, 7)) for _ in range(2)})
            anchor = tuple(F7.elem(rng.randrange(7)) for _ in range(n))
            a0 = ref_value(av, list(anchor) + [F7.zero()])
            b0 = ref_value(bv, list(anchor) + [F7.zero()])
            if a0 != b0:
                break
        y = SparsePoly.variable(F7, n + 1, n)
        g, h = y + av, y + bv
        f = g * h
        # the projection's two linear factors, each a block of its own
        blocks = [(0,), (1,)]
        at = _Anchor(f, anchor)
        # endpoint b = anchor: per-block products of the univariate pieces
        at_anchor = [blackbox_eval(at, block, 1, anchor) for block in blocks]
        assert sorted(tuple(c.index() for c in u.coeffs)
                      for u in at_anchor) == \
            sorted([(a0.index(), 1), (b0.index(), 1)])
        # three random points: outputs multiply back to the projection
        for _ in range(3):
            b = tuple(F7.elem(rng.randrange(7)) for _ in range(n))
            outs = [blackbox_eval(at, block, 1, b) for block in blocks]
            prod = UniPoly.constant(F7, 1)
            for u in outs:
                prod = prod * u
            assert prod == ref_projection(f, b)


def test_10_cli_determinism():
    def full_suite():
        chunks = []
        for argv in (["factor", "--json", "x1*x2 + x2 + x1 + 1"],
                     ["factor", "--prime", "11", "x1^2 + 10"],
                     ["verify", "x1^2 + 6", "--factor", "x1 + 1",
                      "--factor", "x1 + 6"],
                     ["polytope", "--json", "x1^2*x2 + x2 + 3"],
                     ["hitset", "--n", "2", "--d", "2", "--k", "2"],
                     ["examples", "--which", "eg1", "--n", "3", "--d", "2"],
                     ["examples", "--which", "hadamard", "--m", "3"]):
            out = io.StringIO()
            status = run(argv, out=out)
            chunks.append((tuple(argv), status, out.getvalue()))
        return chunks
    assert full_suite() == full_suite()
