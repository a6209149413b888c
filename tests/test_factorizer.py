"""The multivariate factoring pipeline: black-box factor evaluation, sparse
reconstruction, the monic driver, and the general driver."""

import itertools
import random
import tracemalloc

import pytest

from sparsefact.errors import (GuessInvalid, Reject, FieldTooSmall,
                               ZeroPolynomial)
from sparsefact.field import make_field
from sparsefact.sparsepoly import (SparsePoly, Factorization, parse_poly,
                                   normalize_scalar)
from sparsefact.unifactor import UniPoly
from sparsefact.bifactor import factor_bivariate
from sparsefact.factorizer import (FactorCfg, Guess, factor, factor_monic,
                                   blackbox_eval, reconstruct_sparse,
                                   verify_factorization, _full_grid)

F7 = make_field(7)
F13 = make_field(13)


def P(text, ctx=F7, nvars=None):
    return parse_poly(text, ctx, nvars=nvars)


def U(coeffs, ctx=F7):
    return UniPoly(ctx, [ctx.elem(c) for c in coeffs])


def multiset(fac):
    """Order/unit-insensitive signature of a factorization."""
    out = []
    for p, m in fac.parts:
        out.append((normalize_scalar(p)[0].sort_key(), m))
    return sorted(out)


def rand_irreducible_ish(ctx, n, rng):
    """Random small polynomial that factor() will treat as a building block."""
    while True:
        terms = {}
        for _ in range(rng.randint(2, 3)):
            e = tuple(rng.randint(0, 1) for _ in range(n))
            c = ctx.from_index(rng.randrange(1, ctx.q))
            terms[e] = c
        f = SparsePoly(ctx, n, terms)
        if not f.is_zero() and not f.is_constant():
            return f


# -- black-box evaluation -----------------------------------------------------

def test_blackbox_hand_trace():
    # f = y^2 - x1^2, anchor (1), univariate pieces y+6 and y+1 in separate
    # parts; at b = (3) the true factors evaluate to y-3 and y+3
    f = P("y^2 + 6*x1^2")
    guess = Guess(anchor=(F7.one(),),
                  parts=((U([6, 1]),), (U([1, 1]),)),
                  exps=(1, 1))
    got = blackbox_eval(f, guess, (F7.elem(3),))
    assert sorted(tuple(c.serialize() for c in h.coeffs) for h in got) == \
        [(3, 1), (4, 1)]   # y+3 and y+4 = y-3


def test_blackbox_endpoint_at_anchor():
    f = P("y^2 + 6*x1^2")
    guess = Guess(anchor=(F7.one(),),
                  parts=((U([6, 1]),), (U([1, 1]),)),
                  exps=(1, 1))
    got = blackbox_eval(f, guess, (F7.one(),))
    assert sorted(tuple(c.serialize() for c in h.coeffs) for h in got) == \
        [(1, 1), (6, 1)]


def test_blackbox_products_multiply_to_projection():
    rng = random.Random(0)
    f = P("y^2 + 6*x1^2")
    guess = Guess(anchor=(F7.one(),),
                  parts=((U([6, 1]),), (U([1, 1]),)),
                  exps=(1, 1))
    for _ in range(5):
        b = (F7.elem(rng.randrange(7)),)
        hs = blackbox_eval(f, guess, b)
        prod = UniPoly.constant(F7, 1)
        for h, e in zip(hs, guess.exps):
            for _ in range(e):
                prod = prod * h
        fb = f.eval_partial({0: b[0]})
        want = UniPoly(F7, [fb.terms.get((0, j), F7.zero())
                            for j in range(f.degree(1) + 1)])
        assert prod == want


def test_blackbox_ambiguity_partition():
    # f = y(y^2 - x1): at x1 = 1 the pieces are y, y-1, y+1 and the
    # grouping {y}, {y-1, y+1} is a consistent guess
    f = P("y^3 + 6*x1*y")
    guess = Guess(anchor=(F7.one(),),
                  parts=((U([0, 1]),), (U([6, 1]), U([1, 1]))),
                  exps=(1, 1))
    got = blackbox_eval(f, guess, (F7.elem(2),))
    degs = sorted(h.degree() for h in got)
    assert degs == [1, 2]
    # wrong grouping mixing the pieces differently must be rejected for
    # some evaluation point or verified not to reconstruct f; here a
    # one-part guess with a bad multiplicity raises
    bad = Guess(anchor=(F7.one(),),
                parts=((U([0, 1]), U([6, 1]), U([1, 1])),),
                exps=(2,))
    with pytest.raises(GuessInvalid):
        blackbox_eval(f, bad, (F7.elem(2),))


# -- sparse reconstruction ----------------------------------------------------

def test_reconstruct_example():
    target = P("x1*x2 + 3")
    got = reconstruct_sparse(lambda pt: target.evaluate(list(pt)),
                             2, 1, 2, F7)
    assert got == target


def test_reconstruct_zero():
    got = reconstruct_sparse(lambda pt: F7.zero(), 2, 2, 5, F7)
    assert got.is_zero()


def test_reconstruct_cap_rejects():
    target = P("x1*x2 + x1 + x2 + 1")
    with pytest.raises(Reject):
        reconstruct_sparse(lambda pt: target.evaluate(list(pt)), 2, 1, 1, F7)


def test_reconstruct_field_too_small():
    F2 = make_field(2)
    with pytest.raises(FieldTooSmall):
        reconstruct_sparse(lambda pt: F2.zero(), 1, 2, 9, F2)


def test_reconstruct_random_round_trip():
    rng = random.Random(1)
    for _ in range(15):
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            c = F7.elem(rng.randrange(7))
            if not c.is_zero():
                terms[e] = c
        f = SparsePoly(F7, 2, terms)
        got = reconstruct_sparse(lambda pt: f.evaluate(list(pt)), 2, 2, 9, F7)
        assert got == f


# -- verification -------------------------------------------------------------

def test_verify_true_and_false():
    f = P("x1^2 + 6")
    good = Factorization(F7.one(), [(P("x1 + 1"), 1), (P("x1 + 6"), 1)])
    assert verify_factorization(f, good, 4)
    bad = Factorization(F7.elem(2), [(P("x1 + 1"), 1), (P("x1 + 6"), 1)])
    assert not verify_factorization(f, bad, 4)


def test_verify_early_abort_on_cap():
    # partial product blows past cap^2 terms; must return False early
    dense = P("x1^2 + x1 + 1", nvars=2) * P("x2^2 + x2 + 1")
    cand = Factorization(F7.one(), [(dense, 3)])
    assert not verify_factorization(dense, cand, 1)


# -- monic driver -------------------------------------------------------------

def test_factor_monic_splits_square_difference():
    f = P("y^2 + 6*x1^2")
    fac = factor_monic(f)
    assert verify_factorization(f, fac)
    assert multiset(fac) == multiset(
        Factorization(F7.one(), [(P("y + 6*x1"), 1), (P("y + x1"), 1)]))


def test_factor_monic_irreducible():
    f = P("y^2 + 6*x1")
    fac = factor_monic(f)
    assert len(fac.parts) == 1 and fac.parts[0][1] == 1
    assert verify_factorization(f, fac)


def test_factor_monic_repeated_root():
    f = P("y + 6*x1") * P("y + 6*x1")
    fac = factor_monic(f)
    assert verify_factorization(f, fac)
    assert len(fac.parts) == 1 and fac.parts[0][1] == 2
    assert multiset(fac) == [(normalize_scalar(P("y + 6*x1"))[0].sort_key(), 2)]


def test_factor_monic_lift_path():
    # reconstruction needs more points than F_7 has; the driver must lift
    # internally and still return base-field factors
    g = P("y + x1^4*x2")
    h = P("y + 3*x1^3", nvars=2)
    f = g * h
    fac = factor_monic(f)
    assert verify_factorization(f, fac)
    assert multiset(fac) == multiset(Factorization(F7.one(), [(g, 1), (h, 1)]))


def test_factor_monic_lift_disabled_raises():
    g = P("y + x1^4*x2")
    h = P("y + 3*x1^3", nvars=2)
    with pytest.raises(FieldTooSmall):
        factor_monic(g * h, FactorCfg(allow_lift=False))


# -- fallback anchor grid -----------------------------------------------------

@pytest.mark.parametrize("p,ell", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1),
                                   (2, 2), (3, 2), (2, 3)])
def test_full_grid_order(p, ell):
    # the anchor order decides which verified factorization the driver
    # meets first, so it is pinned to the sorted reference
    ctx = make_field(p, ell)
    elems = list(ctx.elements())
    for n in range(1, 5):
        if ctx.q ** n > 20000:
            break
        idxs = sorted(itertools.product(range(ctx.q), repeat=n),
                      key=lambda t: (t.count(0), sum(t), t))
        want = [tuple(elems[i] for i in t) for t in idxs]
        assert list(_full_grid(ctx, n)) == want


def test_full_grid_is_lazy():
    # F_101^3 has ~1M points; the first anchors must not cost a table of them
    tracemalloc.start()
    try:
        first = list(itertools.islice(_full_grid(make_field(101), 3), 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 20 and len(set(first)) == 20
    assert peak < 1 << 20


def test_factor_full_grid_fallback_memory():
    # d >= 2 puts the certified anchor grid out of F_101's reach, so the
    # driver scans the fallback grid over F_101^3
    F101 = make_field(101)
    g = parse_poly("x1*x2*x3 + x4 + 2", F101, nvars=4)
    h = parse_poly("x1 + x2 + x3 + x4", F101, nvars=4)
    f = g * g * h
    tracemalloc.start()
    try:
        fac = factor(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fac.expand() == f
    assert multiset(fac) == multiset(
        Factorization(F101.one(), [(g, 2), (h, 1)]))
    assert peak < 16 << 20


# -- general driver -----------------------------------------------------------

def test_factor_hand_trace_x1x2_plus_x2():
    f = P("x1*x2 + x2")
    fac = factor(f)
    assert fac.expand() == f
    assert multiset(fac) == multiset(
        Factorization(F7.one(), [(P("x2", nvars=2), 1),
                                 (P("x1 + 1", nvars=2), 1)]))


def test_factor_product_of_cubes():
    f = P("x1^3 + 6", nvars=2) * P("x2^3 + 6")
    fac = factor(f)
    assert fac.expand() == f
    assert sum(m for _, m in fac.parts) == 6
    assert all(p.max_degree() == 1 for p, _ in fac.parts)


def test_factor_constant():
    fac = factor(P("5", nvars=2))
    assert fac.unit.serialize() == 5 and fac.parts == []


def test_factor_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        factor(SparsePoly.zero(F7, 2))


def test_factor_monomial_content():
    f = P("x1^2*x2 + x1^2")   # x1^2 * (x2 + 1)
    fac = factor(f)
    assert fac.expand() == f
    assert multiset(fac) == multiset(
        Factorization(F7.one(), [(P("x1", nvars=2), 2),
                                 (P("x2 + 1", nvars=2), 1)]))


def test_factor_agrees_with_bivariate():
    rng = random.Random(2)
    for _ in range(10):
        g = rand_irreducible_ish(F7, 2, rng)
        h = rand_irreducible_ish(F7, 2, rng)
        f = g * h
        a = factor(f)
        b = factor_bivariate(f)
        assert a.expand() == f and b.expand() == f
        assert multiset(a) == multiset(b)


def test_factor_known_products_round_trip():
    rng = random.Random(3)
    for trial in range(12):
        ctx = [F7, make_field(11), F13][trial % 3]
        n = rng.randint(3, 4)
        blocks = [rand_irreducible_ish(ctx, n, rng)
                  for _ in range(rng.randint(2, 3))]
        f = SparsePoly.constant(ctx, n, 1)
        for b in blocks:
            f = f * b
        fac = factor(f)
        assert fac.expand() == f
        # ground truth: factor each block independently and merge
        want = []
        for b in blocks:
            want.extend(multiset(factor(b)))
        merged = {}
        for key, m in want:
            merged[key] = merged.get(key, 0) + m
        got = {}
        for key, m in multiset(fac):
            got[key] = got.get(key, 0) + m
        assert got == merged


def test_factor_determinism():
    f = P("x1*x2 + x2 + x1 + 1")
    a, b = factor(f), factor(f)
    assert a.unit == b.unit
    assert [(p.sort_key(), m) for p, m in a.parts] == \
        [(p.sort_key(), m) for p, m in b.parts]
