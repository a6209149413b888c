"""Bivariate factorization in (y, t): Hensel lifting, recombination, the
char-p substitution path, and the extension-field route.  factor() is the
only entry to the bivariate engine, so the tests factor through it, and
call the kernels the engines share (to_ylist, _lift_list, _ylist_gcd)
directly."""

import itertools
import json
import os
import random

import pytest

from sparsefact import bifactor
from sparsefact.errors import (NotCoprime, NoFactorizationFound,
                               ZeroPolynomial, FieldTooSmall, ShapeMismatch)
from sparsefact.field import make_field
from sparsefact.sparsepoly import (SparsePoly, Factorization, sparse_divide,
                                   parse_poly, format_poly)
from sparsefact.unifactor import UniPoly, factor_univariate, is_irreducible
from sparsefact.bifactor import to_ylist, from_ylist
from sparsefact.factorizer import factor
from tests_oracle import pair_lift_by_division

F7 = make_field(7)
F2 = make_field(2)
F3 = make_field(3)

# variable order: y at index 0, t at index 1


def B(terms, ctx=F7):
    """Build a bivariate polynomial from {(ey, et): int-or-tuple} data."""
    return SparsePoly(ctx, 2, {e: ctx.elem(c) for e, c in terms.items()})


def U(coeffs, ctx=F7):
    return UniPoly(ctx, [ctx.elem(c) for c in coeffs])


def rand_bi(ctx, maxdeg, nterms, rng):
    terms = {}
    for _ in range(nterms):
        e = (rng.randint(0, maxdeg), rng.randint(0, maxdeg))
        c = ctx.from_index(rng.randrange(ctx.q))
        if not c.is_zero():
            terms[e] = c
    return SparsePoly(ctx, 2, terms)


# -- representation ----------------------------------------------------------

def test_to_ylist_needs_two_variables():
    # rows by y-degree, each a polynomial in t; a polynomial in three
    # variables or one is not in (y, t)
    f = B({(2, 0): 1, (0, 2): 6, (0, 0): 3})  # y^2 - t^2 + 3
    assert to_ylist(f) == [U([3, 0, 6]), U([]), U([1])]
    assert from_ylist(F7, to_ylist(f)) == f
    for other in (parse_poly("x1^2 + 6*x2^2 + x3", F7),
                  parse_poly("x1^2 + 6", F7)):
        with pytest.raises(ShapeMismatch):
            to_ylist(other)


# -- Hensel lifting -----------------------------------------------------------

def lift_at(f, seeds, t0, prec):
    """The lifts of seeds, pairwise-coprime monic factors of f(y, t0) for a
    y-monic f, to G_i with prod G_i == f mod (t - t0)^prec: _lift_list on
    the rows of f shifted by t -> t + t0, shifted back."""
    ctx = f.ctx
    shifted = [u.shift(t0) for u in to_ylist(f)]
    lifted = bifactor._lift_list(shifted, bifactor._lift_plan(seeds, ctx),
                                 prec, ctx)
    return [from_ylist(ctx, [u.shift(-t0) for u in G]) for G in lifted]


def test_hensel_recovers_exact_factors():
    # f = y^2 - t^2, seeds at t0 = 1: g0 = y - 1, h0 = y + 1
    f = B({(2, 0): 1, (0, 2): 6})
    G, H = lift_at(f, [U([6, 1]), U([1, 1])], F7.elem(1), 3)
    y_minus_t = B({(1, 0): 1, (0, 1): 6})
    y_plus_t = B({(1, 0): 1, (0, 1): 1})
    assert {G, H} == {y_minus_t, y_plus_t}


def test_hensel_precision_one_is_identity():
    f = B({(2, 0): 1, (0, 2): 6})
    G, H = lift_at(f, [U([6, 1]), U([1, 1])], F7.elem(1), 1)
    assert G == B({(1, 0): 1, (0, 0): 6})
    assert H == B({(1, 0): 1, (0, 0): 1})


def test_hensel_rejects_shared_seed():
    # equal seeds are never coprime
    f = B({(2, 0): 1, (0, 2): 6})
    with pytest.raises(NotCoprime):
        lift_at(f, [U([6, 1]), U([6, 1])], F7.elem(1), 3)


def test_hensel_congruence_random():
    rng = random.Random(0)
    for _ in range(15):
        # f = (y + a(t)) * (y + b(t)) with distinct constant terms at t0=0
        a0, b0 = rng.sample(range(7), 2)
        a = B({(1, 0): 1, (0, 0): a0, (0, rng.randint(1, 2)): rng.randint(0, 6)})
        b = B({(1, 0): 1, (0, 0): b0, (0, rng.randint(1, 2)): rng.randint(0, 6)})
        f = a * b
        prec = f.degree(1) + 1
        G, H = lift_at(f, [U([a0, 1]), U([b0, 1])], F7.zero(), prec)
        # full precision: the lift is the exact factorization
        assert {G, H} == {a, b}


def test_hensel_rejects_terms_above_the_seeds_degree():
    # f = t*y^3 + y^2 - 1 is not monic in y: a step's correction has a y^3
    # term that no lift of the seeds y - 1 and y + 1 can carry
    f = B({(3, 1): 1, (2, 0): 1, (0, 0): 6})
    with pytest.raises(NoFactorizationFound):
        lift_at(f, [U([6, 1]), U([1, 1])], F7.zero(), 3)


def _seeded_line(ctx, rng):
    """(F, seeds): 2-4 pairwise-coprime monic seeds, one of them a square
    or a cube of an irreducible, and a y-monic F(y, t) with F(y, 0) their
    product and random t-terms of lower y-degree."""
    irreducibles, k = [], rng.randint(2, 4)
    while len(irreducibles) < k:
        g = UniPoly(ctx, [ctx.from_index(rng.randrange(ctx.q))
                          for _ in range(rng.randint(1, 2))] + [ctx.one()])
        if is_irreducible(g) and g not in irreducibles:
            irreducibles.append(g)
    seeds = [g ** rng.randint(2, 3) if i == 0 else g ** rng.randint(1, 2)
             for i, g in enumerate(irreducibles)]
    rng.shuffle(seeds)
    F0 = UniPoly.constant(ctx, 1)
    for s in seeds:
        F0 = F0 * s
    rows = [[c] + [ctx.from_index(rng.randrange(ctx.q))
                   for _ in range(rng.randint(0, 4))] for c in F0.coeffs]
    rows[-1] = [ctx.one()]
    return [UniPoly(ctx, row) for row in rows], seeds


@pytest.mark.parametrize("p,ell", [(7, 1), (101, 1), (3, 2)])
def test_lift_list_matches_division_steps(p, ell):
    # the lift plan's table-driven steps give what a step that divides by
    # the seed afresh gives, split by split, at every precision; the lift
    # reads only the columns below the precision, so rows that go past it
    # lift the same
    ctx = make_field(p, ell)
    rng = random.Random(p * 10 + ell)
    for _ in range(12):
        F, seeds = _seeded_line(ctx, rng)
        prec = rng.randint(1, 6)
        Ft = [UniPoly.from_logs(ctx, u.logs[:prec]) for u in F]
        want, rest = [], Ft
        for i in range(len(seeds) - 1):
            h0 = UniPoly.constant(ctx, 1)
            for s in seeds[i + 1:]:
                h0 = h0 * s
            G, rest = pair_lift_by_division(rest, seeds[i], h0, prec, ctx)
            want.append(G)
        want.append(rest)
        plan = bifactor._lift_plan(seeds, ctx)
        assert bifactor._lift_list(Ft, plan, prec, ctx) == want
        assert bifactor._lift_list(F, plan, prec, ctx) == want


# Building a lift plan checks coprimality and the Bezout cofactor's exact
# division with raises, not asserts; a wrong cofactor (patched in) must
# trip the second check.
PLAN_CHECK_LINES = [
    "from sparsefact.bifactor import _lift_plan",
    "from sparsefact.errors import NotCoprime, NoFactorizationFound",
    "from sparsefact.field import make_field",
    "from sparsefact.unifactor import UniPoly",
    "F = make_field(7)",
    "g, h = UniPoly(F, (F.elem(6), F.one())), UniPoly(F, (F.one(), F.one()))",
    "try:",
    "    _lift_plan([g, g], F)",
    "except NotCoprime:",
    "    print('NotCoprime')",
    "one, zero = UniPoly.constant(F, 1), UniPoly(F)",
    "UniPoly.xgcd = lambda a, b: (one, zero, zero)",
    "try:",
    "    _lift_plan([g, h], F)",
    "except NoFactorizationFound:",
    "    print('NoFactorizationFound')",
]


def test_lift_plan_checks_survive_optimize_flag(run_optimized):
    assert run_optimized(PLAN_CHECK_LINES) == (
        "False\nNotCoprime\nNoFactorizationFound\n")


# -- complete bivariate factorization -----------------------------------------

def canon(fac):
    return sorted((p.sort_key(), m) for p, m in fac.parts)


def test_difference_of_squares_splits():
    f = B({(2, 0): 1, (0, 2): 6})
    fac = factor(f)
    assert fac.expand() == f
    assert sorted(m for _, m in fac.parts) == [1, 1]
    from sparsefact.sparsepoly import normalize_scalar
    got = {normalize_scalar(p)[0] for p, _ in fac.parts}
    want = {normalize_scalar(B({(1, 0): 1, (0, 1): 6}))[0],
            normalize_scalar(B({(1, 0): 1, (0, 1): 1}))[0]}
    assert got == want
    # a constant leading coefficient c != 1: 3*(y + 6t)*(y + t) takes the
    # monicizing transform, whose factors come back as scalar multiples
    g, h = B({(1, 0): 1, (0, 1): 6}), B({(1, 0): 1, (0, 1): 1})
    f = (g * h).scale(3)
    want = Factorization.assemble(f, [(g, 1), (h, 1)])
    fac = factor(f)
    assert fac.unit == want.unit and fac.parts == want.parts


def test_y_squared_minus_t_irreducible():
    f = B({(2, 0): 1, (0, 1): 6})
    fac = factor(f)
    assert len(fac.parts) == 1 and fac.parts[0][1] == 1


def test_content_extraction():
    # (y - t)^2 * t
    ymt = B({(1, 0): 1, (0, 1): 6})
    f = ymt * ymt * B({(0, 1): 1})
    fac = factor(f)
    assert fac.expand() == f
    mults = sorted(m for _, m in fac.parts)
    assert mults == [1, 2]
    assert any(p == B({(0, 1): 1}) and m == 1 for p, m in fac.parts)


def test_degenerate_t_free_matches_unifactor():
    # y^3 - y as a bivariate polynomial
    f = B({(3, 0): 1, (1, 0): 6})
    fac = factor(f)
    uf = factor_univariate(U([0, 6, 0, 1]))
    assert len(fac.parts) == len(uf.parts) == 3
    assert fac.expand() == f


def test_remultiplication_random():
    rng = random.Random(1)
    for ctx in (F7, F3, make_field(2, 2)):
        for _ in range(20):
            f = rand_bi(ctx, 2, 4, rng)
            if f.is_zero():
                continue
            fac = factor(f)
            assert fac.expand() == f


def test_char_p_inseparable_path():
    # f = y^2 - t^2 = (y - t)^2 over F_2: derivative in y vanishes
    f = B({(2, 0): 1, (0, 2): 1}, F2)
    fac = factor(f)
    assert fac.expand() == f
    assert len(fac.parts) == 1 and fac.parts[0][1] == 2
    assert fac.parts[0][0] == B({(1, 0): 1, (0, 1): 1}, F2)


def test_extension_fallback_over_f2():
    # f = y^2 + (t^2 + t) y = y (y + t^2 + t); every projection to F_2 is
    # the non-squarefree y^2, forcing the extension-field route
    g = B({(1, 0): 1}, F2)
    h = B({(1, 0): 1, (0, 2): 1, (0, 1): 1}, F2)
    f = g * h
    fac = factor(f)
    assert fac.expand() == f
    assert {p for p, _ in fac.parts} == {g, h}


@pytest.mark.parametrize("ctx", [F2, F3], ids=["F2", "F3"])
def test_lifted_fallback_products_factor_blockwise(ctx, monkeypatch):
    # over F_2 and F_3 many products have no squarefree projection point and
    # are factored over an extension; their factors must still be the union
    # of the blocks' own factorizations, all over the base field
    calls = {"lifted": 0}
    lift_poly = bifactor.lift_poly

    def counted(*args):
        calls["lifted"] += 1
        return lift_poly(*args)

    monkeypatch.setattr(bifactor, "lift_poly", counted)
    rng = random.Random(ctx.p)
    lifted_products = 0
    for _ in range(100):
        blocks = []
        for _ in range(rng.randint(2, 3)):
            b = rand_bi(ctx, 2, 4, rng)
            if not b.is_zero() and not b.is_constant():
                blocks.append((b, rng.randint(1, 2)))
        f = SparsePoly.constant(ctx, 2, 1)
        for b, e in blocks:
            f = f * b ** e
        want = Factorization.assemble(f, [
            (h, m * e) for b, e in blocks for h, m in factor(b).parts])
        before = calls["lifted"]
        got = factor(f)
        lifted_products += calls["lifted"] > before
        assert got.unit == want.unit and got.parts == want.parts
        assert all(h.ctx is ctx for h, _ in got.parts)
    assert lifted_products >= 1


# Seeded products of two or three random bivariate blocks over F_2, F_3,
# F_4, F_8, F_9 and F_13, each with the canonical factor() output or the
# exception, as produced by the code that had a separate public bivariate
# entry and a separate extension-field fallback.  Over F_2 and F_3 twelve
# of them take the extension route; five over F_4 and F_9, which have no
# extension, raise FieldTooSmall.
GOLDEN = os.path.join(os.path.dirname(__file__), "bivariate_golden.json")


def test_bivariate_golden_corpus(monkeypatch):
    lifts = {"n": 0}
    lift_poly = bifactor.lift_poly

    def counted(*args):
        lifts["n"] += 1
        return lift_poly(*args)

    monkeypatch.setattr(bifactor, "lift_poly", counted)
    with open(GOLDEN) as fh:
        corpus = json.load(fh)
    assert len(corpus) == 60
    lifted = raised = 0
    for p, ell, text, want in corpus:
        f = parse_poly(text, make_field(p, ell))
        assert f.n == 2 and format_poly(f) == text
        before = lifts["n"]
        try:
            got = repr(factor(f))
        except FieldTooSmall as err:
            got = "FieldTooSmall: %s" % err
            raised += 1
        assert got == want, text
        lifted += lifts["n"] > before
    assert (lifted, raised) == (12, 5)


# The squarefree splitter made to return y + t + 3, which does not divide
# y^2 + t: the multiplicity loop finds it zero times, which must raise
# rather than report a factor of multiplicity 0, also under python -O.
NONDIVISOR_LINES = [
    "from sparsefact import bifactor",
    "from sparsefact.errors import NoFactorizationFound",
    "from sparsefact.factorizer import factor",
    "from sparsefact.field import make_field",
    "from sparsefact.sparsepoly import SparsePoly",
    "F = make_field(7)",
    "f = SparsePoly(F, 2, {(2, 0): F.one(), (0, 1): F.one()})",
    "h = SparsePoly(F, 2, {(1, 0): F.one(), (0, 1): F.one(),"
    "                      (0, 0): F.elem(3)})",
    "bifactor._factor_sqfree_primitive = lambda S, ctx: [bifactor.to_ylist(h)]",
    "try:",
    "    factor(f)",
    "except NoFactorizationFound:",
    "    print('raised')",
]


def test_nondivisor_squarefree_factor_raises(monkeypatch):
    f = B({(2, 0): 1, (0, 1): 1})
    assert factor(f).parts == [(f, 1)]
    h = B({(1, 0): 1, (0, 1): 1, (0, 0): 3})
    monkeypatch.setattr(bifactor, "_factor_sqfree_primitive",
                        lambda S, ctx: [bifactor.to_ylist(h)])
    with pytest.raises(NoFactorizationFound):
        factor(f)


def test_nondivisor_check_survives_optimize_flag(run_optimized):
    assert run_optimized(NONDIVISOR_LINES) == "False\nraised\n"


def test_zero_input_raises():
    with pytest.raises(ZeroPolynomial):
        factor(SparsePoly.zero(F7, 2))


def test_zero_input_check_survives_optimize_flag(run_optimized):
    assert run_optimized([
        "from sparsefact.factorizer import factor",
        "from sparsefact.errors import ZeroPolynomial",
        "from sparsefact.field import make_field",
        "from sparsefact.sparsepoly import SparsePoly",
        "try:",
        "    factor(SparsePoly.zero(make_field(7), 2))",
        "except ZeroPolynomial:",
        "    print('raised')",
    ]) == "False\nraised\n"


# -- exact division on y-lists ------------------------------------------------

def test_ylist_div_matches_sparse_divide():
    # sparse_divide is the oracle: the same quotient, or None on the same
    # pairs.  Divisors range over y-degrees 0..2 with leading
    # coefficients that often depend on t; dividends are multiples, random
    # polynomials (mostly non-multiples) and multiples plus a perturbation.
    rng = random.Random(4)
    seen = {"divides": 0, "rejects": 0, "lc_in_t": 0, "deg_above": 0}
    for ctx in (F2, F3, F7, make_field(3, 2)):
        for _ in range(60):
            g = rand_bi(ctx, 2, rng.randint(1, 4), rng)
            if g.is_zero():
                continue
            kind = rng.randrange(3)
            if kind == 0:
                f = g * rand_bi(ctx, 2, rng.randint(0, 3), rng)
            elif kind == 1:
                f = rand_bi(ctx, 3, rng.randint(1, 5), rng)
            else:
                f = g * rand_bi(ctx, 2, 2, rng) + rand_bi(ctx, 1, 1, rng)
            got = bifactor._ylist_div(bifactor.to_ylist(f),
                                      bifactor.to_ylist(g))
            want = sparse_divide(f, g)
            if want is None:
                assert got is None, (f, g)
                seen["rejects"] += 1
            else:
                assert got is not None, (f, g)
                assert bifactor.from_ylist(ctx, got) == want, (f, g)
                seen["divides"] += 1
            if g.lead_and_degrees(0)[0].degree(1) > 0:
                seen["lc_in_t"] += 1
            if g.degree(0) > f.degree(0):
                seen["deg_above"] += 1
    assert min(seen.values()) >= 20, seen


def test_factor_count_bound():
    rng = random.Random(2)
    for _ in range(20):
        f = rand_bi(F7, 2, 4, rng)
        if f.is_zero() or f.degree(0) == 0:
            continue
        fac = factor(f)
        ycount = sum(m for p, m in fac.parts if p.degree(0) > 0)
        assert ycount <= f.degree(0)


def test_irreducibility_exhaustive_divisor_check():
    # every reported factor of small random products admits no nontrivial
    # divisor among low-degree monic-in-y candidates
    rng = random.Random(3)
    checked = 0
    for _ in range(10):
        f = rand_bi(F3, 2, 3, rng)
        if f.is_zero() or f.degree(0) * f.degree(1) > 6 or f.degree(0) == 0:
            continue
        fac = factor(f)
        assert fac.expand() == f
        for p, _ in fac.parts:
            if p.degree(0) == 0 or p.degree(0) * max(p.degree(1), 1) > 6:
                continue
            checked += 1
            assert _no_nontrivial_divisor(p)
    assert checked >= 3


def _no_nontrivial_divisor(p):
    ctx = p.ctx
    dy, dt = p.degree(0), p.degree(1)
    exps = [(ey, et) for ey in range(dy + 1) for et in range(dt + 1)]
    for de in range(1, dy):
        head = (de, 0)
        lows = [e for e in exps if e[0] < de]
        for assign in itertools.product(range(ctx.q), repeat=len(lows)):
            terms = {head: ctx.one()}
            for e, ci in zip(lows, assign):
                c = ctx.from_index(ci)
                if not c.is_zero():
                    terms[e] = c
            g = SparsePoly(ctx, 2, terms)
            if _divides(g, p):
                return False
    return True


def _divides(g, f):
    return sparse_divide(f, g) is not None


def test_bi_gcd_examples():
    # the engine's bivariate gcd, _ylist_gcd: primitive in y, with a monic
    # leading coefficient
    def gcd(f, g):
        return from_ylist(F7, bifactor._ylist_gcd(to_ylist(f), to_ylist(g),
                                                  F7))

    a = B({(1, 0): 1, (0, 1): 6})      # y - t
    b = B({(1, 0): 1, (0, 1): 1})      # y + t
    f = a * b
    g = a * B({(1, 0): 1, (0, 0): 3})
    got = gcd(f, g)
    assert got == a
    assert _divides(got, f) and _divides(got, g)
    coprime = gcd(b, B({(1, 0): 1, (0, 0): 5}))
    assert coprime.degree(0) == 0 and coprime.degree(1) == 0
