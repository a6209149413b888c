"""Sparse polynomial arithmetic, line restriction, the monic transform,
sparse division, and the text grammar."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sparsefact.errors import (ShapeMismatch, ZeroPolynomial, ZeroDegree,
                               EmptyVector, ParseError,
                               NoFactorizationFound, CtxMismatch)
from sparsefact.factorizer import factor
from sparsefact.field import make_field
from sparsefact.polytope import sparsity_cap
from sparsefact.resultant import resultant_at_point
from sparsefact.sparsepoly import (SparsePoly, Factorization, parse_poly,
                                   format_poly, make_monic, sparse_divide,
                                   phi_score, restrict_to_line, project_y,
                                   normalize_scalar, lift_poly, retract_poly)
from sparsefact.unifactor import UniPoly
from tests_oracle import ref_restrict, ref_value, ref_projection

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
        assert ref_value(ft, [F7.zero(), F7.zero()]) == ref_value(f, a)
        assert ref_value(ft, [F7.zero(), F7.one()]) == ref_value(f, b)


@pytest.mark.parametrize("p,ell", [(2, 1), (7, 1), (101, 1), (3, 2), (2, 3)])
def test_restrict_to_line_matches_reference(p, ell):
    ctx = make_field(p, ell)
    rng = random.Random(p + ell)
    for _ in range(30):
        n = rng.randint(1, 3)
        f = rand_poly(ctx, n + rng.randint(0, 1), 3, rng.randint(0, 6), rng)
        a = [ctx.from_index(rng.randrange(ctx.q)) for _ in range(n)]
        b = list(a) if rng.random() < 0.2 else \
            [ctx.from_index(rng.randrange(ctx.q)) for _ in range(n)]
        assert restrict_to_line(f, a, b) == ref_restrict(f, a, b)


@pytest.mark.parametrize("p,ell", [(2, 1), (7, 1), (101, 1), (3, 2), (2, 3)])
def test_line_t0_row_is_projection_and_value(p, ell):
    # project_y and evaluate are restrictions to the line that stays at a
    # point: every line through a has the same t^0 row, and the value is
    # the reference's, for zero coordinates, constants and f without y
    ctx = make_field(p, ell)
    rng = random.Random(10 * p + ell)
    for k in range(40):
        n = rng.randint(1, 3)
        maxdeg = 0 if k % 4 == 0 else 3  # every fourth f is a constant
        f = rand_poly(ctx, n + 1, maxdeg, rng.randint(0, 6), rng)
        if k % 3 == 0:  # no y
            f = SparsePoly(ctx, n + 1, {e[:n] + (0,): c
                                        for e, c in f.terms.items()})
        a = [ctx.zero() if rng.random() < 0.3 else
             ctx.from_index(rng.randrange(ctx.q)) for _ in range(n)]
        b = [ctx.from_index(rng.randrange(ctx.q)) for _ in range(n)]
        fa = project_y(f, a)
        assert fa == ref_projection(f, a)
        ft = restrict_to_line(f, a, b)
        assert fa == UniPoly(ctx, [ft.terms.get((j, 0), ctx.zero())
                                   for j in range(f.degree(n) + 1)])
        point = a + [ctx.from_index(rng.randrange(ctx.q))]
        assert f.evaluate(point) == ref_value(f, point)


def test_high_degree_point_projection_and_line():
    # x-degrees past the interpreter's recursion limit: a line that stays at
    # a point costs one power per variable, a moving one is built by a loop
    f = P("x1^2000*y + x2^2500 + x1 + 3")
    a = [F7.elem(3), F7.zero()]
    assert project_y(f, a) == ref_projection(f, a)
    point = a + [F7.elem(5)]
    assert f.evaluate(point) == ref_value(f, point)
    g = P("x1^2000 + 1")
    assert g.evaluate([F7.elem(2)]) == F7.elem(2) ** 2000 + F7.one()
    assert restrict_to_line(g, [F7.zero()], [F7.one()]) == \
        SparsePoly(F7, 2, {(0, 2000): F7.one(), (0, 0): F7.one()})
    h = P("y + x1^2000 + x2")
    assert factor(h).parts == [(h, 1)]


def _point_checks(F7, F11):
    """The exception each point-taking function raises for a point of F_11
    and for int coordinates, over F_7."""
    f = parse_poly("x1*y + x1^2 + 3", F7)
    g, h = parse_poly("y^2 + x1", F7), parse_poly("y + 2*x1", F7)
    calls = {
        "restrict_to_line": lambda a: restrict_to_line(f, a, a),
        "project_y": lambda a: project_y(f, a),
        "evaluate": lambda a: f.evaluate(a + a),
        "resultant_at_point": lambda a: resultant_at_point(g, h, a),
    }
    out = []
    for name, call in calls.items():
        for a in ([F11.elem(3)], [3]):
            try:
                call(a)
                out.append("%s returned" % name)
            except (CtxMismatch, TypeError) as err:
                out.append("%s %s" % (name, type(err).__name__))
    return out


POINT_CHECKS = ["restrict_to_line CtxMismatch", "restrict_to_line TypeError",
                "project_y CtxMismatch", "project_y TypeError",
                "evaluate CtxMismatch", "evaluate TypeError",
                "resultant_at_point CtxMismatch",
                "resultant_at_point TypeError"]


def test_points_from_another_field_raise():
    # the F_11 line through 3 used to restrict x1*y + x1^2 + 3 over F_7 to
    # 2*x1*x2 + 4*x2^2 + 3*x1 + 5*x2 + 5 without a word
    assert _point_checks(F7, make_field(11)) == POINT_CHECKS
    b = [F7.one()]
    with pytest.raises(CtxMismatch):
        restrict_to_line(P("x1*y"), [make_field(11).elem(3)], b)
    with pytest.raises(TypeError):
        restrict_to_line(P("x1*y"), b, [1])


def test_point_checks_survive_optimize_flag(run_optimized):
    import inspect
    lines = [
        "from sparsefact.errors import CtxMismatch",
        "from sparsefact.field import make_field",
        "from sparsefact.resultant import resultant_at_point",
        "from sparsefact.sparsepoly import (parse_poly, restrict_to_line,",
        "                                   project_y)",
    ] + inspect.getsource(_point_checks).splitlines() + [
        "print(_point_checks(make_field(7), make_field(11)))"]
    assert run_optimized(lines) == "False\n%r\n" % POINT_CHECKS


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
    assert sparse_divide(P("x1^2 + 6"), P("x1 + 6")) == P("x1 + 1")
    assert sparse_divide(P("x1", nvars=2), P("x2", nvars=2)) is None


def test_sparse_divide_round_trip_random():
    rng = random.Random(5)
    for _ in range(40):
        f = rand_poly(F7, 2, 2, 3, rng)
        g = rand_poly(F7, 2, 2, 3, rng)
        if f.is_zero() or g.is_zero():
            continue
        assert sparse_divide(f * g, g) == f


def ref_divide(f, g):
    """Leading-term rewriting on FieldElem dicts that rebuilds the remainder
    each step: the quotient, or None when g does not divide f."""
    def lead(d):
        e = max(d, key=lambda e: (sum(e), e))
        return e, d[e]

    ge, gc = lead(g.terms)
    rem, q = dict(f.terms), {}
    while rem:
        e, c = lead(rem)
        qe = tuple(x - y for x, y in zip(e, ge))
        if min(qe) < 0:
            return None
        q[qe] = qc = c / gc
        for ee, cc in g.terms.items():
            k = tuple(x + y for x, y in zip(qe, ee))
            v = rem.get(k, f.ctx.zero()) - qc * cc
            if v.is_zero():
                rem.pop(k, None)
            else:
                rem[k] = v
    return SparsePoly(f.ctx, f.n, q)


@pytest.mark.parametrize("p,ell", [(2, 1), (7, 1), (101, 1), (3, 2)])
def test_sparse_divide_matches_reference(p, ell):
    ctx = make_field(p, ell)
    rng = random.Random(10 * p + ell)
    seen = set()
    for _ in range(40):
        n = rng.randint(1, 3)
        a = rand_poly(ctx, n, 3, rng.randint(1, 6), rng)
        g = rand_poly(ctx, n, 3, rng.randint(1, 6), rng)
        if a.is_zero() or g.is_zero():
            continue
        f = a * g
        for ff in (f, f + rand_poly(ctx, n, 4, 2, rng)):
            want = ref_divide(ff, g)
            assert sparse_divide(ff, g) == want
            seen.add(want is not None)
        assert sparse_divide(f, g) == a
    assert seen == {True, False}


def test_sparse_divide_verifies_by_multiplication(monkeypatch):
    monkeypatch.setattr(SparsePoly, "__mul__",
                        lambda self, other: SparsePoly.zero(self.ctx, self.n))
    with pytest.raises(NoFactorizationFound, match="multiply back"):
        sparse_divide(P("x1^2 + 6"), P("x1 + 6"))


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


def test_assemble_check_survives_optimize_flag(run_optimized):
    # the product check must stay under -O
    assert run_optimized([
        "from sparsefact.errors import NoFactorizationFound",
        "from sparsefact.field import make_field",
        "from sparsefact.sparsepoly import Factorization, parse_poly",
        "F7 = make_field(7)",
        "f = parse_poly('x1^2 + 6', F7)",
        "try:",
        "    Factorization.assemble(f, [(parse_poly('x1 + 1', F7), 2)])",
        "except NoFactorizationFound:",
        "    print('raised')",
    ]) == "False\nraised\n"


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
    with pytest.raises(CtxMismatch):
        lift_poly(lf, make_field(7, 3))  # already over an extension
    with pytest.raises(CtxMismatch):
        lift_poly(f, make_field(5, 2))
    with pytest.raises(CtxMismatch):
        retract_poly(lf, F5)
    with pytest.raises(CtxMismatch):
        retract_poly(lf, ext)


def test_lift_checks_survive_optimize_flag(run_optimized):
    # the subfield check must stay under -O
    assert run_optimized([
        "from sparsefact.errors import CtxMismatch",
        "from sparsefact.field import make_field",
        "from sparsefact.sparsepoly import parse_poly, lift_poly",
        "f = parse_poly('x1 + [0, 1]', make_field(7, 2))",
        "try:",
        "    lift_poly(f, make_field(7, 3))",
        "except CtxMismatch:",
        "    print('raised')",
    ]) == "False\nraised\n"


# -- input checks -------------------------------------------------------------

def test_bad_input_raises():
    x = P("x1 + 1")
    for call in (lambda: x.drop_var(0), x.constant_value, lambda: x ** -1,
                 lambda: phi_score([0, 0]), lambda: sparsity_cap(0, 0, 0)):
        with pytest.raises(ValueError):
            call()


def test_input_checks_survive_optimize_flag(run_optimized):
    # as asserts, these returned 1, 1, -2 and 1 under -O; x ** -1 never
    # returned there, so only the test above calls it
    assert run_optimized([
        "from sparsefact.field import make_field",
        "from sparsefact.polytope import sparsity_cap",
        "from sparsefact.sparsepoly import parse_poly, phi_score",
        "x = parse_poly('x1 + 1', make_field(7))",
        "for call in (lambda: x.drop_var(0), x.constant_value,",
        "             lambda: phi_score([0, 0]),",
        "             lambda: sparsity_cap(0, 0, 0)):",
        "    try:",
        "        print(call())",
        "    except ValueError:",
        "        print('raised')",
    ]) == "False\n" + "raised\n" * 4


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
    F49 = make_field(7, 2)
    for bad in ["", "x0", "x1 +", "+ x1", "x1 ^", "x1 +* 2", "x1 $", "2 3 x1",
                # a second coefficient in a term
                "3*[1,2]", "[1,2]*[3,4]", "[1,2]*3",
                # an empty list entry
                "[1,,2]", "[,1]", "[1,]",
                # an empty factor
                "x1*", "2* + x1"]:
        for ctx in (F7, F49):
            with pytest.raises(ParseError):
                parse_poly(bad, ctx)
    with pytest.raises(ParseError):
        P("x1 + x3", nvars=2)  # an index beyond the declared count


def _render_term(e, c, names, rng):
    """One term of the grammar for exponents e and coefficient c, with
    random spacing, integer coefficients split into factors, repeated
    variables and factors in random order."""
    def sp():
        return rng.choice(["", " ", "  "])
    factors = []
    for name, k in zip(names, e):
        while k:
            part = rng.randint(1, k)
            factors.append(name if part == 1 and rng.random() < 0.5
                           else "%s%s^%s%d" % (name, sp(), sp(), part))
            k -= part
        if rng.random() < 0.1:
            factors.append(name + "^0")
    if c.is_one() and factors and rng.random() < 0.5:
        pass  # the coefficient 1 may go unwritten
    elif any(c.coeffs[1:]) or (c.ctx.ell > 1 and rng.random() < 0.5):
        residues = list(c.coeffs)
        while residues[-1] == 0 and rng.random() < 0.5:
            residues.pop()  # shorter lists are zero-padded
        factors.append("[%s%s%s]" % (sp(), (sp() + "," + sp()).join(
            map(str, residues)), sp()))
    else:  # a prime-field element may be written as integer factors
        v = c.coeffs[0] + c.ctx.p * rng.randint(0, 2)
        a = rng.choice([a for a in range(1, v + 1) if v % a == 0])
        factors += [str(a), str(v // a)] if rng.random() < 0.5 else [str(v)]
    rng.shuffle(factors)
    return (sp() + "*" + sp()).join(factors)


@pytest.mark.parametrize("p,ell", [(7, 1), (7, 2)])
def test_parse_random_renderings(p, ell):
    ctx = make_field(p, ell)
    rng = random.Random(p * 10 + ell)
    for _ in range(150):
        nx, use_y = rng.randint(1, 3), rng.random() < 0.5
        n = nx + use_y
        names = ["x%d" % (i + 1) for i in range(nx)] + ["y"] * use_y
        terms = {}
        for i in range(rng.randint(1, 5)):
            e = [rng.randint(0, 3) for _ in range(n)]
            if use_y and i == 0:
                e[-1] = rng.randint(1, 3)  # y occurs, so it takes a slot
            terms[tuple(e)] = ctx.from_index(rng.randrange(1, ctx.q))
        texts = []
        for e, c in terms.items():
            # a repeated monomial adds its coefficients
            c1 = ctx.from_index(rng.randrange(1, ctx.q))
            split = [c] if c1 == c or rng.random() < 0.7 else [c1, c - c1]
            texts += [_render_term(e, ci, names, rng) for ci in split]
        rng.shuffle(texts)
        text = (rng.choice(["", " "]) + "+" + rng.choice(["", " "])).join(
            texts)
        assert parse_poly(text, ctx, nvars=nx) == SparsePoly(ctx, n, terms)


def test_parse_rejects_overlong_coefficient():
    # a coefficient takes at most ell residues; fewer are zero-padded
    with pytest.raises(ParseError):
        parse_poly("[1, 2, 3]*x1 + 1", make_field(7, 2))
    with pytest.raises(ParseError):
        P("[1, 2]*x1 + [3, 4]")
    ctx = make_field(7, 2)
    assert parse_poly("[3]*x1 + []", ctx).terms == {(1,): ctx.elem((3, 0))}


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
