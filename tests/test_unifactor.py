"""Univariate factorization: squarefree decomposition, Berlekamp splitting,
and irreducibility, with brute-force cross-checks."""

import inspect
import itertools
import random

import pytest

from sparsefact import unifactor
from sparsefact.errors import (DivByZero, ZeroDegree, NoFactorizationFound,
                               CtxMismatch)
from sparsefact.field import make_field, is_prime
from sparsefact.unifactor import (UniPoly, factor_univariate,
                                  squarefree_decompose, is_irreducible,
                                  addmul_logs, monic_root, _pth_root_poly)

F7 = make_field(7)
F5 = make_field(5)


def U(coeffs, ctx=F7):
    return UniPoly(ctx, [ctx.elem(c) for c in coeffs])


def rand_uni(ctx, deg, rng):
    coeffs = [ctx.from_index(rng.randrange(ctx.q)) for _ in range(deg)]
    coeffs.append(ctx.from_index(rng.randrange(1, ctx.q)))
    return UniPoly(ctx, coeffs)


def all_monic(ctx, deg):
    for tail in itertools.product(range(ctx.q), repeat=deg):
        yield UniPoly(ctx, [ctx.from_index(i) for i in tail] + [ctx.one()])


# -- squarefree decomposition -------------------------------------------------

def test_squarefree_decompose_example():
    # (y-1)^2 (y+1) = y^3 - y^2 - y + 1
    f = U([6, 1]) * U([6, 1]) * U([1, 1])
    parts = squarefree_decompose(f)
    assert sorted((p.coeffs[0].serialize(), m) for p, m in parts) == \
        [(1, 1), (6, 2)]


def test_squarefree_pure_pth_power():
    f = U([0, 0, 0, 0, 0, 1], F5)   # y^5 over F_5
    parts = squarefree_decompose(f)
    assert len(parts) == 1
    p, m = parts[0]
    assert m == 5 and p.degree() == 1 and p.coeffs[0].is_zero()


def test_squarefree_identity_case():
    f = U([3, 0, 1])   # squarefree
    parts = squarefree_decompose(f)
    assert len(parts) == 1 and parts[0][1] == 1
    assert parts[0][0] == f


def test_squarefree_reconstruction_random():
    rng = random.Random(0)
    for _ in range(40):
        f = rand_uni(F7, rng.randint(1, 5), rng)
        parts = squarefree_decompose(f)
        prod = UniPoly(F7, [f.lc()])
        for p, m in parts:
            for _ in range(m):
                prod = prod * p
            # parts squarefree and pairwise coprime
            assert p.gcd(p.derivative()).degree() == 0
        for (a, _), (b, _) in itertools.combinations(parts, 2):
            assert a.gcd(b).degree() == 0
        assert prod == f


# -- complete factorization ---------------------------------------------------

def test_factor_roots_of_unity():
    # y^2 + 6 = y^2 - 1 = (y+1)(y+6)
    fac = factor_univariate(U([6, 0, 1]))
    assert fac.unit.is_one()
    got = sorted((p.coeffs[0].serialize(), m) for p, m in fac.parts)
    assert got == [(1, 1), (6, 1)]


def test_factor_irreducible_quadratic():
    # -1 is not a square mod 7
    fac = factor_univariate(U([1, 0, 1]))
    assert len(fac.parts) == 1 and fac.parts[0][1] == 1
    assert fac.parts[0][0] == U([1, 0, 1])
    assert is_irreducible(U([1, 0, 1]))


def test_factor_cube_minus_self():
    fac = factor_univariate(U([0, 6, 0, 1]))   # y^3 - y
    roots = sorted(p.coeffs[0].serialize() for p, _ in fac.parts)
    assert roots == [0, 1, 6] and all(m == 1 for _, m in fac.parts)


def test_unit_is_leading_coefficient():
    fac = factor_univariate(U([3, 5]))
    assert fac.unit.serialize() == 5
    assert all(p.lc().is_one() for p, _ in fac.parts)


def test_remultiplication_random():
    rng = random.Random(1)
    for ctx in (F7, F5, make_field(2, 2), make_field(3, 1)):
        for _ in range(25):
            f = rand_uni(ctx, rng.randint(1, 5), rng)
            assert factor_univariate(f).expand() == f


def test_determinism():
    f = U([2, 3, 0, 1, 1])
    a = factor_univariate(f)
    b = factor_univariate(f)
    assert a.unit == b.unit and a.parts == b.parts


def test_distinct_factor_count_bound():
    rng = random.Random(2)
    for _ in range(30):
        f = rand_uni(F7, rng.randint(1, 5), rng)
        assert len(factor_univariate(f).parts) <= f.degree()


@pytest.mark.parametrize("p,ell", [(2, 1), (3, 1), (5, 1), (7, 1),
                                   (2, 2), (2, 3), (3, 2)])
def test_irreducibility_brute_force(p, ell):
    # factor every monic polynomial of degree <= 3 (4 over tiny fields) and
    # check each part has no monic divisor of smaller positive degree
    ctx = make_field(p, ell)
    maxdeg = 4 if ctx.q <= 3 else 3
    seen_parts = set()
    for deg in range(1, maxdeg + 1):
        for f in all_monic(ctx, deg):
            fac = factor_univariate(f)
            assert fac.expand() == f
            for part, _ in fac.parts:
                key = tuple(c.index() for c in part.coeffs)
                if key in seen_parts:
                    continue
                seen_parts.add(key)
                for dd in range(1, part.degree()):
                    for g in all_monic(ctx, dd):
                        assert not (part % g).is_zero()


def test_is_irreducible_constants_and_linears():
    assert not is_irreducible(U([3]))
    assert is_irreducible(U([2, 1]))
    assert not is_irreducible(U([6, 0, 1]))


# -- int-log kernels against FieldElem schoolbook references ------------------

def _trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def ref_addsub(a, b, ctx, sub=False):
    z = ctx.zero()
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else z
        y = b[i] if i < len(b) else z
        out.append(x - y if sub else x + y)
    return _trim(out)


def ref_mul(a, b, ctx):
    out = [ctx.zero()] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trim(out)


def ref_divmod(a, b, ctx):
    rem = list(a)
    db = len(b) - 1
    inv = b[-1].inverse()
    q = [ctx.zero()] * max(len(a) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv
        q[i - db] = c
        for j in range(db + 1):
            rem[i - db + j] = rem[i - db + j] - c * b[j]
    return _trim(q), _trim(rem)


def ref_evaluate(a, x, ctx):
    acc = ctx.zero()
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_compose(a, b, ctx):
    acc = ()
    for c in reversed(a):
        acc = ref_addsub(ref_mul(acc, b, ctx), (c,), ctx)
    return acc


def oracle_polys(ctx, rng):
    """Coefficient tuples (zero, constants, random, and random with explicit
    trailing zeros) as FieldElem lists."""
    rand = [ctx.from_index(rng.randrange(ctx.q)) for _ in range(40)]
    out = [[], [ctx.zero()], [ctx.one()], [rand[0]], [ctx.zero(), ctx.one()]]
    for _ in range(14):
        deg = rng.randint(0, 6)
        cs = [ctx.from_index(rng.randrange(ctx.q)) for _ in range(deg + 1)]
        if rng.random() < 0.3:
            cs += [ctx.zero()] * rng.randint(1, 2)
        out.append(cs)
    return out


# The 27 fields of test_field.test_tables_match_schoolbook.
ORACLE_FIELDS = ([(p, 1) for p in range(2, 62) if is_prime(p)]
                 + [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                    (5, 2), (7, 2)])


@pytest.mark.parametrize("p,ell", ORACLE_FIELDS)
def test_kernels_match_schoolbook(p, ell):
    ctx = make_field(p, ell)
    rng = random.Random(1000 * p + ell)
    els = list(ctx.elements())
    # constants: every sum, difference and product, so every Zech
    # difference lb - la, negative ones included, is taken
    pairs = (itertools.product(els, els) if ctx.q <= 64 else
             [(rng.choice(els), rng.choice(els)) for _ in range(3000)])
    for x, y in pairs:
        X, Y = UniPoly(ctx, [x]), UniPoly(ctx, [y])
        assert (X + Y).coeffs == _trim([x + y])
        assert (X - Y).coeffs == _trim([x - y])
        assert (X * Y).coeffs == _trim([x * y])
    polys = oracle_polys(ctx, rng)
    for a in polys:
        A = UniPoly(ctx, a)
        ta = _trim(a)
        assert A.coeffs == ta and A.degree() == len(ta) - 1
        assert A.logs == tuple(c.log for c in ta)
        assert A.sort_key() == (len(ta) - 1, tuple(c.index() for c in ta))
        assert A == UniPoly(ctx, ta) and hash(A) == hash(UniPoly(ctx, ta))
        assert (-A).coeffs == _trim([-c for c in ta])
        c = rng.choice(els)
        assert A.scale(c).coeffs == _trim([v * c for v in ta])
        assert A.evaluate(c) == ref_evaluate(ta, c, ctx)
        assert A.shift(c).coeffs == ref_compose(ta, (c, ctx.one()), ctx)
        assert A.derivative().coeffs == _trim(
            [ctx.elem(i) * v for i, v in enumerate(ta)][1:])
        assert A.monic().coeffs == (
            _trim([v * ta[-1].inverse() for v in ta]) if ta else ())
        for b in rng.sample(polys, 6):
            B = UniPoly(ctx, b)
            tb = _trim(b)
            assert (A == B) == (ta == tb)
            assert (A + B).coeffs == ref_addsub(ta, tb, ctx)
            assert (A - B).coeffs == ref_addsub(ta, tb, ctx, sub=True)
            assert (A * B).coeffs == ref_mul(ta, tb, ctx)
            assert A.compose(B).coeffs == ref_compose(ta, tb, ctx)
            for n in range(len(ta) + len(tb)):
                out = addmul_logs(ctx, [ctx.zero_log] * n, A.logs, B.logs)
                assert _trim(ctx.exp[v] for v in out) == _trim(
                    ref_mul(ta, tb, ctx)[:n])
            if not tb:
                with pytest.raises(DivByZero):
                    A.divmod(B)
                continue
            q, r = A.divmod(B)
            assert (q.coeffs, r.coeffs) == ref_divmod(ta, tb, ctx)
            g = A.gcd(B)
            if g.is_zero():
                assert A.is_zero() and B.is_zero()
            else:
                assert g.lc().is_one()
                assert not ref_divmod(ta, g.coeffs, ctx)[1]
                assert not ref_divmod(tb, g.coeffs, ctx)[1]
            g2, s, t = A.xgcd(B)
            assert g2 == g
            assert ref_addsub(ref_mul(s.coeffs, ta, ctx),
                              ref_mul(t.coeffs, tb, ctx), ctx) == g.coeffs
            if len(tb) > 1:
                want = UniPoly(ctx, [ctx.one()])
                for _ in range(5):
                    want = (want * A) % B
                assert A.pow_mod(5, B) == want


# -- roots -------------------------------------------------------------------

ROOT_FIELDS = [(2, 1), (3, 1), (3, 2)]


def _root_exponents(p):
    """An exponent prime to p, p itself, and p^2 * e' with e' prime to p."""
    e1 = 3 if p == 2 else 2
    return [e1, p, p * p * e1]


@pytest.mark.parametrize("p,ell", ROOT_FIELDS)
def test_monic_root_of_powers(p, ell):
    ctx = make_field(p, ell)
    rng = random.Random(p + 10 * ell)
    for e in _root_exponents(p):
        for _ in range(4):
            r = rand_uni(ctx, rng.randint(0, 3), rng).monic()
            assert monic_root(r ** e, e) == r
            assert monic_root(r, 1) == r


@pytest.mark.parametrize("p,ell", ROOT_FIELDS)
def test_monic_root_of_non_powers(p, ell):
    ctx = make_field(p, ell)
    a, b = UniPoly.x(ctx), UniPoly(ctx, [ctx.one(), ctx.one()])
    for e in _root_exponents(p):
        e1 = e  # the part of e prime to p
        while e1 % p == 0:
            e1 //= p
        # a^(e-1) * b is no e-th power, by unique factorization
        cases = [a ** (e - 1) * b, UniPoly(ctx)]
        if e1 > 1:  # a p-power whose p-power root is no e1-th power
            cases.append((a ** (e1 - 1) * b) ** (e // e1))
        if p > 2:  # not monic
            cases.append((a ** e).scale(ctx.elem(2)))
        for f in cases:
            assert monic_root(f, e) is None, (f, e)


def test_pth_root_rejects_non_pth_powers():
    F3 = make_field(3)
    y = UniPoly.x(F3)
    assert _pth_root_poly(y ** 6 + y ** 3 + UniPoly.constant(F3, 2)) == \
        y ** 2 + y + UniPoly.constant(F3, 2)
    for f in (y + UniPoly.constant(F3, 1), y ** 4 + y ** 3):
        with pytest.raises(ValueError):
            _pth_root_poly(f)


# -- checks that must hold under python -O ------------------------------------

def test_constant_input_raises():
    for c in (UniPoly.constant(F7, 3), UniPoly(F7)):
        with pytest.raises(ZeroDegree):
            factor_univariate(c)
        with pytest.raises(ZeroDegree):
            squarefree_decompose(c)


def _overcounting_nullspace(M, ctx, real=unifactor._nullspace):
    """The nullspace basis with its first vector repeated: one factor more
    than the splitting can find."""
    basis = real(M, ctx)
    return basis + basis[:1]


def test_berlekamp_count_check_raises(monkeypatch):
    # x^2 + 1 is irreducible over F_7 and x^2 - 1 splits; with a miscounted
    # nullspace neither may come back as a complete factorization
    monkeypatch.setattr(unifactor, "_nullspace", _overcounting_nullspace)
    for f in (U([1, 0, 1]), U([6, 0, 1])):
        with pytest.raises(NoFactorizationFound):
            factor_univariate(f)


CHECK_LINES = [
    "from sparsefact import unifactor",
    "from sparsefact.errors import ZeroDegree, NoFactorizationFound",
    "from sparsefact.field import make_field",
    "from sparsefact.unifactor import (UniPoly, factor_univariate,",
    "                                  squarefree_decompose)",
    "F = make_field(7)",
    "for fn in (factor_univariate, squarefree_decompose):",
    "    try:",
    "        fn(UniPoly.constant(F, 3))",
    "    except ZeroDegree:",
    "        print('raised')",
    "real = unifactor._nullspace",
    "unifactor._nullspace = lambda M, ctx: real(M, ctx) + real(M, ctx)[:1]",
    "try:",
    "    factor_univariate(UniPoly(F, [F.one(), F.zero(), F.one()]))",
    "except NoFactorizationFound:",
    "    print('raised')",
]


def test_checks_survive_optimize_flag(run_optimized):
    assert run_optimized(CHECK_LINES) == "False\nraised\nraised\nraised\n"


def test_scalar_and_point_from_another_field_raise():
    # over F_7, (y + 1).scale(3 of F_11) used to return 2*y + 2 and
    # (y + 1).evaluate(3 of F_11) returned 3
    three = make_field(11).elem(3)
    for call in (U([1, 1]).scale, U([1, 1]).evaluate):
        with pytest.raises(CtxMismatch):
            call(three)
    assert U([1, 1]).scale(make_field(7).elem(3)) == U([3, 3])
    assert U([1, 1]).evaluate(F7.elem(3)) == F7.elem(4)


def _scalar_checks(name):
    """The exceptions that one scalar-taking call over F_7 raises for an
    element of F_11 and for an int."""
    from sparsefact.errors import CtxMismatch
    from sparsefact.field import make_field
    from sparsefact.unifactor import UniPoly
    F = make_field(7)
    y1 = UniPoly(F, [F.one(), F.one()])
    calls = {"UniPoly": lambda c: UniPoly(F, [F.one(), c]),
             "evaluate": y1.evaluate, "scale": y1.scale, "shift": y1.shift}
    out = []
    for c in (make_field(11).elem(3), 3):
        try:
            calls[name](c)
            out.append("returned")
        except (CtxMismatch, TypeError) as err:
            out.append(type(err).__name__)
    return out


@pytest.mark.parametrize("name", ["UniPoly", "evaluate", "scale", "shift"])
def test_int_scalars_raise_type_error(name, run_optimized):
    # an int used to die with AttributeError: 'int' object has no
    # attribute 'ctx'; the checks must hold under python -O too
    want = ["CtxMismatch", "TypeError"]
    assert _scalar_checks(name) == want
    lines = inspect.getsource(_scalar_checks).splitlines()
    assert run_optimized(lines + ["print(_scalar_checks(%r))" % name]) == \
        "False\n%r\n" % want


def test_field_checks_survive_optimize_flag(run_optimized):
    assert run_optimized([
        "from sparsefact.errors import CtxMismatch",
        "from sparsefact.field import make_field",
        "from sparsefact.unifactor import UniPoly",
        "F7, three = make_field(7), make_field(11).elem(3)",
        "y1 = UniPoly(F7, [F7.one(), F7.one()])",
        "for call in (y1.scale, y1.evaluate):",
        "    try:",
        "        print(call(three))",
        "    except CtxMismatch:",
        "        print('raised')",
    ]) == "False\nraised\nraised\n"
