"""The multivariate factoring pipeline: black-box factor evaluation, sparse
reconstruction, the monic driver, and the general driver."""

import itertools
import random
import tracemalloc

import pytest

from sparsefact import bifactor, factorizer
from sparsefact.errors import (GuessInvalid, FieldTooSmall,
                               ZeroPolynomial, NoFactorizationFound,
                               NotMonic, ShapeMismatch)
from sparsefact.field import make_field
from sparsefact.sparsepoly import (SparsePoly, Factorization, parse_poly,
                                   normalize_scalar, project_y, phi_score,
                                   lift_poly)
from sparsefact.unifactor import UniPoly, factor_univariate
from sparsefact.bifactor import factor_bivariate
from sparsefact.factorizer import (factor, factor_monic,
                                   blackbox_eval, verify_factorization,
                                   _Anchor, _full_grid, _enumerate_guesses,
                                   _interp_grid)
from tests_oracle import (enumerate_guesses_unbounded,
                          blackbox_eval_by_line_factors, ref_projection)

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


def counted(calls, name, fn):
    """fn, adding one to calls[name] on every call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def guess_of(at, parts):
    """The guess at the anchor record at whose blocks hold the pieces of
    parts, a list of (UniPoly pieces, exponent) pairs."""
    gs = [g for g, _ in at.factors]
    return tuple((tuple(sorted(gs.index(g) for g in pieces)), e)
                 for pieces, e in parts)


# two singleton blocks of exponent 1: y^2 - x1^2 at x1 = 1 splits that way
SPLIT = (((0,), 1), ((1,), 1))


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
    # blocks; at b = (3) the true factors evaluate to y-3 and y+3
    f = P("y^2 + 6*x1^2")
    got = blackbox_eval(_Anchor(f, (F7.one(),)), SPLIT, (F7.elem(3),))
    assert sorted(tuple(c.serialize() for c in h.coeffs) for h in got) == \
        [(3, 1), (4, 1)]   # y+3 and y+4 = y-3


def test_blackbox_endpoint_at_anchor():
    f = P("y^2 + 6*x1^2")
    got = blackbox_eval(_Anchor(f, (F7.one(),)), SPLIT, (F7.one(),))
    assert sorted(tuple(c.serialize() for c in h.coeffs) for h in got) == \
        [(1, 1), (6, 1)]


def test_blackbox_products_multiply_to_projection():
    rng = random.Random(0)
    f = P("y^2 + 6*x1^2")
    at = _Anchor(f, (F7.one(),))
    for _ in range(5):
        b = (F7.elem(rng.randrange(7)),)
        hs = blackbox_eval(at, SPLIT, b)
        prod = UniPoly.constant(F7, 1)
        for h, (_, e) in zip(hs, SPLIT):
            for _ in range(e):
                prod = prod * h
        assert prod == ref_projection(f, b)


def test_blackbox_ambiguity_partition():
    # f = y(y^2 - x1): at x1 = 1 the pieces are y, y-1, y+1 and the
    # grouping {y}, {y-1, y+1} is a consistent guess
    f = P("y^3 + 6*x1*y")
    at = _Anchor(f, (F7.one(),))
    guess = guess_of(at, [([U([0, 1])], 1), ([U([6, 1]), U([1, 1])], 1)])
    got = blackbox_eval(at, guess, (F7.elem(2),))
    degs = sorted(h.degree() for h in got)
    assert degs == [1, 2]
    # wrong grouping mixing the pieces differently must be rejected for
    # some evaluation point or verified not to reconstruct f; here a
    # one-block guess with a bad multiplicity raises
    bad = (((0, 1, 2), 2),)
    with pytest.raises(GuessInvalid):
        blackbox_eval(at, bad, (F7.elem(2),))


def test_blackbox_rejects_inconsistent_guesses():
    cases = [
        # y^2 - x1 is irreducible: the lifts of y - 1 and y + 1 are series,
        # whose t-degrees add up to more than the line's
        ("y^2 + 6*x1", F7.one(), SPLIT),
        # y^2 - x1^2 projects to y^2 at x1 = 0, but is no square
        ("y^2 + 6*x1^2", F7.zero(), (((0,), 2),)),
    ]
    for text, a, guess in cases:
        with pytest.raises(GuessInvalid):
            blackbox_eval(_Anchor(P(text), (a,)), guess, (F7.elem(2),))


def _rand_y_monic(ctx, rng):
    """y^k + sum_j c_j(x1, x2) y^j, k = 1 or 2, c_j of degree <= 1 in each
    x-variable."""
    k = rng.randint(1, 2)
    terms = {(0, 0, k): ctx.one()}
    for _ in range(rng.randint(1, 3)):
        e = (rng.randint(0, 1), rng.randint(0, 1), rng.randrange(k))
        terms[e] = ctx.from_index(rng.randrange(1, ctx.q))
    return SparsePoly(ctx, 3, terms)


@pytest.mark.parametrize("p,ell", [(7, 1), (3, 2)])
def test_blackbox_matches_line_factorization(p, ell):
    # valid guesses: f = h1^e1 * h2^e2 with coprime anchor projections, each
    # block the univariate factors of one h_i; the seeded Hensel lift must
    # give what a complete factorization of every line gives
    ctx = make_field(p, ell)
    rng = random.Random(100 * p + ell)
    compared = 0
    for case in range(25):
        if ell == 2 and case % 5 == 0:
            exps = (3, 1)  # a multiplicity divisible by p
        else:
            exps = (rng.randint(1, 2), rng.randint(1, 2))
        while True:
            hs = [_rand_y_monic(ctx, rng) for _ in exps]
            anchor = tuple(ctx.from_index(rng.randrange(ctx.q))
                           for _ in range(2))
            pieces = [factor_univariate(project_y(h, list(anchor))).parts
                      for h in hs]
            if not {g for g, _ in pieces[0]} & {g for g, _ in pieces[1]}:
                break
        f = SparsePoly.constant(ctx, 3, 1)
        for h, e in zip(hs, exps):
            for _ in range(e):
                f = f * h
        at = _Anchor(f, anchor)
        guess = guess_of(at, [([g for g, _ in ps], e)
                              for ps, e in zip(pieces, exps)])
        for _ in range(3):
            b = tuple(ctx.from_index(rng.randrange(ctx.q)) for _ in range(2))
            try:
                want = blackbox_eval_by_line_factors(f, anchor, at.factors,
                                                     guess, b)
            except FieldTooSmall:
                continue  # the reference needs a squarefree projection point
            assert blackbox_eval(at, guess, b) == want
            compared += 1
    assert compared >= 60


# -- guess enumeration --------------------------------------------------------

# (coefficients, multiplicity) of distinct irreducibles over F_7; y^2 + 1 is
# irreducible since -1 is not a square mod 7
GUESS_PATTERNS = {
    "1": [([1, 1], 1)],
    "2": [([1, 1], 2)],
    "4": [([1, 1], 4)],
    "1,1": [([1, 1], 1), ([2, 1], 1)],
    "2,1": [([1, 1], 2), ([2, 1], 1)],
    "3,1": [([1, 1], 3), ([2, 1], 1)],
    "2,2": [([1, 1], 2), ([2, 1], 2)],
    "1,1,1": [([1, 1], 1), ([2, 1], 1), ([3, 1], 1)],
    "2,1,1": [([1, 1], 2), ([2, 1], 1), ([3, 1], 1)],
    "quadratic^2,1": [([1, 0, 1], 2), ([1, 1], 1)],
    "4,3": [([1, 1], 4), ([2, 1], 3)],
    "4,2,1": [([1, 1], 4), ([2, 1], 2), ([3, 1], 1)],
    "6": [([1, 1], 6)],
    "2,2,2": [([1, 1], 2), ([2, 1], 2), ([3, 1], 2)],
}


def pattern(name):
    return [(U(c), u) for c, u in GUESS_PATTERNS[name]]


def covering_guesses(uni):
    """Every guess covering the pieces uni, split or not.  A part's exponent
    times its count of some g is at most u_g, so exponents up to the largest
    u_g find them all."""
    return list(enumerate_guesses_unbounded(uni, max(u for _, u in uni)))


def as_parts(uni, guess):
    """A guess at the pieces uni as (parts, exps): each block's part holds
    each of its g u_g/e times."""
    return ([[uni[j][0] for j in block for _ in range(uni[j][1] // e)]
             for block, e in guess], [e for _, e in guess])


def guess_key(parts, exps):
    """Order-insensitive signature of a guess."""
    return sorted((sorted(g.sort_key() for g in part), e)
                  for part, e in zip(parts, exps))


def splits_a_piece(parts):
    return any(sum(g in part for part in parts) > 1
               for part in parts for g in part)


@pytest.mark.parametrize("name", sorted(GUESS_PATTERNS))
def test_enumerate_guesses_matches_unbounded(name):
    # blackbox_eval relies on the shape of a guess and checks none of it:
    # the blocks partition the factor indices, each nonempty and ascending,
    # and each block's exponent divides all its multiplicities.  The
    # guesses are exactly the covering ones that keep each piece in one
    # part, each once
    uni = pattern(name)
    us = [u for _, u in uni]
    guesses = list(_enumerate_guesses(us))
    for guess in guesses:
        blocks = [block for block, _ in guess]
        assert all(block and list(block) == sorted(block) for block in blocks)
        assert sorted(j for block in blocks for j in block) == \
            list(range(len(us)))
        assert all(us[j] % e == 0 for block, e in guess for j in block)
    want = sorted(guess_key(parts, exps) for parts, exps in
                  covering_guesses(uni) if not splits_a_piece(parts))
    assert want and sorted(guess_key(*as_parts(uni, guess))
                           for guess in guesses) == want


@pytest.mark.parametrize("name", sorted(GUESS_PATTERNS))
def test_blackbox_check_matches_enumeration(name):
    # f in y alone restricts to its projection on every line, so no line
    # can refuse a guess there: every enumerated guess passes
    uni = pattern(name)
    f, fa = SparsePoly.constant(F7, 2, 1), UniPoly.constant(F7, 1)
    for g, u in uni:
        piece = SparsePoly(F7, 2, {(0, i): c for i, c in enumerate(g.coeffs)
                                   if not c.is_zero()})
        for _ in range(u):
            f, fa = f * piece, fa * g
    anchor, b = (F7.elem(2),), (F7.elem(5),)
    at = _Anchor(f, anchor)
    assert at.projection == fa
    assert at.factors == sorted(uni, key=lambda gu: gu[0].sort_key())
    for guess in _enumerate_guesses([u for _, u in at.factors]):
        assert len(blackbox_eval(at, guess, b)) == len(guess)


@pytest.mark.parametrize("name", sorted(GUESS_PATTERNS))
def test_score_bound_is_largest_covering_score(name):
    # the driver's completeness certificate, the score of the projection's
    # multiplicities, must bound every covering guess, split ones included
    uni = pattern(name)
    assert phi_score(u for _, u in uni) == max(
        phi_score(exps) for _, exps in covering_guesses(uni))


def test_enumerate_guesses_six_simple_factors():
    # only the whole set covers, one part per block of a set partition with
    # exponent 1: Bell(6) = 203 guesses
    guesses = list(_enumerate_guesses([1] * 6))
    assert len(guesses) == 203
    assert all(e == 1 for guess in guesses for _, e in guess)


# -- sparse reconstruction ----------------------------------------------------

def interpolate(fs, degs):
    """The polynomials fs, all in len(degs) variables over one field,
    recovered by _interp_grid as one vector from their values on the grid
    whose axis i holds the first degs[i] + 1 elements of the field."""
    ctx = fs[0].ctx
    axes = [list(itertools.islice(ctx.elements(), d + 1)) for d in degs]
    values = {b: [f.evaluate(list(b)).log for f in fs]
              for b in itertools.product(*axes)}
    coeffs = _interp_grid(ctx, axes, values)
    assert all(len(vec) == len(fs) for vec in coeffs.values())
    return [SparsePoly(ctx, len(degs), {e: vec[i]
                                        for e, vec in coeffs.items()})
            for i in range(len(fs))]


def test_reconstruct_example():
    target = P("x1*x2 + 3")
    assert interpolate([target], (1, 1)) == [target]


def test_reconstruct_zero():
    # exponents whose coefficients are all zero are left out
    zero = SparsePoly(F7, 2, {})
    assert _interp_grid(F7, [[F7.zero()], [F7.zero()]], {
        (F7.zero(), F7.zero()): [F7.zero_log, F7.zero_log]}) == {}
    assert interpolate([zero], (2, 2)) == [zero]
    assert interpolate([zero, P("x1 + x2")], (2, 2)) == [zero, P("x1 + x2")]


def test_reconstruct_random_round_trip():
    # one polynomial at a time and the vector of all of them at once
    rng = random.Random(1)
    fs = []
    for _ in range(15):
        terms = {}
        for _ in range(4):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            c = F7.elem(rng.randrange(7))
            if not c.is_zero():
                terms[e] = c
        f = SparsePoly(F7, 2, terms)
        assert interpolate([f], (2, 2)) == [f]
        fs.append(f)
    assert interpolate(fs, (2, 2)) == fs


@pytest.mark.parametrize("p,ell", [(7, 1), (3, 2)])
def test_reconstruct_per_axis_degrees_round_trip(p, ell):
    # a degree-0 axis between two others, over a prime and an extension field
    ctx = make_field(p, ell)
    elems = list(ctx.elements())
    rng = random.Random(p + ell)
    for _ in range(10):
        density = rng.random()
        f = SparsePoly(ctx, 3, {(a, 0, c): rng.choice(elems)
                                for a in range(3) for c in range(4)
                                if rng.random() < density})
        assert interpolate([f], (2, 0, 3)) == [f]


# -- verification -------------------------------------------------------------

def test_verify_true_and_false():
    f = P("x1^2 + 6")
    good = Factorization(F7.one(), [(P("x1 + 1"), 1), (P("x1 + 6"), 1)])
    assert verify_factorization(f, good)
    bad = Factorization(F7.elem(2), [(P("x1 + 1"), 1), (P("x1 + 6"), 1)])
    assert not verify_factorization(f, bad)


def test_verify_constant_in_no_variables():
    # a factorization with no parts expands in the n it is given, n = 0
    # included; it used to expand in one variable and so differ from c
    c = SparsePoly.constant(F7, 0, 5)
    assert verify_factorization(c, Factorization(F7.elem(5), []))
    assert not verify_factorization(c, Factorization(F7.elem(4), []))
    assert Factorization(F7.elem(5), []).expand(F7, 0) == c


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


def test_certified_anchor_enumerates_no_guesses(monkeypatch):
    # y^2 + 1 is irreducible over F_7, so the first anchor's score bound 1
    # certifies the trivial candidate before any guess is enumerated
    calls = {"enumerate": 0}
    monkeypatch.setattr(factorizer, "_enumerate_guesses", counted(
        calls, "enumerate", factorizer._enumerate_guesses))
    f = P("y^2 + x1")
    assert factor_monic(f).parts == [(f, 1)]
    assert calls["enumerate"] == 0


def test_factor_monic_repeated_root():
    f = P("y + 6*x1") * P("y + 6*x1")
    fac = factor_monic(f)
    assert verify_factorization(f, fac)
    assert len(fac.parts) == 1 and fac.parts[0][1] == 2
    assert multiset(fac) == [(normalize_scalar(P("y + 6*x1"))[0].sort_key(), 2)]


def test_factor_monic_rejects_bad_input():
    with pytest.raises(ShapeMismatch):
        factor_monic(P("y^2 + 6"))  # y is the only variable
    with pytest.raises(NotMonic):
        factor_monic(P("2*y^2 + x1"))
    fac = factor_monic(P("y^2 + 6", nvars=1))
    assert multiset(fac) == multiset(Factorization(F7.one(), [
        (P("y + 1", nvars=1), 1), (P("y + 6", nvars=1), 1)]))


# The driver's input checks run under python -O.
CHECK_LINES = [
    "from sparsefact.errors import NotMonic, ShapeMismatch",
    "from sparsefact.field import make_field",
    "from sparsefact.sparsepoly import parse_poly",
    "from sparsefact.factorizer import factor_monic",
    "F = make_field(7)",
    "calls = [lambda: factor_monic(parse_poly('y^2 + 6', F)),",
    "         lambda: factor_monic(parse_poly('2*y^2 + x1', F))]",
    "for call in calls:",
    "    try:",
    "        call()",
    "    except (NotMonic, ShapeMismatch) as e:",
    "        print(type(e).__name__)",
]


def test_driver_checks_survive_optimize_flag(run_optimized):
    assert run_optimized(CHECK_LINES) == (
        "False\nShapeMismatch\nNotMonic\n")


def test_one_interpolation_per_guess(monkeypatch):
    # every part and y-coefficient of a guess comes from a single
    # interpolation; a guess that blackbox_eval rejects needs none
    calls = {"guess": 0, "interp": 0}
    monkeypatch.setattr(factorizer, "_reconstruct_candidate", counted(
        calls, "guess", factorizer._reconstruct_candidate))
    monkeypatch.setattr(factorizer, "_interp_grid", counted(
        calls, "interp", factorizer._interp_grid))
    g = P("y^2 + x1*x2*y + 3*x1 + 1", nvars=2)
    h = P("y + 2*x2 + 5", nvars=2)
    fac = factor_monic(g * h)
    assert multiset(fac) == multiset(Factorization(F7.one(), [(g, 1), (h, 1)]))
    assert 0 < calls["interp"] <= calls["guess"]


def factor_monic_products():
    """The monic driver on y-monic g * h over F_7, and over F_3, where it
    lifts to F_3^2."""
    for ctx, g, h in [
            (F7, "y^2 + x1*x2*y + 3*x1 + 1", "y + 2*x2 + 5"),
            (make_field(3), "y + x1^3*x2 + 1", "y^2 + x1*x2*y + x2^2 + x1")]:
        g, h = P(g, ctx, nvars=3), P(h, ctx, nvars=3)
        fac = factor_monic(g * h)
        assert multiset(fac) == multiset(
            Factorization(ctx.one(), [(g, 1), (h, 1)]))


def test_driver_never_factors_bivariates(monkeypatch):
    # the monic driver evaluates factors by lifting the anchor's univariate
    # factorization along each line, on the prime-field and the lifted path
    calls = {"bivariate": 0, "lift": 0}
    wrapped = counted(calls, "bivariate", factor_bivariate)
    monkeypatch.setattr(factorizer, "factor_bivariate", wrapped)
    monkeypatch.setattr(bifactor, "factor_bivariate", wrapped)
    monkeypatch.setattr(factorizer, "lift_poly", counted(
        calls, "lift", factorizer.lift_poly))
    factor_monic_products()
    assert calls == {"bivariate": 0, "lift": 1}


def test_one_projection_per_anchor(monkeypatch):
    # blackbox_eval takes f(anchor, y) and its factors from the driver's
    # record of the anchor, which projects and factors once
    calls = {"anchor": 0, "projection": 0, "factorization": 0}
    full_grid = factorizer._full_grid

    def counted_grid(ctx, n):
        for anchor in full_grid(ctx, n):
            calls["anchor"] += 1
            yield anchor

    monkeypatch.setattr(factorizer, "_full_grid", counted_grid)
    monkeypatch.setattr(factorizer, "project_y", counted(
        calls, "projection", project_y))
    monkeypatch.setattr(factorizer, "factor_univariate", counted(
        calls, "factorization", factor_univariate))
    factor_monic_products()
    assert calls["anchor"] >= 2
    assert calls["projection"] == calls["factorization"] == calls["anchor"]


def test_one_bezout_cofactor_per_anchor_split(monkeypatch):
    # every line through an anchor has the same fibre at t = 0, so the lift
    # plan, and with it each split's xgcd, is made once per anchor, not
    # once per grid point
    calls = {"xgcd": 0, "eval": 0}
    anchors = set()
    evaluate, xgcd = factorizer.blackbox_eval, UniPoly.xgcd
    lifting = []  # nonempty inside blackbox_eval, not in the line's factoring

    def blackbox(at, guess, b):
        calls["eval"] += 1
        anchors.add(at.anchor)
        lifting.append(b)
        try:
            return evaluate(at, guess, b)
        finally:
            lifting.pop()

    def lift_xgcd(*args):
        calls["xgcd"] += bool(lifting)
        return xgcd(*args)

    monkeypatch.setattr(factorizer, "blackbox_eval", blackbox)
    monkeypatch.setattr(UniPoly, "xgcd", lift_xgcd)
    g = P("y^3 + x1*x2^2 + 3", nvars=2)
    h = P("y^2 + x2*y + x1^2 + 4", nvars=2)
    f = g * h
    fac = factor_monic(f)
    assert multiset(fac) == multiset(Factorization(F7.one(), [(g, 1), (h, 1)]))
    splits = sum(len(factor_univariate(project_y(f, list(a))).parts) - 1
                 for a in anchors)
    assert len(anchors) == 1 and splits == 2
    assert calls == {"xgcd": splits, "eval": 18}


def test_blackbox_shared_cache_matches_fresh_cache():
    # one anchor record shared by every guess and point of the anchor gives
    # what a fresh record gives, call by call, in either order of guesses
    f = P("y^3 + 6*x1*y")
    y0, y1, y6 = U([0, 1]), U([1, 1]), U([6, 1])
    # the second guess has the first one's blocks and an exponent 2 that
    # divides no multiplicity, so its value is a square only where y^2 - x1
    # is one; the third fails on the lines' t-degrees
    guesses = [guess_of(_Anchor(f, (F7.one(),)), parts)
               for parts in [[([y0], 1), ([y6, y1], 1)],
                             [([y0], 1), ([y6, y1], 2)],
                             [([y0], 1), ([y6], 1), ([y1], 1)],
                             [([y0, y6, y1], 1)]]]
    points = [(F7.elem(v),) for v in range(7)]
    for order in (guesses, guesses[::-1]):
        at = _Anchor(f, (F7.one(),))
        for guess in order:
            for b in points:
                try:
                    want = blackbox_eval(_Anchor(f, (F7.one(),)), guess, b)
                except GuessInvalid:
                    with pytest.raises(GuessInvalid):
                        blackbox_eval(at, guess, b)
                    continue
                assert blackbox_eval(at, guess, b) == want


def test_blackbox_invalid_guess_raises_on_every_call():
    # an invalid guess leaves nothing in the anchor record: every later call
    # with the same record raises again, for a valid guess before it or
    # after it.  Both bad guesses take an exponent 2 that divides no
    # multiplicity: y^2 - b^2 and y +- b are no squares for b != 0
    f = P("y^2 + 6*x1^2")
    bads = [(((0, 1), 2),), (((0,), 1), ((1,), 2))]
    at = _Anchor(f, (F7.one(),))
    for b in [(F7.elem(v),) for v in (2, 3, 2, 5)]:
        for bad in bads:
            with pytest.raises(GuessInvalid):
                blackbox_eval(at, bad, b)
        assert len(blackbox_eval(at, SPLIT, b)) == 2


def test_factor_monic_lift_path():
    # reconstruction needs more points than F_7 has; the driver must lift
    # internally and still return base-field factors
    g = P("y + x1^4*x2")
    h = P("y + 3*x1^3", nvars=2)
    f = g * h
    fac = factor_monic(f)
    assert verify_factorization(f, fac)
    assert multiset(fac) == multiset(Factorization(F7.one(), [(g, 1), (h, 1)]))


def test_factor_monic_lift_skips_unretractable_candidate(monkeypatch):
    # over F_49, (z*g)(h/z) multiplies to f = g*h but is no factorization
    # over F_7: the lifted driver must pass over it and still find g, h
    g = P("y + x1^4*x2")
    h = P("y + 3*x1^3", nvars=2)
    F49 = make_field(7, 2)
    reconstruct = factorizer._reconstruct_candidate
    offered = []

    def unretractable_first(at, guess, grid_axes):
        cand = reconstruct(at, guess, grid_axes)
        if offered or cand is None or len(cand.parts) != 2:
            return cand
        z = F49.elem((0, 1))
        (a, e), (b, k) = cand.parts
        cand = Factorization(F49.one(), [(a.scale(z), e),
                                         (b.scale(z.inverse()), k)])
        offered.append(cand)
        return cand

    monkeypatch.setattr(factorizer, "_reconstruct_candidate",
                        unretractable_first)
    fac = factor_monic(g * h)
    assert len(offered) == 1
    assert verify_factorization(lift_poly(g * h, F49), offered[0])
    assert all(p.ctx is F7 for p, _ in fac.parts)
    assert multiset(fac) == multiset(Factorization(F7.one(), [(g, 1), (h, 1)]))


# -- anchor grid --------------------------------------------------------------

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
    # F_101^3 has ~1M points; the first anchors must not cost a table of
    # them, nor, over F_65521, a list of the field's elements
    for ctx in (make_field(101), make_field(65521)):
        ctx.one()  # the field's own tables are built before tracing
        tracemalloc.start()
        try:
            first = list(itertools.islice(_full_grid(ctx, 3), 20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(first) == 20 and len(set(first)) == 20
        assert peak < 1 << 20


def test_factor_full_grid_fallback_memory():
    # the driver scans its anchors over F_101^3, a grid of ~1M points
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


# Products of two polynomials over F_101; the expected factors are those of
# the two.
F101_MISSED = [
    (5, "38*x2*x3*x4*x5 + 66*x1*x2*x5 + 72*x1*x3*x5 + 1",
     "23*x1*x2*x3*x4*x5 + 37*x2*x3*x4*x5 + 1"),
    (4, "98*x1*x2*x3*x4 + 52*x1", "49*x1*x3*x4 + 5"),
    (4, "42*x2*x3*x4 + 24*x1", "62*x1*x2*x3*x4 + 79*x3"),
    (3, "17*x1*x2*x3 + 65*x2 + 42", "62*x1*x2*x3 + 96*x2"),
]


@pytest.mark.parametrize("n,a,b", F101_MISSED,
                         ids=["la_lb", "r1", "r2", "r3"])
def test_factor_f101_products_complete(n, a, b):
    F101 = make_field(101)
    ga = parse_poly(a, F101, nvars=n)
    gb = parse_poly(b, F101, nvars=n)
    fac = factor(ga * gb)
    assert fac.expand() == ga * gb
    fa, fb = factor(ga), factor(gb)
    assert multiset(fac) == multiset(
        Factorization(F101.one(), fa.parts + fb.parts))


def limit_anchors(monkeypatch, count=20):
    """Make the monic driver fail once it asks for more than count anchors
    (or line points) of one scan, in place of a long search."""
    full_grid = factorizer._full_grid

    def few_anchors(ctx, n):
        for i, anchor in enumerate(full_grid(ctx, n)):
            if i == count:
                raise AssertionError("no proof in %d anchors" % count)
            yield anchor

    monkeypatch.setattr(factorizer, "_full_grid", few_anchors)


# An irreducible f over F_101 all of whose projections split: its roots are
# +-sqrt(x1) +- sqrt(x2*x3), and at every anchor one of x1, x2*x3 and
# x1*x2*x3 is a square.  So the projections' score bound never comes down
# to f's own, short of all 101^3 anchors; a line through an anchor does.
BIQUADRATIC = ("x4^4 + 99*x1*x4^2 + 99*x2*x3*x4^2 + x1^2 + 99*x1*x2*x3"
               " + x2^2*x3^2")


@pytest.mark.parametrize("cofactor,power", [(None, 1), ("x1 + x4", 1),
                                            (None, 2)],
                         ids=["alone", "times_linear", "squared"])
def test_factor_split_projections_proven(monkeypatch, cofactor, power):
    F101 = make_field(101)
    g = parse_poly(BIQUADRATIC, F101, nvars=4)
    for a in [(1, 1, 1), (2, 3, 5), (7, 0, 4)]:
        split = factor_univariate(project_y(g, [F101.elem(v) for v in a]))
        assert sum(m for _, m in split.parts) > 1
    parts = [(g, power)]
    if cofactor is not None:
        parts.append((parse_poly(cofactor, F101, nvars=4), 1))
    f = Factorization(F101.one(), parts).expand()
    limit_anchors(monkeypatch)
    fac = factor(f)
    assert multiset(fac) == multiset(Factorization(F101.one(), parts))


# Products of random blocks in 3 or 4 variables (seeded fuzzes over F_2,
# F_3, F_5, F_7), each with its prime and its expected number of factors,
# counted with multiplicity; the expected factors are those of the blocks,
# proven within 20 anchors.  "F3_stop_bench" is the F_3 regression member
# of the benchmark's factor-lifted workload.  The monic drivers of the
# "lift" members take their anchors from F_25 and F_49, where the
# projections split further than the factors over F_5 and F_7.
FUZZ_PRODUCTS = {
    "F3": (3, ["2*x1 + x1*x3*x4", "x2*x3*x4 + 2*x1*x4 + 2*x1*x2*x3",
               "x4 + x2*x3*x4 + x1*x2*x3"], 4),
    "F2": (2, ["x3*x4 + x1*x2 + x4", "x1*x3*x4 + x2*x4", "x3 + x3*x4"], 5),
    "F2_stop": (2, ["x2*x3 + x1*x2*x4", "x2*x4 + x2*x3 + x1*x2*x3",
                    "x1*x2*x4 + x1 + x1*x2"], 6),
    "F3_stop": (3, ["x2*x4 + 2*x1*x2", "2*x4 + 2*x1*x2", "x4 + 2*x3"], 4),
    "F3_stop_bench": (3, ["x1*x3*x4 + 2*x1*x2 + 2*x2*x4 + x4",
                          "2*x1*x2*x4 + x1*x4 + x3*x4",
                          "x1*x2*x3*x4 + x1*x2 + x2*x3 + 2"], 4),
    "F5_lift": (5, ["2*x1^2*x2^2*x3^2 + 3*x2*x3^2",
                    "2*x1^2*x3^2 + x2^2*x3", "x1*x2^2*x3^2 + 3*x1*x2^2"], 10),
    "F7_lift": (7, ["6*x1^2*x2*x3 + x1*x2*x3^2 + 3*x2*x3",
                    "3*x2^2 + 3*x3^2", "3*x1^2*x2*x3^2 + 2*x2^2*x3"], 7),
}


def assert_factors_blockwise(p, texts, count):
    ctx = make_field(p)
    blocks = [parse_poly(t, ctx, nvars=4) for t in texts]
    f = blocks[0] * blocks[1] * blocks[2]
    fac = factor(f)
    assert fac.expand() == f
    # assemble merges a factor that two blocks share
    want = Factorization.assemble(f, [part for b in blocks
                                      for part in factor(b).parts])
    assert multiset(fac) == multiset(want)
    assert sum(m for _, m in fac.parts) == count


@pytest.mark.parametrize("name", sorted(FUZZ_PRODUCTS))
def test_factor_fuzz_products_complete(monkeypatch, name):
    limit_anchors(monkeypatch)
    assert_factors_blockwise(*FUZZ_PRODUCTS[name])


# Its monic driver scans all 9 anchors of F_3^2 without reaching the score
# bound that its projections and lines prove, so
# (x1*x3 + 2*x2 + x3)(x3 + 1) comes back as one factor: 4 of
# the 5.  Anchors over F_9 would go on where F_3^2 ends (ROADMAP direction
# 4, step 2); this test passes once they do.
@pytest.mark.xfail(strict=True,
                   reason="the anchor scan ends when F_3^2 is exhausted")
def test_factor_exhausted_scan_complete():
    assert_factors_blockwise(3, ["2*x1*x3 + x2 + 2*x3", "x1*x2 + 2*x1*x3",
                                 "x1*x3 + x1"], 5)


# -- general driver -----------------------------------------------------------

# Leading coefficient x1^2*x2^2 in x3 (k = 2), so the monic transform puts
# one extra copy of it into the monic factors, which the general driver
# strips again; an incomplete factorization of it cannot be stripped.
STRIP_INPUT = "x1^2*x2^2*x3^2 + 3*x1*x2*x3 + 2"
STRIP_LINES = [
    "from sparsefact import factorizer",
    "from sparsefact.errors import NoFactorizationFound",
    "from sparsefact.field import make_field",
    "from sparsefact.sparsepoly import Factorization, parse_poly",
    "f = parse_poly(%r, make_field(7))" % STRIP_INPUT,
    # the leading coefficient reported as one irreducible factor
    "factorizer.factor = lambda g: "
    "Factorization(g.ctx.one(), [(g, 1)])",
    "try:",
    "    factorizer._factor_full(f)",
    "except NoFactorizationFound:",
    "    print('raised')",
]


def test_strip_incomplete_leading_coefficient_raises(monkeypatch):
    f = P(STRIP_INPUT)
    assert multiset(factor(f)) == multiset(Factorization(F7.one(), [
        (P("x1*x2*x3 + 1"), 1), (P("x1*x2*x3 + 2"), 1)]))
    monkeypatch.setattr(factorizer, "factor",
                        lambda g: Factorization(g.ctx.one(), [(g, 1)]))
    with pytest.raises(NoFactorizationFound):
        factorizer._factor_full(f)


def test_strip_check_survives_optimize_flag(run_optimized):
    assert run_optimized(STRIP_LINES) == "False\nraised\n"


def test_factor_finds_factor_denser_than_x_grid():
    # the monic driver's factors live in x1, x2 and y = x3, so the 19-term
    # h has more terms than the (d+1)^2 = 16 points of its x-grid; a
    # sparsity cap over the x-variables alone once rejected h and returned
    # the product as one factor
    F101 = make_field(101)
    a = " + ".join("%d*x1^%d*x2^%d" % (i + 3 * j + 1, i, j)
                   for i in range(3) for j in range(3))
    b = " + ".join("%d*x1^%d*x2^%d" % (2 * i + j + 5, i, j)
                   for i in range(3) for j in range(3))
    x3 = parse_poly("x3", F101)
    h = x3 * x3 + parse_poly(a, F101, nvars=3) * x3 + parse_poly(b, F101,
                                                                 nvars=3)
    g = parse_poly("x3 + 1", F101)
    assert h.sparsity() == 19
    fac = factor(h * g)
    assert fac.expand() == h * g
    assert multiset(fac) == multiset(
        Factorization(F101.one(), [(h, 1), (g, 1)]))


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
    # on an n = 2 input with both variables and monomial content 1, factor()
    # returns the bivariate engine's factors, canonicalized once
    rng = random.Random(2)
    checked = 0
    while checked < 10:
        g = rand_irreducible_ish(F7, 2, rng)
        h = rand_irreducible_ish(F7, 2, rng)
        f = g * h
        if (len(f.present_vars()) < 2
                or any(min(e[i] for e in f.terms) for i in range(2))):
            continue
        a = factor(f)
        b = factor_bivariate(f)
        assert a.expand() == f and b.unit.is_one()
        want = Factorization.assemble(f, b.parts)
        assert (a.unit, a.parts) == (want.unit, want.parts)
        checked += 1


def test_factor_assembles_once_per_factor_call(monkeypatch):
    # the engines return unsorted factors; only factor() canonicalizes: once
    # for an n = 2 input, and once more for the recursive factor() of an
    # n = 3 input's bivariate leading coefficient x1 + x2
    calls = {"assemble": 0}
    assemble = Factorization.assemble.__func__

    def counted_assemble(cls, f, parts):
        calls["assemble"] += 1
        return assemble(cls, f, parts)

    monkeypatch.setattr(Factorization, "assemble",
                        classmethod(counted_assemble))
    for text, want in [("x1^2*x2 + x2^2 + x1 + 3", 1),
                       ("x1^2*x3 + x1*x2*x3 + x1*x3^2 + x2*x3^2 + 2*x1*x3"
                        " + 2*x2*x3 + x1 + x3 + 2", 2)]:
        calls["assemble"] = 0
        f = P(text)
        fac = factor(f)
        assert fac.expand() == f
        assert calls["assemble"] == want, text


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
