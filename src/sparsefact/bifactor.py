"""Deterministic complete factorization of bivariate polynomials over F_q.

factor() is the only entry: it hands `factor_bivariate` a polynomial in
(y, t), y = index 0 and t = index 1, in which both occur and whose monomial
content is 1, and canonicalizes the factors it returns (unsorted, unit one)
with Factorization.assemble, which re-verifies them.  The pipeline:

  content in y  ->  univariate factoring of the content;
  primitive part -> separable squarefree part via gcd with the y-derivative,
  monicized, projected at the first good t0, factored there, Hensel-lifted to
  precision deg_t+1, and recombined by subset search (smallest subsets
  first, lexicographic tie-break); multiplicities recovered by exact trial
  division; the char-p leftover (all y-exponents divisible by p) is handled
  by the z = y^p substitution and recursion.  The search for t0 walks F_q,
  then its extensions (field.extensions), smallest first; over an extension,
  recombination admits only the candidates that retract to F_q.

Representation.  Inside the pipeline a polynomial is a y-list: one UniPoly
in t per y-degree, y-degree 0 first, trailing zero rows trimmed.
`factor_bivariate` converts its SparsePoly input once and converts the
factors back once at the end; the other SparsePoly conversions are on the
extension route, which lifts and retracts on SparsePoly.  Projections at
t = t0 are taken on y-lists (a lift reads the t^0 column of the rows
shifted by t0), never by substituting into a SparsePoly.  Every exact
division in F_q[t][y] (the gcd quotient, the multiplicity loop,
recombination's trial division) is `_ylist_div`.

Hensel lifting.  Every lift, the engine's and the monic driver's along each
line through an anchor (factorizer.blackbox_eval, which multiplies one
block of the lifted seeds), follows a lift plan (`_lift_plan`) of its
seeds, the pairwise-coprime factors of F(y, 0).  For each split
g0 = seeds[i], h0 = prod(seeds[i+1:]) the plan holds the Bezout cofactor's
tables: the correction of a step is linear in [t^m](F - G*H), so
`_pair_lift` applies them on logs, with no xgcd or division per step.  The
plan depends on the seeds alone, so the driver builds it once per anchor
and shares it among all lines there.

Everything is exact and order-deterministic.
"""

import itertools

from .errors import (NotCoprime, FieldTooSmall, ZeroPolynomial,
                     NoFactorizationFound, ShapeMismatch)
from .field import extensions
from .sparsepoly import SparsePoly, Factorization, lift_poly, retract_poly
from .unifactor import (UniPoly, factor_univariate, addmul_logs,
                        _pth_root_poly)


# -- representation shuttling -------------------------------------------------

def to_ylist(f):
    """SparsePoly in (y,t) -> list of UniPoly-in-t coefficients by y-degree;
    ShapeMismatch unless f is bivariate."""
    if f.n != 2:
        raise ShapeMismatch("a bivariate polynomial is needed, got %d "
                            "variables" % f.n)
    ctx = f.ctx
    zl = ctx.zero_log
    dy = max(f.degree(0), 0)
    rows = [[] for _ in range(dy + 1)]
    for (i, j), c in f.terms.items():
        row = rows[i]
        if len(row) <= j:
            row.extend([zl] * (j + 1 - len(row)))
        row[j] = c.log
    return [UniPoly.from_logs(ctx, row) for row in rows]


def from_ylist(ctx, ylist):
    exp, zl = ctx.exp, ctx.zero_log
    terms = {}
    for i, u in enumerate(ylist):
        for j, v in enumerate(u.logs):
            if v != zl:
                terms[(i, j)] = exp[v]
    return SparsePoly(ctx, 2, terms)


def _ylist_deg_y(ylist):
    d = len(ylist) - 1
    while d >= 0 and ylist[d].is_zero():
        d -= 1
    return d


def _ylist_deg_t(ylist):
    return max([len(u.logs) for u in ylist]) - 1 if ylist else -1


def _ylist_mul(A, B, ctx, prec):
    """Multiply coefficient lists, keeping t-degrees below prec."""
    zl = ctx.zero_log
    out = [[zl] * prec for _ in range(len(A) + len(B) - 1)]
    for i, a in enumerate(A):
        if a.logs:
            for j, b in enumerate(B):
                if b.logs:
                    addmul_logs(ctx, out[i + j], a.logs, b.logs)
    return [UniPoly.from_logs(ctx, row) for row in out]


def _ylist_div(A, B):
    """The exact quotient A / B in F_q[t][y], or None when B does not
    divide A.  A quotient row is a leading coefficient divided by lc(B) in
    F_q[t]; a nonzero remainder there, or in the final remainder, certifies
    non-divisibility."""
    da, db = _ylist_deg_y(A), _ylist_deg_y(B)
    if db < 0:
        raise ZeroPolynomial("division by the zero polynomial")
    lcB = B[db]
    rem = list(A[:da + 1])
    q = [UniPoly(lcB.ctx)] * max(da - db + 1, 0)
    for i in range(da, db - 1, -1):
        if rem[i].is_zero():
            continue
        c, r = rem[i].divmod(lcB)
        if not r.is_zero():
            return None
        q[i - db] = c
        for j in range(db):
            rem[i - db + j] = rem[i - db + j] - c * B[j]
    if any(not u.is_zero() for u in rem[:db]):
        return None
    return q


# -- gcd in y over F_q[t] -----------------------------------------------------

def _content(ylist, ctx):
    """Monic gcd of the coefficient polynomials (the content in y)."""
    g = UniPoly(ctx)
    for u in ylist:
        g = g.gcd(u) if not g.is_zero() else u.monic() if not u.is_zero() else g
        if g.degree() == 0:
            break
    return g if not g.is_zero() else UniPoly.constant(ctx, 1)

def _primitive(ylist, ctx):
    cont = _content(ylist, ctx)
    if cont.degree() < 1:
        return UniPoly.constant(ctx, 1), list(ylist)
    return cont, [u // cont for u in ylist]


def _prem(A, B, ctx):
    """Pseudo-remainder of A by B in y (coefficients in F_q[t])."""
    da, db = _ylist_deg_y(A), _ylist_deg_y(B)
    rem = list(A)
    lcB = B[db]
    while True:
        dr = _ylist_deg_y(rem)
        if dr < db:
            break
        lead = rem[dr]
        rem = [u * lcB for u in rem]
        for j in range(db + 1):
            rem[dr - db + j] = rem[dr - db + j] - lead * B[j]
        rem[dr] = UniPoly(ctx)
    while rem and rem[-1].is_zero():
        rem.pop()
    return rem


def _ylist_gcd(A, B, ctx):
    """gcd of two y-lists (canonical: primitive in y, monic leading
    coefficients), via the primitive pseudo-remainder sequence."""
    if _ylist_deg_y(A) < 0:
        return B
    if _ylist_deg_y(B) < 0:
        return A
    contA, a = _primitive(A, ctx)
    contB, b = _primitive(B, ctx)
    cont = contA.gcd(contB)
    if _ylist_deg_y(a) < _ylist_deg_y(b):
        a, b = b, a
    while _ylist_deg_y(b) > 0:
        r = _prem(a, b, ctx)
        if not r:
            a = b
            b = []
            break
        _, r = _primitive(r, ctx)
        a, b = b, r
    if b and _ylist_deg_y(b) == 0:
        # coprime in y; gcd is the content part only
        return [cont]
    _, pa = _primitive(a, ctx)
    # normalize: make the leading y-coefficient monic
    scale = pa[_ylist_deg_y(pa)].lc().inverse()
    return [u.scale(scale) * cont for u in pa]


# -- Hensel lifting -----------------------------------------------------------
#
# A lift keeps each factor as its t-columns: column m lists the logs of the
# t^m coefficient, a polynomial in y.  Column 0 is the seed; for m >= 1 the
# column stops below the seed's degree, since the lifted factor keeps the
# seed's leading coefficient.

def _split_tables(g0, h0, ctx):
    """The tables that solve every Hensel step of the split g0*h0.

    With u the Bezout cofactor of h0 (u*h0 == 1 mod g0) and n = deg g0 +
    deg h0, returns (g0 logs, h0 logs, T), where for k < n the row T[k]
    holds the logs of G_k = (u*y^k) mod g0, padded to deg g0 entries, then
    those of H_k = (y^k - G_k*h0)/g0, padded to deg h0.  A step's
    correction e = sum_k e_k y^k then lifts G by sum_k e_k*G_k and H by
    sum_k e_k*H_k.  Row k+1 comes from row k: with c the y^deg(g0)
    coefficient of y*G_k over lc(g0), G_(k+1) = y*G_k - c*g0 and
    H_(k+1) = y*H_k + c*h0.  Raises NotCoprime when g0 and h0 share a root,
    and NoFactorizationFound when the division that gives H_0 leaves a
    remainder."""
    d, _, u = g0.xgcd(h0)
    if d.degree() != 0:
        raise NotCoprime("seed factors share a root")
    G = u % g0
    H, r = (UniPoly.constant(ctx, 1) - G * h0).divmod(g0)
    if not r.is_zero():
        raise NoFactorizationFound("the Bezout cofactor leaves a remainder")
    dg, dh, zl = g0.degree(), h0.degree(), ctx.zero_log
    y, inv = UniPoly.x(ctx), g0.lc().inverse()
    T = []
    for _ in range(dg + dh):
        T.append(G.logs + (zl,) * (dg - len(G.logs))
                 + H.logs + (zl,) * (dh - len(H.logs)))
        c = G[dg - 1] * inv
        G, H = y * G - g0.scale(c), y * H + h0.scale(c)
    return g0.logs, h0.logs, T


def _lift_plan(seeds, ctx):
    """The lift plan of pairwise-coprime seeds: for each i below the last
    seed, the split g0 = seeds[i], h0 = prod(seeds[i+1:]) with its tables
    (_split_tables).  It depends on the seeds alone, so every line whose
    t = 0 fibre they factor shares it."""
    plan = []
    h0 = seeds[-1]
    for g0 in reversed(seeds[:-1]):
        plan.append(_split_tables(g0, h0, ctx))
        h0 = g0 * h0
    return plan[::-1]


def _pair_lift(Fc, split, prec, ctx):
    """Lift the split g0*h0 of F(y, 0) to G*H == F mod t^prec.

    Fc holds F's t-columns (only columns 1 .. prec-1 are read); F is monic
    in y of degree n = deg g0 + deg h0.  Step m forms, on logs, the
    correction e = [t^m](F - G*H), a polynomial in y: only the columns
    1 .. m-1 of G and H meet in it, as columns m are still zero.  The
    split's tables turn e into G's and H's column m with no division.
    Returns the t-columns of G and H; raises NoFactorizationFound if e has
    a term of y-degree n or more."""
    g0, h0, T = split
    red, zech, zl, m1 = ctx.reduce, ctx.zech, ctx.zero_log, ctx.minus_one_log
    n, dg = len(T), len(g0) - 1
    Gc, Hc = [g0], [h0]
    for m in range(1, prec):
        e = list(Fc[m])
        e.extend([zl] * (n - len(e)))
        for r in range(1, m):
            Hr = Hc[m - r]
            for a, x in enumerate(Gc[r]):
                if x == zl:
                    continue
                x = red[x + m1]
                for k, y in enumerate(Hr, a):
                    if y != zl:
                        t = x + y
                        o = e[k]
                        e[k] = red[t] if o == zl else red[o + zech[t - o]]
        if any(v != zl for v in e[n:]):
            raise NoFactorizationFound("Hensel step exceeds the seeds' degree")
        d = [zl] * n  # G's column m, then H's
        for k in range(n):
            ek = e[k]
            if ek == zl:
                continue
            for j, v in enumerate(T[k]):
                if v != zl:
                    t = ek + v
                    o = d[j]
                    d[j] = red[t] if o == zl else red[o + zech[t - o]]
        Gc.append(d[:dg])
        Hc.append(d[dg:])
    return Gc, Hc


def _rows(cols, ctx):
    """The y-list of a factor given by its t-columns."""
    top = len(cols[0]) - 1
    return ([UniPoly.from_logs(ctx, [c[a] for c in cols]) for a in range(top)]
            + [UniPoly.from_logs(ctx, cols[0][top:])])


def _lift_list(F, plan, prec, ctx):
    """Multifactor lift of F mod t^prec along a lift plan (_lift_plan) of
    pairwise-coprime seeds with prod(seeds) = F(y,0); returns the lifted
    y-lists, one per seed.  Split i lifts seeds[i] and the product of the
    seeds after it out of the previous split's lifted cofactor (F first)."""
    if not plan:
        return [F]
    zl = ctx.zero_log
    Fc = [None] + [[row.logs[m] if m < len(row.logs) else zl for row in F]
                   for m in range(1, prec)]
    out = []
    for split in plan:
        Gc, Fc = _pair_lift(Fc, split, prec, ctx)
        out.append(_rows(Gc, ctx))
    out.append(_rows(Fc, ctx))
    return out


# -- recombination ------------------------------------------------------------

def _recombine(F, lifted, prec, ctx, admit=None):
    """Recover the true monic-in-y irreducible factors of F (exact y-list)
    from the lifted t-adic factors.  Smallest subsets first, lex tie-break.
    When admit is given, a subset's product that divides is taken as a
    factor only if admit(product) holds."""
    factors = []
    remaining = list(range(len(lifted)))
    current = list(F)
    dt_budget = _ylist_deg_t(F)
    while remaining:
        found = None
        for size in range(1, len(remaining) // 2 + 1):
            for combo in itertools.combinations(remaining, size):
                cand = [UniPoly.constant(ctx, 1)]
                for i in combo:
                    cand = _ylist_mul(cand, lifted[i], ctx, prec=prec)
                if _ylist_deg_t(cand) > dt_budget:
                    continue
                q = _ylist_div(current, cand)
                if q is not None and (admit is None or admit(cand)):
                    found = (combo, cand, q)
                    break
            if found:
                break
        if not found:
            factors.append(current)
            break
        combo, cand, q = found
        factors.append(cand)
        current = q
        remaining = [i for i in remaining if i not in combo]
        dt_budget = _ylist_deg_t(current)
    return factors


# -- the driver ---------------------------------------------------------------

def _hat_factors(Shat, ctx):
    """Monic-in-y irreducible factors of a y-monic squarefree separable
    y-list over ctx, via lift-and-recombine at the first point of ctx, or
    else of its smallest extension that has one, whose projection stays
    squarefree.  Over an extension, recombination admits only the factors
    that retract to ctx, and they are returned over ctx."""
    for field in itertools.chain((ctx,), extensions(ctx)):
        S = Shat if field is ctx else to_ylist(
            lift_poly(from_ylist(ctx, Shat), field))
        t0 = next((c for c in field.elements() if _squarefree_at(S, c)), None)
        if t0 is not None:
            break
    else:
        raise FieldTooSmall(message=(
            "no extension of F_%d fits the cap" % ctx.p if ctx.ell == 1 else
            "no squarefree projection point in F_%d^%d" % (ctx.p, ctx.ell)))

    def back(F):
        # a factor of the shifted S, shifted back and, over an extension,
        # retracted (None when it does not retract)
        F = [u.shift(-t0) for u in F]
        if field is ctx:
            return F
        h = retract_poly(from_ylist(field, F), ctx)
        return None if h is None else to_ylist(h)

    shifted = [u.shift(t0) for u in S]
    # factor_univariate gives its parts in sort_key order
    seeds = [g for g, _ in factor_univariate(
        UniPoly(field, [u[0] for u in shifted])).parts]
    if len(seeds) == 1:
        return [Shat]
    # any true factor has t-degree at most deg_t(S), so lifting one
    # coefficient past that recovers it exactly
    prec = _ylist_deg_t(shifted) + 1
    lifted = _lift_list(shifted, _lift_plan(seeds, field), prec, field)
    combined = _recombine(shifted, lifted, prec, field, None if field is ctx
                          else lambda F: back(F) is not None)
    out = [back(F) for F in combined]
    if any(F is None for F in out):
        raise NoFactorizationFound("a factor over %r does not retract to %r"
                                   % (field, ctx))
    return out


def _squarefree_at(S, t0):
    """Is the projection S(y, t0) squarefree?"""
    fe = UniPoly(t0.ctx, [u.evaluate(t0) for u in S])
    return fe.gcd(fe.derivative()).degree() == 0


def _factor_sqfree_primitive(S, ctx):
    """Irreducible factors of a squarefree, separable, y-primitive y-list S
    (deg_y >= 1); S equals a scalar times their product.  For deg_y S = k
    >= 2 the factors of the monicizing transform y^k + sum s_j lc^(k-1-j)
    y^j map back by y -> lc*y and stripping their t-content; a constant
    lc = c gives c^(k-1) S(y/c), whose factors map back to scalar
    multiples of S's."""
    k = _ylist_deg_y(S)
    if k == 1:
        return [S]
    lc = S[k]
    shat = [UniPoly(ctx) for _ in range(k + 1)]
    shat[k] = UniPoly.constant(ctx, 1)
    power = UniPoly.constant(ctx, 1)
    for j in range(k - 1, -1, -1):
        shat[j] = S[j] * power
        if j > 0:
            power = power * lc
    out = []
    for H in _hat_factors(shat, ctx):
        lp = UniPoly.constant(ctx, 1)
        mapped = []
        for u in H:
            mapped.append(u * lp)
            lp = lp * lc
        _, prim = _primitive(mapped, ctx)
        out.append(prim)
    return out


def _factor_primitive(g, ctx):
    """(factor, multiplicity) y-lists for a y-primitive y-list g with
    deg_y >= 1; the product reproduces g up to a scalar."""
    gy = [g[i].scale(ctx.elem(i)) for i in range(1, len(g))]
    while gy and gy[-1].is_zero():
        gy.pop()
    if not gy:
        # all y-exponents divisible by char; substitute z = y^p
        p = ctx.p
        out = []
        for W, m in _factor_primitive(g[::p], ctx):
            if all(w.derivative().is_zero() for w in W):
                # W(y^p) is the p-th power of its row-wise p-th root
                for Z, mm in _factor_primitive(
                        [_pth_root_poly(w) for w in W], ctx):
                    out.append((Z, p * m * mm))
            else:
                U = [UniPoly(ctx)] * (p * (len(W) - 1) + 1)
                U[::p] = W
                out.append((U, m))
        return out
    S = _ylist_div(g, _ylist_gcd(g, gy, ctx))
    if S is None:
        raise NoFactorizationFound("gcd with the y-derivative does not divide")
    out = []
    rem = g
    if _ylist_deg_y(S) >= 1:
        for H in _factor_sqfree_primitive(S, ctx):
            m = 0
            while True:
                q = _ylist_div(rem, H)
                if q is None:
                    break
                rem = q
                m += 1
            if m < 1:
                raise NoFactorizationFound(
                    "a squarefree factor does not divide")
            out.append((H, m))
    if _ylist_deg_y(rem) >= 1:
        out.extend(_factor_primitive(rem, ctx))
    return out


def factor_bivariate(f):
    """Irreducible factors of a polynomial in (y, t) in which both occur and
    whose monomial content is 1, unsorted, with unit one (see above)."""
    ctx = f.ctx
    cont, prim = _primitive(to_ylist(f), ctx)
    parts = ([([g], m) for g, m in factor_univariate(cont).parts]
             if cont.degree() >= 1 else [])
    parts.extend(_factor_primitive(prim, ctx))
    return Factorization(ctx.one(), [(from_ylist(ctx, h), m)
                                     for h, m in parts])
