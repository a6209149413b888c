"""Deterministic complete factorization of bivariate polynomials over F_q.

factor() is the only entry: it hands `factor_bivariate` a polynomial in
(y, t), y = index 0 and t = index 1, in which both occur and whose monomial
content is 1, and canonicalizes the factors it returns (unsorted, unit one)
with Factorization.assemble, which re-verifies them.  The pipeline:

  content in y  ->  univariate factoring of the content;
  primitive part -> separable squarefree part via gcd with the y-derivative,
  monicized, projected at the first good t0, factored there, Hensel-lifted to
  precision 2*deg_t+1, and recombined by subset search (smallest subsets
  first, lexicographic tie-break); multiplicities recovered by exact trial
  division; the char-p leftover (all y-exponents divisible by p) is handled
  by the z = y^p substitution and recursion.  The search for t0 walks F_q,
  then its extensions (field.extensions), smallest first; over an extension,
  recombination admits only the candidates that retract to F_q.

Representation.  Inside the pipeline a polynomial is a y-list: one UniPoly
in t per y-degree, y-degree 0 first, trailing zero rows trimmed.
`factor_bivariate` converts its SparsePoly input once and converts the
factors back once at the end; the other SparsePoly conversions are at the
public wrappers (`bi_gcd`, `hensel_lift`, `project_t`) and on the
extension route, which lifts and retracts on SparsePoly.  Every exact
division in F_q[t][y] (the gcd quotient, the multiplicity loop,
recombination's trial division) is `_ylist_div`.

Everything is exact and order-deterministic.
"""

import itertools

from .errors import (NotCoprime, FieldTooSmall, ZeroPolynomial,
                     NoFactorizationFound)
from .field import extensions
from .sparsepoly import SparsePoly, Factorization, lift_poly, retract_poly
from .unifactor import (UniPoly, factor_univariate, addmul_logs,
                        _pth_root_poly)


# -- representation shuttling -------------------------------------------------

def to_ylist(f):
    """SparsePoly in (y,t) -> list of UniPoly-in-t coefficients by y-degree."""
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


def project_t(f, t0):
    """f(y, t0) as a UniPoly in y."""
    return UniPoly(f.ctx, [u.evaluate(t0) for u in to_ylist(f)])


def _ylist_deg_y(ylist):
    d = len(ylist) - 1
    while d >= 0 and ylist[d].is_zero():
        d -= 1
    return d


def _ylist_deg_t(ylist):
    return max((u.degree() for u in ylist if not u.is_zero()), default=-1)


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


def bi_gcd(f, g):
    """gcd of two bivariate polynomials (canonical: primitive in y, monic
    leading coefficients), via the primitive pseudo-remainder sequence."""
    return from_ylist(f.ctx, _ylist_gcd(to_ylist(f), to_ylist(g), f.ctx))


# -- Hensel lifting -----------------------------------------------------------

def _pair_lift(F, g0, h0, prec, ctx):
    """Lift f(y,0) = g0*h0 (coprime, monic) to G*H == F mod t^prec.

    F is a y-list truncated mod t^prec, monic in y.  Returns (G, H)."""
    d, s, u = g0.xgcd(h0)
    if d.degree() != 0:
        raise NotCoprime("seed factors share a root")
    red, zech, zl = ctx.reduce, ctx.zech, ctx.zero_log
    # G[a][r]: log of the t^r coefficient of G's y^a coefficient (H alike);
    # step m fills column m
    G = [[v] + [zl] * (prec - 1) for v in g0.logs]
    H = [[v] + [zl] * (prec - 1) for v in h0.logs]
    width = max(len(F), len(G) + len(H) - 1)
    for m in range(1, prec):
        # e = the t^m coefficient of F - G*H, a polynomial in y
        prod = [zl] * width
        for a, Ga in enumerate(G):
            for b, Hb in enumerate(H):
                acc = prod[a + b]
                for r in range(m + 1):
                    x, y = Ga[r], Hb[m - r]
                    if x == zl or y == zl:
                        continue
                    t = x + y
                    acc = red[t] if acc == zl else red[acc + zech[t - acc]]
                prod[a + b] = acc
        e = (UniPoly.from_logs(ctx, [row.logs[m] if m < len(row.logs) else zl
                                     for row in F])
             - UniPoly.from_logs(ctx, prod))
        if e.is_zero():
            continue
        dG = (u * e) % g0
        num = e - dG * h0
        dH, r = num.divmod(g0)
        if not r.is_zero():
            raise NoFactorizationFound("Hensel step leaves a remainder")
        for j, v in enumerate(dG.logs):
            G[j][m] = v
        for j, v in enumerate(dH.logs):
            H[j][m] = v
    return ([UniPoly.from_logs(ctx, row) for row in G],
            [UniPoly.from_logs(ctx, row) for row in H])


def hensel_lift(f, g0, h0, t0, precision):
    """Public two-factor lift around t = t0.

    f must be monic in y with f(y, t0) = g0 * h0, g0 and h0 monic and coprime.
    Returns (G, H) as bivariate polynomials with G*H == f mod (t-t0)^precision,
    G == g0 and H == h0 mod (t-t0).
    """
    ctx = f.ctx
    if (g0 * h0) != project_t(f, t0):
        raise NotCoprime("seed product does not match the projection")
    shifted = [u.shift(t0) for u in to_ylist(f)]  # t -> t + t0
    Ft = [UniPoly.from_logs(ctx, u.logs[:precision]) for u in shifted]
    G, H = _pair_lift(Ft, g0, h0, precision, ctx)
    Gp = from_ylist(ctx, [u.shift(-t0) for u in G])
    Hp = from_ylist(ctx, [u.shift(-t0) for u in H])
    return Gp, Hp


def _lift_list(F, seeds, prec, ctx):
    """Multifactor lift: seeds are pairwise-coprime monic polynomials with
    prod(seeds) = F(y,0); returns lifted y-lists, one per seed."""
    if len(seeds) == 1:
        return [F]
    g0 = seeds[0]
    h0 = UniPoly.constant(ctx, 1)
    for s in seeds[1:]:
        h0 = h0 * s
    G, H = _pair_lift(F, g0, h0, prec, ctx)
    return [G] + _lift_list(H, seeds[1:], prec, ctx)


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
        if len(remaining) == 1:
            factors.append(current)
            break
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
        if _ylist_deg_y(current) == 0:
            break
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
    seeds = [g for g, _ in factor_univariate(
        UniPoly(field, [u[0] for u in shifted])).parts]
    seeds.sort(key=UniPoly.sort_key)
    if len(seeds) == 1:
        return [Shat]
    # any true factor has t-degree at most deg_t(S), so lifting one
    # coefficient past that recovers it exactly
    prec = max(_ylist_deg_t(shifted), 0) + 1
    Ft = [UniPoly.from_logs(field, u.logs[:prec]) for u in shifted]
    lifted = _lift_list(Ft, seeds, prec, field)
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
    (deg_y >= 1); S equals a scalar times their product."""
    k = _ylist_deg_y(S)
    if k == 1:
        return [S]
    lc = S[k]
    if lc.degree() == 0:
        shat = [u.scale(lc.lc().inverse()) for u in S]
        monic_case = True
    else:
        # one-variable monicizing transform: y^k + sum s_j lc^(k-1-j) y^j
        shat = [UniPoly(ctx) for _ in range(k + 1)]
        shat[k] = UniPoly.constant(ctx, 1)
        power = UniPoly.constant(ctx, 1)
        for j in range(k - 1, -1, -1):
            shat[j] = S[j] * power
            if j > 0:
                power = power * lc
        monic_case = False
    hat_factors = _hat_factors(shat, ctx)
    if monic_case:
        return hat_factors
    out = []
    for H in hat_factors:
        # undo the transform: substitute y -> lc*y, strip the t-content
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
