"""Deterministic complete factorization of bivariate polynomials over F_q.

Polynomials live in (y, t) with y = index 0, t = index 1 (the convention
produced by restricting a y-monic polynomial to a line).  The pipeline:

  content in y  ->  univariate factoring of the content;
  primitive part -> separable squarefree part via gcd with the y-derivative,
  monicized, projected at the first good t0, factored there, Hensel-lifted to
  precision 2*deg_t+1, and recombined by subset search (smallest subsets
  first, lexicographic tie-break); multiplicities recovered by exact trial
  division; the char-p leftover (all y-exponents divisible by p) is handled
  by the z = y^p substitution and recursion.

Everything is exact and order-deterministic; the final record goes through
Factorization.assemble, the toolkit's one canonicalizer, which re-verifies it
by multiplication before it is returned.
"""

import itertools

from .errors import NotCoprime, FieldTooSmall, Reject, ZeroPolynomial
from .field import make_field, MAX_FIELD_SIZE
from .sparsepoly import (SparsePoly, Factorization, sparse_divide,
                         lift_poly, retract_poly)
from .unifactor import UniPoly, factor_univariate

Y, T = 0, 1


# -- representation shuttling -------------------------------------------------

def to_ylist(f):
    """SparsePoly in (y,t) -> list of UniPoly-in-t coefficients by y-degree."""
    ctx = f.ctx
    dy = max(f.degree(Y), 0)
    rows = [[] for _ in range(dy + 1)]
    for (i, j), c in f.terms.items():
        row = rows[i]
        while len(row) <= j:
            row.append(ctx.zero())
        row[j] = c
    return [UniPoly(ctx, row) for row in rows]


def from_ylist(ctx, ylist):
    terms = {}
    for i, u in enumerate(ylist):
        for j, c in enumerate(u.coeffs):
            if not c.is_zero():
                terms[(i, j)] = c
    return SparsePoly(ctx, 2, terms)


def embed_y(u):
    """Univariate in y -> bivariate."""
    return SparsePoly(u.ctx, 2, {(i, 0): c for i, c in enumerate(u.coeffs)
                                 if not c.is_zero()})


def embed_t(u):
    """Univariate in t -> bivariate."""
    return SparsePoly(u.ctx, 2, {(0, j): c for j, c in enumerate(u.coeffs)
                                 if not c.is_zero()})


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


def _ylist_mul(A, B, ctx, prec=None):
    """Multiply coefficient lists; optionally truncate t-degrees below prec."""
    out = [UniPoly(ctx) for _ in range(len(A) + len(B) - 1)]
    for i, a in enumerate(A):
        if a.is_zero():
            continue
        for j, b in enumerate(B):
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b
    if prec is not None:
        out = [UniPoly(ctx, u.coeffs[:prec]) for u in out]
    return out


def _ylist_sub(A, B, ctx):
    n = max(len(A), len(B))
    z = UniPoly(ctx)
    return [(A[i] if i < len(A) else z) - (B[i] if i < len(B) else z)
            for i in range(n)]


def _ylist_divmod_monic(A, B, ctx):
    """Long division in y by a y-monic divisor; coefficients stay polynomial."""
    da, db = _ylist_deg_y(A), _ylist_deg_y(B)
    assert db >= 0 and B[db].degree() == 0 and B[db].lc().is_one()
    rem = list(A) + [UniPoly(ctx)] * 0
    q = [UniPoly(ctx) for _ in range(max(da - db + 1, 0))]
    for i in range(da, db - 1, -1):
        if i >= len(rem) or rem[i].is_zero():
            continue
        c = rem[i]
        q[i - db] = c
        for j in range(db + 1):
            rem[i - db + j] = rem[i - db + j] - c * B[j]
    while rem and rem[-1].is_zero():
        rem.pop()
    return q, rem


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


def bi_gcd(f, g):
    """gcd of two bivariate polynomials (canonical: primitive in y, monic
    leading coefficients), via the primitive pseudo-remainder sequence."""
    ctx = f.ctx
    A, B = to_ylist(f), to_ylist(g)
    if _ylist_deg_y(A) < 0:
        return from_ylist(ctx, B)
    if _ylist_deg_y(B) < 0:
        return from_ylist(ctx, A)
    contA, ppA = _primitive(A, ctx)
    contB, ppB = _primitive(B, ctx)
    cont = _content(A, ctx).gcd(_content(B, ctx))
    a, b = ppA, ppB
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
        result = [cont]
    else:
        _, pa = _primitive(a, ctx)
        # normalize: make the leading y-coefficient monic
        lc = pa[_ylist_deg_y(pa)]
        scale = lc.lc().inverse()
        pa = [u.scale(scale) for u in pa]
        result = [u * cont for u in pa]
    return from_ylist(ctx, result)


def _exact_divide(f, g):
    """Exact quotient or None."""
    try:
        return sparse_divide(f, g)
    except (Reject, ZeroPolynomial):
        return None


# -- Hensel lifting -----------------------------------------------------------

def _pair_lift(F, g0, h0, prec, ctx):
    """Lift f(y,0) = g0*h0 (coprime, monic) to G*H == F mod t^prec.

    F is a y-list truncated mod t^prec, monic in y.  Returns (G, H)."""
    d, s, u = g0.xgcd(h0)
    if d.degree() != 0:
        raise NotCoprime("seed factors share a root")
    G = [UniPoly(ctx, (c,)) if not c.is_zero() else UniPoly(ctx)
         for c in g0.coeffs]
    H = [UniPoly(ctx, (c,)) if not c.is_zero() else UniPoly(ctx)
         for c in h0.coeffs]
    for m in range(1, prec):
        D = _ylist_sub(F, _ylist_mul(G, H, ctx, prec=m + 1), ctx)
        e = UniPoly(ctx, [row[m] if m <= row.degree() else ctx.zero()
                          for row in D])
        if e.is_zero():
            continue
        dG = (u * e) % g0
        num = e - dG * h0
        dH, r = num.divmod(g0)
        assert r.is_zero()
        for j, c in enumerate(dG.coeffs):
            if not c.is_zero():
                row = list(G[j].coeffs) + [ctx.zero()] * (m + 1 - len(G[j].coeffs))
                row[m] = row[m] + c
                G[j] = UniPoly(ctx, row)
        for j, c in enumerate(dH.coeffs):
            if not c.is_zero():
                row = list(H[j].coeffs) + [ctx.zero()] * (m + 1 - len(H[j].coeffs))
                row[m] = row[m] + c
                H[j] = UniPoly(ctx, row)
    return G, H


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
    Ft = [UniPoly(ctx, u.coeffs[:precision]) for u in shifted]
    G, H = _pair_lift(Ft, g0, h0, precision, ctx)
    minus = UniPoly(ctx, (-t0, ctx.one()))
    Gp = from_ylist(ctx, [u.compose(minus) for u in G])
    Hp = from_ylist(ctx, [u.compose(minus) for u in H])
    return Gp, Hp


def _lift_list(F, seeds, prec, ctx):
    """Multifactor lift: seeds are distinct monic irreducibles with
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

def _recombine(F, lifted, prec, ctx):
    """Recover the true monic-in-y irreducible factors of F (exact y-list)
    from the lifted t-adic factors.  Smallest subsets first, lex tie-break."""
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
                q, r = _ylist_divmod_monic(current, cand, ctx)
                if not r:
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

def _is_pth_power(f):
    p = f.ctx.p
    return all(i % p == 0 and j % p == 0 for (i, j) in f.terms)


def _pth_root(f):
    p = f.ctx.p
    return SparsePoly(f.ctx, 2, {(i // p, j // p): c.pth_root()
                                 for (i, j), c in f.terms.items()})


def _y_derivative(f):
    ctx = f.ctx
    out = {}
    for (i, j), c in f.terms.items():
        if i:
            v = ctx.elem(i) * c
            if not v.is_zero():
                out[(i - 1, j)] = v
    return SparsePoly(ctx, 2, out)


def _hat_factors(Shat):
    """Monic-in-y irreducible factors of a y-monic squarefree separable
    bivariate polynomial, via lift-and-recombine at the first point whose
    projection stays squarefree."""
    ctx = Shat.ctx
    t0 = None
    for cand in ctx.elements():
        fe = project_t(Shat, cand)
        if fe.gcd(fe.derivative()).degree() == 0:
            t0 = cand
            break
    if t0 is None:
        raise FieldTooSmall(message="no squarefree projection point in F_%d^%d"
                            % (ctx.p, ctx.ell))
    shifted = [u.shift(t0) for u in to_ylist(Shat)]
    seeds = [g for g, _ in factor_univariate(
        UniPoly(ctx, [u[0] for u in shifted])).parts]
    seeds.sort(key=UniPoly.sort_key)
    if len(seeds) == 1:
        return [Shat]
    # any true factor has t-degree at most deg_t(Shat), so lifting one
    # coefficient past that recovers it exactly
    prec = max(_ylist_deg_t(shifted), 0) + 1
    Ft = [UniPoly(ctx, u.coeffs[:prec]) for u in shifted]
    lifted = _lift_list(Ft, seeds, prec, ctx)
    combined = _recombine(shifted, lifted, prec, ctx)
    minus = UniPoly(ctx, (-t0, ctx.one()))
    return [from_ylist(ctx, [u.compose(minus) for u in F]) for F in combined]


def _hat_factors_lifted(Shat):
    """Fallback when every base-field projection is squarefree-defective:
    factor over the smallest workable extension and multiply each Frobenius
    orbit back into a base-field irreducible."""
    ctx = Shat.ctx
    m = 2
    while True:
        if ctx.p ** m > MAX_FIELD_SIZE:
            raise FieldTooSmall(message="no extension of F_%d fits the cap"
                                % ctx.p)
        ext = make_field(ctx.p, m)
        try:
            ext_factors = _hat_factors(lift_poly(Shat, ext))
            break
        except FieldTooSmall:
            m += 1

    def frob(h):
        return SparsePoly(ext, 2, {e: c ** ctx.p for e, c in h.terms.items()})

    out = []
    pool = list(ext_factors)
    while pool:
        h = pool.pop(0)
        prod = h
        g = frob(h)
        while g != h:
            pool.remove(g)
            prod = prod * g
            g = frob(g)
        pr = retract_poly(prod, ctx)
        assert pr is not None
        out.append(pr)
    out.sort(key=SparsePoly.sort_key)
    return out


def _factor_sqfree_primitive(S):
    """Irreducible factors of a squarefree, separable, y-primitive S
    (deg_y >= 1); S equals a scalar times their product."""
    ctx = S.ctx
    k = S.degree(Y)
    if k == 1:
        return [S]
    ylist = to_ylist(S)
    lc = ylist[k]
    if lc.degree() == 0:
        shat = [u.scale(lc.lc().inverse()) for u in ylist]
        monic_case = True
    else:
        # one-variable monicizing transform: y^k + sum s_j lc^(k-1-j) y^j
        shat = [UniPoly(ctx) for _ in range(k + 1)]
        shat[k] = UniPoly.constant(ctx, 1)
        power = UniPoly.constant(ctx, 1)
        for j in range(k - 1, -1, -1):
            shat[j] = ylist[j] * power
            if j > 0:
                power = power * lc
        monic_case = False
    Shat = from_ylist(ctx, shat)
    try:
        hat_factors = _hat_factors(Shat)
    except FieldTooSmall:
        if ctx.ell != 1:
            raise
        hat_factors = _hat_factors_lifted(Shat)
    if monic_case:
        return hat_factors
    out = []
    for H in hat_factors:
        # undo the transform: substitute y -> lc*y, strip the t-content
        raw = to_ylist(H)
        lp = UniPoly.constant(ctx, 1)
        mapped = []
        for j, u in enumerate(raw):
            mapped.append(u * lp)
            lp = lp * lc
        _, prim = _primitive(mapped, ctx)
        out.append(from_ylist(ctx, prim))
    return out


def _factor_primitive(g):
    """(factor, multiplicity) list for a y-primitive g with deg_y >= 1;
    the product reproduces g up to a scalar."""
    ctx = g.ctx
    gy = _y_derivative(g)
    if gy.is_zero():
        # all y-exponents divisible by char; substitute z = y^p
        p = ctx.p
        V = SparsePoly(ctx, 2, {(i // p, j): c for (i, j), c in g.terms.items()})
        out = []
        for W, m in factor_bivariate(V).parts:
            U = SparsePoly(ctx, 2, {(i * p, j): c
                                    for (i, j), c in W.terms.items()})
            if _is_pth_power(U):
                X = _pth_root(U)
                for Z, mm in factor_bivariate(X).parts:
                    out.append((Z, p * m * mm))
            else:
                out.append((U, m))
        return out
    G = bi_gcd(g, gy)
    S = _exact_divide(g, G)
    assert S is not None
    out = []
    rem = g
    if S.degree(Y) >= 1:
        for H in _factor_sqfree_primitive(S):
            m = 0
            while True:
                q = _exact_divide(rem, H)
                if q is None:
                    break
                rem = q
                m += 1
            assert m >= 1
            out.append((H, m))
    if not rem.is_constant():
        out.extend(_factor_primitive(rem))
    return out


def factor_bivariate(f):
    """Complete factorization of a nonzero bivariate polynomial in (y, t)."""
    assert not f.is_zero()
    ctx = f.ctx
    if f.is_constant():
        return Factorization(f.constant_value(), [])
    parts = []
    dy = f.degree(Y)
    if dy == 0:
        uf = factor_univariate(UniPoly(
            ctx, [f.terms.get((0, j), ctx.zero()) for j in range(f.degree(T) + 1)]))
        parts = [(embed_t(g), m) for g, m in uf.parts]
        return Factorization.assemble(f, parts)
    if f.degree(T) == 0:
        uf = factor_univariate(UniPoly(
            ctx, [f.terms.get((i, 0), ctx.zero()) for i in range(dy + 1)]))
        parts = [(embed_y(g), m) for g, m in uf.parts]
        return Factorization.assemble(f, parts)
    ylist = to_ylist(f)
    cont, prim = _primitive(ylist, ctx)
    if cont.degree() >= 1:
        for g, m in factor_univariate(cont).parts:
            parts.append((embed_t(g), m))
    pp = from_ylist(ctx, prim)
    if pp.degree(Y) >= 1:
        parts.extend(_factor_primitive(pp))
    elif not pp.is_constant():
        # primitive with deg_y == 0 would be constant; kept for safety
        for g, m in factor_univariate(prim[0]).parts:
            parts.append((embed_t(g), m))
    return Factorization.assemble(f, parts)
