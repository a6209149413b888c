"""The factoring pipeline drivers.

Three layers:

  * blackbox_eval — given a block at an anchor (indices of the
    projection's distinct factors g_j) and an exponent e dividing their
    multiplicities, evaluates the block's would-be factor at any point b.
    Every line through the anchor projects at t=0 to
    f(anchor, y) = prod g_j^u_j, so the projection seeds the line: the
    restriction of f to the line through (anchor, b) is Hensel-lifted from
    the pairwise-coprime seeds g_j^u_j, and the block's value is the e-th
    root of its lifted seeds' product at t=1 (Kaltofen and Trager's lines
    through one point).  f, the anchor, the projection, its factors, the
    seeds' lift plan and each line's lifts belong to the anchor, so they
    sit in one record per anchor (_Anchor) that all its blocks share.  A
    line that refutes the block raises GuessInvalid, which discards it.

  * factor_monic — scans anchors over all of F^nx, nonzero coordinates
    first (_full_grid), projects f once at each and recombines there as
    bifactor._recombine does (_recombine_at): smallest blocks first, each
    rebuilt by dense tensor-grid interpolation and taken when it divides
    exactly.  It keeps the result with maximal refinement score
    2*sum(e)-m, and stops when that reaches the bound proven from the
    projections and, at an anchor whose projection leaves that bound
    above the best score, from f's restriction to one line, which
    factor() factors (_line_score_bound), through the next point of F^nx;
    or after the last anchor of F^nx.  When F has fewer points than the
    grid needs, anchors and grid come from the smallest extension in
    field.extensions that has enough, and a factor counts only if it
    retracts to F.  It takes no settings: the dense grid recovers a factor
    whatever its term count, so it needs no sparsity cap.  Soundness is
    unconditional: every factor comes from an exact division of f.

  * factor — the general driver: splits off the monomial content, drops
    the variables absent from the rest and factors that core
    (_factor_full): n = 1 goes to the univariate engine, n = 2 to
    bifactor.factor_bivariate, the only way into bivariate factoring;
    otherwise it eliminates the last variable with the monic transform,
    factors the transform, maps factors back by the substitution
    y -> lc * x_n, recursively factors the leading coefficient, and strips
    its factors with bookkeeping of net multiplicities.  The core's factors
    are re-embedded and, with the content's x_i^c_i, go through one
    Factorization.assemble (sparsepoly), the toolkit's one canonicalizer,
    which normalizes, sorts and re-verifies them; the engines return their
    factors unsorted and never call it.
"""

import itertools
import math

from .errors import (GuessInvalid, FieldTooSmall, ZeroPolynomial,
                     NoFactorizationFound, NotMonic, ShapeMismatch)
from .field import extensions
from .sparsepoly import (SparsePoly, Factorization, make_monic, sparse_divide,
                         phi_score, restrict_to_line, project_y, lift_poly,
                         retract_poly)
from .unifactor import UniPoly, addmul_logs, factor_univariate, monic_root
from .bifactor import (factor_bivariate, to_ylist, _ylist_deg_t, _ylist_mul,
                       _lift_plan, _lift_list)


# -- black-box factor evaluation ----------------------------------------------

class _Anchor:
    """What all blocks and lines at one anchor of f share: f, the anchor,
    the projection f(anchor, y) and its factors [(g, u_g)], monic
    irreducibles in sort_key order; the lift plan of the seeds g^u_g in
    that order (bifactor._lift_plan: Bezout cofactors and step tables),
    made on first use; and the lifted seeds of each line, keyed by its
    point b."""

    __slots__ = ("f", "anchor", "projection", "factors", "plan", "lines")

    def __init__(self, f, anchor):
        self.f = f
        self.anchor = tuple(anchor)
        self.projection = project_y(f, self.anchor)
        self.factors = factor_univariate(self.projection).parts
        self.plan = None
        self.lines = {}  # b -> (precision, lifted seeds)


def blackbox_eval(at, block, e, b):
    """h(b, y), a monic UniPoly, for the y-monic h with h^e dividing f and
    h(anchor, y)^e = prod_{j in block} g_j^u_j, at the anchor whose record
    (_Anchor) at holds f and the anchor.

    block is a tuple of indices into at.factors and e divides every u_j in
    it.  The restriction F(y, t) of f to the line (1-t)*anchor + t*b has
    F(y, 0) = prod g_j^u_j with pairwise-coprime seeds, which lift uniquely
    modulo t^(deg_t F + 1).  If h exists, the block's lifted seeds
    multiply, truncated there, to h^e on the line and the others to its
    cofactor, neither of higher t-degree: the value is the monic e-th root
    of the block's product at t=1.  GuessInvalid is raised when the two
    products' t-degrees do not add up to deg_t F (so they do not factor
    F) or when the value is not an e-th power.
    """
    ctx = at.f.ctx
    b = tuple(b)
    line = at.lines.get(b)
    if line is None:
        if at.plan is None:
            at.plan = _lift_plan([g ** m for g, m in at.factors], ctx)
        F = to_ylist(restrict_to_line(at.f, at.anchor, b))
        prec = _ylist_deg_t(F) + 1
        line = at.lines[b] = (prec, _lift_list(F, at.plan, prec, ctx))
    prec, lifted = line
    inner = outer = None  # the block's lifts' product, the others'
    for j, L in enumerate(lifted):
        if j in block:
            inner = L if inner is None else _ylist_mul(inner, L, ctx, prec)
        else:
            outer = L if outer is None else _ylist_mul(outer, L, ctx, prec)
    dt = _ylist_deg_t(inner) + (0 if outer is None else _ylist_deg_t(outer))
    if dt != prec - 1:
        raise GuessInvalid("the block's lifts do not factor the line")
    one = ctx.one()
    r = monic_root(UniPoly.from_logs(ctx, [c.evaluate(one).log
                                           for c in inner]), e)
    if r is None:
        raise GuessInvalid("block value is not a %d-th power" % e)
    return r


# -- sparse reconstruction ----------------------------------------------------

def _interp_grid(ctx, axes, values):
    """Interpolate vector values given on the full tensor grid of axes.

    values maps every point of itertools.product(*axes) to a sequence of
    field-element logs (FieldElem.log), all of one length.  Returns
    {exponent tuple: list of coefficients} for the unique vector of
    polynomials of degree below len(axes[i]) in variable i that takes
    those values, leaving out the exponents whose coefficients are all
    zero.  Axis by axis, the values along each grid line become
    coefficients in that axis's variable through the univariate Lagrange
    basis of its points, on discrete logs (see unifactor).
    """
    zl = ctx.zero_log
    # before axis k is done, a key's coordinates below k are exponents and
    # the others grid points
    data = values
    for k, pts in enumerate(axes):
        basis = {}  # point -> coefficient logs of its Lagrange polynomial
        for v in pts:
            num, den = UniPoly.constant(ctx, 1), ctx.one()
            for w in pts:
                if w != v:
                    num = num * UniPoly(ctx, (-w, ctx.one()))
                    den = den * (v - w)
            basis[v] = num.scale(den.inverse()).logs
        out = {}
        for pos, vec in data.items():
            for e, b in enumerate(basis[pos[k]]):
                if b != zl:
                    key = pos[:k] + (e,) + pos[k + 1:]
                    if key not in out:
                        out[key] = [zl] * len(vec)
                    addmul_logs(ctx, out[key], vec, (b,))
        data = out
    exp = ctx.exp
    return {pos: [exp[v] for v in vec] for pos, vec in data.items()
            if any(v != zl for v in vec)}


# -- verification -------------------------------------------------------------

def verify_factorization(f, candidate):
    """True iff unit * prod(factor^mult) equals f exactly."""
    if any(h.n != f.n or h.ctx != f.ctx for h, _ in candidate.parts):
        return False
    return candidate.expand(f.ctx, f.n) == f


# -- the monic driver ---------------------------------------------------------

def _full_grid(ctx, n):
    """The monic driver's anchors: the entire F^n, generated lazily.  Index
    tuples come with the fewest zero coordinates first, then by index sum,
    then lexicographically, so early anchors vary every coordinate —
    all-axis-aligned prefixes make for systematically degenerate
    projections.  The order does not decide an answer the driver proves
    complete, only how soon the proof comes.  Elements are read by index,
    so no anchor costs a list of the field."""
    elem = ctx.from_index
    top = ctx.q - 1

    def tuples(r, zeros, total):
        # the points of length r with exactly `zeros` zero indices and index
        # sum `total`, lexicographically; callers only ask for a feasible
        # count and sum: r - zeros <= total <= (r - zeros) * top
        if r == 1:
            yield (elem(total),)
            return
        if zeros:
            for rest in tuples(r - 1, zeros - 1, total):
                yield (elem(0),) + rest
        nz = r - zeros - 1  # nonzero indices left after this one
        if nz >= 0:
            for v in range(max(1, total - nz * top), min(top, total - nz) + 1):
                for rest in tuples(r - 1, zeros, total - v):
                    yield (elem(v),) + rest

    for zeros in range(n + 1):
        nz = n - zeros
        for total in range(nz, nz * top + 1):
            yield from tuples(n, zeros, total)


def factor_monic(f):
    """Unique monic factorization of a polynomial monic in y (last index).

    Of the anchors' factorizations (_recombine_at), the first one of
    maximal refinement score 2*sum(e)-m is kept.  The anchor scan stops
    when that score reaches the bound proven from the projections and the
    lines (_line_score_bound) seen so far (the complete factorization is
    then the one kept) or after the last anchor of F^nx.  The result is
    returned as found (y-monic factors, unit one, not sorted); factor()
    canonicalizes it.  Anchors and the interpolation grid come from f's
    field or, when it has too few points for the grid, from the smallest
    extension in field.extensions that has enough: f is lifted there.  The
    lines stay over f's field.
    """
    base = f.ctx
    nx = f.n - 1
    if nx < 1:
        raise ShapeMismatch("the monic driver needs x-variables besides y")
    if not f.is_monic_in(nx):
        raise NotMonic("factor_monic needs a polynomial monic in y")
    needed = max(f.degrees()[:nx], default=0) + 1
    fs = f  # f over the field the anchors and the grid come from
    if needed > base.q:
        ext = next((e for e in extensions(base) if e.q >= needed), None)
        if ext is None:
            raise FieldTooSmall(required=needed)
        fs = lift_poly(f, ext)
    best = [(f, 1)]  # the trivial factorization, score 1
    best_phi = 1
    # every factorization projects, at every anchor, to parts P_i covering
    # f(anchor, y) = prod g^u_g over k distinct g, perhaps with a g in two
    # parts (which disjoint blocks cannot find).  With exponents e_i and m
    # parts, sum(u_g) = sum(e_i*|P_i|) and sum(|P_i| - 1) >= k - m, so the
    # score 2*sum(e_i) - m is at most 2*sum(u_g) - k, the score of the
    # projection's multiplicities.  The minimum of that over anchors bounds
    # the complete factorization's score from above, certifying
    # completeness once the best score reaches it
    score_ub = math.inf
    line_bounds = (_line_score_bound(f, a) for a in _full_grid(base, nx))
    for anchor in _full_grid(fs.ctx, nx):
        at = _Anchor(fs, anchor)
        score_ub = min(score_ub, phi_score(u for _, u in at.factors))
        if best_phi >= score_ub:
            break  # provably complete; nothing here can do better
        parts = _recombine_at(f, at)
        phi = phi_score(e for _, e in parts)
        if phi > best_phi:
            best, best_phi = parts, phi
        if best_phi < score_ub:  # the next line may prove more
            score_ub = min(score_ub, next(line_bounds, None) or score_ub)
        if best_phi >= score_ub:
            break  # provably complete
    return Factorization(base.one(), best)


def _recombine_at(f, at):
    """The factors [(h, e)] of f, with product f, that the anchor record at
    tells apart, found as bifactor._recombine finds a line's: blocks of
    indices into at.factors by size, smallest first and lexicographic
    within a size, each with the exponents e dividing the gcd of its u_j,
    largest first.  A rebuilt h (retracted to f's field when at.f is
    lifted) is taken when h^e divides what is left of f, which the
    quotient then replaces.  A rebuild serves each open block of a size
    with its next exponent, so a smaller one is rebuilt only if the larger
    failed.  What is left at the end is the last factor, with e = 1, so
    no block of all the indices left is rebuilt with e = 1."""
    base, ctx = f.ctx, at.f.ctx
    us = [u for _, u in at.factors]
    grid_axes = [list(itertools.islice(ctx.elements(), d + 1))
                 for d in at.f.degrees()[:-1]]
    parts, rest, current = [], list(range(len(us))), f
    size = 1
    while size <= len(rest):
        untried = {}  # block -> its exponents left, largest first
        for block in itertools.combinations(rest, size):
            top = math.gcd(*(us[j] for j in block))
            untried[block] = [e for e in range(top, 0, -1) if top % e == 0]
        # all the indices left with e = 1 would rebuild what is left
        while guesses := [(block, es.pop(0)) for block, es in untried.items()
                          if es and all(j in rest for j in block)
                          and (es[0] > 1 or size < len(rest))]:
            rebuilt = _reconstruct_candidate(at, guesses, grid_axes)
            for (block, e), h in rebuilt.items():
                if any(j not in rest for j in block):
                    continue  # overlaps a block taken before
                if ctx is not base and (h := retract_poly(h, base)) is None:
                    continue  # finer than the base-field factorization
                if (q := sparse_divide(current, h ** e)) is not None:
                    parts.append((h, e))
                    current = q
                    rest = [j for j in rest if j not in block]
        size += 1
    if rest:
        parts.append((current, 1))
    return parts


def _line_score_bound(f, anchor):
    """A bound on the score of f's complete factorization, from f
    restricted to the line through anchor in direction (1, 2, ..., nx)
    (cycling through the nonzero elements of a smaller field, each read
    by its index), or None when the bivariate engine cannot factor that
    line.  Each factor of f is y-monic of positive y-degree, so it
    restricts to a product of the line's irreducible factors, and the
    projection's argument (see factor_monic) holds with those in place of
    the g.  Where every projection of an irreducible f splits, as for the
    roots +-sqrt(x1) +- sqrt(x2*x3), a line need not.  f and the line stay
    over f's own field, where f's factors are irreducible; the projections
    at an extension's anchors may split them further."""
    ctx = f.ctx
    b = [a + ctx.from_index(1 + i % (ctx.q - 1)) for i, a in enumerate(anchor)]
    line = restrict_to_line(f, anchor, b)
    try:
        parts = factor(line).parts
    except FieldTooSmall:
        return None
    return phi_score(m for _, m in parts)


def _reconstruct_candidate(at, guesses, grid_axes):
    """Tensor-grid reconstruction of the y-monic h of each guess (block, e)
    at the anchor record at: {guess: h} in the order of guesses, leaving
    out those that a line refutes (blackbox_eval).  One interpolation
    recovers every y-coefficient below the leading one of every h left:
    h = y^d + sum_{j<d} c_j y^j."""
    f = at.f
    ctx = f.ctx
    points = list(itertools.product(*grid_axes))
    cols = [[] for _ in points]  # at each point, the lower y-coefficients
    kept = []  # (guess, y-degree of its h)
    for block, e in guesses:
        try:
            rows = [blackbox_eval(at, block, e, b).logs[:-1] for b in points]
        except GuessInvalid:
            continue
        kept.append(((block, e), len(rows[0])))
        for col, row in zip(cols, rows):
            col.extend(row)
    if not kept:
        return {}
    coeffs = _interp_grid(ctx, grid_axes, dict(zip(points, cols)))
    out = {}
    start = 0  # vector index of the guess's c_0
    for guess, d in kept:
        terms = {(0,) * (f.n - 1) + (d,): ctx.one()}
        for x, vec in coeffs.items():
            for j in range(d):
                terms[x + (j,)] = vec[start + j]
        out[guess] = SparsePoly(ctx, f.n, terms)
        start += d
    return out


# -- the general driver -------------------------------------------------------

def factor(f):
    """Complete factorization into pairwise-coprime irreducibles.

    Soundness is unconditional: the returned record re-multiplies exactly
    to f.  Factorization.assemble checks this with an explicit comparison,
    so it holds under python -O too, and raises NoFactorizationFound if
    it fails."""
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.is_constant():
        return Factorization(f.constant_value(), [])
    ctx, n = f.ctx, f.n
    # split off the monomial content x_i^c_i, which factors trivially and
    # whose removal can shrink every degree the heavy machinery depends on,
    # then factor the rest in the variables it still has
    cont = [min(e[i] for e in f.terms) for i in range(n)]
    core = SparsePoly(ctx, n, {tuple(ei - ci for ei, ci in zip(e, cont)): c
                               for e, c in f.terms.items()})
    parts = [(SparsePoly.variable(ctx, n, i), ci)
             for i, ci in enumerate(cont) if ci]
    if not core.is_constant():
        absent = sorted(set(range(n)) - set(core.present_vars()))
        for i in reversed(absent):
            core = core.drop_var(i)
        for h, m in _factor_full(core).parts:
            for i in absent:
                h = h.insert_var(i)
            parts.append((h, m))
    return Factorization.assemble(f, parts)


def _factor_full(f):
    """Factor a polynomial all of whose variables are present and whose
    monomial content is 1."""
    ctx = f.ctx
    n = f.n
    if n == 1:
        u = UniPoly(ctx, [f.terms.get((i,), ctx.zero())
                          for i in range(f.degree(0) + 1)])
        uf = factor_univariate(u)
        return Factorization(uf.unit, [
            (SparsePoly(ctx, 1, {(i,): c for i, c in enumerate(g.coeffs)
                                 if not c.is_zero()}), m)
            for g, m in uf.parts])
    if n == 2:
        return factor_bivariate(f)
    fhat, fk, k = make_monic(f)
    mfac = factor_monic(fhat)
    # substitute y -> fk * x_n in each monic factor
    fk_full = fk.insert_var(n - 1)
    sub = fk_full * SparsePoly.variable(ctx, n, n - 1)
    raw = [(h.substitute(n - 1, sub), e) for h, e in mfac.parts]
    # recursively factor the leading coefficient
    if fk.is_constant():
        wparts = []
    else:
        wparts = [(w.insert_var(n - 1), b) for w, b in factor(fk).parts]
    parts = []
    alphas = [-b * (k - 1) for _, b in wparts]
    for h, e in raw:
        for j, (w, _) in enumerate(wparts):
            while (q := sparse_divide(h, w)) is not None:
                h = q
                alphas[j] += e
        parts.append((h, e))
    for j, (w, b) in enumerate(wparts):
        if alphas[j] < 0:  # the factorization of fk was incomplete
            raise NoFactorizationFound(
                "leading-coefficient factor %s stripped too few times" % (w,))
        if alphas[j] > 0:
            parts.append((w, alphas[j]))
    return Factorization(ctx.one(), parts)
