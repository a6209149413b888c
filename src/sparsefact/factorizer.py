"""The factoring pipeline drivers.

Three layers:

  * blackbox_eval — given one enumeration state ("guess": anchor point,
    univariate factor multiset, partition into parts, exponent vector),
    evaluates the would-be factors at any point b by restricting the input to
    the line through (anchor, b), factoring the bivariate restriction, and
    routing each bivariate factor to the unique part one of whose univariate
    pieces divides its t=0 projection.  Inconsistencies raise GuessInvalid,
    which simply discards the guess.

  * factor_monic — enumerates anchors (in hitting-set order) and guesses,
    reconstructs each part coefficient-wise by dense tensor-grid
    interpolation, verifies candidates by explicit multiplication, and keeps
    the verified candidate with maximal refinement score 2*sum(e)-m
    (first-in-enumeration tie-break).  Soundness is unconditional: only
    re-multiplication-verified factorizations are ever returned.

  * factor — the general driver: delegates n <= 2 to the bivariate /
    univariate engines, otherwise eliminates the last variable with the
    monic transform, factors the transform, maps factors back by the
    substitution y -> lc * x_n, recursively factors the leading coefficient,
    and strips its factors with bookkeeping of net multiplicities.  Its
    result goes through Factorization.assemble (sparsepoly), the toolkit's
    one canonicalizer, which normalizes, sorts and re-verifies it.
"""

import itertools
from dataclasses import dataclass, field as dataclass_field

from .errors import GuessInvalid, Reject, FieldTooSmall, ZeroPolynomial
from .field import make_field, MAX_FIELD_SIZE
from .sparsepoly import (SparsePoly, Factorization, make_monic, sparse_divide,
                         phi_score, restrict_to_line, project_y, lift_poly,
                         retract_poly)
from .polytope import SBConfig, sparsity_cap
from .hitting import gen_anchor_set, HittingSet
from .unifactor import UniPoly, factor_univariate
from .bifactor import factor_bivariate, project_t


@dataclass
class FactorCfg:
    """Knobs of the factoring drivers."""
    sb: SBConfig = dataclass_field(default_factory=SBConfig)
    strategy: str = "grid"
    # stop scanning anchors after this many consecutive ones that fail to
    # improve the best refinement score (desk-scale completeness heuristic;
    # non-improving anchors are cheap, so err on the patient side)
    anchor_patience: int = 6
    # permit an internal prime-field -> extension-field lift when the base
    # field lacks enough interpolation points; results stay over the base
    # field (candidates with coefficients outside it are discarded)
    allow_lift: bool = True


@dataclass(frozen=True)
class Guess:
    """One enumeration state of the monic driver."""
    anchor: tuple          # point in F^n
    parts: tuple           # tuple of tuples of UniPoly (multisets)
    exps: tuple            # multiplicities, one per part

    def __post_init__(self):
        assert len(self.parts) == len(self.exps)
        assert all(self.parts)


# -- black-box factor evaluation ----------------------------------------------

def _line_factors(f, a, b, cache=None):
    """Monic-in-y bivariate factors of the restriction of f to the line
    through (a, b), with t=0 and t=1 projections precomputed."""
    key = tuple(v.coeffs for v in b)
    if cache is not None and key in cache:
        return cache[key]
    ctx = f.ctx
    ft = restrict_to_line(f, list(a), list(b))
    fac = factor_bivariate(ft)
    out = []
    for F, v in fac.parts:
        lc, _ = F.lead_and_degrees(0)
        assert lc.is_constant()  # restriction of a y-monic polynomial
        c = lc.constant_value()
        if not c.is_one():
            F = F.scale(c.inverse())
        out.append((F, v, project_t(F, ctx.zero()), project_t(F, ctx.one())))
    if cache is not None:
        cache[key] = out
    return out


def blackbox_eval(f, guess, b, cache=None):
    """Evaluate the guessed factors of a y-monic f at the point b.

    Returns one monic UniPoly in y per part: the restriction-to-line
    accumulation evaluated at t=1.  Raises GuessInvalid whenever the guess
    is inconsistent with what the line factorization shows.
    """
    ctx = f.ctx
    line = _line_factors(f, guess.anchor, tuple(b), cache)
    accs = [UniPoly.constant(ctx, 1) for _ in guess.parts]
    for F, v, F0, F1 in line:
        hits = []
        for i, part in enumerate(guess.parts):
            if any((F0 % g).is_zero() for g in part):
                hits.append(i)
        if len(hits) != 1:
            raise GuessInvalid("projection matches %d parts" % len(hits))
        i = hits[0]
        e = guess.exps[i]
        if v % e:
            raise GuessInvalid("multiplicity %d not divisible by %d" % (v, e))
        pw = F1
        for _ in range(v // e - 1):
            pw = pw * F1
        accs[i] = accs[i] * pw
    for i, part in enumerate(guess.parts):
        want = sum(g.degree() for g in part)
        if accs[i].degree() != want:
            raise GuessInvalid("inconsistent part degree")
    return accs


# -- sparse reconstruction ----------------------------------------------------

def _lagrange_basis(ctx, n, var, values):
    """Lagrange basis polynomials for the given interpolation values."""
    out = []
    for v in values:
        poly = SparsePoly.constant(ctx, n, 1)
        denom = ctx.one()
        for w in values:
            if w == v:
                continue
            poly = poly * (SparsePoly.variable(ctx, n, var)
                           - SparsePoly.constant(ctx, n, w))
            denom = denom * (v - w)
        out.append(poly.scale(denom.inverse()))
    return out


def reconstruct_sparse(oracle, n, d, cap, ctx):
    """Dense tensor-grid interpolation of a polynomial of individual degrees
    d (an int or a per-variable tuple) from point evaluations.

    Raises Reject if the result has more than cap terms, FieldTooSmall if
    the field lacks d+1 points on some axis.
    """
    degs = tuple(d) if not isinstance(d, int) else (d,) * n
    assert len(degs) == n
    if max(degs) + 1 > ctx.q:
        raise FieldTooSmall(required=max(degs) + 1)
    axes = [list(itertools.islice(ctx.elements(), dv + 1)) for dv in degs]
    bases = [_lagrange_basis(ctx, n, i, axes[i]) for i in range(n)]
    values = {b: oracle(b) for b in itertools.product(*axes)}
    result = _interp_grid(ctx, n, axes, bases, values)
    if cap is not None and result.sparsity() > cap:
        raise Reject("reconstruction exceeds sparsity cap %d" % cap)
    return result


# -- verification -------------------------------------------------------------

def verify_factorization(f, candidate, cap=None):
    """True iff unit * prod(factor^mult) equals f exactly; aborts early
    (returning False) once an intermediate product exceeds cap^2 terms."""
    limit = None if cap is None else cap * cap
    product = SparsePoly.constant(f.ctx, f.n, 1)
    for h, m in candidate.parts:
        if h.n != f.n or h.ctx != f.ctx:
            return False
        for _ in range(m):
            product = product * h
            if limit is not None and product.sparsity() > limit:
                return False
    return product.scale(candidate.unit) == f


# -- guess enumeration --------------------------------------------------------

def _multiset_partitions(items):
    """All partitions of a list into nonempty unordered parts, deduplicated,
    deterministic order.  Parts and partition lists are canonically sorted."""
    if not items:
        yield []
        return

    def canon(parts):
        return tuple(sorted((tuple(sorted(p, key=UniPoly.sort_key))
                             for p in parts),
                            key=lambda t: [g.sort_key() for g in t]))

    seen = set()
    first, rest = items[0], items[1:]
    for sub in _multiset_partitions(rest):
        # put first into an existing part, or into a fresh one
        for i in range(len(sub) + 1):
            parts = [list(p) for p in sub]
            if i < len(sub):
                parts[i].append(first)
            else:
                parts.append([first])
            c = canon(parts)
            if c not in seen:
                seen.add(c)
                yield [list(p) for p in c]


def _enumerate_guesses(anchor, uni_parts, k):
    """Deterministic guess enumeration for one anchor.

    uni_parts: list of (irreducible UniPoly, multiplicity) of f(y, anchor).
    Yields (parts, exps) with every part a nonempty multiset of the
    univariate irreducibles, covering the whole factorization:
    prod over parts of (prod part)^exp == f(y, anchor).
    """
    gs = [g for g, _ in uni_parts]
    us = [u for _, u in uni_parts]
    # sub-multisets: counts per distinct irreducible
    for counts in itertools.product(*[range(u + 1) for u in us]):
        if not any(counts):
            continue
        items = []
        for g, c in zip(gs, counts):
            items.extend([g] * c)
        for parts in _multiset_partitions(items):
            m = len(parts)
            for exps in itertools.product(range(1, k + 1), repeat=m):
                # coverage: weighted union reproduces the full multiset
                ok = True
                for g, u in zip(gs, us):
                    total = sum(e * sum(1 for x in part if x == g)
                                for part, e in zip(parts, exps))
                    if total != u:
                        ok = False
                        break
                if ok:
                    yield parts, exps


# -- the monic driver ---------------------------------------------------------

def _full_grid(ctx, n):
    """Fallback anchor source: the entire F^n, generated lazily.  Index
    tuples come with the fewest zero coordinates first, then by index sum,
    then lexicographically, so early anchors vary every coordinate —
    all-axis-aligned prefixes make for systematically degenerate
    projections."""
    elems = list(ctx.elements())
    top = ctx.q - 1

    def tuples(r, zeros, total):
        # the points of length r with exactly `zeros` zero indices and index
        # sum `total`, lexicographically; callers only ask for a feasible
        # count and sum: r - zeros <= total <= (r - zeros) * top
        if r == 1:
            yield (elems[total],)
            return
        if zeros:
            for rest in tuples(r - 1, zeros - 1, total):
                yield (elems[0],) + rest
        nz = r - zeros - 1  # nonzero indices left after this one
        if nz >= 0:
            for v in range(max(1, total - nz * top), min(top, total - nz) + 1):
                for rest in tuples(r - 1, zeros, total - v):
                    yield (elems[v],) + rest

    def gen():
        for zeros in range(n + 1):
            nz = n - zeros
            for total in range(nz, nz * top + 1):
                yield from tuples(n, zeros, total)
    return HittingSet(ctx, n, (n, None, None, None, "full"), gen, ctx.q ** n)


def factor_monic(f, cfg=None, _base=None):
    """Unique monic factorization of a polynomial monic in y (last index).

    Verified candidates only; among them the refinement score 2*sum(e)-m is
    maximized, with a first-in-enumeration tie-break.  The winning candidate
    is returned as reconstructed (y-monic factors, unit one, not sorted);
    factor() canonicalizes it.  When _base is given
    the computation runs in an extension of it and only candidates whose
    coefficients retract to _base are admitted.
    """
    if cfg is None:
        cfg = FactorCfg()
    ctx = f.ctx
    nx = f.n - 1
    assert nx >= 1 and f.is_monic_in(nx)
    k = f.degree(nx)
    s = f.sparsity()
    d = max(f.max_degree(), 1)
    cap = sparsity_cap(nx, s, d, cfg.sb)
    degs = f.degrees()[:nx]
    needed = max(degs, default=0) + 1
    if needed > ctx.q:
        # interpolation grid needs more points than the field has
        if cfg.allow_lift and ctx.ell == 1 and _base is None:
            return _factor_monic_lifted(f, cfg, needed)
        raise FieldTooSmall(required=needed)
    try:
        anchors = gen_anchor_set(ctx, nx, s, d, cfg.sb, strategy=cfg.strategy)
    except FieldTooSmall:
        # the certified anchor grid does not fit in this field; fall back to
        # scanning the whole field (sound because results are verified)
        anchors = _full_grid(ctx, nx)
    grid_axes = [list(itertools.islice(ctx.elements(), dv + 1)) for dv in degs]

    bases = [_lagrange_basis(ctx, f.n, i, grid_axes[i]) for i in range(nx)]
    best = Factorization(ctx.one(), [(f, 1)])  # trivial candidate, score 1
    best_phi = 1
    stale = 0
    # every valid factorization projects, at every anchor, to some enumerable
    # guess; so min over anchors of the per-anchor maximal score bounds the
    # complete factorization's score from above, certifying completeness once
    # the best verified score reaches it
    score_ub = None
    for anchor in anchors:
        fa = project_y(f, anchor)
        ufac = factor_univariate(fa)
        improved = False
        cache = {}  # line factorizations, shared by all guesses at this anchor
        # highest-scoring guesses first: the complete factorization always
        # scores maximally among verifiable candidates, so on a good anchor
        # the first surviving reconstruction is already the final answer
        guesses = sorted(_enumerate_guesses(anchor, ufac.parts, k),
                         key=lambda pe: -phi_score(pe[1]))
        anchor_max = max((phi_score(e) for _, e in guesses), default=1)
        score_ub = anchor_max if score_ub is None else min(score_ub, anchor_max)
        if best_phi >= score_ub:
            break  # provably complete; no guess here can do better
        for parts, exps in guesses:
            phi = phi_score(exps)
            if phi <= best_phi:
                break  # sorted descending: nothing below can improve
            guess = Guess(anchor=tuple(anchor),
                          parts=tuple(tuple(p) for p in parts),
                          exps=tuple(exps))
            candidate = _reconstruct_candidate(f, guess, grid_axes, bases,
                                               cap, cache)
            if candidate is None:
                continue
            if _base is not None and any(
                    retract_poly(h, _base) is None for h, _ in candidate.parts):
                continue  # finer than the base-field factorization
            if verify_factorization(f, candidate, cap):
                best = candidate
                best_phi = phi
                improved = True
        if best_phi >= score_ub:
            break  # provably complete
        stale = 0 if improved else stale + 1
        if stale >= cfg.anchor_patience:
            break
    return best


def _factor_monic_lifted(f, cfg, needed):
    """Run the monic driver in the smallest sufficient extension field and
    retract the (base-field-filtered) result."""
    ctx = f.ctx
    m = 2
    while ctx.p ** m < needed:
        m += 1
    if ctx.p ** m > MAX_FIELD_SIZE:
        raise FieldTooSmall(required=needed)
    ext = make_field(ctx.p, m)
    lifted = factor_monic(lift_poly(f, ext), cfg, _base=ctx)
    parts = []
    for h, e in lifted.parts:
        hr = retract_poly(h, ctx)
        assert hr is not None
        parts.append((hr, e))
    return Factorization(ctx.one(), parts)


def _reconstruct_candidate(f, guess, grid_axes, bases, cap, cache):
    """Tensor-grid reconstruction of all parts for one guess, or None."""
    ctx = f.ctx
    nx = f.n - 1
    values = {}  # grid point -> list of UniPoly per part
    try:
        for b in itertools.product(*grid_axes):
            values[b] = blackbox_eval(f, guess, b, cache)
    except GuessInvalid:
        return None
    part_degs = [sum(g.degree() for g in part) for part in guess.parts]
    factors = []
    for i, dp in enumerate(part_degs):
        # h_i = y^dp + sum_{j<dp} c_ij(x) y^j, each c_ij interpolated
        h = SparsePoly.variable(ctx, f.n, nx, dp)
        for j in range(dp):
            cj = _interp_grid(ctx, f.n, grid_axes, bases,
                             {b: u[j] for b, u in
                              ((b, values[b][i]) for b in values)})
            if cj.is_zero():
                continue
            if j:
                cj = cj * SparsePoly.variable(ctx, f.n, nx, j)
            h = h + cj
        if cap is not None and h.sparsity() > cap:
            return None
        factors.append((h, guess.exps[i]))
    return Factorization(ctx.one(), factors)


def _interp_grid(ctx, n, axes, bases, point_values):
    """Interpolate from a full tensor grid of values (dict point -> elem)."""
    nx = len(axes)

    def interp(prefix, var):
        if var == nx:
            return SparsePoly.constant(ctx, n, point_values[tuple(prefix)])
        acc = SparsePoly.zero(ctx, n)
        for idx, v in enumerate(axes[var]):
            sub = interp(prefix + [v], var + 1)
            if not sub.is_zero():
                acc = acc + sub * bases[var][idx]
        return acc

    return interp([], 0)


# -- the general driver -------------------------------------------------------

def factor(f, cfg=None):
    """Complete factorization into pairwise-coprime irreducibles.

    Soundness is unconditional: the returned record re-multiplies exactly
    to f.  Factorization.assemble checks this with an explicit comparison,
    so it holds under python -O too, and raises NoFactorizationFound if
    it fails."""
    if cfg is None:
        cfg = FactorCfg()
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f.is_constant():
        return Factorization(f.constant_value(), [])
    pres = f.present_vars()
    if len(pres) < f.n:
        # factor in the variables actually present, then re-embed
        squeeze = f
        for i in sorted(set(range(f.n)) - set(pres), reverse=True):
            squeeze = squeeze.drop_var(i)
        inner = factor(squeeze, cfg)
        parts = []
        for h, m in inner.parts:
            g = h
            for i in sorted(set(range(f.n)) - set(pres)):
                g = g.insert_var(i)
            parts.append((g, m))
        return Factorization(inner.unit, parts)
    return Factorization.assemble(f, _factor_full(f, cfg).parts)


def _factor_full(f, cfg):
    """Factor a polynomial all of whose variables are present."""
    ctx = f.ctx
    n = f.n
    # split off the monomial content first: it factors trivially and its
    # removal can shrink every degree the heavy machinery depends on
    cont = [min(e[i] for e in f.terms) for i in range(n)]
    if any(cont):
        stripped = SparsePoly(ctx, n, {
            tuple(ei - ci for ei, ci in zip(e, cont)): c
            for e, c in f.terms.items()})
        parts = [(SparsePoly.variable(ctx, n, i), ci)
                 for i, ci in enumerate(cont) if ci]
        if stripped.is_constant():
            return Factorization(stripped.constant_value(), parts)
        inner = factor(stripped, cfg)
        return Factorization(inner.unit, inner.parts + parts)
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
    mfac = factor_monic(fhat, cfg)
    # substitute y -> fk * x_n in each monic factor
    fk_full = fk.insert_var(n - 1)
    sub = fk_full * SparsePoly.variable(ctx, n, n - 1)
    raw = [(h.substitute(n - 1, sub), e) for h, e in mfac.parts]
    # recursively factor the leading coefficient
    if fk.is_constant():
        wparts = []
    else:
        wparts = [(w.insert_var(n - 1), b) for w, b in factor(fk, cfg).parts]
    parts = []
    alphas = [-b * (k - 1) for _, b in wparts]
    for h, e in raw:
        for j, (w, _) in enumerate(wparts):
            while True:
                try:
                    h = sparse_divide(h, w)
                except Reject:
                    break
                alphas[j] += e
        parts.append((h, e))
    for j, (w, b) in enumerate(wparts):
        assert alphas[j] >= 0
        if alphas[j] > 0:
            parts.append((w, alphas[j]))
    return Factorization(ctx.one(), parts)
