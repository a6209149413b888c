"""Canonical sparse multivariate polynomials over a finite field.

A polynomial is a map from exponent vectors (length-n tuples of nonnegative
ints) to nonzero field elements.  The zero polynomial is the empty map with an
explicit variable count n.  Canonical term order is graded-lex, descending
(higher total degree first, then lexicographically larger exponent vector
first); serialization, leading terms and all enumeration downstream use it.

Variable conventions used by the factoring pipeline:
  * generic polynomials use variables x1..xn = indices 0..n-1;
  * "monic in y" polynomials place y at the LAST index (index n for a
    polynomial in (x1..xn, y));
  * bivariate restrictions to a line live in (y, t) with y = index 0,
    t = index 1.

restrict_to_line is the one code that substitutes field values into a
polynomial, on the coefficients' discrete logs: a point's value
(SparsePoly.evaluate) and an anchor projection f(a, y) (project_y) are
read from the restriction to the line that stays at the point.
"""

import heapq
import math
import operator
import re

from .errors import (ShapeMismatch, ZeroPolynomial, ZeroDegree, EmptyVector,
                     ParseError, CtxMismatch, NoFactorizationFound,
                     BoundViolation)
from .field import FieldElem
from .unifactor import UniPoly, addmul_logs, mul_logs


def _gradlex_key(exps):
    return (sum(exps), exps)


class SparsePoly:
    """Sparse multivariate polynomial: exponent-vector -> nonzero coefficient."""

    __slots__ = ("ctx", "n", "terms")

    def __init__(self, ctx, n, terms=None):
        self.ctx = ctx
        self.n = n
        if terms is None:
            terms = {}
        # drop explicit zeros so sparsity == len(terms)
        zl = ctx.zero_log
        self.terms = {e: c for e, c in terms.items() if c.log != zl}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx, n):
        return cls(ctx, n, {})

    @classmethod
    def constant(cls, ctx, n, value):
        c = ctx.elem(value)
        if c.is_zero():
            return cls.zero(ctx, n)
        return cls(ctx, n, {(0,) * n: c})

    @classmethod
    def variable(cls, ctx, n, i, exp=1):
        e = [0] * n
        e[i] = exp
        return cls(ctx, n, {tuple(e): ctx.one()})

    # -- basic queries -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(all(v == 0 for v in e) for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("%s is not a constant" % format_poly(self))
        if not self.terms:
            return self.ctx.zero()
        return next(iter(self.terms.values()))

    def sparsity(self):
        return len(self.terms)

    def degree(self, i):
        """Degree in variable i (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def degrees(self):
        """Tuple of individual degrees (all 0 for constants/zero)."""
        return tuple(max(self.degree(i), 0) for i in range(self.n))

    def max_degree(self):
        """Largest individual degree over all variables."""
        if not self.terms:
            return 0
        return max(max(e) for e in self.terms)

    def present_vars(self):
        return sorted({i for e in self.terms for i in range(self.n) if e[i] > 0})

    def canonical_terms(self):
        """Terms in graded-lex descending order."""
        return [(e, self.terms[e]) for e in
                sorted(self.terms, key=_gradlex_key, reverse=True)]

    def leading_term(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        e = max(self.terms, key=_gradlex_key)
        return e, self.terms[e]

    def sort_key(self):
        """Canonical total order on polynomials (for deterministic output)."""
        return tuple((sum(e), e, c.index())
                     for e, c in self.canonical_terms())

    def _check(self, other):
        if not isinstance(other, SparsePoly):
            raise TypeError("expected a SparsePoly")
        if other.n != self.n:
            raise ShapeMismatch("variable counts differ: %d vs %d"
                                % (self.n, other.n))
        if other.ctx != self.ctx:
            raise CtxMismatch("polynomials over different fields")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
            else:
                out[e] = c
        return SparsePoly(self.ctx, self.n, out)

    def __neg__(self):
        return SparsePoly(self.ctx, self.n,
                          {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        # on the coefficients' logs, as the unifactor kernels do
        ctx = self.ctx
        red, zech, zl = ctx.reduce, ctx.zech, ctx.zero_log
        add = operator.add
        out = {}
        B = [(e, c.log) for e, c in other.terms.items()]
        for e1, c1 in self.terms.items():
            l1 = c1.log
            for e2, l2 in B:
                e = tuple(map(add, e1, e2))
                t = l1 + l2
                o = out.get(e, zl)
                out[e] = red[t] if o == zl else red[o + zech[t - o]]
        exp = ctx.exp
        return SparsePoly(ctx, self.n, {e: exp[v] for e, v in out.items()})

    def scale(self, c):
        """Multiply by a field element."""
        if not isinstance(c, FieldElem):
            c = self.ctx.elem(c)
        return SparsePoly(self.ctx, self.n,
                          {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative exponent %d" % k)
        result = SparsePoly.constant(self.ctx, self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation and substitution -----------------------------------------

    def evaluate(self, point):
        """The value at a length-n point of field elements: the constant of
        the restriction to the line that stays at the point."""
        if len(point) != self.n:
            raise ShapeMismatch("point has wrong dimension")
        return restrict_to_line(self, point, point).terms.get(
            (0, 0), self.ctx.zero())

    def substitute(self, i, g):
        """Replace variable i by the polynomial g (same arity)."""
        self._check(g)
        by_deg = {}
        for e, c in self.terms.items():
            ei = e[i]
            rest = list(e)
            rest[i] = 0
            by_deg.setdefault(ei, {})[tuple(rest)] = c
        result = SparsePoly.zero(self.ctx, self.n)
        gpow = SparsePoly.constant(self.ctx, self.n, 1)
        last = 0
        for ei in sorted(by_deg):
            while last < ei:
                gpow = gpow * g
                last += 1
            part = SparsePoly(self.ctx, self.n, by_deg[ei])
            result = result + part * gpow
        return result

    def drop_var(self, i):
        """Remove a variable the polynomial does not depend on."""
        if self.degree(i) > 0:
            raise ValueError("%s depends on variable %d"
                             % (format_poly(self), i))
        out = {}
        for e, c in self.terms.items():
            out[e[:i] + e[i + 1:]] = c
        return SparsePoly(self.ctx, self.n - 1, out)

    def insert_var(self, i):
        """Add a fresh (unused) variable at index i."""
        out = {}
        for e, c in self.terms.items():
            out[e[:i] + (0,) + e[i:]] = c
        return SparsePoly(self.ctx, self.n + 1, out)

    # -- leading coefficients -------------------------------------------------

    def lead_and_degrees(self, i):
        """(leading coefficient w.r.t. variable i, degree in i).

        The leading coefficient is returned with the same arity, variable i
        absent."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial")
        d = self.degree(i)
        return self.coeff_of(i, d), d

    def coeff_of(self, i, j):
        """Coefficient polynomial of x_i^j (variable i zeroed out)."""
        out = {}
        for e, c in self.terms.items():
            if e[i] == j:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return SparsePoly(self.ctx, self.n, out)

    def is_monic_in(self, i):
        lc, _ = self.lead_and_degrees(i)
        return lc.is_constant() and lc.constant_value().is_one()

    def __eq__(self, other):
        return (isinstance(other, SparsePoly) and self.n == other.n
                and self.ctx == other.ctx and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx, self.n, frozenset(
            (e, c.coeffs) for e, c in self.terms.items())))

    def __repr__(self):
        return "SparsePoly(%s)" % format_poly(self)


class Factorization:
    """unit * prod(factor^mult) == the source polynomial, exactly."""

    __slots__ = ("unit", "parts")

    def __init__(self, unit, parts):
        self.unit = unit
        self.parts = list(parts)

    @classmethod
    def assemble(cls, f, parts):
        """The canonical factorization of f from (factor, multiplicity) pairs
        whose product is f up to a scalar.

        Scalar-normalizes each factor, merges duplicates, sorts by (total
        degree, sort_key, multiplicity) and solves the unit.  Raises
        NoFactorizationFound unless the result multiplies back to f.
        """
        merged = {}
        for h, m in parts:
            h, _ = normalize_scalar(h)
            key = h.sort_key()
            merged[key] = (h, merged[key][1] + m if key in merged else m)
        out = sorted(merged.values(), key=lambda hm: (
            sum(hm[0].degrees()), hm[0].sort_key(), hm[1]))
        _, unit = f.leading_term()
        for h, m in out:
            _, hc = h.leading_term()
            unit = unit * (hc.inverse() ** m)
        fac = cls(unit, out)
        if fac.expand(f.ctx, f.n) != f:
            raise NoFactorizationFound("factors do not multiply back to the input")
        return fac

    def expand(self, ctx=None, n=None):
        """Multiply the factorization back out.

        ctx/n are only needed when there are no parts (constant input)."""
        if not self.parts:
            return SparsePoly.constant(ctx or self.unit.ctx,
                                       1 if n is None else n, self.unit)
        n = self.parts[0][0].n
        result = SparsePoly.constant(self.parts[0][0].ctx, n, 1)
        for f, m in self.parts:
            result = result * f ** m
        return result.scale(self.unit)

    def __repr__(self):
        body = " * ".join("(%s)^%d" % (format_poly(f), m) for f, m in self.parts)
        return "%s * %s" % (self.unit, body if body else "1")


def normalize_scalar(f):
    """Scale f so its lex-leading coefficient (variable 0 most significant)
    is 1.  Returns (normalized, removed scalar)."""
    if f.is_zero():
        raise ZeroPolynomial("cannot normalize zero")
    e = max(f.terms)  # pure lex on exponent tuples
    c = f.terms[e]
    if c.is_one():
        return f, f.ctx.one()
    return f.scale(c.inverse()), c


# -- line restriction ---------------------------------------------------------

def restrict_to_line(f, a, b):
    """Restrict the x-variables of f to the line (1-t)*a + t*b.

    f has either n variables (no y) or n+1 with y last, where n = len(a).
    The result is bivariate in (y, t) with y = index 0, t = index 1.
    Evaluating at t=0 gives f(y, a); at t=1 gives f(y, b).  With b = a it
    is project_y and SparsePoly.evaluate, the only other ways to put field
    values into f; a coordinate with b_i = a_i costs one log power per
    term, whatever its degree.  The coordinates must be elements of f's field
    (TypeError for any other object, CtxMismatch for another field's).
    """
    n = len(a)
    if len(b) != n or f.n not in (n, n + 1):
        raise ShapeMismatch("line endpoints do not match the polynomial")
    has_y = f.n == n + 1
    ctx = f.ctx
    for v in (*a, *b):
        if not isinstance(v, FieldElem):
            raise TypeError("a point coordinate must be a FieldElem, not %s"
                            % type(v).__name__)
        if v.ctx is not ctx and v.ctx != ctx:
            raise CtxMismatch("a point coordinate from a different field")
    exp, zl, q1 = ctx.exp, ctx.zero_log, ctx.q - 1
    # per-variable linear polynomials in t, a_i + (b_i - a_i) t, and their
    # powers, as dense exponent lists (see unifactor)
    lines = [(a[i].log, (b[i] - a[i]).log) for i in range(n)]
    powers = [[[0]] for _ in range(n)]
    moving = [i for i in range(n) if lines[i][1] != zl]
    width = 1 + max((sum(e[i] for i in moving) for e in f.terms), default=0)
    rows = {}  # y-exponent -> t-coefficients
    for e, c in f.terms.items():
        # a coordinate that stays at a_i scales the term by a_i^e_i, one
        # log; the others multiply its t-coefficients (None for one) by
        # powers of their lines, built up as far as needed
        lc, tco = c.log, None
        for line, pows, k in zip(lines, powers, e):
            if not k:
                continue
            if line[1] != zl:
                while len(pows) <= k:
                    pows.append(mul_logs(ctx, pows[-1], line))
                tco = pows[k] if tco is None else mul_logs(ctx, tco, pows[k])
            elif lc != zl:  # zero sticks once some a_i = 0
                lc = zl if line[0] == zl else (lc + k * line[0]) % q1
        ey = e[n] if has_y else 0
        if ey not in rows:
            rows[ey] = [zl] * width
        addmul_logs(ctx, rows[ey], (0,) if tco is None else tco, (lc,))
    return SparsePoly(ctx, 2, {(ey, j): exp[v] for ey, row in rows.items()
                               for j, v in enumerate(row) if v != zl})


def project_y(f, a):
    """f(a, y) as a UniPoly in y, for f with y at the last index and a point
    a for the other f.n - 1 variables: the t^0 row of the restriction to
    the line that stays at a."""
    nx = f.n - 1
    if len(a) != nx:
        raise ShapeMismatch("point has %d coordinates, expected %d"
                            % (len(a), nx))
    logs = [f.ctx.zero_log] * (f.degree(nx) + 1)
    for (ey, _), c in restrict_to_line(f, a, a).terms.items():
        logs[ey] = c.log  # a line that stays at a has only a t^0 row
    return UniPoly.from_logs(f.ctx, logs)


# -- the monic transform ------------------------------------------------------

def make_monic(f):
    """Eliminate the last variable in favor of a fresh monic variable y.

    For f = sum_j f_j * x_last^j of degree k >= 1, returns
    (fhat, f_k, k) with fhat = y^k + sum_{j<k} f_j * f_k^(k-1-j) * y^j,
    monic in y (y at the last index of fhat), and f_k the leading
    coefficient with the eliminated variable dropped.
    """
    last = f.n - 1
    k = f.degree(last)
    if k <= 0:
        raise ZeroDegree("polynomial does not depend on the last variable")
    s = f.sparsity()
    d = f.max_degree()
    coeffs = [f.coeff_of(last, j) for j in range(k + 1)]
    fk = coeffs[k]
    out = SparsePoly.variable(f.ctx, f.n, last, k)  # y^k, y reusing last slot
    power = SparsePoly.constant(f.ctx, f.n, 1)      # f_k^(k-1-j), built downward
    for j in range(k - 1, -1, -1):
        if not coeffs[j].is_zero():
            yj = SparsePoly.variable(f.ctx, f.n, last, j) if j else \
                SparsePoly.constant(f.ctx, f.n, 1)
            out = out + coeffs[j] * power * yj
        if j > 0:
            power = power * fk
    if (out.sparsity() > s ** d or out.max_degree() > d * d
            or not out.is_monic_in(last)):
        raise BoundViolation("monic transform breaks its sparsity, degree "
                             "or monicity bound")
    return out, fk.drop_var(last), k


# -- sparse division ----------------------------------------------------------

def sparse_divide(f, g):
    """The exact quotient f/g, or None when g does not divide f.

    Leading-term rewriting in graded-lex order: if f = q*g the loop
    reconstructs q exactly; any non-divisible leading term certifies
    non-divisibility.  The remainder is one dict, updated in place, whose
    exponents wait in a heap ordered by the term order (Monagan & Pearce,
    "Sparse polynomial division using a heap", JSC 2011, with a dict in
    place of their heap of products).  The result is re-verified by
    multiplication; NoFactorizationFound is raised if that fails.
    """
    if g.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    f._check(g)
    ctx = f.ctx
    red, zech, zl = ctx.reduce, ctx.zech, ctx.zero_log
    ge, gc = g.leading_term()
    inv = red[ctx.q - 1 - gc.log]
    # subtracting (r/lc(g)) * g from the remainder adds r * ng, ng = -g/lc(g)
    m1 = ctx.minus_one_log
    ng = [(e, red[red[c.log + m1] + inv]) for e, c in g.terms.items()
          if e != ge]
    rem = {e: c.log for e, c in f.terms.items()}
    heap = [(-sum(e), tuple([-v for v in e]), e) for e in rem]
    heapq.heapify(heap)
    q = {}
    while heap:
        e = heapq.heappop(heap)[2]
        r = rem.pop(e, zl)
        if r == zl:
            continue  # cancelled, or a second heap entry of a done exponent
        qe = tuple(map(operator.sub, e, ge))
        if any(v < 0 for v in qe):
            return None
        q[qe] = red[r + inv]
        for ee, c in ng:
            k = tuple(map(operator.add, qe, ee))
            t = r + c
            o = rem.get(k)
            if o is None:
                rem[k] = red[t]
                heapq.heappush(heap, (-sum(k), tuple([-v for v in k]), k))
            else:
                o = red[o + zech[t - o]]
                if o == zl:
                    del rem[k]
                else:
                    rem[k] = o
    exp = ctx.exp
    quotient = SparsePoly(ctx, f.n, {e: exp[v] for e, v in q.items()})
    if quotient * g != f:
        raise NoFactorizationFound("quotient does not multiply back to f")
    return quotient


def _check_subfield(base, ext):
    if base.ell != 1 or base.p != ext.p:
        raise CtxMismatch("%r is not the prime subfield of %r" % (base, ext))


def lift_poly(f, ext):
    """Embed a prime-field polynomial into an extension of the same
    characteristic (coefficients become constant vectors)."""
    _check_subfield(f.ctx, ext)
    pad = (0,) * (ext.ell - 1)
    return SparsePoly(ext, f.n, {e: ext.elem((c.coeffs[0],) + pad)
                                 for e, c in f.terms.items()})


def retract_poly(f, base):
    """Inverse of lift_poly; None if any coefficient leaves the subfield."""
    _check_subfield(base, f.ctx)
    out = {}
    for e, c in f.terms.items():
        if any(v != 0 for v in c.coeffs[1:]):
            return None
        out[e] = base.elem(c.coeffs[0])
    return SparsePoly(base, f.n, out)


def phi_score(multiplicities):
    """Refinement score 2*sum(e_i) - m; maximal exactly for the complete
    factorization into pairwise-coprime irreducibles."""
    es = list(multiplicities)
    if not es:
        raise EmptyVector("no multiplicities")
    if min(es) < 1:
        raise ValueError("multiplicities must be positive")
    return 2 * sum(es) - len(es)


# -- text grammar -------------------------------------------------------------
#
#   poly   := term ('+' term)*
#   term   := factor ('*' factor)*
#   factor := int | '[' (int (',' int)*)? ']' | var ('^' exp)?
#   var    := 'x'<index> | 'y'
#
# Whitespace may surround every token.  Coefficients are field-element
# serializations: a term holds any number of integer factors, which
# multiply, or exactly one bracketed residue list (an extension-field
# element, '[]' is zero) and no integer.  Exponents of a repeated variable
# add, and repeated monomials add.

_FACTOR = re.compile(r"\s*(?:(\d+)|\[\s*(?:((?:\d+\s*,\s*)*\d+)\s*)?\]"
                     r"|(x\d+|y)(?:\s*\^\s*(\d+))?)\s*")


def parse_poly(text, ctx, nvars=None):
    """Parse the polynomial grammar.  Variables x1..xk map to indices 0..k-1;
    y (if present) maps to the last index.  nvars forces the x-variable count."""
    monomials = []  # (int or residue list, {x index, or -1 for y: exponent})
    max_x = nvars or 0
    for term in text.split("+"):
        ints, lists, powers = [], [], {}
        for factor in term.split("*"):
            m = _FACTOR.fullmatch(factor)
            if m is None:
                raise ParseError("bad factor %r in %r" % (factor.strip(), text))
            num, residues, var, exp = m.groups()
            if num is not None:
                ints.append(int(num))
            elif var is None:
                lists.append([int(v) for v in residues.split(",")]
                             if residues else [])
            else:
                i = -1 if var == "y" else int(var[1:]) - 1
                if i == -1 and var != "y":
                    raise ParseError("variable indices start at 1")
                max_x = max(max_x, i + 1)
                powers[i] = powers.get(i, 0) + int(exp or 1)
        if lists and (ints or len(lists) > 1):
            raise ParseError("two coefficients in one term")
        monomials.append((lists[0] if lists else math.prod(ints), powers))
    if nvars is not None and max_x > nvars:
        raise ParseError("variable index exceeds declared count")
    # y takes the slot after the last x; a constant still needs an arity
    n = max(max_x + any(-1 in powers for _, powers in monomials), 1)
    terms = {}
    for coeff, powers in monomials:
        e = [0] * n
        for i, exp in powers.items():
            e[i] = exp
        try:
            c = ctx.elem(coeff)
        except ShapeMismatch as err:
            raise ParseError(str(err)) from None
        e = tuple(e)
        terms[e] = terms[e] + c if e in terms else c
    return SparsePoly(ctx, n, terms)


def parse_polys(texts, ctx):
    """Parse texts in one variable layout: x1..xk for the largest k any of
    them names, then y in the last slot when any of them has it."""
    nx = max((int(i) for t in texts for i in re.findall(r"x(\d+)", t)),
             default=0)
    n = max(nx + any("y" in t for t in texts), 1)
    polys = [parse_poly(t, ctx, nvars=nx) for t in texts]
    return [p if p.n == n else p.insert_var(nx) for p in polys]


def format_poly(f):
    """Deterministic text form: graded-lex descending, '+'-separated."""
    if f.is_zero():
        return "0"
    parts = []
    for e, c in f.canonical_terms():
        factors = []
        cs = c.serialize()
        if not (cs == 1 and any(e)):
            factors.append(str(cs).replace(" ", ""))
        for i, ei in enumerate(e):
            if ei == 1:
                factors.append("x%d" % (i + 1))
            elif ei > 1:
                factors.append("x%d^%d" % (i + 1, ei))
        parts.append("*".join(factors))
    return " + ".join(parts)
