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
"""

import re

from .errors import (ShapeMismatch, ZeroPolynomial, ZeroDegree, EmptyVector,
                     Reject, ParseError, CtxMismatch, NoFactorizationFound)
from .field import FieldElem
from .unifactor import UniPoly


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
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

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
        assert self.is_constant()
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
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                if e in out:
                    s = out[e] + c
                    if s.is_zero():
                        del out[e]
                    else:
                        out[e] = s
                elif not c.is_zero():
                    out[e] = c
        return SparsePoly(self.ctx, self.n, out)

    def scale(self, c):
        """Multiply by a field element."""
        if not isinstance(c, FieldElem):
            c = self.ctx.elem(c)
        if c.is_zero():
            return SparsePoly.zero(self.ctx, self.n)
        return SparsePoly(self.ctx, self.n,
                          {e: v * c for e, v in self.terms.items()})

    def __pow__(self, k):
        assert k >= 0
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
        """Full evaluation at a length-n point of field elements."""
        if len(point) != self.n:
            raise ShapeMismatch("point has wrong dimension")
        acc = self.ctx.zero()
        # cache powers per variable
        powers = [{0: self.ctx.one()} for _ in range(self.n)]
        for e, c in self.terms.items():
            v = c
            for i, ei in enumerate(e):
                if ei:
                    cache = powers[i]
                    if ei not in cache:
                        cache[ei] = point[i] ** ei
                    v = v * cache[ei]
            acc = acc + v
        return acc

    def eval_partial(self, assign):
        """Substitute constants for a subset of variables.

        assign maps variable index -> FieldElem.  The result keeps n variables
        (substituted ones no longer occur)."""
        for i in assign:
            if not 0 <= i < self.n:
                raise ShapeMismatch("variable index out of range")
        out = {}
        pow_cache = {i: {0: self.ctx.one()} for i in assign}
        for e, c in self.terms.items():
            v = c
            new_e = list(e)
            for i, val in assign.items():
                ei = e[i]
                if ei:
                    cache = pow_cache[i]
                    if ei not in cache:
                        cache[ei] = val ** ei
                    v = v * cache[ei]
                new_e[i] = 0
            key = tuple(new_e)
            if key in out:
                s = out[key] + v
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
            elif not v.is_zero():
                out[key] = v
        return SparsePoly(self.ctx, self.n, out)

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
        assert self.degree(i) <= 0
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

    def permute_vars(self, perm):
        """Reindex variables: new index j holds old variable perm[j]."""
        assert sorted(perm) == list(range(self.n))
        out = {}
        for e, c in self.terms.items():
            out[tuple(e[perm[j]] for j in range(self.n))] = c
        return SparsePoly(self.ctx, self.n, out)

    # -- leading coefficients -------------------------------------------------

    def lead_and_degrees(self, i):
        """(leading coefficient w.r.t. variable i, degree in i).

        The leading coefficient is returned with the same arity, variable i
        absent."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial")
        d = self.degree(i)
        out = {}
        for e, c in self.terms.items():
            if e[i] == d:
                key = e[:i] + (0,) + e[i + 1:]
                out[key] = c
        return SparsePoly(self.ctx, self.n, out), d

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
            return SparsePoly.constant(ctx or self.unit.ctx, n or 1, self.unit)
        n = self.parts[0][0].n
        result = SparsePoly.constant(self.parts[0][0].ctx, n, 1)
        for f, m in self.parts:
            result = result * f ** m
        return result.scale(self.unit)

    def multiset_key(self):
        """Order-insensitive identity of the factor multiset (up to units)."""
        return tuple(sorted((normalize_scalar(f)[0].sort_key(), m)
                            for f, m in self.parts))

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
    Evaluating at t=0 gives f(y, a); at t=1 gives f(y, b).
    """
    n = len(a)
    if len(b) != n or f.n not in (n, n + 1):
        raise ShapeMismatch("line endpoints do not match the polynomial")
    has_y = f.n == n + 1
    ctx = f.ctx
    # per-variable linear polynomials in t: a_i + (b_i - a_i) t
    lines = [(a[i], b[i] - a[i]) for i in range(n)]
    # cache powers of each line as dense t-coefficient lists
    pow_cache = [{0: [ctx.one()]} for _ in range(n)]

    def line_power(i, e):
        cache = pow_cache[i]
        if e not in cache:
            prev = line_power(i, e - 1)
            c0, c1 = lines[i]
            out = [ctx.zero()] * (len(prev) + 1)
            for j, v in enumerate(prev):
                out[j] = out[j] + v * c0
                out[j + 1] = out[j + 1] + v * c1
            cache[e] = out
        return cache[e]

    out = {}
    for e, c in f.terms.items():
        ey = e[n] if has_y else 0
        tco = [c]
        for i in range(n):
            if e[i]:
                pw = line_power(i, e[i])
                new = [ctx.zero()] * (len(tco) + len(pw) - 1)
                for j, v in enumerate(tco):
                    if not v.is_zero():
                        for k2, w in enumerate(pw):
                            new[j + k2] = new[j + k2] + v * w
                tco = new
        for j, v in enumerate(tco):
            if v.is_zero():
                continue
            key = (ey, j)
            if key in out:
                s = out[key] + v
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = v
    return SparsePoly(ctx, 2, out)


def project_y(f, a):
    """f(a, y) as a UniPoly in y, for f with y at the last index and a point
    a for the other f.n - 1 variables."""
    nx = f.n - 1
    if len(a) != nx:
        raise ShapeMismatch("point has %d coordinates, expected %d"
                            % (len(a), nx))
    ctx = f.ctx
    out = [ctx.zero()] * (f.degree(nx) + 1)
    pow_cache = [{0: ctx.one()} for _ in range(nx)]
    for e, c in f.terms.items():
        v = c
        for i in range(nx):
            if e[i]:
                cache = pow_cache[i]
                if e[i] not in cache:
                    cache[e[i]] = a[i] ** e[i]
                v = v * cache[e[i]]
        out[e[nx]] = out[e[nx]] + v
    return UniPoly(ctx, out)


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
    assert out.sparsity() <= s ** d
    assert out.max_degree() <= d * d
    assert out.is_monic_in(last)
    return out, fk.drop_var(last), k


# -- sparse division ----------------------------------------------------------

def sparse_divide(f, g, cap=None):
    """Exact quotient f/g if it exists and has at most `cap` terms.

    Raises Reject when g does not divide f or the quotient exceeds the cap.
    Implemented by leading-term rewriting in graded-lex order: if f = q*g the
    loop reconstructs q exactly; any non-divisible leading term certifies
    non-divisibility.  The result is re-verified by multiplication.
    """
    if g.is_zero():
        raise ZeroPolynomial("division by the zero polynomial")
    f._check(g)
    if f.is_zero():
        return SparsePoly.zero(f.ctx, f.n)
    ge, gc = g.leading_term()
    gc_inv = gc.inverse()
    rem = f
    q = {}
    while not rem.is_zero():
        e, c = rem.leading_term()
        qe = tuple(a - b for a, b in zip(e, ge))
        if any(v < 0 for v in qe):
            raise Reject("not divisible")
        qc = c * gc_inv
        q[qe] = qc
        if cap is not None and len(q) > cap:
            raise Reject("quotient exceeds sparsity cap %d" % cap)
        rem = rem - g * SparsePoly(f.ctx, f.n, {qe: qc})
    quotient = SparsePoly(f.ctx, f.n, q)
    if quotient * g != f:
        raise Reject("verification failed")  # pragma: no cover - loop is exact
    return quotient


def lift_poly(f, ext):
    """Embed a prime-field polynomial into an extension of the same
    characteristic (coefficients become constant vectors)."""
    assert f.ctx.ell == 1 and ext.p == f.ctx.p
    pad = (0,) * (ext.ell - 1)
    return SparsePoly(ext, f.n, {e: ext.elem((c.coeffs[0],) + pad)
                                 for e, c in f.terms.items()})


def retract_poly(f, base):
    """Inverse of lift_poly; None if any coefficient leaves the subfield."""
    assert base.ell == 1 and base.p == f.ctx.p
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
    assert all(e >= 1 for e in es)
    return 2 * sum(es) - len(es)


# -- text grammar -------------------------------------------------------------
#
#   poly := term ('+' term)*
#   term := coeff ('*' var ('^' exp)?)*  |  var ('^' exp)? ('*' var ('^' exp)?)*
#   var  := 'x'<index> | 'y'
#
# Coefficients are field-element serializations (ints; bracketed residue
# vectors for extension fields).

_TOKEN = re.compile(r"\s*(x\d+|y|\^|\*|\+|\[[\d,\s]*\]|\d+)")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("unexpected input at %r" % text[pos:pos + 10])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_poly(text, ctx, nvars=None):
    """Parse the polynomial grammar.  Variables x1..xk map to indices 0..k-1;
    y (if present) maps to the last index.  nvars forces the x-variable count."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty polynomial text")
    terms = []  # list of (coeff int/list, {varname: exp})
    i = 0
    max_x = nvars or 0
    uses_y = False
    while i < len(toks):
        coeff = 1
        powers = {}
        expect_factor = True
        while i < len(toks) and toks[i] != "+":
            tok = toks[i]
            if tok == "*":
                if expect_factor:
                    raise ParseError("misplaced '*'")
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ParseError("missing '*' before %r" % tok)
            if tok == "^":
                raise ParseError("dangling '^'")
            if tok.startswith("x") or tok == "y":
                exp = 1
                if i + 1 < len(toks) and toks[i + 1] == "^":
                    if i + 2 >= len(toks) or not toks[i + 2].isdigit():
                        raise ParseError("bad exponent")
                    exp = int(toks[i + 2])
                    i += 2
                if tok == "y":
                    uses_y = True
                    powers["y"] = powers.get("y", 0) + exp
                else:
                    idx = int(tok[1:])
                    if idx < 1:
                        raise ParseError("variable indices start at 1")
                    max_x = max(max_x, idx)
                    powers[idx] = powers.get(idx, 0) + exp
            elif tok.startswith("["):
                coeff = [int(v) for v in tok[1:-1].split(",") if v.strip()]
            elif tok.isdigit():
                if isinstance(coeff, int):
                    coeff = coeff * int(tok)
                else:
                    raise ParseError("two coefficients in one term")
            else:
                raise ParseError("unexpected token %r" % tok)
            expect_factor = False
            i += 1
        if expect_factor and powers == {} and coeff == 1:
            raise ParseError("empty term")
        terms.append((coeff, powers))
        if i < len(toks):
            i += 1  # skip '+'
            if i == len(toks):
                raise ParseError("trailing '+'")
    if nvars is not None and max_x > nvars:
        raise ParseError("variable index exceeds declared count")
    n = max_x + (1 if uses_y else 0)
    if n == 0:
        n = 1  # constant polynomial still needs an arity
    poly = SparsePoly.zero(ctx, n)
    for coeff, powers in terms:
        e = [0] * n
        for name, exp in powers.items():
            if name == "y":
                e[n - 1] = exp
            else:
                e[name - 1] = exp
        c = ctx.elem(coeff)
        poly = poly + SparsePoly(ctx, n, {tuple(e): c} if not c.is_zero() else {})
    return poly


def format_poly(f, var_names=None):
    """Deterministic text form: graded-lex descending, '+'-separated."""
    if f.is_zero():
        return "0"
    if var_names is None:
        var_names = ["x%d" % (i + 1) for i in range(f.n)]
    parts = []
    for e, c in f.canonical_terms():
        factors = []
        cs = c.serialize()
        if not (cs == 1 and any(e)):
            factors.append(str(cs).replace(" ", ""))
        for i, ei in enumerate(e):
            if ei == 1:
                factors.append(var_names[i])
            elif ei > 1:
                factors.append("%s^%d" % (var_names[i], ei))
        parts.append("*".join(factors))
    return " + ".join(parts)
