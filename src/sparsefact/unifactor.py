"""Univariate polynomials over F_q and their deterministic factorization.

Factoring runs squarefree decomposition (with the char-p Frobenius-inverse
rewrite f(y) = u(y^p) when the derivative vanishes) followed by Berlekamp
nullspace splitting.  Splitting is fully deterministic: it walks the
nullspace basis vectors in order and, for each, tries gcd(w, v - c) for every
field element c in enumeration order — affordable because fields are capped
at desk scale, and guaranteed to separate all factors since the Berlekamp
algebra separates any two of them through some basis vector.

Representation.  A UniPoly keeps its coefficients as the field's discrete
logarithms (`logs`, ascending, trailing zeros trimmed, `zero_log` for a zero
coefficient inside), the exponents a FieldElem carries.  Every kernel (`+`,
`-`, `*`, `scale`, `divmod`, `gcd`, `xgcd`, `evaluate`, `compose`, `shift`,
`pow_mod`, the Berlekamp nullspace) runs on those ints through the
context's list tables (`reduce`, `zech`, `minus_one_log`; see `field`), so
no FieldElem is made or called inside a loop.  `coeffs` is a read-only tuple
view of the interned FieldElem objects, and FieldElem stays the type at the
API boundary (the constructor, `lc`, `[i]`, `evaluate`).  The exponent-list
kernels `addmul_logs`, `mul_logs`, `iadd_logs` and `divmod_logs` are shared
with `bifactor` (truncated y-list products) and `sparsepoly` (line
restriction), whose other hot loops use the same tables.
"""

from .errors import DivByZero, CtxMismatch, ZeroDegree, NoFactorizationFound
from .field import FieldElem


# -- kernels on exponent lists ------------------------------------------------
#
# A coefficient is its discrete log (`ctx.zero_log` for zero).  With la, lb
# canonical, t = la + lb is the log of a*b before reduction (t < 2(q-1)), and
# adding the product into an accumulator o is `reduce[t]` when o is zero and
# `reduce[o + zech[t - o]]` otherwise; `zech` spans differences in
# (-(q-1), 2(q-1)), so t needs no reduction first.

def addmul_logs(ctx, out, A, B):
    """out[i + j] += A[i] * B[j] in place, for every index below len(out):
    adds a product truncated to len(out) coefficients."""
    red, zech, zl = ctx.reduce, ctx.zech, ctx.zero_log
    n = len(out)
    bs = [(j, b) for j, b in enumerate(B) if b != zl]
    for i, a in enumerate(A):
        if a == zl:
            continue
        for k, b in bs:
            k += i
            if k >= n:
                break
            t = a + b
            o = out[k]
            out[k] = red[t] if o == zl else red[o + zech[t - o]]
    return out


def mul_logs(ctx, A, B):
    """The full product of two exponent lists, untrimmed."""
    if not A or not B:
        return []
    return addmul_logs(ctx, [ctx.zero_log] * (len(A) + len(B) - 1), A, B)


def iadd_logs(ctx, out, B, negate=False):
    """out += B (out -= B when negate) in place, extending out as needed."""
    red, zech, zl = ctx.reduce, ctx.zech, ctx.zero_log
    m1 = ctx.minus_one_log if negate else 0
    if len(out) < len(B):
        out.extend([zl] * (len(B) - len(out)))
    for k, b in enumerate(B):
        if b == zl:
            continue
        t = b + m1
        o = out[k]
        out[k] = red[t] if o == zl else red[o + zech[t - o]]
    return out


def divmod_logs(ctx, A, B):
    """(quotient, remainder) exponent lists of A by B; B's last entry must
    be nonzero.  The remainder keeps len(B) - 1 entries, untrimmed."""
    red, zech, zl = ctx.reduce, ctx.zech, ctx.zero_log
    db = len(B) - 1
    rem = list(A)
    if len(rem) <= db:
        return [], rem
    inv = red[ctx.q - 1 - B[db]]
    # rem -= (r / lc) * B is rem += r * nb, with nb = -B / lc
    m1 = ctx.minus_one_log
    nb = [(j, red[red[b + m1] + inv]) for j, b in enumerate(B[:db]) if b != zl]
    quo = [zl] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        r = rem[i]
        if r == zl:
            continue
        base = i - db
        quo[base] = red[r + inv]
        for j, b in nb:
            k = base + j
            t = r + b
            o = rem[k]
            rem[k] = red[t] if o == zl else red[o + zech[t - o]]
    del rem[db:]
    return quo, rem


class UniPoly:
    """Dense univariate polynomial over a field.

    `logs` holds the coefficients ascending as discrete logs, trailing zeros
    trimmed; `coeffs` is the same polynomial as a tuple of FieldElem."""

    __slots__ = ("ctx", "logs")

    def __init__(self, ctx, coeffs=()):
        logs = []
        for c in coeffs:
            if getattr(c, "ctx", None) is not ctx:
                _check_elem(c, ctx, "a coefficient")
            logs.append(c.log)
        self.ctx = ctx
        self.logs = _trimmed(logs, ctx.zero_log)

    @classmethod
    def from_logs(cls, ctx, logs):
        """The polynomial with canonical exponents `logs` (ascending)."""
        zl = ctx.zero_log
        u = object.__new__(cls)
        u.ctx = ctx
        u.logs = _trimmed(logs, zl) if logs and logs[-1] == zl else tuple(logs)
        return u

    @classmethod
    def constant(cls, ctx, c):
        if not isinstance(c, FieldElem):
            c = ctx.elem(c)
        return cls(ctx, (c,))

    @classmethod
    def x(cls, ctx):
        return cls(ctx, (ctx.zero(), ctx.one()))

    @property
    def coeffs(self):
        exp = self.ctx.exp
        return tuple([exp[v] for v in self.logs])

    def _check(self, other):
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise CtxMismatch("polynomials over different fields")

    def degree(self):
        return len(self.logs) - 1  # -1 for zero

    def is_zero(self):
        return not self.logs

    def is_constant(self):
        return len(self.logs) <= 1

    def lc(self):
        return self.ctx.exp[self.logs[-1]]

    def __getitem__(self, i):
        if 0 <= i < len(self.logs):
            return self.ctx.exp[self.logs[i]]
        return self.ctx.zero()

    def __add__(self, other):
        self._check(other)
        return UniPoly.from_logs(self.ctx, iadd_logs(
            self.ctx, list(self.logs), other.logs))

    def __sub__(self, other):
        self._check(other)
        return UniPoly.from_logs(self.ctx, iadd_logs(
            self.ctx, list(self.logs), other.logs, negate=True))

    def __neg__(self):
        return self._scale_log(self.ctx.minus_one_log)

    def __mul__(self, other):
        self._check(other)
        return UniPoly.from_logs(self.ctx,
                                 mul_logs(self.ctx, self.logs, other.logs))

    def scale(self, c):
        if getattr(c, "ctx", None) is not self.ctx:
            _check_elem(c, self.ctx, "a scalar")
        return self._scale_log(c.log)

    def _scale_log(self, lc):
        """The polynomial times the element of log lc."""
        red = self.ctx.reduce
        return UniPoly.from_logs(self.ctx, [red[v + lc] for v in self.logs])

    def divmod(self, other):
        self._check(other)
        if not other.logs:
            raise DivByZero("division by zero polynomial")
        q, r = divmod_logs(self.ctx, self.logs, other.logs)
        return UniPoly.from_logs(self.ctx, q), UniPoly.from_logs(self.ctx, r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if not self.logs or self.logs[-1] == 0:
            return self
        return self._scale_log(self.ctx.q - 1 - self.logs[-1])

    def gcd(self, other):
        self._check(other)
        ctx = self.ctx
        a, b = self.logs, other.logs
        while b:
            a, b = b, _trimmed(divmod_logs(ctx, a, b)[1], ctx.zero_log)
        return UniPoly.from_logs(ctx, a).monic()

    def xgcd(self, other):
        """(g, s, t) with s*self + t*other = g, g monic."""
        ctx = self.ctx
        r0, r1 = self, other
        s0, s1 = UniPoly.constant(ctx, 1), UniPoly(ctx)
        t0, t1 = UniPoly(ctx), UniPoly.constant(ctx, 1)
        while not r1.is_zero():
            q, r = r0.divmod(r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if r0.is_zero():
            return r0, s0, t0
        inv = ctx.q - 1 - r0.logs[-1]
        return r0._scale_log(inv), s0._scale_log(inv), t0._scale_log(inv)

    def derivative(self):
        ctx = self.ctx
        red = ctx.reduce
        return UniPoly.from_logs(ctx, [red[ctx.elem(i).log + v]
                                       for i, v in enumerate(self.logs) if i])

    def evaluate(self, x):
        """The value at the field element x."""
        ctx = self.ctx
        if getattr(x, "ctx", None) is not ctx:
            _check_elem(x, ctx, "a point")
        red, zech, zl, lx = ctx.reduce, ctx.zech, ctx.zero_log, x.log
        acc = zl
        for c in reversed(self.logs):
            acc = red[acc + lx]
            if c != zl:
                acc = c if acc == zl else red[acc + zech[c - acc]]
        return ctx.exp[acc]

    def compose(self, other):
        """self(other(y))."""
        self._check(other)
        ctx = self.ctx
        acc = []
        for c in reversed(self.logs):
            acc = iadd_logs(ctx, mul_logs(ctx, acc, other.logs), (c,))
        return UniPoly.from_logs(ctx, acc)

    def shift(self, c):
        """self(y + c)."""
        return self.compose(UniPoly(self.ctx, (c, self.ctx.one())))

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power %d of a polynomial" % k)
        if k == 0:
            return UniPoly.constant(self.ctx, 1)
        result = self
        for bit in bin(k)[3:]:  # square and multiply below the top bit
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def pow_mod(self, e, mod):
        result = UniPoly.constant(self.ctx, 1)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result

    def sort_key(self):
        return (self.degree(), tuple(c.index() for c in self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.ctx == other.ctx
                and self.logs == other.logs)

    def __hash__(self):
        return hash((self.ctx, self.logs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = "" if (c.is_one() and i > 0) else str(c.serialize())
            if i == 0:
                parts.append(cs or "1")
            elif i == 1:
                parts.append((cs + "*" if cs else "") + "y")
            else:
                parts.append((cs + "*" if cs else "") + "y^%d" % i)
        return " + ".join(parts)


def _check_elem(c, ctx, what):
    """Raise TypeError unless c is a FieldElem and CtxMismatch unless it is
    ctx's; the callers first test c.ctx is ctx, the one check their hot
    path pays."""
    if not isinstance(c, FieldElem):
        raise TypeError("%s must be a FieldElem, not %s"
                        % (what, type(c).__name__))
    if c.ctx != ctx:
        raise CtxMismatch("%s from a different field" % what)


def _trimmed(logs, zl):
    """logs as a tuple without trailing zeros."""
    n = len(logs)
    while n and logs[n - 1] == zl:
        n -= 1
    return tuple(logs[:n])


class UniFactorization:
    """unit * prod(part^mult) reproduces the source polynomial."""

    __slots__ = ("unit", "parts")

    def __init__(self, unit, parts):
        self.unit = unit
        self.parts = list(parts)

    def expand(self):
        ctx = self.unit.ctx
        out = UniPoly.constant(ctx, self.unit)
        for f, m in self.parts:
            for _ in range(m):
                out = out * f
        return out

    def __repr__(self):
        return "%s * %s" % (self.unit,
                            " * ".join("(%r)^%d" % (f, m) for f, m in self.parts))


def _pth_root_poly(f):
    """The p-th root of f, whose derivative vanishes (every exponent is a
    multiple of p): for f = sum_i a_i y^(i*p) it returns the unique u with
    u^p == f, u = sum_i a_i^(1/p) y^i.  Raises ValueError when a nonzero
    coefficient sits at an exponent that p does not divide."""
    p, zl = f.ctx.p, f.ctx.zero_log
    if any(v != zl for i, v in enumerate(f.logs) if i % p):
        raise ValueError("%r is not a polynomial in y^%d" % (f, p))
    return UniPoly(f.ctx, [c.pth_root() for c in f.coeffs[::p]])


def monic_root(f, e):
    """The monic r with r^e == f, or None when f is not the e-th power of a
    monic polynomial.  With e = p^k * e', k p-th roots (_pth_root_poly)
    come first; the e'-th root (e' prime to p) is then solved from the top
    coefficient down, since the y^(D-j) coefficient of r^e' is e' * r_(m-j)
    plus terms in the higher coefficients of r (D = deg, m = D / e')."""
    if e < 1:
        raise ValueError("root exponent %d below 1" % e)
    ctx = f.ctx
    r, k = f, e
    while k % ctx.p == 0:
        try:
            r = _pth_root_poly(r)
        except ValueError:
            return None
        k //= ctx.p
    D = r.degree()
    if D < 0 or r.lc() != ctx.one() or D % k:
        return None
    if k > 1:
        m = D // k
        coeffs = [ctx.zero()] * m + [ctx.one()]
        inv_k = ctx.elem(k).inverse()
        for j in range(1, m + 1):
            coeffs[m - j] = (r[D - j] - (UniPoly(ctx, coeffs) ** k)[D - j]) \
                * inv_k
        r = UniPoly(ctx, coeffs)
    return r if r ** e == f else None


def squarefree_decompose(f):
    """Monic-part squarefree decomposition: f = lc * prod(part^mult) with
    squarefree, pairwise-coprime monic parts.  Handles char p via the
    f(y) = u(y^p) rewrite."""
    if f.degree() < 1:
        raise ZeroDegree("squarefree decomposition of a constant")
    f = f.monic()
    p = f.ctx.p
    out = []
    fp = f.derivative()
    if fp.is_zero():
        u = _pth_root_poly(f)
        return [(g, m * p) for g, m in squarefree_decompose(u)]
    T = f.gcd(fp)
    V = f // T
    i = 1
    while V.degree() > 0:
        W = V.gcd(T)
        part = V // W
        if part.degree() > 0:
            out.append((part, i))
        V = W
        T = T // W
        i += 1
    if T.degree() > 0:
        # leftover carries only multiplicities divisible by p
        for g, m in squarefree_decompose(_pth_root_poly(T)):
            out.append((g, m * p))
    out.sort(key=lambda gm: (gm[1], gm[0].sort_key()))
    return out


def _berlekamp_split(f):
    """Factor a squarefree monic f into monic irreducibles, deterministically."""
    ctx = f.ctx
    n = f.degree()
    if n <= 1:
        return [f]
    # matrix of y^(q*i) mod f, columns i = 0..n-1
    xq = UniPoly.x(ctx).pow_mod(ctx.q, f)
    cols = [UniPoly.constant(ctx, 1)]
    for _ in range(1, n):
        cols.append((cols[-1] * xq) % f)
    # nullspace of (Q - I)^T over F_q: rows j, columns i of Q[j][i]=coeff_j(cols[i])
    zl = ctx.zero_log
    cols = [(c - UniPoly.from_logs(ctx, (zl,) * i + (0,))).logs
            for i, c in enumerate(cols)]
    M = [[c[j] if j < len(c) else zl for c in cols] for j in range(n)]
    basis = _nullspace(M, ctx)
    r = len(basis)  # number of irreducible factors
    factors = [f]
    if r == 1:
        return factors
    for vec in basis:
        v = UniPoly.from_logs(ctx, vec)
        if v.degree() <= 0:
            continue
        for c in ctx.elements():
            if len(factors) == r:
                factors.sort(key=UniPoly.sort_key)
                return factors
            vc = v - UniPoly.constant(ctx, c)
            new = []
            for w in factors:
                if w.degree() <= 1:
                    new.append(w)
                    continue
                g = w.gcd(vc)
                if 0 < g.degree() < w.degree():
                    new.append(g)
                    new.append((w // g).monic())
                else:
                    new.append(w)
            factors = new
    factors.sort(key=UniPoly.sort_key)
    if len(factors) != r:
        raise NoFactorizationFound(
            "Berlekamp split found %d of %d factors" % (len(factors), r))
    return factors


def _nullspace(M, ctx):
    """Nullspace basis of an n x n matrix over the field, deterministic;
    entries and basis vectors are discrete logs, as in UniPoly.logs."""
    red, zl, m1 = ctx.reduce, ctx.zero_log, ctx.minus_one_log
    n = len(M)
    M = [row[:] for row in M]
    row = 0
    pivots = {}
    for col in range(n):
        sel = None
        for i in range(row, n):
            if M[i][col] != zl:
                sel = i
                break
        if sel is None:
            continue
        M[row], M[sel] = M[sel], M[row]
        inv = ctx.q - 1 - M[row][col]
        M[row] = piv = [red[v + inv] for v in M[row]]
        for i in range(n):
            if i != row and M[i][col] != zl:
                # row i -= c * pivot row
                addmul_logs(ctx, M[i], piv, (red[M[i][col] + m1],))
        pivots[col] = row
        row += 1
    basis = []
    for col in range(n):
        if col in pivots:
            continue
        vec = [zl] * n
        vec[col] = 0
        for pc, pr in pivots.items():
            vec[pc] = red[M[pr][col] + m1]
        basis.append(vec)
    return basis


def factor_univariate(f):
    """Complete deterministic factorization into monic irreducibles."""
    if f.degree() < 1:
        raise ZeroDegree("factor_univariate of a constant")
    unit = f.lc()
    parts = []
    for g, m in squarefree_decompose(f):
        for h in _berlekamp_split(g):
            parts.append((h, m))
    parts.sort(key=lambda gm: (gm[0].sort_key(), gm[1]))
    return UniFactorization(unit, parts)


def is_irreducible(f):
    """Deterministic irreducibility test via the factoring pipeline."""
    if f.degree() < 1:
        return False
    fac = factor_univariate(f)
    return len(fac.parts) == 1 and fac.parts[0][1] == 1
