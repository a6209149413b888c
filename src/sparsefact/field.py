"""Exact arithmetic in prime fields F_p and extensions F_{p^l}.

Representation.  An element of F_{p^l} is a length-l tuple of residues mod p
(`coeffs`), ascending in a polynomial basis over a fixed monic irreducible
modulus of degree l; a prime field is the case l = 1.  The modulus is the
lexicographically smallest monic irreducible (smallest when its coefficient
vector is read as an integer in base p, most significant coefficient
first), so every run works in the exact same field and is bit-reproducible.
Enumeration order is residue-vector lexicographic (`index()`), and
`serialize()` gives an int for a prime field and the residue list otherwise.

Tables.  Every field, prime or extension, has one element path built on
discrete logarithms to a fixed generator g of the cyclic group F_q^*, the
first generator in `elements()` order.  On first use a context builds:

- `exp`: g^0 .. g^(q-2) as interned `FieldElem` objects, twice over, so
  `exp[la + lb]` needs no reduction mod q-1; after them comes a run of
  zeros;
- `log`: coeffs tuple -> exponent, with zero mapped to `zero_log` =
  2(q-1), which sends every product and negation of zero into that run of
  zeros;
- `zech`: `zech[d] = log(1 + g^d)` (Zech's logarithm, `zero_log` where
  1 + g^d = 0), also twice over so negative and slightly too large
  differences index it directly;
- `reduce`: the canonical exponent of a sum of two exponents, `i mod q-1`
  below 2(q-1) and `zero_log` from there on (up to 2 * zero_log), so
  `reduce[la + lb]` is log(a*b) and `reduce[la + zech[lb - la]]` is
  log(a + b) for nonzero a, b as plain ints.  The polynomial kernels of
  `unifactor` store coefficients as such exponents and run on these lists.

Each element carries its exponent (`log`), so a product is g^(la + lb), an
inverse g^(q-1-la), a power g^(la*e mod q-1), a sum a + b =
g^(la + zech[lb - la]) since a + b = a(1 + b/a), and -b = g^(lb + log(-1)).
A context is built in O(q*l) steps of x -> x*g, where x*g is the sum of two
table entries, one for each half of x's coefficient vector.

The choice of g cannot change an output: it fixes only which exponent
names which element, and every operation maps the operands' elements to
the one element the field arithmetic defines, which carries the same
`coeffs`, `index()` and `serialize()` whatever g is.  Elements are
immutable and interned per context.  The schoolbook helpers
`_polymul_mod_p` / `_polydivmod_mod_p` only find the modulus and build the
tables.
"""

import itertools

from .errors import NotPrime, CtxMismatch, DivByZero, ShapeMismatch

# Exhaustive routines downstream (root searches, hitting grids) must stay fast.
MAX_FIELD_SIZE = 1 << 16


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _polymul_mod_p(a, b, p):
    """Multiply two coefficient tuples (ascending) over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _polydivmod_mod_p(a, b, p):
    """Divide coefficient lists (ascending) over F_p; b must have lc != 0."""
    a = list(a)
    db = len(b) - 1
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
        db -= 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(a) - db, 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i] == 0:
            continue
        c = a[i] * inv_lead % p
        q[i - db] = c
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return q, a


def _is_irreducible(coeffs, p):
    """Exhaustive check: monic poly (ascending coeffs, lc==1) over F_p."""
    deg = len(coeffs) - 1
    for k in range(1, deg // 2 + 1):
        # try all monic divisors of degree k
        for tail in itertools.product(range(p), repeat=k):
            div = list(tail) + [1]
            _, r = _polydivmod_mod_p(coeffs, div, p)
            if len(r) == 1 and r[0] == 0:
                return False
    return True


class FieldCtx:
    """A finite field F_{p^l} with a canonical irreducible modulus.

    The arithmetic tables (`exp`, `log`, `zech`, `reduce`, `zero_log`,
    `minus_one_log`; see the module docstring) are built on first use."""

    _TABLES = ("exp", "log", "zech", "reduce", "zero_log", "minus_one_log")

    def __init__(self, p, ell=1):
        if not is_prime(p):
            raise NotPrime("%d is not prime" % p)
        if ell < 1:
            raise ValueError("extension degree must be >= 1")
        if p ** ell > MAX_FIELD_SIZE:
            raise ValueError("field size %d exceeds desk-scale cap %d"
                             % (p ** ell, MAX_FIELD_SIZE))
        self.p = p
        self.ell = ell
        self.q = p ** ell
        self.modulus = self._find_modulus()

    def _find_modulus(self):
        """Lex-smallest monic irreducible of degree ell (ascending coeffs)."""
        if self.ell == 1:
            return (0, 1)  # z: reducing mod z leaves a constant unchanged
        p, ell = self.p, self.ell
        for code in range(p ** ell):
            # decode with the z^(ell-1) coefficient most significant
            tail = []
            c = code
            for _ in range(ell):
                tail.append(c % p)
                c //= p
            coeffs = tail + [1]
            if coeffs[0] != 0 and _is_irreducible(coeffs, p):
                return tuple(coeffs)
        raise AssertionError("no irreducible modulus found")  # cannot happen

    def __getattr__(self, name):
        # only reached while a table is missing: build them all, once
        if name not in FieldCtx._TABLES:
            raise AttributeError(name)
        self._build_tables()
        return self.__dict__[name]

    def _mulmod(self, a, b):
        """Schoolbook product of two coefficient tuples, reduced."""
        prod = _polymul_mod_p(a, b, self.p)
        if len(prod) >= len(self.modulus):
            _, prod = _polydivmod_mod_p(prod, self.modulus, self.p)
        return tuple(prod) + (0,) * (self.ell - len(prod))

    def _build_tables(self):
        p, ell, q1 = self.p, self.ell, self.q - 1
        one = (1,) + (0,) * (ell - 1)

        def power(a, e):
            r = one
            while e:
                if e & 1:
                    r = self._mulmod(r, a)
                a = self._mulmod(a, a)
                e >>= 1
            return r

        # g generates F_q^* iff g^((q-1)/r) != 1 for every prime r | q-1
        rs = [r for r in range(2, q1 + 1) if q1 % r == 0 and is_prime(r)]
        g = next(c for c in itertools.product(range(p), repeat=ell)
                 if any(c) and all(power(c, q1 // r) != one for r in rs))
        # x*g = (low half of x)*g + (high half of x)*g, each from a table
        h = (ell + 1) // 2
        low = {t: self._mulmod(t + (0,) * (ell - h), g)
               for t in itertools.product(range(p), repeat=h)}
        high = {t: self._mulmod((0,) * h + t, g)
                for t in itertools.product(range(p), repeat=ell - h)}
        powers = []
        x = one
        for _ in range(q1):
            powers.append(x)
            x = tuple((u + v) % p for u, v in zip(low[x[:h]], high[x[h:]]))

        zero_log = 2 * q1
        log = {c: i for i, c in enumerate(powers)}
        log[(0,) * ell] = zero_log
        elems = [FieldElem(self, c, i) for i, c in enumerate(powers)]
        zero = FieldElem(self, (0,) * ell, zero_log)
        # indices reach 2 * zero_log (zero times zero)
        self.exp = elems * 2 + [zero] * (2 * q1 + 1)
        self.log = log
        self.zech = [log[((c[0] + 1) % p,) + c[1:]] for c in powers] * 2
        self.reduce = list(range(q1)) * 2 + [zero_log] * (2 * q1 + 1)
        self.zero_log = zero_log
        # -1 is the element of order 2, g^((q-1)/2); in characteristic 2 it is 1
        self.minus_one_log = 0 if p == 2 else q1 // 2

    # -- element construction ------------------------------------------------

    def elem(self, value):
        """Element from an int (prime subfield) or up to ell coefficients."""
        if isinstance(value, FieldElem):
            if value.ctx != self:
                raise CtxMismatch("element from a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.ell - 1)
        else:
            coeffs = tuple(int(v) % self.p for v in value)
            if len(coeffs) > self.ell:
                raise ShapeMismatch("too many coefficients for %r" % self)
            coeffs += (0,) * (self.ell - len(coeffs))
        return self.exp[self.log[coeffs]]

    def zero(self):
        return self.exp[self.zero_log]

    def one(self):
        return self.exp[0]

    def elements(self):
        """All field elements, residue-vector lexicographic order."""
        exp, log = self.exp, self.log
        for tup in itertools.product(range(self.p), repeat=self.ell):
            yield exp[log[tup]]

    def from_index(self, i):
        """The i-th element of elements() order; IndexError unless
        0 <= i < q."""
        if not 0 <= i < self.q:
            raise IndexError("element index %r outside 0..%d" % (i, self.q - 1))
        digits = []
        for _ in range(self.ell):
            digits.append(i % self.p)
            i //= self.p
        return self.exp[self.log[tuple(reversed(digits))]]

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and self.p == other.p and self.ell == other.ell)

    def __hash__(self):
        return hash((self.p, self.ell))

    def __repr__(self):
        if self.ell == 1:
            return "F_%d" % self.p
        return "F_%d^%d" % (self.p, self.ell)


class FieldElem:
    """Immutable field element: length-l residue vector `coeffs` and its
    discrete logarithm `log` (the context's `zero_log` for zero).  Build
    elements through the context (`elem`, `zero`, `one`, `elements`,
    `from_index`), which hands out the interned objects of its tables."""

    __slots__ = ("ctx", "coeffs", "log")

    def __init__(self, ctx, coeffs, log):
        self.ctx = ctx
        self.coeffs = coeffs
        self.log = log

    def _check(self, other):
        if not isinstance(other, FieldElem):
            raise TypeError("expected a FieldElem")
        if other.ctx != self.ctx:
            raise CtxMismatch("elements from different fields")

    def __add__(self, other):
        ctx = self.ctx
        if ctx is not getattr(other, "ctx", None):
            self._check(other)
        la, lb, zl = self.log, other.log, ctx.zero_log
        if la == zl:
            return other
        if lb == zl:
            return self
        return ctx.exp[la + ctx.zech[lb - la]]

    def __sub__(self, other):
        ctx = self.ctx
        if ctx is not getattr(other, "ctx", None):
            self._check(other)
        la, lb, zl = self.log, other.log, ctx.zero_log
        if lb == zl:
            return self
        lb += ctx.minus_one_log
        if la == zl:
            return ctx.exp[lb]
        return ctx.exp[la + ctx.zech[lb - la]]

    def __neg__(self):
        ctx = self.ctx
        return ctx.exp[self.log + ctx.minus_one_log]

    def __mul__(self, other):
        ctx = self.ctx
        if ctx is not getattr(other, "ctx", None):
            self._check(other)
        return ctx.exp[self.log + other.log]

    def inverse(self):
        ctx = self.ctx
        if self.log == ctx.zero_log:
            raise DivByZero("zero has no inverse")
        return ctx.exp[ctx.q - 1 - self.log]

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e):
        ctx = self.ctx
        if self.log == ctx.zero_log:
            if e < 0:
                raise DivByZero("zero has no inverse")
            return self if e else ctx.one()
        return ctx.exp[self.log * e % (ctx.q - 1)]

    def pth_root(self):
        """Inverse Frobenius: the unique b with b^p = self."""
        # Frobenius has order l on F_{p^l}, so a^(p^(l-1)) is the p-th root.
        return self ** (self.ctx.p ** (self.ctx.ell - 1))

    def is_zero(self):
        return self.log == self.ctx.zero_log

    def is_one(self):
        return self.log == 0

    def index(self):
        """Position in the canonical enumeration order."""
        i = 0
        for c in self.coeffs:
            i = i * self.ctx.p + c
        return i

    def serialize(self):
        """Plain int for prime fields, list of residues otherwise."""
        if self.ctx.ell == 1:
            return self.coeffs[0]
        return list(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, FieldElem) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.ell, self.coeffs))

    def __repr__(self):
        if self.ctx.ell == 1:
            return str(self.coeffs[0])
        return str(list(self.coeffs))


_FIELD_CACHE = {}


def make_field(p, ell=1):
    """Construct the canonical F_{p^l} context (cached, so repeated calls
    share one object and element operations can compare contexts by identity)."""
    key = (p, ell)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = FieldCtx(p, ell)
    return _FIELD_CACHE[key]


def extensions(ctx):
    """The extensions F_{p^m} of a prime field ctx that the factoring
    engines may lift to, for m = 2, 3, ... while p^m <= MAX_FIELD_SIZE,
    smallest first; none when ctx is itself an extension field."""
    m = 2
    while ctx.ell == 1 and ctx.p ** m <= MAX_FIELD_SIZE:
        yield make_field(ctx.p, m)
        m += 1
