"""Deterministic hitting sets for products of sparse polynomials.

The default (grid) strategy emits the full tensor grid {a_0..a_D}^n with
D = k*d over the first D+1 field elements: a nonzero product of k
polynomials of individual degree <= d has individual degree <= D, and a
nonzero polynomial of individual degree <= D cannot vanish on a full
(D+1)-point-per-axis grid.  Points come in lexicographic order, so every
dump is reproducible.

The ks strategy trades the exponential grid for exponent-folding
substitutions x_i -> t^(c^i mod q); it is a heuristic generator intended
for many variables.  The factoring drivers use neither (library API only).
"""

import itertools

from .errors import FieldTooSmall
from .field import is_prime
from .polytope import sparsity_cap


class HittingSet:
    """Ordered, lazily-enumerable point set in F^n."""

    def __init__(self, ctx, n, params, generator, size):
        self.ctx = ctx
        self.n = n
        self.params = params  # (n, s, d, k, strategy)
        self._generator = generator
        self.size = size

    def __iter__(self):
        return self._generator()

    def points(self, limit=None):
        """Materialize (a prefix of) the point list."""
        if limit is None:
            return list(self._generator())
        if limit < 0:
            raise ValueError("negative point limit %d" % limit)
        return list(itertools.islice(self._generator(), limit))


def _grid_points(ctx, n, values):
    def gen():
        for pt in itertools.product(values, repeat=n):
            yield pt
    return gen


def gen_hitting_set(ctx, n, s, d, k, strategy="grid"):
    """Hitting set for nonzero products of k s-sparse polynomials of
    individual degree <= d in n variables over ctx."""
    if min(n, s, d, k) < 1:
        raise ValueError("hitting sets need n, s, d, k >= 1")
    if strategy == "grid":
        D = k * d
        if D + 1 > ctx.q:
            raise FieldTooSmall(required=D + 1)
        values = list(itertools.islice(ctx.elements(), D + 1))
        return HittingSet(ctx, n, (n, s, d, k, "grid"),
                          _grid_points(ctx, n, values), (D + 1) ** n)
    if strategy == "ks":
        return _gen_ks(ctx, n, s, d, k)
    raise ValueError("unknown strategy %r" % strategy)


def _gen_ks(ctx, n, s, d, k):
    """Substitution-based generator x_i -> t^(c^i mod q).

    Two distinct monomials e, e' collide under the substitution only when
    sum_i (e_i - e'_i) c^i = 0 mod q, a nonzero polynomial in c of degree
    < n, so scanning enough primes q and bases c separates some monomial.
    The surviving univariate has degree < n*d*q, which fixes the number of
    t-values needed.
    """
    primes = []
    cand = max(n, 3)
    while len(primes) < 3:
        if is_prime(cand):
            primes.append(cand)
        cand += 1
    q_last = primes[-1]
    t_needed = min(ctx.q, n * d * q_last + 1)
    values = list(itertools.islice(ctx.elements(), t_needed))

    def gen():
        for q in primes:
            for c in range(1, q):
                exps = [pow(c, i, q) for i in range(n)]
                for t in values:
                    yield tuple(t ** e for e in exps)

    size = sum(q - 1 for q in primes) * len(values)
    return HittingSet(ctx, n, (n, s, d, k, "ks"), gen, size)


def gen_anchor_set(ctx, n, s, d, cfg=None, strategy="grid"):
    """Point set guaranteed to contain an assignment where all pairwise
    resultants of the irreducible factors of an s-sparse, degree-d monic
    polynomial are nonzero.

    Each pairwise resultant is a (2d*SB(n,s,d))^(2d)-sparse polynomial of
    individual degree <= 2d^2, and at most d^2 of them are multiplied, which
    instantiates the generic hitting-set parameters.  No driver uses it.
    """
    sb = sparsity_cap(n, s, d, cfg)
    return gen_hitting_set(ctx, n, (2 * d * sb) ** (2 * d), 2 * d * d, d * d,
                           strategy=strategy)
