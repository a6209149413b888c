"""Deterministic hitting sets for products of sparse polynomials.

The hitting set is the full tensor grid {a_0..a_D}^n with D = k*d over the
first D+1 field elements: a nonzero product of k polynomials of individual
degree <= d has individual degree <= D, and a nonzero polynomial of
individual degree <= D cannot vanish on a full (D+1)-point-per-axis grid.
This holds whatever the sparsity.  Points come in lexicographic order, so
every dump is reproducible.  This is library API behind the `hitset`
command; the factoring drivers take their anchors from their own grid.
"""

import itertools

from .errors import FieldTooSmall


class HittingSet:
    """The grid values^n, enumerated lazily in lexicographic order."""

    def __init__(self, values, n):
        self._values = values
        self._n = n
        self.size = len(values) ** n

    def __iter__(self):
        return itertools.product(self._values, repeat=self._n)


def gen_hitting_set(ctx, n, d, k):
    """Hitting set for nonzero products of k polynomials of individual
    degree <= d in n variables over ctx."""
    if min(n, d, k) < 1:
        raise ValueError("hitting sets need n, d, k >= 1")
    D = k * d
    if D + 1 > ctx.q:
        raise FieldTooSmall(required=D + 1)
    return HittingSet(list(itertools.islice(ctx.elements(), D + 1)), n)
