"""Sylvester-matrix resultants of univariate projections.

The production path never materializes a symbolic multivariate resultant:
to certify coprimality of two y-monic multivariate polynomials at a point,
project both to univariate polynomials first and take the determinant of
their Sylvester matrix.  For monic inputs the projection cannot drop the
y-degree, so projecting and taking resultants commute.
"""

from .errors import DegreeZero, NotMonic
from .sparsepoly import project_y


def sylvester_matrix(f, g):
    """(d+e) x (d+e) matrix: e shifted copies of f's coefficients, then d of
    g's (rows; the determinant is transpose-invariant)."""
    d, e = f.degree(), g.degree()
    if d < 1 or e < 1:
        raise DegreeZero("resultant needs positive degrees")
    size = d + e
    ctx = f.ctx
    rows = []
    fc = [f[d - i] for i in range(d + 1)]  # descending
    gc = [g[e - i] for i in range(e + 1)]
    for i in range(e):
        rows.append([ctx.zero()] * i + fc + [ctx.zero()] * (size - d - 1 - i))
    for i in range(d):
        rows.append([ctx.zero()] * i + gc + [ctx.zero()] * (size - e - 1 - i))
    return rows


def _det(rows, ctx):
    """Exact determinant by Gaussian elimination, first-nonzero-pivot order."""
    n = len(rows)
    M = [row[:] for row in rows]
    det = ctx.one()
    for col in range(n):
        piv = None
        for i in range(col, n):
            if not M[i][col].is_zero():
                piv = i
                break
        if piv is None:
            return ctx.zero()
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det = det * M[col][col]
        inv = M[col][col].inverse()
        for i in range(col + 1, n):
            if not M[i][col].is_zero():
                c = M[i][col] * inv
                M[i] = [a - c * b for a, b in zip(M[i], M[col])]
    return det


def resultant_univariate(f, g):
    """Res_y(f, g); zero iff f and g share a nonconstant factor."""
    return _det(sylvester_matrix(f, g), f.ctx)


def resultant_at_point(f, g, a):
    """Res_y(f(y, a), g(y, a)) for f, g monic in y (y at the last index).

    Monicity guarantees this equals the symbolic resultant evaluated at a.
    """
    for h in (f, g):
        if not h.is_monic_in(h.n - 1):
            raise NotMonic("resultant projection requires y-monic input")
    return resultant_univariate(project_y(f, a), project_y(g, a))
