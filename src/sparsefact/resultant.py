"""Sylvester-matrix resultants of univariate projections.

Library API, checked against the paper's resultant identities; no
factoring engine imports it.  No symbolic multivariate resultant is
materialized: to test coprimality of two y-monic multivariate polynomials
at a point, project both to univariate polynomials first and take their
resultant, the determinant of their Sylvester matrix, by the Euclidean
recurrence.  For monic inputs the projection cannot drop the y-degree, so
projecting and taking resultants commute.
"""

from .errors import ZeroDegree, NotMonic
from .sparsepoly import project_y


def sylvester_matrix(f, g):
    """(d+e) x (d+e) matrix: e shifted copies of f's coefficients, then d of
    g's (rows; the determinant is transpose-invariant)."""
    d, e = f.degree(), g.degree()
    if d < 1 or e < 1:
        raise ZeroDegree("resultant needs positive degrees")
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


def resultant_univariate(f, g):
    """Res_y(f, g); zero iff f and g share a nonconstant factor.

    The determinant of sylvester_matrix(f, g), by the Euclidean recurrence
    on r = f mod g: res(f, g) = 0 if r = 0, else (-1)^(deg f * deg g) *
    lc(g)^(deg f - deg r) * res(g, r); and res(f, c) = c^deg f for a
    nonzero constant c."""
    if f.degree() < 1 or g.degree() < 1:
        raise ZeroDegree("resultant needs positive degrees")
    res = f.ctx.one()
    while g.degree() > 0:
        r = f % g
        if r.is_zero():
            return f.ctx.zero()
        if f.degree() * g.degree() % 2:
            res = -res
        res = res * g.lc() ** (f.degree() - r.degree())
        f, g = g, r
    return res * g.lc() ** f.degree()


def resultant_at_point(f, g, a):
    """Res_y(f(y, a), g(y, a)) for f, g monic in y (y at the last index).

    Monicity guarantees this equals the symbolic resultant evaluated at a.
    """
    for h in (f, g):
        if not h.is_monic_in(h.n - 1):
            raise NotMonic("resultant projection requires y-monic input")
    return resultant_univariate(project_y(f, a), project_y(g, a))
