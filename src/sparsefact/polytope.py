"""Newton-polytope analytics over exact rational arithmetic.

Vertex enumeration first looks, per support point p, for an integer
certificate: p is a vertex when a walk down its faces, each cut out by a
coordinate in which p is extreme, ends at {p}, and inner when it lies
strictly between two other support points.  Only the points left over ask
the exact feasibility question "is p a convex combination of the other
points?", answered by a phase-1 simplex on ints and Fractions (Bland's
rule, hence terminating and deterministic) over the other points not yet
shown to be inner.  The LPs use no floating point; the sparsity-cap
exponent starts from a float estimate, which it trusts only outside a
proven error bound of an integer.

Also houses the factor-sparsity cap SB(n,s,d), computed from n, s, d and
the paper's constant C and read by no factoring engine; a corner-point
bound checker; a brute-force uniform-combination certifier; and the
Hadamard-matrix support family showing the vertex count can be
exponentially smaller than the support size.
"""

import itertools
import math
from fractions import Fraction

from .errors import EmptySupport, ShapeMismatch, BoundViolation


# -- exact feasibility LP -----------------------------------------------------

def _lp_feasible(A, b):
    """Does Ax = b, x >= 0 have a solution?  Exact phase-1 simplex on ints
    or Fractions, by Bland's rule: minimize the sum of one artificial
    variable per row.  The tableau holds only A's columns, as an artificial
    that leaves the basis never needs to re-enter: forcing it to 0 keeps
    every solution of Ax = b, x >= 0.
    """
    m, n = len(A), len(A[0]) if A else 0
    T = [list(row) + [v] if v >= 0 else [-a for a in row] + [-v]
         for row, v in zip(A, b)]
    basis = list(range(n, n + m))  # artificial i has index n + i
    obj = [sum(col) for col in zip(*T)] if m else [0]
    while True:
        # Bland: the first column of positive reduced cost enters; the row
        # of least ratio leaves, ties to the smallest basis variable
        enter = next((j for j in range(n) if obj[j] > 0), None)
        rows = [] if enter is None else [i for i in range(m)
                                         if T[i][enter] > 0]
        if not rows:  # optimal, or unbounded (which phase 1 never is)
            return obj[n] == 0
        leave = min(rows, key=lambda i: (T[i][n] / Fraction(T[i][enter]),
                                         basis[i]))
        piv = Fraction(T[leave][enter])
        prow = T[leave] = [v / piv for v in T[leave]]
        nz = [j for j, v in enumerate(prow) if v]
        for row in T + [obj]:  # each row only where the pivot row is nonzero
            c = row[enter]
            if c and row is not prow:
                for j in nz:
                    row[j] -= c * prow[j]
        basis[leave] = enter


def _dimension(points):
    """The common length of the points; ShapeMismatch if two differ."""
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise ShapeMismatch("points of dimensions %s mixed" % sorted(dims))
    return dims.pop() if dims else 0


def in_hull(point, points):
    """Exact test: point in conv(points)?  Coordinates are ints or
    Fractions."""
    pts = list(points)
    _dimension([point] + pts)
    if not pts:
        return False
    A = [list(col) for col in zip(*pts)] + [[1] * len(pts)]
    return _lp_feasible(A, list(point) + [1])


# -- supports and vertices ----------------------------------------------------

def support_of(f):
    """The set of exponent vectors of a sparse polynomial."""
    return set(f.terms)


def _face(p, pts):
    """A face of conv(pts) that contains p, found by walking: for each
    coordinate in which p attains the maximum or minimum over the current
    points, keep only the points equal to p in it, until a pass over the
    coordinates drops no point.  Each step cuts the face by a supporting
    hyperplane, so the result is a face; as p stays extreme over every
    subset that holds it, the order of the steps does not change the
    result.  {p} proves p a vertex: the unique lexicographic extreme
    under a signed coordinate order."""
    face, size = pts, 0
    while 1 < len(face) != size:
        size = len(face)
        for i, v in enumerate(p):
            col = [q[i] for q in face]
            if v == max(col) or v == min(col):
                face = [q for q in face if q[i] == v]
    return face


def _on_segment(p, pts, lo, hi):
    """Is p strictly inside a segment between two other points of pts?  For
    each q, take the k steps from p along the primitive lattice direction
    of p - q that stay inside the box [lo, hi]; a step that lands on a
    point r of pts puts p strictly between q and r."""
    for q in pts:
        if q == p:
            continue
        step = [a - b for a, b in zip(p, q)]
        g = math.gcd(*step)
        step = [s // g for s in step]
        k = min((h - v) // s if s > 0 else (v - l) // -s
                for v, s, l, h in zip(p, step, lo, hi) if s)
        for i in range(1, k + 1):
            if tuple(a + i * s for a, s in zip(p, step)) in pts:
                return True
    return False


def newton_vertices(E):
    """Exact vertex set of conv(E) for integer points E, canonically
    (lexicographically) ordered; ValueError names a point with a
    coordinate that is not an int.

    A point p is accepted as a vertex without an LP when its face walk
    (_face) ends at {p}, and rejected without one when it lies strictly
    between two other points of E (_on_segment, a two-point Caratheodory
    certificate).  Every other point is a vertex iff it is not a convex
    combination of the others, decided by one in_hull LP over the other
    points minus those already shown to be inner: a non-vertex is a convex
    combination of vertices, so dropping them changes no answer.
    """
    pts = list(map(tuple, E))
    for p in pts:
        if not all(isinstance(v, int) for v in p):
            raise ValueError("newton_vertices needs integer points, got %r"
                             % (p,))
    pts = sorted(set(pts))
    if not pts:
        raise EmptySupport("empty support")
    _dimension(pts)
    cols = list(zip(*pts))
    lo = [min(c) for c in cols]
    hi = [max(c) for c in cols]
    present = set(pts)
    inner = set()
    out = []
    for p in pts:
        if len(_face(p, pts)) == 1:
            out.append(p)
        elif _on_segment(p, present, lo, hi) or \
                in_hull(p, [q for q in pts if q != p and q not in inner]):
            inner.add(p)
        else:
            out.append(p)
    return out


def minkowski_sum(A, B):
    """Pairwise point sums (contains all vertices of the polytope sum)."""
    A = list(map(tuple, A))
    B = list(map(tuple, B))
    _dimension(A + B)
    return sorted({tuple(a + b for a, b in zip(p, q)) for p in A for q in B})


# -- the sparsity cap ---------------------------------------------------------

def _ceil_c_d2_log2(C, d2, M):
    """Smallest integer a with a >= C*d2*log2(M), decided exactly:

    a >= C*d2*log2(M)  <=>  2^(a*C.den) >= M^(C.num*d2).

    When M is a power of two the bound is rational.  Otherwise log2(M) is
    irrational, and a float estimate decides unless it lies within 2^-40 of
    an integer, relatively (its five rounding steps err by a few 2^-53 at
    most); only then are the powers compared.
    """
    if M <= 1:
        return 0
    if M & (M - 1) == 0:  # log2(M) is an integer
        return -(-C.numerator * d2 * (M.bit_length() - 1) // C.denominator)
    x = float(C) * d2 * math.log2(M)
    a = math.ceil(x)
    if min(a - x, x - a + 1) > x * 2.0 ** -40:
        return a
    rhs = M ** (C.numerator * d2)
    while 2 ** (a * C.denominator) < rhs:
        a += 1
    while a > 0 and 2 ** ((a - 1) * C.denominator) >= rhs:
        a -= 1
    return a


def _exponent(C, d, n):
    """ceil(C*d^2*log2(max(n,2))), the exponent of the sparsity cap and of
    the corner-point inequality; ValueError unless the constant C (a
    number or a fraction string) is positive."""
    C = Fraction(C)
    if C <= 0:
        raise ValueError("the sparsity-cap constant C must be positive")
    return _ceil_c_d2_log2(C, d * d, max(n, 2))


def _pow_at_least(b, a, N):
    """b^a >= N for integers b, N >= 1, a >= 0; b^a is not built when
    b >= 2 and a >= N.bit_length(), as then b^a >= 2^a > N."""
    return (b >= 2 and a >= N.bit_length()) or b ** a >= N


def sparsity_cap(n, s, d, C=5):
    """Upper bound on the sparsity of any factor of an s-sparse polynomial in
    n variables with individual degrees at most d:
    min(s^ceil(C*d^2*log2(max(n,2))), (d+1)^n)."""
    if min(n, s, d) < 1:
        raise ValueError("sparsity_cap needs n, s, d >= 1")
    exponent = _exponent(C, d, n)
    dense = (d + 1) ** n
    return dense if _pow_at_least(s, exponent, dense) else s ** exponent


# -- corner-point bound checking ----------------------------------------------

def _uniform_points(vertices, k):
    """All k-uniform combinations (averages of size-k multisets of vertices),
    as Fraction tuples, deduplicated, deterministic order."""
    seen = {}
    for combo in itertools.combinations_with_replacement(sorted(vertices), k):
        pt = tuple(Fraction(sum(c[i] for c in combo), k)
                   for i in range(len(combo[0])))
        seen.setdefault(pt, combo)
    return sorted(seen)


def _bipartite_match(adj, n_right):
    """Maximum bipartite matching (augmenting paths); returns match size."""
    match_r = [-1] * n_right

    def try_assign(u, visited):
        for v in adj[u]:
            if v in visited:
                continue
            visited.add(v)
            if match_r[v] < 0 or try_assign(match_r[v], visited):
                match_r[v] = u
                return True
        return False

    size = 0
    for u in range(len(adj)):
        if try_assign(u, set()):
            size += 1
    return size


def caratheodory_check(E, d, C=5, uniform_k=None):
    """Verify the corner-point inequality t^ceil(C*d^2*log2(max(n,2))) >= |E|
    for E a set of lattice points in {0..d}^n, t = number of hull vertices.

    When uniform_k is given (tiny instances only), additionally certify that
    every point of E is l-infinity-approximated within 1/(3d) by a distinct
    k-uniform combination of the vertices.

    Returns a report dict, whose "vertex_list" is newton_vertices(E);
    raises BoundViolation if the inequality fails, and ValueError for C <= 0,
    d < 0, a point outside {0..d}^n, or a uniform cover asked with k < 1 or
    d < 1.
    """
    if d < 0:
        raise ValueError("caratheodory_check needs d >= 0")
    if uniform_k is not None and (uniform_k < 1 or d < 1):
        raise ValueError("the uniform cover needs k >= 1 and d >= 1")
    pts = sorted(set(map(tuple, E)))
    if not pts:
        raise EmptySupport("empty support")
    n = _dimension(pts)
    if any(not 0 <= v <= d for p in pts for v in p):
        raise ValueError("support point outside {0..%d}^%d" % (d, n))
    exponent = _exponent(C, d, n)
    verts = newton_vertices(pts)
    t = len(verts)
    ok = _pow_at_least(t, exponent, len(pts))
    report = {
        "size": len(pts),
        "vertices": t,
        "vertex_list": verts,
        "exponent": exponent,
        "bound_holds": ok,
    }
    if not ok:
        raise BoundViolation("corner-point inequality failed: "
                             "%d^%d < %d" % (t, exponent, len(pts)))
    if uniform_k is not None:
        eps = Fraction(1, 3 * d)
        combos = _uniform_points(verts, uniform_k)
        adj = []
        for p in pts:
            near = [j for j, c in enumerate(combos)
                    if max(abs(Fraction(p[i]) - c[i]) for i in range(n)) <= eps]
            adj.append(near)
        matched = _bipartite_match(adj, len(combos))
        report["uniform_k"] = uniform_k
        report["uniform_distinct_cover"] = matched == len(pts)
    return report


# -- Hadamard support family --------------------------------------------------

def _subspaces(m):
    """All linear subspaces of F_2^m as frozensets of bitmasks (m <= 4)."""
    if m > 4:
        raise ValueError("_subspaces needs m <= 4")
    vectors = list(range(1 << m))
    found = set()
    for r in range(m + 1):
        for gens in itertools.combinations(vectors[1:], r):
            span = {0}
            for g in gens:
                span |= {v ^ g for v in span}
            found.add(frozenset(span))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _dot2(a, b):
    return bin(a & b).count("1") & 1


def hadamard_example(m):
    """Support family with few vertices and many hull points.

    Uses the 2^m x 2^m Hadamard matrix H with H[a][b] = (-1)^<a,b>.  The
    columns of H are the candidate vertices; for every linear subspace S of
    F_2^m the averaged column combination (1/|S|) * H * 1_S is the 0/1
    indicator vector of the orthogonal complement of S, a lattice point of
    the hull.  Distinct subspaces give distinct points.

    Returns (E, vertices, subspace_count).
    """
    if not 1 <= m <= 4:
        raise ValueError("hadamard_example needs 1 <= m <= 4")
    n = 1 << m
    columns = [tuple((-1) ** _dot2(a, b) for a in range(n)) for b in range(n)]
    subs = _subspaces(m)
    sub_points = []
    for S in subs:
        # average of columns indexed by S == indicator of the complement
        pt = tuple(Fraction(sum((-1) ** _dot2(a, b) for b in S), len(S))
                   for a in range(n))
        comp = tuple(int(all(_dot2(a, b) == 0 for b in S)) for a in range(n))
        if pt != comp:
            raise BoundViolation("averaged columns differ from the indicator "
                                 "of the orthogonal complement")
        if not in_hull(comp, columns):
            raise BoundViolation("subspace point outside the column hull")
        sub_points.append(comp)
    if len(set(sub_points)) != len(subs):
        raise BoundViolation("two subspaces share a hull point")
    E = sorted(set(columns) | set(sub_points))
    verts = newton_vertices(E)
    return E, verts, len(subs)
