"""Newton-polytope analytics over exact rational arithmetic.

Vertex enumeration answers, per support point p, the exact feasibility
question "is p a convex combination of the other points?" with a
Fraction-based phase-1 simplex (Bland's rule, hence terminating and
deterministic).  No floating point is used anywhere.

Also houses the factor-sparsity cap SB(n,s,d), a corner-point bound checker,
a brute-force uniform-combination certifier, and the Hadamard-matrix support
family showing the vertex count can be exponentially smaller than the
support size.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptySupport, ShapeMismatch, BoundViolation


@dataclass(frozen=True)
class SBConfig:
    """Configuration of the sparsity cap s^ceil(C*d^2*log2(max(n,2)))."""
    C: Fraction = Fraction(5)
    user_cap: int = None

    def __post_init__(self):
        object.__setattr__(self, "C", Fraction(self.C))
        assert self.C > 0


# -- exact feasibility LP -----------------------------------------------------

def _lp_feasible(A, b):
    """Does Ax = b, x >= 0 have a solution?  Exact phase-1 simplex.

    A is a list of rows of Fractions, b a list of Fractions.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    A = [list(row) for row in A]
    b = list(b)
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    # tableau with one artificial variable per row; minimize their sum
    ncols = n + m
    T = []
    for i in range(m):
        row = A[i] + [Fraction(0)] * m + [b[i]]
        row[n + i] = Fraction(1)
        T.append(row)
    basis = [n + i for i in range(m)]
    # objective row for sum of artificials, reduced against the basis
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n + m + 1):
        s = Fraction(0)
        for i in range(m):
            s += T[i][j]
        obj[j] = s
    for j in range(n, n + m):
        obj[j] -= 1
    while True:
        # Bland: entering column = smallest index with positive reduced cost
        enter = -1
        for j in range(ncols):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            break
        # ratio test; Bland tie-break on smallest basis variable
        leave = -1
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][ncols] / T[i][enter]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            break  # unbounded direction; cannot happen in phase 1
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                c = T[i][enter]
                T[i] = [v - c * w for v, w in zip(T[i], T[leave])]
        if obj[enter] != 0:
            c = obj[enter]
            obj = [v - c * w for v, w in zip(obj, T[leave])]
        basis[leave] = enter
    return obj[ncols] == 0


def in_hull(point, points):
    """Exact test: point in conv(points)?"""
    pts = list(points)
    if not pts:
        return False
    n = len(point)
    A = []
    for i in range(n):
        A.append([Fraction(p[i]) for p in pts])
    A.append([Fraction(1)] * len(pts))
    b = [Fraction(v) for v in point] + [Fraction(1)]
    return _lp_feasible(A, b)


# -- supports and vertices ----------------------------------------------------

def support_of(f):
    """The set of exponent vectors of a sparse polynomial."""
    return set(f.terms)


def newton_vertices(E):
    """Exact vertex set of conv(E), canonically (lexicographically) ordered.

    A point is a vertex iff it is not a convex combination of the others.
    """
    pts = sorted(set(map(tuple, E)))
    if not pts:
        raise EmptySupport("empty support")
    out = []
    for p in pts:
        others = [q for q in pts if q != p]
        if not others or not in_hull(p, others):
            out.append(p)
    return out


def minkowski_sum(A, B):
    """Pairwise point sums (contains all vertices of the polytope sum)."""
    A = list(map(tuple, A))
    B = list(map(tuple, B))
    if A and B and len(A[0]) != len(B[0]):
        raise ShapeMismatch("dimension mismatch")
    return sorted({tuple(a + b for a, b in zip(p, q)) for p in A for q in B})


# -- the sparsity cap ---------------------------------------------------------

def _ceil_c_d2_log2(C, d2, M):
    """Smallest integer a with a >= C*d2*log2(M), decided exactly.

    a >= C*d2*log2(M)  <=>  2^(a*C.den) >= M^(C.num*d2).
    """
    if M <= 1:
        return 0
    a = max(0, math.ceil(float(C) * d2 * math.log2(M)))
    rhs = M ** (C.numerator * d2)
    while 2 ** (a * C.denominator) < rhs:
        a += 1
    while a > 0 and 2 ** ((a - 1) * C.denominator) >= rhs:
        a -= 1
    return a


def sparsity_cap(n, s, d, cfg=None):
    """Upper bound on the sparsity of any factor of an s-sparse polynomial in
    n variables with individual degrees at most d:
    min(s^ceil(C*d^2*log2(max(n,2))), (d+1)^n, user cap)."""
    assert n >= 1 and s >= 1 and d >= 1
    if cfg is None:
        cfg = SBConfig()
    exponent = _ceil_c_d2_log2(cfg.C, d * d, max(n, 2))
    cap = min(s ** exponent, (d + 1) ** n)
    if cfg.user_cap is not None:
        cap = min(cap, cfg.user_cap)
    return cap


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


def caratheodory_check(E, d, cfg=None, uniform_k=None):
    """Verify the corner-point inequality t^ceil(C*d^2*log2(max(n,2))) >= |E|
    for E a set of lattice points in {0..d}^n, t = number of hull vertices.

    When uniform_k is given (tiny instances only), additionally certify that
    every point of E is l-infinity-approximated within 1/(3d) by a distinct
    k-uniform combination of the vertices.

    Returns a report dict, whose "vertex_list" is newton_vertices(E);
    raises BoundViolation if the inequality fails.
    """
    pts = sorted(set(map(tuple, E)))
    if not pts:
        raise EmptySupport("empty support")
    n = len(pts[0])
    if cfg is None:
        cfg = SBConfig()
    verts = newton_vertices(pts)
    t = len(verts)
    exponent = _ceil_c_d2_log2(cfg.C, d * d, max(n, 2))
    ok = t ** exponent >= len(pts)
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
    assert m <= 4
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
    assert 1 <= m <= 4
    n = 1 << m
    columns = [tuple((-1) ** _dot2(a, b) for a in range(n)) for b in range(n)]
    subs = _subspaces(m)
    sub_points = []
    for S in subs:
        # average of columns indexed by S == indicator of the complement
        pt = tuple(Fraction(sum((-1) ** _dot2(a, b) for b in S), len(S))
                   for a in range(n))
        assert all(v in (0, 1) for v in pt)
        ipt = tuple(int(v) for v in pt)
        comp = tuple(int(all(_dot2(a, b) == 0 for b in S)) for a in range(n))
        assert ipt == comp
        assert in_hull(ipt, columns)
        sub_points.append(ipt)
    assert len(set(sub_points)) == len(subs)
    E = sorted(set(columns) | set(sub_points))
    verts = newton_vertices(E)
    return E, verts, len(subs)
