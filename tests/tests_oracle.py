"""Shared brute-force references for tests.

brute_force_vertices: a point is a vertex iff no affinely independent
subset of the remaining points contains it in its convex hull, decided with
exact fraction-free integer elimination.

feasible_by_elimination: whether Ax = b, x >= 0 has a solution, decided by
the same elimination on every linearly independent subset of columns (a
basic solution exists whenever any solution does).

box_sign_exposes: whether a point uniquely maximizes its bounding-box sign
vector (+1 where it attains a coordinate's maximum, -1 where it attains
the minimum, 0 elsewhere), the one-functional vertex certificate that the
face walk of newton_vertices extends.

enumerate_guesses_unbounded: guess enumeration over every sub-multiset of
the univariate factors, every partition of it into parts and every exponent
in 1..k for every part, keeping the guesses that cover the projection,
including those that put one factor into two parts.

blackbox_eval_by_line_factors: black-box factor evaluation by a complete
factorization of the line restriction, each bivariate factor routed to the
unique block of the guess (indices into the projection's (piece, u) list
pieces) one of whose pieces divides its t=0 projection.

ref_restrict, ref_value, ref_projection: the restriction of a polynomial to
a line (1-t)*a + t*b, its value at a point and its projection f(a, y), on
FieldElem coefficient lists term by term, the references for the one
log-domain restriction kernel that all three share.

ceil_c_d2_log2_by_powers: the sparsity-bound exponent ceil(C*d2*log2(M))
by comparing the integer powers 2^(a*C.den) and M^(C.num*d2) outright.

det_by_elimination: the determinant of a square matrix of field elements
by Gaussian elimination, the reference for resultants computed by the
Euclidean recurrence.

pair_lift_by_division: one two-factor Hensel lift whose every step computes
its correction afresh from the Bezout cofactor, with a polynomial
remainder and an exact division, the reference for the lift plan's
table-driven steps.
"""

import itertools
import math


def _solve_nonneg(cols, rhs):
    """Solve sum_j lam_j * cols[j] = rhs over the rationals by fraction-free
    Gauss-Jordan elimination of integer rows.  False when there is no
    solution, None when the columns are linearly dependent (another subset
    decides), otherwise whether the unique solution has every lam_j >= 0,
    read from the signs of its pivot and right-hand side."""
    m, k = len(rhs), len(cols)
    aug = [[c[i] for c in cols] + [rhs[i]] for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(k):
        sel = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        top = aug[r]
        for i in range(m):
            f = aug[i][c]
            if i != r and f != 0:
                row = [top[c] * a - f * b for a, b in zip(aug[i], top)]
                g = math.gcd(*row)
                aug[i] = [v // g for v in row] if g > 1 else row
        piv_cols.append(c)
        r += 1
    if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in aug):
        return False
    if r < k:
        return None
    return all(aug[i][-1] == 0 or (aug[i][-1] > 0) == (aug[i][c] > 0)
               for i, c in enumerate(piv_cols))


def brute_force_vertices(E):
    pts = sorted(set(map(tuple, E)))
    n = len(pts[0])
    out = []
    for p in pts:
        others = [q + (1,) for q in pts if q != p]
        inside = False
        for size in range(1, min(len(others), n + 1) + 1):
            for subset in itertools.combinations(others, size):
                if _solve_nonneg(subset, p + (1,)):
                    inside = True
                    break
            if inside:
                break
        if not inside:
            out.append(p)
    return out


def feasible_by_elimination(A, b):
    """Does Ax = b, x >= 0 have a solution, for integer A and b?  If one
    does, a basic one does: a nonnegative solution on linearly independent
    columns.  So try every such subset of columns, smallest first."""
    if all(v == 0 for v in b):
        return True
    cols = list(zip(*A))
    return any(_solve_nonneg(subset, b)
               for size in range(1, min(len(cols), len(b)) + 1)
               for subset in itertools.combinations(cols, size))


def box_sign_exposes(p, pts):
    """Is p the unique maximizer over pts of its bounding-box sign vector?"""
    cols = list(zip(*pts))
    c = [1 if v == max(col) else -1 if v == min(col) else 0
         for v, col in zip(p, cols)]
    top = sum(a * b for a, b in zip(c, p))
    return all(sum(a * b for a, b in zip(c, q)) < top
               for q in pts if q != p)


def multiset_partitions(items):
    """All partitions of a list into nonempty unordered parts, deduplicated,
    deterministic order.  Parts and partition lists are canonically sorted."""
    from sparsefact.unifactor import UniPoly
    if not items:
        yield []
        return

    def canon(parts):
        return tuple(sorted((tuple(sorted(p, key=UniPoly.sort_key))
                             for p in parts),
                            key=lambda t: [g.sort_key() for g in t]))

    seen = set()
    first, rest = items[0], items[1:]
    for sub in multiset_partitions(rest):
        # put first into an existing part, or into a fresh one
        for i in range(len(sub) + 1):
            parts = [list(p) for p in sub]
            if i < len(sub):
                parts[i].append(first)
            else:
                parts.append([first])
            c = canon(parts)
            if c not in seen:
                seen.add(c)
                yield [list(p) for p in c]


def enumerate_guesses_unbounded(uni_parts, k):
    gs = [g for g, _ in uni_parts]
    us = [u for _, u in uni_parts]
    for counts in itertools.product(*[range(u + 1) for u in us]):
        if not any(counts):
            continue
        items = []
        for g, c in zip(gs, counts):
            items.extend([g] * c)
        for parts in multiset_partitions(items):
            for exps in itertools.product(range(1, k + 1), repeat=len(parts)):
                if all(sum(e * sum(1 for x in part if x == g)
                           for part, e in zip(parts, exps)) == u
                       for g, u in zip(gs, us)):
                    yield parts, exps


def blackbox_eval_by_line_factors(f, anchor, pieces, guess, b):
    from sparsefact.errors import GuessInvalid
    from sparsefact.sparsepoly import restrict_to_line
    from sparsefact.factorizer import factor
    from sparsefact.unifactor import UniPoly
    ctx = f.ctx
    ft = restrict_to_line(f, list(anchor), list(b))
    accs = [UniPoly.constant(ctx, 1) for _ in guess]
    for F, v in factor(ft).parts:
        # F(y, 0) is F's t^0 row and F(y, 1) the sum of its rows
        F0 = [ctx.zero()] * (F.degree(0) + 1)
        F1 = list(F0)
        for (i, j), c in F.terms.items():
            F1[i] = F1[i] + c
            if not j:
                F0[i] = c
        F0, F1 = UniPoly(ctx, F0), UniPoly(ctx, F1)
        hits = [i for i, (block, _) in enumerate(guess)
                if any((F0 % pieces[j][0]).is_zero() for j in block)]
        if len(hits) != 1:
            raise GuessInvalid("projection matches %d blocks" % len(hits))
        i = hits[0]
        e = guess[i][1]
        if v % e:
            raise GuessInvalid("multiplicity %d not divisible by %d" % (v, e))
        for _ in range(v // e):
            accs[i] = accs[i] * F1
    for acc, (block, e) in zip(accs, guess):
        if acc.degree() != sum(pieces[j][0].degree() * pieces[j][1] // e
                               for j in block):
            raise GuessInvalid("inconsistent block degree")
    return accs


def det_by_elimination(rows, ctx):
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


def ceil_c_d2_log2_by_powers(C, d2, M):
    """Smallest integer a >= 0 with 2^(a*C.den) >= M^(C.num*d2), that is
    a >= C*d2*log2(M), from a float start by exact power comparisons."""
    import math
    if M <= 1:
        return 0
    a = max(0, math.ceil(float(C) * d2 * math.log2(M)))
    rhs = M ** (C.numerator * d2)
    while 2 ** (a * C.denominator) < rhs:
        a += 1
    while a > 0 and 2 ** ((a - 1) * C.denominator) >= rhs:
        a -= 1
    return a


def pair_lift_by_division(F, g0, h0, prec, ctx):
    """Lift F(y, 0) = g0*h0 (coprime, monic) to G*H == F mod t^prec, for a
    y-list F monic in y and truncated mod t^prec; returns the y-lists
    (G, H).  Step m takes e = [t^m](F - G*H) and sets G's t^m column to
    (u*e) mod g0, u the Bezout cofactor of h0, and H's to
    (e - that*h0)/g0."""
    from sparsefact.errors import NotCoprime, NoFactorizationFound
    from sparsefact.unifactor import UniPoly
    d, s, u = g0.xgcd(h0)
    if d.degree() != 0:
        raise NotCoprime("seed factors share a root")
    zl = ctx.zero_log
    G = [[v] + [zl] * (prec - 1) for v in g0.logs]
    H = [[v] + [zl] * (prec - 1) for v in h0.logs]
    for m in range(1, prec):
        prod = UniPoly(ctx)
        for r in range(m + 1):
            Gr = UniPoly.from_logs(ctx, [row[r] for row in G])
            Hr = UniPoly.from_logs(ctx, [row[m - r] for row in H])
            prod = prod + Gr * Hr
        e = UniPoly.from_logs(ctx, [row.logs[m] if m < len(row.logs) else zl
                                    for row in F]) - prod
        if e.is_zero():
            continue
        dG = (u * e) % g0
        dH, r = (e - dG * h0).divmod(g0)
        if not r.is_zero():
            raise NoFactorizationFound("Hensel step leaves a remainder")
        for j, v in enumerate(dG.logs):
            G[j][m] = v
        for j, v in enumerate(dH.logs):
            H[j][m] = v
    return ([UniPoly.from_logs(ctx, row) for row in G],
            [UniPoly.from_logs(ctx, row) for row in H])


def ref_restrict(f, a, b):
    """The restriction on FieldElem coefficient lists, term by term."""
    from sparsefact.sparsepoly import SparsePoly
    ctx, n = f.ctx, len(a)
    out = {}
    for e, c in f.terms.items():
        tco = [c]
        for i in range(n):
            if b[i] == a[i]:  # a_i^e_i by FieldElem powering
                tco = [v * a[i] ** e[i] for v in tco]
                continue
            for _ in range(e[i]):
                new = [ctx.zero()] * (len(tco) + 1)
                for j, v in enumerate(tco):
                    new[j] = new[j] + v * a[i]
                    new[j + 1] = new[j + 1] + v * (b[i] - a[i])
                tco = new
        ey = e[n] if f.n > n else 0
        for j, v in enumerate(tco):
            out[(ey, j)] = out.get((ey, j), ctx.zero()) + v
    return SparsePoly(ctx, 2, out)


def ref_value(f, point):
    """f at a point of all f.n coordinates."""
    return ref_restrict(f, point, point).terms.get((0, 0), f.ctx.zero())


def ref_projection(f, a):
    """f(a, y) as a UniPoly, for f with y at the last index."""
    from sparsefact.unifactor import UniPoly
    ft = ref_restrict(f, a, a)
    return UniPoly(f.ctx, [ft.terms.get((j, 0), f.ctx.zero())
                           for j in range(f.degree(f.n - 1) + 1)])
