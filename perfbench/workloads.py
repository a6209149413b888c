"""The benchmark's three workloads: how each input is made from a seed, the
call it makes into sparsefact, and the correctness gate for its output.

Factoring inputs are products of small blocks from the generator of
tests/test_acceptance.py::test_01 (random blocks of individual degree <= 1,
products of individual degree <= 3).  Per-input factoring cost is heavy
tailed: in one draw of 600 products, 4% of the inputs took 60% of the time,
and single inputs of the same shape differ by 20x.  A workload drawn afresh
from each seed would therefore measure the draw, not the code.  Instead each
workload is a fixed corpus of templates, drawn once from the generator with
TEMPLATE_SEED, and the run's seed draws a random diagonal change of
variables x_j -> c_j * x_j and a unit for every block of every template.  That
keeps each input's shape, and so its cost to within about 10%, while every
seed factors different polynomials.  Polytope supports get the same
treatment with the lattice symmetries of the box {0..d}^n (a coordinate
permutation and a reflection e_i -> d - e_i per coordinate), which keep the
hull's combinatorics.  Fixed regression members, which the default driver is
known to factor incompletely, are added unchanged to every seed so that the
defect stays visible in the error rate.

The gate never trusts the library's arithmetic: coefficients of inputs and
outputs live in prime fields, and re-multiplication is done here on
dictionaries of ints mod p.
"""

import io
import json
import random
import sys
from pathlib import Path

TEMPLATE_SEED = 20260824  # the seed of test_01, fixes every template corpus

# Over F_3 the default config returns 3 factors for this product, one of them
# reducible; the complete factorization has 4 (anchor_patience=1000 finds it).
F3_REGRESSION = (3, 4, [("x1*x3*x4 + 2*x1*x2 + 2*x2*x4 + x4", 1),
                        ("2*x1*x2*x4 + x1*x4 + x3*x4", 1),
                        ("x1*x2*x3*x4 + x1*x2 + x2*x3 + 2", 1)])

# Products of the test_01 generator over F_101 that the default config
# returns with a reducible factor reported as irreducible (found in a
# 250-product seeded search).
F101_REGRESSION = [
    (101, 4, [("98*x1*x2*x3*x4 + 52*x1", 1), ("49*x1*x3*x4 + 5", 1)]),
    (101, 4, [("42*x2*x3*x4 + 24*x1", 1), ("62*x1*x2*x3*x4 + 79*x3", 1)]),
    (101, 3, [("17*x1*x2*x3 + 65*x2 + 42", 1), ("62*x1*x2*x3 + 96*x2", 1)]),
]


# -- polynomials as {exponent tuple: int mod p} ------------------------------

def poly_mul(a, b, p):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % p
    return {e: c for e, c in out.items() if c}


def poly_pow(a, m, p, n):
    out = {(0,) * n: 1}
    for _ in range(m):
        out = poly_mul(out, a, p)
    return out


def product(parts, p, n, unit=1):
    """unit * prod(h^m for h, m in parts)."""
    out = {(0,) * n: unit % p} if unit % p else {}
    for h, m in parts:
        out = poly_mul(out, poly_pow(dict(h), m, p, n), p)
    return out


def monic_key(h, p):
    """Canonical form up to a scalar: divide by the coefficient of the
    lexicographically largest exponent."""
    lc = h[max(h)]
    inv = pow(lc, p - 2, p)
    return tuple(sorted((e, c * inv % p) for e, c in h.items()))


def parse_terms(text, n, p):
    """'3*x1^2*x3 + 5' -> {(2, 0, 1): 3, (0, 0, 0): 5}; only the grammar the
    regression members use."""
    out = {}
    for term in text.split("+"):
        e = [0] * n
        c = 1
        for factor in term.strip().split("*"):
            if factor.startswith("x"):
                var, _, k = factor[1:].partition("^")
                e[int(var) - 1] += int(k or 1)
            else:
                c = c * int(factor) % p
        out[tuple(e)] = (out.get(tuple(e), 0) + c) % p
    return out


# -- factoring workloads -----------------------------------------------------

def rand_block(p, n, rng):
    """tests/test_acceptance.py::rand_block with maxdeg 1 over F_p, drawing
    the same random numbers."""
    while True:
        terms = {}
        for _ in range(rng.randint(2, 3)):
            e = tuple(rng.randint(0, 1) for _ in range(n))
            if sum(e) > 1:
                e = tuple(min(v, 1) for v in e)
            terms[e] = rng.randrange(1, p)
        if any(any(e) for e in terms):
            return terms


def product_templates(primes, nmin, nmax, count, rng):
    """The first `count` products of the test_01 generator that keep
    individual degree <= 3, as (p, n, [(block, multiplicity)])."""
    out = []
    trial = 0
    while len(out) < count:
        p = primes[trial % len(primes)]
        trial += 1
        n = rng.randint(nmin, nmax)
        blocks = [(rand_block(p, n, rng), rng.randint(1, 2))
                  for _ in range(rng.randint(1, 3))]
        if max(max(e) for e in product(blocks, p, n)) <= 3:
            out.append((p, n, blocks))
    return out


def rescale(template, rng):
    """Apply x_j -> c_j * x_j to every block and multiply each block by a
    unit, all drawn from rng."""
    p, n, blocks = template
    cs = [rng.randrange(1, p) for _ in range(n)]
    out = []
    for b, m in blocks:
        u = rng.randrange(1, p)
        scaled = {}
        for e, c in b.items():
            v = c * u
            for cj, ej in zip(cs, e):
                v = v * pow(cj, ej, p)
            scaled[e] = v % p
        out.append((scaled, m))
    return p, n, out


class FactorInput:
    __slots__ = ("p", "n", "blocks", "f", "poly")

    def __init__(self, p, n, blocks):
        self.p, self.n, self.blocks = p, n, blocks
        self.f = product(blocks, p, n)
        self.poly = None  # the SparsePoly, built by prepare()

    def key(self):
        return (self.p, self.n, tuple(sorted(self.f.items())))


def regression_members(specs):
    return [FactorInput(p, n, [(parse_terms(t, n, p), m) for t, m in blocks])
            for p, n, blocks in specs]


class FactorWorkload:
    """Closed-loop `factor` calls on products of test_01 blocks."""

    def __init__(self, name, primes, nmin, nmax, count, regression, fields):
        self.name = name
        self.primes, self.nmin, self.nmax = primes, nmin, nmax
        self.count = count
        self.regression = regression
        self.fields = fields  # (p, ell) pairs made at set-up

    def inputs(self, seed):
        templates = product_templates(self.primes, self.nmin, self.nmax,
                                      self.count,
                                      random.Random(TEMPLATE_SEED))
        rng = random.Random(seed)
        out = [FactorInput(*rescale(t, rng)) for t in templates]
        return out + regression_members(self.regression)

    def prepare(self, inputs):
        from sparsefact.field import make_field
        from sparsefact.sparsepoly import SparsePoly
        for inp in inputs:
            ctx = make_field(inp.p)
            inp.poly = SparsePoly(ctx, inp.n, {e: ctx.elem(c)
                                               for e, c in inp.f.items()})

    @staticmethod
    def call(inp):
        from sparsefact import factorizer
        return factorizer.factor(inp.poly)

    @staticmethod
    def canonical(out):
        """Plain-data form of a Factorization, for comparing runs."""
        return (out.unit.serialize(),
                tuple((tuple(sorted((e, c.serialize())
                                    for e, c in h.terms.items())), m)
                      for h, m in out.parts))

    def check(self, inp, out):
        """None when the factorization is right, else the reason it is not."""
        from sparsefact import factorizer
        from sparsefact.field import make_field
        from sparsefact.sparsepoly import SparsePoly
        p, n = inp.p, inp.n
        unit, parts = out
        if product(parts, p, n, unit) != inp.f:
            return "product differs from the input"
        want = {}
        ctx = make_field(p)
        for b, m in inp.blocks:
            try:
                bfac = factorizer.factor(SparsePoly(
                    ctx, n, {e: ctx.elem(c) for e, c in b.items()}))
            except Exception as e:  # a block that cannot be factored
                return "block factorization raised %s" % type(e).__name__
            bunit, bparts = self.canonical(bfac)
            if product(bparts, p, n, bunit) != b:
                return "block factorization differs from the block"
            for h, mm in bparts:
                k = monic_key(dict(h), p)
                want[k] = want.get(k, 0) + mm * m
        got = {}
        for h, m in parts:
            k = monic_key(dict(h), p)
            got[k] = got.get(k, 0) + m
        if got != want:
            return ("factor multiset differs from the construction "
                    "(%d factors, expected %d)"
                    % (sum(got.values()), sum(want.values())))
        return None


# -- polytope workload -------------------------------------------------------

def support_templates(count, rng):
    """The test_04 generator: n 1-6, d 1-3, at most 40 points."""
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        d = rng.randint(1, 3)
        size = rng.randint(1, 40)
        E = {tuple(rng.randint(0, d) for _ in range(n)) for _ in range(size)}
        out.append((n, d, sorted(E)))
    return out


def support_text(E):
    terms = []
    for e in sorted(E):
        mono = "*".join("x%d" % (i + 1) + ("^%d" % k if k > 1 else "")
                        for i, k in enumerate(e) if k)
        terms.append(mono or "1")
    return " + ".join(terms)


class PolytopeInput:
    __slots__ = ("E", "text")

    def __init__(self, E):
        # parse_poly drops trailing variables that never occur
        n_eff = max([i + 1 for e in E for i, k in enumerate(e) if k] or [1])
        self.E = sorted({e[:n_eff] for e in E})
        self.text = support_text(self.E)

    def key(self):
        return self.text


class PolytopeWorkload:
    """Closed-loop `sparsefact polytope --json` commands, run in-process."""

    name = "polytope-cli"
    fields = [(7, 1)]  # the CLI's default field

    def __init__(self, count):
        self.count = count

    def inputs(self, seed):
        rng = random.Random(seed)
        out = []
        for n, d, E in support_templates(self.count,
                                         random.Random(TEMPLATE_SEED)):
            perm = list(range(n))
            rng.shuffle(perm)
            flip = [rng.randrange(2) for _ in range(n)]
            out.append(PolytopeInput(
                [tuple(d - e[j] if flip[i] else e[j]
                       for i, j in enumerate(perm)) for e in E]))
        return out

    def prepare(self, inputs):
        pass

    @staticmethod
    def call(inp):
        from sparsefact import cli
        buf = io.StringIO()
        status = cli.run(["polytope", "--json", inp.text], out=buf)
        return status, buf.getvalue()

    @staticmethod
    def canonical(out):
        return out

    def check(self, inp, out):
        status, text = out
        if status != 0:
            return "exit status %d: %s" % (status, text.strip())
        info = json.loads(text)
        verts = [tuple(v) for v in info["vertices"]]
        if [tuple(v) for v in info["support"]] != inp.E:
            return "support differs from the input"
        if info["bound_holds"] is not True:
            return "bound_holds is not true"
        if info["vertex_count"] != len(verts) or verts != sorted(set(verts)):
            return "vertex list is not a sorted set of vertex_count points"
        if len(inp.E) <= 10:
            if verts != brute_force_vertices(inp.E):
                return "vertices differ from the brute-force oracle"
        else:
            reason = extreme_points_check(inp.E, verts)
            if reason:
                return reason
        return None


def brute_force_vertices(E):
    tests = Path(__file__).resolve().parent.parent / "tests"
    if str(tests) not in sys.path:
        sys.path.append(str(tests))
    from tests_oracle import brute_force_vertices as oracle
    return oracle(E)


def extreme_points_check(E, verts):
    """Partial oracle for supports too big to brute-force: the vertices are
    points of E, and the unique maximizer of each of a fixed set of linear
    functionals is among them."""
    if not set(verts) <= set(E):
        return "a vertex is not a support point"
    n = len(E[0])
    rng = random.Random(0)
    dirs = [tuple((1 if j == i else 0) * s for j in range(n))
            for i in range(n) for s in (1, -1)]
    dirs += [tuple(rng.randint(-7, 7) for _ in range(n)) for _ in range(16)]
    for w in dirs:
        vals = [sum(a * b for a, b in zip(w, e)) for e in E]
        top = max(vals)
        if vals.count(top) == 1 and E[vals.index(top)] not in verts:
            return "extreme point %s missing from the vertices" % (
                E[vals.index(top)],)
    return None


WORKLOADS = {
    "factor-prime": FactorWorkload(
        "factor-prime", [11, 13, 101], 2, 4, count=100,
        regression=F101_REGRESSION, fields=[(11, 1), (13, 1), (101, 1)]),
    "factor-lifted": FactorWorkload(
        "factor-lifted", [3, 5, 7], 3, 3, count=100,
        regression=[F3_REGRESSION],
        fields=[(3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2), (7, 2)]),
    "polytope-cli": PolytopeWorkload(count=100),
}
