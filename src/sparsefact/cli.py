"""Command-line surface.

Subcommands:

  factor    parse a polynomial and print its complete factorization
  verify    check a claimed factorization against a polynomial
  polytope  Newton-polytope statistics and sparsity-bound report
  hitset    dump a hitting set, one point per line
  examples  run the built-in sparsity demonstrations (eg1 / eg2 / hadamard)

Output is deterministic: the same invocation always produces the same bytes.
Exit codes: 0 success, 1 parse/validation failure, 2 field too small.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
from fractions import Fraction

# the factoring engine and the hitting sets are imported by the subcommands
# that run them, so no other subcommand compiles them; the parser and the
# polytope engine stay module-level names, which perfbench/tracer.py wraps
from .errors import SparsefactError, ParseError, FieldTooSmall
from .field import make_field
from .sparsepoly import (SparsePoly, Factorization, parse_poly, parse_polys,
                         format_poly, sparse_divide)
from .polytope import (support_of, caratheodory_check, hadamard_example,
                       sparsity_cap)


class _Args(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract here is 1."""

    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _fraction(text):
    """Fraction(text); a zero denominator is bad usage like any other text
    that is not a fraction."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            "invalid Fraction value: %r" % text) from None


@functools.cache
def _build_parser():
    # built once per process: parse_args reads the parser and changes nothing
    ap = _Args(prog="sparsefact",
               description="deterministic sparse polynomial factorization "
                           "over finite fields")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--prime", type=int, default=7,
                       help="field characteristic (default 7)")
        p.add_argument("--ext", type=int, default=1,
                       help="extension degree (default 1)")
        p.add_argument("--json", action="store_true",
                       help="structured JSON output")

    pf = sub.add_parser("factor", help="factor a polynomial")
    common(pf)
    pf.add_argument("poly", nargs="?", help="polynomial text")
    pf.add_argument("--input", help="file containing the polynomial text")

    pv = sub.add_parser("verify", help="verify a claimed factorization")
    common(pv)
    pv.add_argument("poly", help="polynomial text")
    pv.add_argument("--factor", action="append", default=[],
                    metavar="POLY[:MULT]",
                    help="claimed factor, repeatable")
    pv.add_argument("--unit", default="1", help="claimed unit (default 1)")

    pp = sub.add_parser("polytope", help="Newton-polytope statistics")
    common(pp)
    # the one subcommand that computes a sparsity cap
    pp.add_argument("--sb-constant", type=_fraction, default=Fraction(5),
                    help="constant C of the sparsity cap (default 5)")
    pp.add_argument("poly", help="polynomial text")

    ph = sub.add_parser("hitset", help="dump a hitting set")
    common(ph)
    ph.add_argument("--n", type=int, required=True, help="number of variables")
    ph.add_argument("--d", type=int, required=True, help="individual degree")
    ph.add_argument("--k", type=int, required=True, help="product arity")
    ph.add_argument("--limit", type=int, default=None,
                    help="print at most this many points")

    pe = sub.add_parser("examples", help="sparsity demonstrations")
    common(pe)
    pe.add_argument("--which", choices=("eg1", "eg2", "hadamard"),
                    required=True)
    pe.add_argument("--n", type=int, default=3)
    pe.add_argument("--d", type=int, default=2)
    pe.add_argument("--m", type=int, default=3, help="hadamard dimension")
    return ap


def _field(args):
    return make_field(args.prime, args.ext)


def _read_text(args):
    if getattr(args, "input", None):
        with open(args.input) as fh:
            text = fh.read()
    else:
        text = args.poly
    if not text:
        raise ParseError("no polynomial given")
    return text


def _fac_json(ctx, fac):
    return {
        "field": {"p": ctx.p, "ext": ctx.ell},
        "unit": fac.unit.serialize(),
        "factors": [{"poly": format_poly(h), "multiplicity": m}
                    for h, m in fac.parts],
    }


def _cmd_factor(args, out):
    from .factorizer import factor
    ctx = _field(args)
    f = parse_poly(_read_text(args), ctx)
    fac = factor(f)
    if args.json:
        out.write(json.dumps(_fac_json(ctx, fac), sort_keys=True) + "\n")
        return 0
    out.write("field: F_%d%s\n" % (ctx.p, "^%d" % ctx.ell if ctx.ell > 1 else ""))
    out.write("unit: %s\n" % (fac.unit.serialize(),))
    for h, m in fac.parts:
        out.write("factor: (%s)^%d\n" % (format_poly(h), m))
    return 0


def _cmd_verify(args, out):
    from .factorizer import verify_factorization
    ctx = _field(args)
    specs = []  # (text, multiplicity) of each claimed factor
    for spec in args.factor:
        text, _, mult = spec.rpartition(":")
        specs.append((text, int(mult)) if text and mult.isdigit()
                     else (spec, 1))
    f, unit_poly, *hs = parse_polys(
        [_read_text(args), args.unit] + [t for t, _ in specs], ctx)
    if not unit_poly.is_constant():
        raise ParseError("unit must be a constant")
    cand = Factorization(unit_poly.constant_value(),
                         [(h, m) for h, (_, m) in zip(hs, specs)])
    verdict = verify_factorization(f, cand)
    if args.json:
        out.write(json.dumps({"verdict": verdict}) + "\n")
    else:
        out.write("verdict: %s\n" % ("true" if verdict else "false"))
    return 0


def _cmd_polytope(args, out):
    ctx = _field(args)
    f = parse_poly(_read_text(args), ctx)
    E = support_of(f)
    d = max(f.max_degree(), 1)
    report = caratheodory_check(E, d, args.sb_constant)
    verts = report["vertex_list"]
    cap = sparsity_cap(f.n, f.sparsity(), d, args.sb_constant)
    info = {
        "sparsity": f.sparsity(),
        "support": sorted(E),
        "vertices": sorted(verts),
        "vertex_count": len(verts),
        "factor_sparsity_cap": cap,
        "bound_holds": report["bound_holds"],
    }
    if args.json:
        out.write(json.dumps(info, sort_keys=True) + "\n")
        return 0
    out.write("sparsity: %d\n" % info["sparsity"])
    out.write("vertices: %d\n" % info["vertex_count"])
    for v in info["vertices"]:
        out.write("vertex: %s\n" % (tuple(v),))
    out.write("factor sparsity cap: %d\n" % cap)
    out.write("bound holds: %s\n" % ("true" if report["bound_holds"] else "false"))
    return 0


def _cmd_hitset(args, out):
    from .hitting import gen_hitting_set
    ctx = _field(args)
    hs = gen_hitting_set(ctx, args.n, args.d, args.k)
    if args.limit is not None and args.limit < 0:
        raise ValueError("negative point limit %d" % args.limit)
    # points are written as they come: the grid has (k*d + 1)^n of them
    pts = itertools.islice(hs, args.limit)
    if args.json:
        # the bytes of json.dumps({"size": ..., "points": [...]})
        out.write('{"size": %d, "points": [' % hs.size)
        for i, pt in enumerate(pts):
            out.write((", " if i else "")
                      + json.dumps([v.serialize() for v in pt]))
        out.write("]}\n")
        return 0
    out.write("size: %d\n" % hs.size)
    for pt in pts:
        out.write(" ".join(str(v.serialize()) for v in pt) + "\n")
    return 0


def _eg1(ctx, n, d):
    """f = prod (x_i^d - 1): 2^n terms, with the all-ones-coefficients factor
    g = prod (1 + x_i + ... + x_i^(d-1)) of d^n terms."""
    if n < 1 or d < 1:
        raise ValueError("eg1 needs n >= 1 and d >= 1")
    f = SparsePoly.constant(ctx, n, 1)
    g = SparsePoly.constant(ctx, n, 1)
    for i in range(n):
        f = f * (SparsePoly.variable(ctx, n, i, d)
                 - SparsePoly.constant(ctx, n, 1))
        acc = SparsePoly.zero(ctx, n)
        for j in range(d):
            acc = acc + SparsePoly.variable(ctx, n, i, j)
        g = g * acc
    return f, g


def _eg2(ctx, n, d):
    """f = x_1^p + ... + x_n^p = (x_1 + ... + x_n)^p: n terms, with the
    power-sum factor g = (x_1 + ... + x_n)^d of (n+d-1 choose d) terms."""
    if n < 1:
        raise ValueError("eg2 needs n >= 1")
    if not 0 < d < ctx.p:
        # from d = p on, multinomial coefficients of g vanish mod p
        raise ValueError("eg2 needs 0 < d < p = %d" % ctx.p)
    f = SparsePoly.zero(ctx, n)
    lin = SparsePoly.zero(ctx, n)
    for i in range(n):
        f = f + SparsePoly.variable(ctx, n, i, ctx.p)
        lin = lin + SparsePoly.variable(ctx, n, i)
    return f, lin ** d


def _cmd_examples(args, out):
    ctx = _field(args)
    if args.which == "hadamard":
        E, verts, subspaces = hadamard_example(args.m)
        info = {"support": len(E), "vertices": len(verts),
                "certified_interior_points": subspaces}
        if args.json:
            out.write(json.dumps(info, sort_keys=True) + "\n")
        else:
            out.write("support size: %d\n" % info["support"])
            out.write("hull vertices: %d\n" % info["vertices"])
            out.write("certified interior points: %d\n" % subspaces)
        return 0
    n, d = args.n, args.d
    f, g = _eg1(ctx, n, d) if args.which == "eg1" else _eg2(ctx, n, d)
    claimed_f = 2 ** n if args.which == "eg1" else n
    claimed_g = d ** n if args.which == "eg1" else math.comb(n + d - 1, d)
    divides = sparse_divide(f, g) is not None
    info = {"input_sparsity": f.sparsity(), "claimed_input": claimed_f,
            "factor_sparsity": g.sparsity(), "claimed_factor": claimed_g,
            "divides": divides}
    if args.json:
        out.write(json.dumps(info, sort_keys=True) + "\n")
    else:
        out.write("input sparsity: %d (claimed %d)\n"
                  % (f.sparsity(), claimed_f))
        out.write("factor sparsity: %d (claimed %d)\n"
                  % (g.sparsity(), claimed_g))
        out.write("factor divides input: %s\n" % ("true" if divides else "false"))
    return 0


_DISPATCH = {
    "factor": _cmd_factor,
    "verify": _cmd_verify,
    "polytope": _cmd_polytope,
    "hitset": _cmd_hitset,
    "examples": _cmd_examples,
}


def run(argv, out=None):
    """Entry point for scripting: returns the exit status."""
    out = out or sys.stdout
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        return _DISPATCH[args.cmd](args, out)
    except FieldTooSmall as e:
        out.write("error: %s\n" % e)
        return 2
    except BrokenPipeError:
        raise  # the reader has left: nothing more can be written to it
    except (SparsefactError, ValueError, OSError) as e:
        out.write("error: %s\n" % e)
        return 1


def main():
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (`| head`); point it at devnull so that
        # the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    main()
