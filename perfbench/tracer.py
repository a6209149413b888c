"""Spans and counters around the calls into each layer of sparsefact.

The tracer replaces module-level names that sparsefact looks up at call
time (for example `sparsefact.factorizer.factor_bivariate`, which the
monic driver calls through its module globals) with wrappers that record a
span: name, start, end, parent span and input id.  Field arithmetic is
counted but gets no spans, since it runs millions of times.  Spans are kept
in memory and written out by `write_spans`.  Nothing inside sparsefact
changes.
"""

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute, span name).  A layer's function appears once per
# module that imports it, so calls from every caller are seen.
SPANS = [
    ("sparsefact.factorizer", "factor", "factorizer.factor"),
    ("sparsefact.factorizer", "factor_monic", "factorizer.factor_monic"),
    ("sparsefact.factorizer", "blackbox_eval", "factorizer.blackbox_eval"),
    ("sparsefact.factorizer", "_interp_grid", "factorizer.interp"),
    ("sparsefact.factorizer", "verify_factorization", "factorizer.verify"),
    ("sparsefact.factorizer", "gen_anchor_set", "hitting.gen_anchor_set"),
    ("sparsefact.factorizer", "factor_bivariate", "bifactor.factor_bivariate"),
    ("sparsefact.bifactor", "factor_bivariate", "bifactor.factor_bivariate"),
    ("sparsefact.factorizer", "factor_univariate",
     "unifactor.factor_univariate"),
    ("sparsefact.bifactor", "factor_univariate", "unifactor.factor_univariate"),
    ("sparsefact.factorizer", "restrict_to_line",
     "sparsepoly.restrict_to_line"),
    ("sparsefact.factorizer", "make_monic", "sparsepoly.make_monic"),
    ("sparsefact.factorizer", "sparse_divide", "sparsepoly.sparse_divide"),
    ("sparsefact.bifactor", "sparse_divide", "sparsepoly.sparse_divide"),
    ("sparsefact.cli", "parse_poly", "sparsepoly.parse_poly"),
    ("sparsefact.cli", "newton_vertices", "polytope.newton_vertices"),
    ("sparsefact.polytope", "newton_vertices", "polytope.newton_vertices"),
    ("sparsefact.polytope", "in_hull", "polytope.in_hull"),
    ("sparsefact.cli", "caratheodory_check", "polytope.caratheodory_check"),
    ("sparsefact.cli", "run", "cli.run"),
]

# (module, attribute, counter name): counted calls without spans.
COUNTS = [
    ("sparsefact.factorizer", "lift_poly", "factorizer.lifts"),
    ("sparsefact.factorizer", "_reconstruct_candidate",
     "factorizer.guesses_tried"),
]

# Span name -> (exception name, counter): the counter counts the calls that
# raise that exception, or return False when the exception name is None.
OUTCOMES = {
    "factorizer.verify": (None, "factorizer.verify.rejected"),
    "factorizer.blackbox_eval": ("GuessInvalid", "factorizer.guesses_invalid"),
    "hitting.gen_anchor_set": ("FieldTooSmall",
                               "factorizer.full_grid_fallbacks"),
}

DERIVED = ["factorizer.anchors", "factorizer.guess_accept_ratio",
           "factorizer.line_cache_hit_ratio", "polytope.vertices_per_command"]

# FieldElem methods and the counter each call adds to.
FIELD_OPS = [("__mul__", "field.mul.calls"), ("inverse", "field.inv.calls"),
             ("__add__", "field.addsub.calls"),
             ("__sub__", "field.addsub.calls")]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, input id]
        self.counts = Counter()
        self.input_id = -1
        self._stack = []
        self._undo = []

    # -- installing wrappers -------------------------------------------------

    def install(self):
        from sparsefact import errors
        from sparsefact.field import FieldElem
        wrapped = {}  # one wrapper per original, shared by its aliases
        for mod, attr, name in SPANS:
            orig = self._lookup(mod, attr)
            if orig is None:
                continue
            if id(orig) not in wrapped:
                exc, outcome = OUTCOMES.get(name, (None, None))
                wrapped[id(orig)] = self._span_wrapper(
                    orig, name, exc and getattr(errors, exc), outcome)
            self._replace(sys.modules[mod], attr, wrapped[id(orig)])
        for mod, attr, name in COUNTS:
            orig = self._lookup(mod, attr)
            if orig is not None:
                self._replace(sys.modules[mod], attr,
                              self._count_wrapper(orig, name))
        for attr, name in FIELD_OPS:
            self._replace(FieldElem, attr,
                          self._count_wrapper(getattr(FieldElem, attr), name))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _lookup(self, mod, attr):
        orig = getattr(importlib.import_module(mod), attr, None)
        if orig is None:
            print("trace: %s.%s not found; its metrics read 0" % (mod, attr),
                  file=sys.stderr)
        return orig

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _count_wrapper(self, orig, name):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _span_wrapper(self, orig, name, exc_type, outcome):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.input_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException as e:
                rec[2] = clock()
                if exc_type is not None and isinstance(e, exc_type):
                    counts[outcome] += 1
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            if outcome and exc_type is None and result is False:
                counts[outcome] += 1
            return result
        return wrapper

    # -- reading the trace ---------------------------------------------------

    def metrics(self):
        """Per-layer metrics: `<span>.calls`, `<span>.s` (inclusive time,
        outermost span of each name only, so recursion is not counted
        twice) and `<span>.self_s` (duration minus the time its direct
        child spans cover), plus the counters and derived ratios."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = Counter()
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (t1 - t0) - child[i]
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                out[name + ".s"] += t1 - t0
            if (name == "unifactor.factor_univariate" and parent >= 0
                    and spans[parent][0] == "factorizer.factor_monic"):
                out["factorizer.anchors"] += 1  # one projection per anchor
        out.update(self.counts)
        m = dict(out)
        m["factorizer.guess_accept_ratio"] = ratio(
            out["factorizer.verify.calls"] - out["factorizer.verify.rejected"],
            out["factorizer.guesses_tried"])
        m["factorizer.line_cache_hit_ratio"] = (
            1 - ratio(out["sparsepoly.restrict_to_line.calls"],
                      out["factorizer.blackbox_eval.calls"])
            if out["factorizer.blackbox_eval.calls"] else 0.0)
        m["polytope.vertices_per_command"] = ratio(
            out["polytope.newton_vertices.calls"], out["cli.run.calls"])
        return m

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tinput\n")
            for i, (name, t0, t1, parent, inp) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (i, name, t0, t1, parent, inp))


def known_metrics():
    """Every metric name `Tracer.metrics` can produce."""
    names = {n + suffix for _, _, n in SPANS
             for suffix in (".calls", ".s", ".self_s")}
    names |= {n for _, _, n in COUNTS} | {n for _, n in FIELD_OPS}
    names |= {n for _, n in OUTCOMES.values()} | set(DERIVED)
    return names


def ratio(num, den):
    return num / den if den else 0.0
