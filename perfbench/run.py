"""Benchmark of sparsefact: factoring and Newton-polytope workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload factor-prime --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, in turn

One client in one thread sends each input after the previous one returns
(closed loop), in as many complete passes over the workload's inputs as
best fill --seconds.  With --trace 0 it prints the end-to-end metrics, with
every time put at a fixed machine speed (speed.py); with
--trace 1 it runs one untraced and two traced passes and prints the
per-layer metrics (see tracer.py).  Outputs are checked outside the timed
region; an input whose output is wrong counts as failed.  The last line of
standard output is one JSON object,
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
whose metrics are the ones BENCHMARK.json lists; README.md explains them.
"""

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Run in a fresh interpreter: prints the seconds that importing sparsefact
# and making the workload's fields take, interpreter start-up excluded, and
# the times of reference loops run right after (speed.py, imported only
# then, so that its own imports do not shorten sparsefact's).
SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sparsefact
for p, ell in json.loads(sys.argv[2]):
    sparsefact.make_field(p, ell)
t = time.perf_counter() - t0
sys.path.insert(0, sys.argv[3])
import speed
print(json.dumps([t, speed.sample(20)]))
"""

# Fields of the micro-timings: every field a workload computes in, with the
# extensions factor-lifted lifts into.
MICRO_FIELDS = [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (101, 1),
                (3, 2), (3, 3), (5, 2), (7, 2)]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "sparsefact" / "__init__.py").is_file():
        print("sparsefact sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    import sparsefact
    if Path(sparsefact.__file__).resolve().parent != SRC / "sparsefact":
        print("imported sparsefact from %s, not from %s"
              % (sparsefact.__file__, SRC), file=sys.stderr)
        return 2
    inputs = wl.inputs(args.seed)
    wl.prepare(inputs)

    if args.trace:
        result = traced_run(wl, inputs, args, spec)
    else:
        result = untraced_run(wl, inputs, args, spec)
    print(json.dumps(result))
    return 0


def setup_times(wl, count=3):
    """Set-up time of `count` fresh interpreters, one after another, each
    put at the reference speed with the loops timed around it."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC),
             json.dumps(wl.fields), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120)
        t, samples = json.loads(proc.stdout)
        out.append(t / speed.slowdown(samples))
    return out


# -- the closed loop ---------------------------------------------------------

def one_pass(wl, inputs, tracer=None):
    """Call every input once; returns (outputs, latencies, wall seconds).
    An output is the canonical result or ("error", exception name)."""
    raw, lat = [], []
    clock = time.perf_counter
    start = clock()
    for i, inp in enumerate(inputs):
        if tracer is not None:
            tracer.input_id = i
        t0 = clock()
        try:
            out = wl.call(inp)
        except Exception as e:  # counted as a failed input
            out = e
        lat.append(clock() - t0)
        raw.append(out)
    wall = clock() - start
    return [("error", type(o).__name__) if isinstance(o, Exception)
            else wl.canonical(o) for o in raw], lat, wall


def gate(wl, inputs, outputs):
    """Reasons for failure, one per failed input: {index: reason}."""
    failed = {}
    for i, (inp, out) in enumerate(zip(inputs, outputs)):
        if isinstance(out, tuple) and out and out[0] == "error":
            failed[i] = "raised %s" % out[1]
            continue
        reason = wl.check(inp, out)
        if reason:
            failed[i] = reason
    return failed


def untraced_run(wl, inputs, args, spec):
    # set-up is sampled before and after every pass, so that its median
    # spans the run and not one moment of it
    passes, lat, wall, setup = [], [], 0.0, setup_times(wl)
    probe = speed.SpeedProbe()
    while True:  # the number of complete passes that best fills --seconds
        with probe:
            outs, l, w = one_pass(wl, inputs)
        passes.append(outs)
        lat += l
        wall += w
        setup += setup_times(wl)
        if len(passes) >= round(args.seconds * len(passes) / wall):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = gate(wl, inputs, passes[0])
    # sparsefact promises the same output on every run; a run that breaks
    # that is not a valid measurement
    unstable = {i for outs in passes[1:]
                for i, (a, b) in enumerate(zip(passes[0], outs)) if a != b}
    for i in unstable:
        failed.setdefault(i, "output differs between passes")
    report_failures(wl, inputs, failed)
    attempted = len(lat)
    nfailed = len(failed) * len(passes)
    slow = probe.slowdown()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "inputs_per_s": (attempted * slow / wall, "1/s"),
        "latency_p50_ms": (hd_quantile(lat, 0.5) / slow * 1e3, "ms"),
        "latency_p90_ms": (hd_quantile(lat, 0.9) / slow * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print("workload %s seed %d: %d inputs x %d passes = %d samples in "
          "%.2f s (%.2f inputs/s as timed); the machine ran %.3fx slower "
          "than the reference speed (%d probes)"
          % (wl.name, args.seed, len(inputs), len(passes), attempted, wall,
             attempted / wall, slow, len(probe.samples)))
    for name, (value, unit) in metrics.items():
        print("  %-16s %14.6f %s" % (name, value, unit))
    print("  %-16s %14.6f ratio (%d failed of %d attempted)"
          % ("error_rate", nfailed / attempted, nfailed, attempted))
    # the JSON carries the metrics BENCHMARK.json bounds; the latency
    # percentiles are printed above but spread too much between runs on a
    # shared box to carry a bound (see README.md)
    return {"correct": not unstable, "attempted": attempted,
            "failed": nfailed,
            "metrics": {e["name"]: {"value": metrics[e["name"]][0],
                                    "unit": metrics[e["name"]][1]}
                        for e in spec["end_to_end"]}}


def traced_run(wl, inputs, args, spec):
    from tracer import Tracer, known_metrics
    problems = []
    if [i.key() for i in inputs] == [i.key() for i in
                                     wl.inputs(args.seed + 1)]:
        problems.append("seeds %d and %d give the same inputs"
                        % (args.seed, args.seed + 1))
    plain, _, plain_wall = one_pass(wl, inputs)
    traces = []
    for _ in range(2):
        tr = Tracer()
        tr.install()
        try:
            outs, _, wall = one_pass(wl, inputs, tr)
        finally:
            tr.uninstall()
        if outs != plain:
            problems.append("traced outputs differ from untraced outputs")
        traces.append((tr, tr.metrics(), wall))
    tr, m, _ = traces[0]
    tr.write_spans(HERE / "out" / ("spans-%s-seed%d.tsv"
                                   % (wl.name, args.seed)))
    counts = [{k: v for k, v in t[1].items() if not is_time(k)}
              for t in traces]
    if counts[0] != counts[1]:
        diff = sorted(k for k in set(counts[0]) | set(counts[1])
                      if counts[0].get(k) != counts[1].get(k))
        problems.append("counters differ between two traced passes: %s"
                        % ", ".join(diff))
    for k in m:  # times: mean of the two traced passes
        if is_time(k):
            m[k] = (traces[0][1][k] + traces[1][1].get(k, 0.0)) / 2
    m["trace.overhead_s"] = (traces[0][2] + traces[1][2]) / 2 - plain_wall
    m["trace.spans"] = len(tr.spans)
    m.update(field_timings())
    problems += invariants(wl.name, m)

    failed = gate(wl, inputs, plain)
    report_failures(wl, inputs, failed)
    metrics = {}
    known = known_metrics() | set(m)
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name not in known:
            problems.append("no measurement for per-layer metric %s" % name)
        metrics[name] = {"value": m.get(name, 0), "unit": entry["unit"]}
        print("  %-42s %16.6f %s" % (name, metrics[name]["value"],
                                     entry["unit"]))
    for p in problems:
        print("invariant broken: %s" % p, file=sys.stderr)
    print("workload %s seed %d: %d inputs, untraced pass %.2f s, traced "
          "passes %.2f s and %.2f s, %d spans"
          % (wl.name, args.seed, len(inputs), plain_wall, traces[0][2],
             traces[1][2], len(tr.spans)))
    return {"correct": not problems, "attempted": len(inputs),
            "failed": len(failed), "metrics": metrics}


def invariants(name, m):
    """Properties each workload is built to have."""
    out = []
    if name == "factor-prime" and m.get("factorizer.lifts", 0) != 0:
        out.append("factor-prime lifted to an extension field")
    if name == "factor-lifted" and not m.get("factorizer.lifts", 0):
        out.append("factor-lifted never lifted to an extension field")
    if name == "polytope-cli" and m.get("factorizer.factor.calls", 0):
        out.append("polytope-cli called factor")
    return out


def is_time(metric):
    return metric.endswith(("_s", ".s"))


def report_failures(wl, inputs, failed):
    for i, reason in sorted(failed.items()):
        print("failed input %d of %s: %s" % (i, wl.name, reason),
              file=sys.stderr)


def hd_quantile(values, p, steps=20):
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982): the
    mean of the order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of their rank interval.  Factoring latencies are heavy tailed, so
    the samples near the 90th percentile sit far apart; this estimator moves
    by a fraction of such a gap, not a whole one, when a sample crosses the
    rank."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    lognorm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(lognorm + (a - 1) * math.log(x)
                        + (b - 1) * math.log1p(-x))

    h = 1 / (n * steps)  # trapezoid rule, `steps` points per rank interval
    weights, prev = [], pdf(0.0)
    for i in range(n):
        w = 0.0
        for j in range(1, steps + 1):
            cur = pdf((i * steps + j) * h)
            w += (prev + cur) * h / 2
            prev = cur
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# -- field micro-timings -----------------------------------------------------

def field_name(f):
    p, ell = f
    return "F%d" % p if ell == 1 else "F%de%d" % (p, ell)


def field_timings(repeats=7, budget_s=0.02):
    """ns per FieldElem multiply and inverse: the median of `repeats`
    loops over fixed nonzero elements, each loop running at least budget_s.
    The fields take turns, so a slow spell of the machine hits them alike."""
    from sparsefact.field import make_field
    loops = []
    for f in MICRO_FIELDS:
        ctx = make_field(*f)
        rng = random.Random(0)
        elems = [ctx.from_index(rng.randrange(1, ctx.q)) for _ in range(64)]
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        loops.append(("field.mul_ns." + field_name(f), len(pairs),
                      lambda pairs=pairs: [a * b for a, b in pairs]))
        loops.append(("field.inv_ns." + field_name(f), len(elems),
                      lambda elems=elems: [a.inverse() for a in elems]))
    samples = {name: [] for name, _, _ in loops}
    for _ in range(repeats):
        for name, per_loop, body in loops:
            n, t0 = 0, time.perf_counter()
            while True:
                body()
                n += per_loop
                t = time.perf_counter() - t0
                if t >= budget_s:
                    break
            samples[name].append(t / n * 1e9)
    return {name: statistics.median(v) for name, v in samples.items()}


# -- every workload in turn --------------------------------------------------

def run_all(args):
    """Run each workload in its own process (so peak RSS is its own) and
    stop at the first one that fails."""
    from workloads import WORKLOADS
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, cwd=ROOT).returncode
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
