"""How fast the machine runs while the benchmark times something.

The shared 2-core box this benchmark was written on runs Python code up to
2-3x slower than its best, in spells of half a second to minutes, as other
work on the host comes and goes; the same pass over the same inputs took
8-12 s within a minute.  Timed figures are therefore put at one fixed speed:
a fixed reference loop, which does the kind of work sparsefact does (small
objects, modular arithmetic, dictionary updates, method calls) but uses
nothing of sparsefact, is timed again and again while the program runs, and
each timed figure is divided by `slowdown(samples)`: how much longer than
REFERENCE_S the loop took, as a harmonic mean (work done at speed 1/t over
a stretch of wall time is proportional to the mean of 1/t).

A change to sparsefact does not move the reference loop, so it moves the
figures in full; a slow spell of the machine moves both alike.  Over ten
seeds per workload the spread of throughput (quartile distance over median)
was 0.02-0.05, where figures as timed spread 0.10-0.26; normalising by a
loop of bare integer arithmetic, or by the arithmetic mean of the loop's
times, left 0.12-0.27 on five seeds.
"""

import signal
import statistics
import time
from fractions import Fraction

# About the reference loop's time on the box above when it ran fastest.  Any
# constant would do: it fixes only the speed that figures are reported at.
REFERENCE_S = 100e-6


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return _Elem(self.v * other.v % 101)

    def __add__(self, other):
        return _Elem((self.v + other.v) % 101)


def reference():
    """The reference loop, about 100 us: a small sparse product over F_101
    and a short sum of Fractions (the LP's arithmetic)."""
    terms = {}
    xs = [_Elem(i) for i in range(1, 20)]
    for i, a in enumerate(xs):
        for j, b in enumerate(xs[:6]):
            k = (i + j, i & 3)
            c = a * b
            t = terms.get(k)
            terms[k] = c if t is None else t + c
    s = Fraction(0)
    for i in range(1, 12):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    return len(terms), s


def sample(count, warmup=5):
    """Times of `count` reference loops, back to back."""
    for _ in range(warmup):
        reference()
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference()
        out.append(time.perf_counter() - t0)
    return out


def slowdown(samples):
    """Time at the machine's speed over time at REFERENCE_S's speed."""
    return 1 / (statistics.mean([1 / s for s in samples]) * REFERENCE_S)


class SpeedProbe:
    """While entered, a SIGALRM handler times the reference loop every
    INTERVAL_S seconds of wall time, so the samples spread evenly over the
    timed region, long calls included (the handler runs between two
    bytecodes of whatever sparsefact is doing; it costs about 0.2% of the
    time)."""

    INTERVAL_S = 0.05

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def slowdown(self):
        return slowdown(self.samples)
