"""Host-speed reference for the benchmark's timings.

On a shared host each core switches between a normal speed and one about
1.5 times slower, in spells that last from a fraction of a second to tens
of seconds, on both cores at once as often as not.  Raw timings of the
same code then spread by 30% and more from run to run, and neither the
fastest of several visits nor CPU time filters that out.

So while an interval is timed, the host's speed is sampled with a short
fixed pure-Python loop: just before and just after the interval, and every
``INTERVAL_S`` during it, from a ``SIGALRM`` handler whose own time is
taken out of the interval.  The interval is reported scaled to that loop's
nominal duration:

    scaled = raw * NOMINAL_S / mean(loop durations)

A scaled value reads as the time the interval takes on a host where the
loop takes ``NOMINAL_S``.  The loop mixes the kinds of interpreter work
the package does (dict and tuple traffic, ``Fraction`` arithmetic, sorting
into sets, small objects), so that a slow spell slows it about as much as
the package.  It runs with the collector held off and frees all it
allocates, so sampling does not shift the package's garbage collections.
It lives here, outside the package, so no change to the package can move
it.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Duration of one loop on a quiet shared 2-core x86-64 VM with Python 3.11;
# the unit that scaled timings are expressed in.
NOMINAL_S = 80e-6
# Sampling period inside a timed interval.
INTERVAL_S = 0.02


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int) -> None:
        self.x = x
        self.y = y


def _loop() -> int:
    counts: dict = {}
    for i in range(120):
        key = (i & 31, i % 7)
        counts[key] = counts.get(key, 0) + i * i % 11
    total = Fraction(0)
    for i in range(1, 7):
        total += Fraction(i % 13 + 1, i % 7 + 1)
    seen = {a for a, _i in sorted((i * 7919 % 1000, i) for i in range(60))}
    points = [_Point(i, i + 1) for i in range(75)]
    return len(counts) + total.denominator + len(seen) + sum(p.x + p.y for p in points)


def _sample() -> float:
    """The second of two back-to-back loops: the first brings the loop's
    code and data back into the caches that the timed call evicted."""
    enabled = gc.isenabled()
    gc.disable()
    _loop()
    t0 = time.perf_counter()
    _loop()
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t1 - t0


def reference() -> float:
    """Mean duration of a few loops run now."""
    return statistics.fmean(_sample() for _ in range(8))


def timed(call, sample_inside: bool = True):
    """Run ``call()``; return its result, or the exception it raised, the
    raw seconds it took, and the mean loop duration over that time (at its
    edges only, without ``sample_inside``).  Not reentrant."""
    samples = [_sample()]
    overhead = 0.0

    def tick(_signum, _frame) -> None:
        nonlocal overhead
        t = time.perf_counter()
        samples.append(_sample())
        overhead += time.perf_counter() - t

    if sample_inside:
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # the caller counts it as a failed item
        result = exc
    finally:
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        if sample_inside:
            signal.signal(signal.SIGALRM, previous)
    raw = t1 - t0 - overhead
    samples.append(_sample())
    return result, raw, statistics.fmean(samples)


def scale(raw_s: float, loop_s: float) -> float:
    """``raw_s``, measured while the loop took ``loop_s``, at nominal speed."""
    return raw_s * NOMINAL_S / loop_s
