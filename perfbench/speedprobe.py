"""A fixed CPU probe that tracks how fast the host runs, sampled while a
session runs.

On a shared host the speed of one core drifts: the same pure-Python loop
takes up to 1.8x longer, in bursts of a tenth of a second as well as in
phases of tens of seconds, and a 35 s run cannot average that out.  So an
untraced session runs a short fixed probe from a timer signal every
``EVERY_S`` seconds, inside the requests, and reports each request's time
at a fixed host speed: its latency times the mean host speed (reference
probe time over measured probe time) of the probes taken during it and
``WINDOW_S`` either side.

The probe is made of parts that each do one kind of work the toolkit does:
interpreted loops over dicts and tuples, ``Fraction`` arithmetic, mpmath's
pure-Python big-float kernel at 40 and 300 digits, and masked numpy
products like the period integrand.  The kinds of work do not slow alike,
so each workload runs the parts that match its own work
(``workloads.PROBE_PARTS``).  The probe imports nothing from mzvtools, so a
change to the toolkit cannot change it; it keeps no state between calls and
touches no global precision setting.  Its time is taken out of the
latencies it lands in.

    python3 perfbench/speedprobe.py      # prints probe times on this host
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np
from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, round_nearest

EVERY_S = 0.04
WINDOW_S = 0.3

# fixed inputs made without numpy.random, which would add megabytes of
# memory to sessions that do not otherwise load it
_U = (np.arange(4096 * 8).reshape(4096, 8) * 0.6180339887498949) % 1.0
_MASKS = (np.arange(8 * 8).reshape(8, 8) * 7919) % 13 < 6


def _interpreted():
    table = {}
    for i in range(1800):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i
    return sum(v for k, v in table.items() if k[0] != 3)


def _fractions():
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(i, i + 7) * Fraction(3 * i + 1, 2 * i + 5)
    return acc


def _bigfloat(prec, terms):
    third = mpf_div(from_int(1), from_int(3), prec, round_nearest)
    power, acc = third, from_int(0)
    for k in range(1, terms):
        acc = mpf_add(acc, mpf_div(power, from_int(k), prec, round_nearest), prec,
                      round_nearest)
        power = mpf_mul(power, third, prec, round_nearest)
    return acc


def _numpy():
    one_minus = 1.0 - _U
    phi = np.zeros(len(_U))
    for sel in _MASKS:
        phi += _U[:, sel].prod(axis=1) * one_minus[:, ~sel].prod(axis=1)
    return float((1.0 / (phi * phi)).sum())


# part -> (call, reference seconds); the reference, about the part's median
# inside sessions on the machine the bounds were measured on, defines the
# reference host speed
PARTS = {
    "interpreted": (_interpreted, 0.0007),
    "fractions": (_fractions, 0.0006),
    "bigfloat-40": (lambda: _bigfloat(140, 150), 0.0008),
    "bigfloat-300": (lambda: _bigfloat(1000, 70), 0.0006),
    "numpy": (_numpy, 0.0006),
}


def probe(parts):
    """Seconds the named parts take now."""
    t0 = time.perf_counter()
    for name in parts:
        PARTS[name][0]()
    return time.perf_counter() - t0


def reference(parts):
    """Seconds the named parts take at the reference host speed."""
    return sum(PARTS[name][1] for name in parts)


class Sampler:
    """Runs ``probe`` from SIGALRM every ``EVERY_S`` seconds while active.

    ``samples`` holds ``(start, probe seconds)``; ``spent`` is the total
    time the probes took, to be taken out of the latencies they land in.
    Signal handlers run between bytecodes of the main thread, so a probe
    never interrupts a C call; a tick that lands inside a probe is skipped.
    One more probe is taken on exit, so there is always a sample.
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.samples = []
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        took = probe(self.parts)
        self.samples.append((t0, took))
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        probe(self.parts)  # warm-up, not a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append((time.perf_counter(), probe(self.parts)))
        return False

    def speed(self, start, end):
        """Mean host speed, reference over measured probe time, around
        ``[start, end]``."""
        ref = reference(self.parts)
        near = [ref / took for t, took in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:  # too short a stretch to be sampled: the nearest probe
            near = [ref / min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return sum(near) / len(near)

    def median_speed(self):
        ref = reference(self.parts)
        return statistics.median(ref / took for _, took in self.samples)


if __name__ == "__main__":
    probe(PARTS)
    print(" ".join("%s %.5f s (reference %.5f s)" % (name, probe([name]), ref)
                   for name, (_, ref) in PARTS.items()))
