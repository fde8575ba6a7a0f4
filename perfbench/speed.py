"""CPU-speed probe and process-start reference for timing on a shared
machine.

The CPU speed a process gets on the shared 2-vCPU VM where this benchmark
was defined is not steady: each vCPU switches, every second or so, between
a fast and a slow state about 1.8x apart, and the two vCPUs switch
independently.  CPU time drifts with it, so raw times of identical work
spread by 5% to 40% from run to run.  While a ``SpeedProbe`` is active, a
SIGALRM handler times a fixed pure-Python loop every ``PERIOD_S``.  An
interval's time, minus the handlers' own time, is then scaled to the speed
at which the loop takes ``NOMINAL_S``, using the mean timed loop inside the
same interval.  ``NOMINAL_S`` is a fixed unit of the order of the loop's
time on that machine.  Python runs signal handlers between bytecodes, so
probes sample the program while it runs; they cost about 2% of the time,
which is subtracted.

The probe is kept apart from the program's state in two ways:

- The handler turns the garbage collector off while the loop runs, so a
  probe never collects the program's objects.  The loop frees its objects
  as it goes and leaves the collector's allocation count where it found it.
- Each handler first runs ``WARMUP`` untimed steps of the loop.  Right after
  cache-hungry program code, a cold loop ran 5% to 12% slower than a warm one
  on that machine; after the warm-up, the timed part ran within 1% of warm.

``selftest.py --heap`` checks that a million extra live objects leave the
scaled times unchanged.  What the probe cannot remove: it measures how fast
interpreted Python runs, so where the machine's slow state slows the
program by another factor than it slows the loop, the scaling is off by the
difference.  ``setup_raw_s`` and ``wall_raw_s`` are printed unscaled.

The start of a process (interpreter start and imports) is mostly work in the
kernel and in C, which the loop tracked no better than not scaling at all.
It is scaled instead by the time of a reference process, ``python
START_REFERENCE``, started just before: the same kind of work, in a process
of its own, so the program cannot move it.  ``START_NOMINAL_S`` is a fixed
unit of the order of that process's time on the defining machine.
"""

from __future__ import annotations

import gc
import math
import signal
import time

PERIOD_S = 0.05
ITERATIONS = 700
WARMUP = 350
NOMINAL_S = 0.00085
START_REFERENCE = ("-c", "import numpy")
START_NOMINAL_S = 0.15


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def probe_loop(iterations: int = ITERATIONS) -> float:
    """The fixed loop: integer arithmetic plus small tuples, objects, a dict
    and a C call per step.  Object churn slows down more than arithmetic
    when the machine is busy, as the program's own code does; a loop of
    arithmetic alone tracked the program's drift about half as well."""
    t0 = time.perf_counter()
    acc = 0.0
    n = 0
    for i in range(iterations):
        n += i * i % 7 + i * 3 % 11
        pt = (float(i), 0.5)
        pair = _Pair(pt[0], pt[1])
        acc += math.dist(pt, ({"k": pair}["k"].x, 1.0))
    return time.perf_counter() - t0


class SpeedProbe:
    def __init__(self):
        self.count = 0
        self.timed = 0.0  # seconds of the timed loops
        self.cost = 0.0  # seconds of the whole handlers, warm-up included

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            probe_loop(WARMUP)
            self.timed += probe_loop()
        finally:
            if collecting:
                gc.enable()
        self.count += 1
        self.cost += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return self.count, self.timed, self.cost

    def since(self, mark: tuple) -> tuple:
        """(probes, timed loop seconds, handler seconds) since ``mark``."""
        return self.count - mark[0], self.timed - mark[1], self.cost - mark[2]


NO_PROBES = (0, 0.0, 0.0)


def scaled(elapsed: float, probes: int, timed_s: float, cost_s: float) -> tuple:
    """(seconds without the probes, seconds at the nominal speed) of an
    interval that took ``elapsed`` seconds and held ``probes`` probes."""
    own = elapsed - cost_s
    if probes == 0:
        return own, own
    return own, own * NOMINAL_S * probes / timed_s


def start_scaled(start_s: float, reference_s: float) -> float:
    """A process start of ``start_s`` seconds, at the speed at which the
    reference process takes ``START_NOMINAL_S``."""
    return start_s * START_NOMINAL_S / reference_s
