"""Host-speed sampler: a fixed unit of work, timed from a timer signal.

The benchmark's timings are taken on shared virtual machines whose speed
drifts: the same request can take 1.7 times as long from one ten-second
window to the next, the speed can halve or double within a second, and
process time drifts with wall time.  So while a run is timed, a timer
signal interrupts the program every ``INTERVAL_S`` and times a fixed
calibration unit that uses no wronoc code.  Timings are then reported in
*reference seconds*: the measured seconds times ``REF_UNIT_S`` over the
mean time of the units that ran during them (widened by ``WINDOW_S`` on
each side), that is, seconds on a host where one unit takes
``REF_UNIT_S``.  A change to wronoc cannot change the unit, so it moves
reference seconds as it moves wall seconds; a change of the host's speed
moves both the program and the unit, and cancels.  The units' own time is
taken out of every measured interval.

The unit updates a dictionary with tuple keys, the work the solvers' caches
and conflict tables do.  It runs with the garbage collector off and frees
all it allocates before it returns, so it leaves the program's collection
schedule as it was.  Timing units only between requests does not work for
slow requests: the host's speed changes within one.  Over 100 seconds of
one 2-3 s ``p1-tight`` request repeated, request time had a coefficient of
variation of 0.20; scaled by units timed just after each request, 0.19;
scaled by the units timed inside it, 0.06.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

REF_UNIT_S = 0.001  # a typical unit time on the 2-vCPU Xeon VM of bench/README.md
INTERVAL_S = 0.1  # so the units take about 1% of the time
WINDOW_S = 0.5  # so that even a short interval holds ten units


def unit() -> int:
    """The calibration unit: fixed work, about 1 ms on the reference host."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i & 255, i >> 3)
        counts[key] = counts.get(key, 0) + i
    return len(counts)


class Sampler:
    """Times the unit on a ``SIGALRM`` every ``INTERVAL_S`` while running."""

    def __init__(self):
        self.starts: list[float] = []  # perf_counter at each unit's start
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            unit()
            self.durations.append(time.perf_counter() - started)
            self.starts.append(started)
        finally:
            if enabled:
                gc.enable()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _units(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.starts, start),
                     bisect.bisect_right(self.starts, end))

    def unit_s(self, start: float, end: float) -> float:
        """Time the units took between ``start`` and ``end``."""
        return sum(self.durations[self._units(start, end)])

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per second from ``start`` to ``end``."""
        durations = self.durations[self._units(start - WINDOW_S, end + WINDOW_S)]
        return REF_UNIT_S / statistics.fmean(durations or self.durations)

    def run_scale(self) -> float:
        """Reference seconds per second over everything sampled."""
        return REF_UNIT_S / statistics.fmean(self.durations)
