"""Machine-speed probe, so that timings survive a machine whose speed drifts.

On a shared host a fixed pure-Python loop timed back to back can drift by
more than 20% from one ten-second block to the next, while the ratio between
cardyfrob work and that loop, timed interleaved, stays within a few percent.
So while a workload runs, ``SIGALRM`` fires every
``PERIOD_S`` and its handler times one fixed reference computation in the
main thread, between the workload's own bytecodes.  A timed interval is
then reported twice: raw (wall time minus the probe's own time inside it),
and scaled to the nominal machine speed: raw times the mean of
``NOMINAL_S / reference time`` over the samples taken during the interval.
No thread is started.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from statistics import fmean

PERIOD_S = 0.025
# Typical duration of one sample taken inside a running workload (caches
# cold) on a 2.1 GHz x86-64 vCPU with CPython 3.11.7, so that scaled times
# there read close to wall times.
NOMINAL_S = 0.000500
MIN_SAMPLES = 9


TABLE_SIZE = 1 << 15


def make_table() -> dict[int, tuple[int, Fraction]]:
    """A few megabytes of small objects, so the reference also misses cache."""
    return {i: (i, Fraction(i % 7 + 1, i % 5 + 2)) for i in range(TABLE_SIZE)}


def reference(table: dict[int, tuple[int, Fraction]], cursor: int) -> int:
    """Fixed work in the style of cardyfrob's inner loops: scattered dict
    lookups, tuples and Fraction sums.  Returns the next cursor."""
    total = Fraction(0)
    for _ in range(128):
        cursor = (cursor * 1103515245 + 12345) & (TABLE_SIZE - 1)
        _, value = table[cursor]
        total += value
    return cursor


class SpeedProbe:
    """Samples the reference time on a timer; converts intervals to scaled times."""

    def __init__(self) -> None:
        self.times: list[float] = []  # sample end times, increasing
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent inside the handler so far
        self._previous = None
        self._table = make_table()
        self._cursor = 1

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._cursor = reference(self._table, self._cursor)
        end = time.perf_counter()
        self.times.append(end)
        self.durations.append(end - start)
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    @staticmethod
    def raw(start: tuple[float, float], end: tuple[float, float]) -> float:
        """Wall seconds between two marks, without the probe's own time."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def factor(self, t0: float, t1: float) -> float:
        """Mean machine speed over ``[t0, t1]``, relative to nominal.

        Samples are evenly spaced in time, so the mean of the sampled speeds
        ``NOMINAL_S / duration`` is the average speed over the interval.
        Short intervals borrow the nearest samples until ``MIN_SAMPLES`` are in.
        """
        if not self.durations:
            return 1.0
        low = bisect.bisect_left(self.times, t0)
        high = bisect.bisect_right(self.times, t1)
        while high - low < min(MIN_SAMPLES, len(self.times)):
            if low > 0 and (high >= len(self.times) or t0 - self.times[low - 1] <= self.times[high] - t1):
                low -= 1
            else:
                high += 1
        return fmean(NOMINAL_S / duration for duration in self.durations[low:high])

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        return self.raw(start, end) * self.factor(start[0], end[0])

    def speed(self) -> float:
        """Median machine speed over the run, relative to nominal."""
        return self.factor(float("-inf"), float("inf"))
