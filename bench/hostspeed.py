"""Correct measured times for the shared host's changing speed.

The host the benchmark was tuned on (2 vCPUs of a shared KVM guest) runs
pure-Python code at two speeds about 1.6 times apart and switches
between them every few seconds; a 25 s run can spend most of its time
at either.  Wall-clock latencies of the same code, seed and commit then
spread by 0.15 to 0.35 (quartile distance over median) across runs,
whichever statistic of a run is taken, the fastest one included.

So the run measures the host's speed while it measures the program.  A
SIGALRM every ``PERIOD_S`` runs a fixed pure-Python slice between the
bytecodes of whatever is running and records how long the slice took.
An interval measured with ``time.perf_counter`` is corrected by the
median slice time within ``WINDOW_S`` of it:

    corrected = measured * NOMINAL_SLICE_S / median slice time

that is, the time the interval would have taken had the host run at the
speed at which the slice takes ``NOMINAL_SLICE_S``, its time at the
baseline host's fast speed.  A change to the program moves the
corrected time as it moves the measured one; the slice never calls the
program.  The slices take about 0.4% of the run.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

PERIOD_S = 0.01
WINDOW_S = 0.1
NOMINAL_SLICE_S = 13e-6


def _slice() -> int:
    total = 0
    for i in range(300):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples the slice time while active; corrects intervals afterwards."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _sample(self, signum, frame):
        # the first run refills the caches the program has evicted, so
        # that the timed one depends on the host, not on the program
        _slice()
        start = time.perf_counter()
        _slice()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, at the nominal host speed.

        Call it after sampling has stopped, so that the samples after the
        interval exist too.
        """
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + WINDOW_S)
        if lo == hi:
            # the timer was held off (a long call into C): the nearest samples
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return seconds * NOMINAL_SLICE_S / statistics.median(self.took[lo:hi])
