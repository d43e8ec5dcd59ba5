"""Host speed sampling, to take the neighbours' load out of the timings.

On a shared host the same CPU-bound work takes up to 1.9 times longer, for
seconds at a time, while other tenants are busy; the steal counter stays at
zero and CPU time tracks wall time, so neither helps.  Run to run, a pass over
a workload then varies by 20-30% in wall time.  While the benchmark measures,
a timer signal therefore runs a fixed pure-Python kernel every PERIOD seconds
and records how long it took.  The host's slowdown over an interval is the
median kernel time in and around it divided by REFERENCE_S; the interval's
normalized time is its wall time, minus the kernel time spent inside it,
divided by that slowdown: seconds at the reference speed.

The handler runs between bytecodes of the main thread and touches nothing
but its own arrays, so the program's results do not change.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from fractions import Fraction

PERIOD = 0.025
PAD = 1.0  # seconds of samples taken on each side of an interval
# Median kernel time inside a run on a calm 2-vCPU Xeon host (Python 3.11);
# it only sets the scale of the normalized times.
REFERENCE_S = 0.0007


def kernel():
    """A fixed slice of work shaped like the program's: Fractions and dicts."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        q = Fraction(i, i + 7)
        acc += q * q
        seen[(i, i % 7)] = acc
    return len(seen)


class HostSpeed:
    """Samples the kernel's time while active (a context manager)."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _span(self, start, end):
        return bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)

    def slowdown(self, start, end):
        lo, hi = self._span(start - PAD, end + PAD)
        if lo == hi:
            raise RuntimeError("no host speed sample near [%.3f, %.3f]" % (start, end))
        return statistics.median(self.durations[lo:hi]) / REFERENCE_S

    def normalize(self, start, end, same_thread=True):
        """Seconds at the reference speed for the interval [start, end].

        same_thread: the interval's work ran in this thread, so the kernel
        time spent inside it is not the work's own and is taken out.
        """
        elapsed = end - start
        if same_thread:
            lo, hi = self._span(start, end)
            elapsed -= sum(self.durations[lo:hi])
        return elapsed / self.slowdown(start, end)
