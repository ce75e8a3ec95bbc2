"""Express measured times at a fixed host speed.

On a shared host the same pure-Python code runs at different speeds from
one minute to the next: in one process that did nothing but repeat the
hh-field set-up for 150 s, the median set-up over 5 s windows ranged from
0.094 s to 0.150 s.  Timing a fixed reference loop beside the program and
scaling each measured interval by REF_S / (the loop's time around it)
removes that drift: the same windows, scaled, ranged within 9 %.

The reference loop is the benchmark's own code and does not call polygonic,
so a change to polygonic moves the scaled times exactly as it moves the
measured ones.  The scaled values are seconds on a host where the loop takes
REF_S; the measured values are printed beside them.
"""

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

# The reference loop's time on an unloaded 2-core x86-64 container
# (CPython 3.11); only the scale of the scaled times depends on it.
REF_S = 0.020


def reference_loop():
    """Seconds for a fixed pure-Python load (Fractions, dicts, sorting)."""
    enabled = gc.isenabled()
    gc.disable()  # collection cost depends on the program's heap, not on the host
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 4000):
            acc += Fraction(i % 97, i)
            table[i % 251] = table.get(i % 251, 0) + i * i
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Reference-loop samples on the perf_counter timeline.

    Between arm() and disarm() a sample is also taken after every
    `every_s` seconds of the process's CPU time (SIGVTALRM), so that an op
    running for many seconds is sampled throughout, not only at its ends.
    disarm() returns the time those samples took, for the caller to take
    out of the op's latency.
    """

    def __init__(self, every_s):
        self.every_s = every_s
        self.times = []
        self.loops = []
        self._sampling_s = 0.0
        signal.signal(signal.SIGVTALRM, self._tick)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        try:
            self.sample()
        finally:
            self._sampling_s += time.perf_counter() - start

    def arm(self):
        self._sampling_s = 0.0
        signal.setitimer(signal.ITIMER_VIRTUAL, self.every_s, self.every_s)

    def disarm(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return self._sampling_s

    def sample(self):
        start = time.perf_counter()
        loop = reference_loop()
        self.times.append(start + loop / 2)
        self.loops.append(loop)

    def scale(self, start, end):
        """REF_S over the median loop time of the samples in [start, end]
        and the nearest one on either side."""
        i = max(bisect.bisect_right(self.times, start) - 1, 0)
        j = bisect.bisect_left(self.times, end) + 1
        return REF_S / statistics.median(self.loops[i:j])
