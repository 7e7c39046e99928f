"""Host-speed reference for the end-to-end times.

The speed of the host this benchmark runs on drifts by tens of percent
over seconds to minutes, and the drift hits any pure-Python work alike.
`HostClock` times a fixed reference kernel every PERIOD seconds from a
SIGALRM handler while the jobs run, and keeps that time out of the jobs'
own.  A job's time is reported as seconds at the reference speed: wall
time * REF_S / (median kernel time while it ran).  Measured over four
passes of the same jobs, this cut the spread of one job's time
(coefficient of variation) on `radii` from 19% to 6%, and on
`multi-decompose` from 17% to 7%.  Work that runs in a child process
(`cli-cold` jobs, setup probes) runs the clock in the child: samples the
parent took meanwhile did not track the child's speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Nominal reference-kernel time.  It only sets the scale of the reported
# seconds; both sides of any comparison use the same constant.
REF_S = 0.002
PERIOD = 0.05
NEAREST = 9


def kernel():
    """Fixed work shaped like the library's hot loops: rational and
    dict arithmetic on small Python objects (about 2 ms)."""
    s = Fraction(0)
    d: dict = {}
    for i in range(1, 400):
        s += Fraction(i, i + 7)
        d[i % 37] = d.get(i % 37, 0) + i * i
    return s


class HostClock:
    """Context manager sampling the kernel's time every PERIOD seconds."""

    def __init__(self):
        self.starts: list = []
        self.times: list = []
        self.paused = 0.0   # seconds spent in the handler so far
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.times.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median kernel time of the samples taken in
        [start, end], or of the NEAREST samples when fewer fell inside."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.starts, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(self.starts) - NEAREST))
            hi = lo + NEAREST
        return REF_S / statistics.median(self.times[lo:hi])

    def speed(self) -> float:
        """REF_S over the median kernel time of the whole run."""
        if not self.times:
            self._tick(None, None)
        return REF_S / statistics.median(self.times)
