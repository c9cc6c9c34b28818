"""Report times at a fixed reference machine speed.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU cloud
VM the same batch of audit plans took anywhere from 2.1 s to 3.6 s within
a few minutes, with no CPU steal and with process CPU time equal to wall
time, so neither a longer run nor CPU time removes the drift.  What does
is measuring the machine's speed while the program runs and scaling each
time by it.

A SpeedSampler runs a fixed calibration kernel (below; it never calls
tetherplan) every INTERVAL_S of wall time, from a SIGALRM handler, so the
samples interleave with the program's own work in the same thread.  The
time of an operation at reference speed is its wall time minus the time
the kernel took inside it, times REFERENCE_S / (the kernel's time near
the operation).  A program change does not touch the kernel, so it moves
these times as it moves wall time on a quiet machine.

The scaling assumes the program runs on one core, as tetherplan does by
default: a program that kept other cores busy would slow the kernel and
so be credited for it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager


INTERVAL_S = 0.25
# Kernel samples run back to back before and after a timed phase, so the
# first and last operations have neighbours on both sides.
EDGE_SAMPLES = 6
# Each kernel time is replaced by the median of this many neighbours, so
# one sample hit by a context switch does not skew an operation.
SMOOTH = 5
# The scale of every reported time: a round figure near the kernel's time
# on a 2-vCPU Xeon VM with Python 3.11, where it takes 3.6-3.9 ms most of
# the time.  Changing it rescales every time.
REFERENCE_S = 0.004

class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z

    def dot(self, other):
        return self.x * other.x + self.y * other.y + self.z * other.z


def kernel() -> float:
    """Interpreted Python: loops over ints, dicts and small objects.

    tetherplan's time goes to the interpreter driving numpy on small
    arrays, and the interpreter's speed is what the host's drift moves.
    Over five minutes of 15 s rounds, the log time of an audit round moved
    0.88-0.97 times as far as this kernel's and that of a cold plan
    0.75-1.07 times (correlation 0.95 and 0.84); a kernel of numpy calls
    moved further than either workload (0.53-0.74 times), so it is not
    part of this one.
    """
    acc, table = 0, {}
    for i in range(14000):
        acc += (i * 31) % 17
        table[i & 63] = acc
    points = [_Point(i * 0.5, math.sin(i), 1.0 / (i + 1)) for i in range(400)]
    for _ in range(4):
        acc += sum(p.dot(points[0]) for p in points)
        points = sorted(points, key=lambda p: p.y)
        table = {i: p.x for i, p in enumerate(points)}
        acc += max(table.values())
    return acc


class SpeedSampler:
    """Kernel samples taken while a block runs, and the times they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._smoothed: list[float] | None = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._smoothed = None

    def calibrate(self, n: int = EDGE_SAMPLES) -> None:
        for _ in range(n):
            self.sample()

    @contextmanager
    def running(self):
        """Sample every INTERVAL_S, with EDGE_SAMPLES on either side."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        try:
            self.calibrate()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            try:
                yield self
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            self.calibrate()
        finally:
            signal.signal(signal.SIGALRM, previous)

    def _kernel_seconds(self) -> list[float]:
        if self._smoothed is None:
            raw = [e - s for s, e in zip(self.starts, self.ends)]
            h = SMOOTH // 2
            self._smoothed = [statistics.median(raw[max(0, i - h):i + h + 1])
                              for i in range(len(raw))]
        return self._smoothed

    def factor(self, t0: float, t1: float) -> float:
        """Reference speed over machine speed during [t0, t1]: the mean of
        REFERENCE_S / kernel time over the samples inside, or of the one
        nearest the middle when none is."""
        if not self.starts:
            raise RuntimeError("no kernel samples taken")
        kernel_s = self._kernel_seconds()
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if lo == hi:
            mid = (t0 + t1) / 2
            lo = min(range(max(0, lo - 1), min(len(kernel_s), lo + 1)),
                     key=lambda i: abs(self.starts[i] - mid))
            hi = lo + 1
        return statistics.fmean(REFERENCE_S / k for k in kernel_s[lo:hi])

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would have taken at reference speed, without
        the kernel samples that ran inside it."""
        lo = bisect.bisect_right(self.ends, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = sum(min(e, t1) - max(s, t0) for s, e in
                   zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (t1 - t0 - busy) * self.factor(t0, t1)
