"""Host-speed reference for normalizing times.

On the shared two-vCPU Intel Xeon virtual machine the bounds were set
on, the same simulate call ran anywhere from 110 to 200 us per step
within two minutes, with wall time equal to CPU time, while the ratio of
its time to that of the fixed kernel below, timed right beside it, stayed
within about 3%.  The harness therefore times this kernel every
SAMPLE_EVERY_S between runs and rescales every time it reports to a host
on which the kernel takes NOMINAL_S:

    reported = measured * NOMINAL_S / (mean kernel time nearby)

The kernel does the kind of work the program does (small numpy arrays and
solves, Python float arithmetic, float formatting and parsing) and never
touches the program.  Changing it or NOMINAL_S changes every reported
time, so it is part of the benchmark's definition.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

ITERATIONS = 100
# how often the kernel is timed between runs
SAMPLE_EVERY_S = 0.03
# the kernel's time on a quiet moment of the host the bounds were set on
NOMINAL_S = 1.5e-3
# kernel samples around a point in time that give its local speed; their
# mean tracks bursts of contention better than their median
NEAREST = 7


def kernel() -> float:
    z = np.array([0.1, 0.2, 0.3, 0.4])
    acc = 0.0
    for _ in range(ITERATIONS):
        a, b, c, d = (float(x) for x in z)
        J = np.array([
            [a + 4.0, b, c, d],
            [b, a + 5.0, d, c],
            [c, d, a + 6.0, b],
            [d, c, b, a + 7.0],
        ])
        F = np.array([a * b - 0.1, b * c - 0.2, math.sqrt(abs(c * d) + 1.0) - 1.0, a + b + c + d - 1.0])
        z = z - 0.5 * np.linalg.solve(J, F)
        acc += float(f"{float(np.max(np.abs(F))):.17g}")
    return acc


class HostSpeed:
    """Kernel samples taken through a run, looked up by time."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.last = -math.inf
        # total time spent in the kernel, for subtracting it from spans it fell in
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        self.last = t1
        self.spent += t1 - t0

    def maybe_sample(self) -> None:
        """Sample when the last sample is more than SAMPLE_EVERY_S old."""
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def scale_over(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean kernel time of the samples in [t0, t1]."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        if hi - lo < NEAREST:
            return self.scale(0.5 * (t0 + t1))
        return NOMINAL_S / statistics.fmean(self.took[lo:hi])

    def scale(self, t: float) -> float:
        """NOMINAL_S over the mean kernel time of the samples nearest t."""
        i = bisect.bisect_left(self.at, t)
        window = range(max(0, i - NEAREST), min(len(self.at), i + NEAREST))
        near = sorted(window, key=lambda k: abs(self.at[k] - t))[:NEAREST]
        return NOMINAL_S / statistics.fmean(self.took[k] for k in near)
