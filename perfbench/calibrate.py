"""Machine-speed calibration for the end-to-end timings.

On a shared 2-core VM (Python 3.11) the same pass over the same inputs
runs up to 1.9x slower at times.  The machine flips between a
fast and a slow mode, often within a second, and the share of slow time
drifts over minutes.  A fixed pure-Python kernel (complex log/exp and float
work in an interpreted loop, the same kind of work zetaquad does, none of
zetaquad's code) is timed at a steady cadence between operations.  Over 3
minutes of such drift, windows of grid, edge or zeta time divided by the
adjacent kernel time spread 7-10% (interquartile over median) where the raw
times spread 42-46%.

Timings are reported at reference speed: each operation's latency and each
render is divided by its ``slowness``, the mean time
of the three kernel samples just before and the three just after it over
REFERENCE_S, which gives the share of slow time around the operation.
Slowness is computed only once the three samples after an operation exist.  A
change to zetaquad moves the reported number as it moves the raw one; a
slower or busier machine moves the kernel too and cancels out.  Raw values
are kept beside the normalised ones in the run's result file.
"""

from __future__ import annotations

import bisect
import cmath
import math
import statistics
import time

REFERENCE_S = 0.024  # kernel time on the reference machine (2-core VM, Python 3.11)
INTERVAL_S = 0.25
KERNEL_STEPS = 30_000


def kernel() -> complex:
    acc = 0j
    z = complex(0.3, 0.7)
    for i in range(KERNEL_STEPS):
        w = complex(1.0 + i * 1e-4, 0.5)
        acc += cmath.exp(z * cmath.log(w)) * math.cosh(i * 1e-5)
    return acc


class Calibration:
    """Kernel timings, each stamped with the time it ended."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0  # total kernel time, for callers to subtract from their walls

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def maybe_sample(self) -> None:
        """Take a sample if the last one ended INTERVAL_S or more seconds ago."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.sample()

    def sample_after(self) -> None:
        """Three samples in a row, so that the last timed interval has samples
        after it."""
        for _ in range(3):
            self.sample()

    def samples_after(self, t: float) -> int:
        """How many samples ended after time ``t``."""
        return len(self.ends) - bisect.bisect_left(self.ends, t)

    def slowness(self, start: float, end: float) -> float:
        """Kernel time around the interval [start, end] relative to the
        reference machine: the mean of the three samples that ended last by
        ``start`` and the three that ended first after ``end`` (those that exist)."""
        i = bisect.bisect_right(self.ends, start)
        j = bisect.bisect_left(self.ends, end)
        if i == 0:
            raise ValueError("no calibration sample before the interval")
        around = self.durations[max(0, i - 3):i] + self.durations[j:j + 3]
        return statistics.fmean(around) / REFERENCE_S
