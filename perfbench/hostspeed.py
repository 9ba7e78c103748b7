"""Host-speed calibration: the benchmark's times, scaled to a nominal host speed.

The benchmark runs on a share of a host that other machines use too, and the
speed of the same pure-Python work drifts there by tens of percent over
seconds to minutes, longer than a run.  On a 2-vCPU Xeon VM, twelve
processes run back to back, 15 s each, timed a 128x128 `stall_core` pass and
a 1000-frame `sweep_3x3` slice; the quartile spread of their medians was
0.14 and 0.17 of the median.  No run length averages that away.

A fixed calibration loop, timed right after each timed segment of a pass,
slows and speeds up with the host.  In those processes the median of segment
time over calibration time spread by 0.036 and 0.042.  The loop is half
integer arithmetic and half small method calls and allocations: each half
alone tracked one of the two workloads about half as well.

So every time the benchmark reports as an end-to-end metric is a host time
multiplied by ``NOMINAL_S`` over the calibration time right after it: the
time the work would have taken on a host that runs the loop in
``NOMINAL_S``, about its speed on that VM.  The loop uses nothing from the
program, so a change to the program cannot move it.  The raw host times are
printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.04


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def step(self, v):
        return (self.x + v) & 0xFF


def _pair(p, v):
    return [p.step(v), v & 3]


def calibration_loop() -> int:
    total = 0
    for i in range(160_000):
        total += i * i & 7
    fixed = _Point(1, 2)
    for i in range(30_000):
        total = (total + _pair(_Point(i, total), i)[0] + fixed.step(i)) & 0xFFFF
    return total


class HostSpeed:
    """Times the calibration loop after each timed segment of work."""

    def __init__(self):
        self.samples = []

    def scale(self) -> float:
        """Call right after a timed segment; returns the factor that scales
        the segment's host time to the nominal host speed."""
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - t0)
        return NOMINAL_S / self.samples[-1]

    def median_factor(self) -> float:
        return NOMINAL_S / statistics.median(self.samples)
