"""Machine-speed probes, so wall times can be put on the scale of a steady
machine.

On a shared host the same operation can take twice as long from one second
to the next (the whole machine slows: CPU time grows with wall time). A
fixed piece of work run beside the measured one slows by the same factor, so

    steady time = wall time * nominal probe time / measured probe time

is the time the measured work would have taken had the probe taken its
nominal time. Two probes: a unit of pure-Python work interleaved with the
timed operations, and a bare interpreter start that imports what set-up
imports besides bihsurf, run around each set-up process. Neither calls
bihsurf, so a change to the library moves a steady time exactly as much as
the wall time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from fractions import Fraction

# Wall time of each probe on a quiet 2-vCPU x86-64 host (Python 3.11, numpy
# 2). Only the scale of the steady figures depends on them.
NOMINAL_UNIT_S = 0.01
NOMINAL_START_S = 0.3
UNIT_ITERATIONS = 400
PROBE_SHARE = 0.1  # probe units take this share of the timed work's wall time
START_PROBE = (sys.executable, "-c", "import fractions, json, numpy")


def probe_unit() -> float:
    """Wall time of one fixed unit: exact Fraction arithmetic, the small-int
    and object churn the library's exact searches and Python loops make."""
    start = time.perf_counter()
    s = Fraction(0)
    for i in range(1, UNIT_ITERATIONS + 1):
        s += Fraction(i % 97 + 1, i % 89 + 2) * Fraction(3, i % 7 + 1)
        s = s.limit_denominator(10**6)
    return time.perf_counter() - start


class SpeedProbe:
    """Probe units interleaved with timed work.

    ``after(work_s)`` is called after each timed operation; it runs probe
    units until their total reaches PROBE_SHARE of the work timed so far, so
    the units are spread over the run in proportion to the work they stand
    for.
    """

    def __init__(self):
        self.work_s = 0.0
        self.probe_s = 0.0  # total time spent in probe units
        self.units: list[float] = []
        probe_unit()  # warm-up, not counted

    def _unit(self):
        t = probe_unit()
        self.units.append(t)
        self.probe_s += t

    def after(self, work_s: float):
        self.work_s += work_s
        while self.probe_s < PROBE_SHARE * self.work_s:
            self._unit()

    def slowdown(self) -> float:
        """Mean probe unit time over its nominal time (1.0 = steady machine)."""
        if not self.units:
            self._unit()
        return statistics.fmean(self.units) / NOMINAL_UNIT_S


def start_probe() -> float:
    """Wall time of a fresh interpreter importing set-up's non-bihsurf modules."""
    start = time.perf_counter()
    subprocess.run(START_PROBE, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - start
