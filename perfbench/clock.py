"""Timing at a reference machine speed.

The machine a benchmark shares can change speed by up to 2x over minutes,
as other tenants come and go, and that drift is much larger than the
bounds the benchmark sets. Every measured interval is therefore bracketed
by two timings of a fixed calibration unit, pure-Python arithmetic plus
the numpy kernels the program leans on (a small matrix product, a sort
and a cumulative sum). The interval is reported both as wall time and
scaled to the speed at which one calibration unit takes REF_UNIT_S:

    scaled = wall * REF_UNIT_S / mean(unit before, unit after)

The calibration unit is benchmark code and does not change with the
program, so a change to the program moves the scaled time as much as the
wall time, while a change in the machine's speed moves both the interval
and the unit and cancels out.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

#: Seconds one calibration unit is scaled to. It is close to what the unit
#: takes on a 2-core x86-64 VM at its typical speed, so that scaled
#: seconds read close to wall seconds there.
REF_UNIT_S = 0.2

_REPS = 40
_rng = np.random.default_rng(0)
_MATRIX = _rng.random((160, 160))
_ARRAY = _rng.random(1 << 17)


def unit_time() -> float:
    """Wall time of one calibration unit."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        total = 0
        for i in range(30000):
            total += i * i
        for _ in range(8):
            _MATRIX @ _MATRIX
        np.sort(_ARRAY)
        np.cumsum(_ARRAY)
    return time.perf_counter() - t0


class Clock:
    """Times calls, each bracketed by the calibration units around it."""

    def __init__(self) -> None:
        self.before = unit_time()

    def measure(self, fn: Callable):
        """(result, wall seconds, scaled seconds) of ``fn()``.

        The unit timed after this call is the unit before the next one.
        When ``fn`` raises, the unit is timed again and the error passes on.
        """
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - t0
            after = unit_time()
            unit = (self.before + after) / 2
            self.before = after
        return result, wall, wall * REF_UNIT_S / unit
