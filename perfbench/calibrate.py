"""Machine-speed calibration for run-level timings.

This box's speed moves in steps lasting seconds: the same fixed Python
loop takes up to 1.45x longer from one second to the next, and every
timing of one run moves with it.  Each timing is therefore normalized to
a reference speed with calibration samples taken right before and right
after it: ``normalized = raw * REFERENCE_S / sample``.  The calibration
loop is the benchmark's own code, so a change to the program cannot
move it; the report prints the raw timings too.
"""

from __future__ import annotations

import statistics
import time

#: What one calibration sample reads at the reference speed.
REFERENCE_S = 0.010
_LOOP = 200_000


def sample(repeats: int = 7) -> float:
    """Median seconds of a fixed pure-Python loop (~10 ms each)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(_LOOP):
            total += value
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def factor(*samples: float) -> float:
    """Multiplier taking a timing measured between ``samples`` to the
    reference speed."""
    return REFERENCE_S / statistics.mean(samples)
