"""The host-speed reference every timing is scaled by.

Shared hosts drift: on the 2-CPU host the ledger was built on, the same
pure-Python loop ran anywhere from 55 to 95 ms within one minute, in
phases several seconds long, so one 10-second run could read 40% slower
than the next.  A fixed reference task of interpreted arithmetic and
object churn, timed right before and right after each step of a workload
(one call, or one service sweep), tracks that drift; each step's timings
are multiplied by ``NOMINAL_S / reference time``, so they read as on this
host at its nominal speed.  The reference task touches no code of the library, so no
change to the library can move it.
"""

from __future__ import annotations

import statistics
import time

#: median reference time on the build host (see ``BASELINE.md``)
NOMINAL_S = 0.0034
#: few, as the probe runs after every step
_REPEATS = 3


def _task() -> int:
    total = 0
    for i in range(30_000):
        total += i * i
    churn = {i: (i, total) for i in range(8_000)}
    return total + len(churn)


def probe() -> float:
    """Median seconds of the reference task over a few repeats."""
    samples = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _task()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scale(before: float, after: float) -> float:
    """Factor that maps timings taken between two probes to nominal speed."""
    return NOMINAL_S / ((before + after) / 2.0)
