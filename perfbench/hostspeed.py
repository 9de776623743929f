"""Host speed, sampled by a reference kernel interleaved through a run.

The hosts this benchmark runs on share cores with other tenants, and
their speed is bimodal: the same query takes about 6 ms or about 10 ms
depending on what the neighbours do, the state flips every few seconds
and the share of each state drifts over minutes.  Left alone, that moves
a median or a mean by 25-30% between identical runs.

So every operation is preceded by a short, fixed reference kernel (plain
Python and small numpy work, like the program's own mix) whose duration
tracks the host's state at that moment.  A wall time is reported
*normalized*: multiplied by ``NOMINAL_S`` over the median duration of
the kernel runs inside the operation's interval and the one on each side
of it.  The kernel is benchmark code, so a change to the program moves
the normalized times exactly as it moves the raw ones; only the host's
state is divided out.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence

import numpy as np

# Duration of one reference kernel on the reference host (2-vCPU x86
# VM, Python 3.11, numpy 2.4) in its common state; normalized times are
# wall times on that host.
NOMINAL_S = 2.5e-4
# Kernel runs taken on each side of an operation to estimate the host's
# speed.  One per side follows short bursts of the slow state closely
# (a wider median smoothed them out of the p99 of the served requests).
NEIGHBOURS_PER_SIDE = 1

_POINTS = np.random.default_rng(0).random((256, 64)).astype(np.float32)


def _kernel() -> int:
    table = {}
    total = 0
    for i in range(400):
        total += i * i
        table[i & 31] = total
    for row in range(5):
        diff = _POINTS - _POINTS[row]
        total += int(np.argpartition((diff * diff).sum(axis=1), 10)[0])
    return total


class HostSpeed:
    """Timestamps and durations of the reference kernel runs of one run."""

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.durations: List[float] = []

    def tick(self) -> None:
        """Run the reference kernel once and record how long it took."""
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def factor(self, start: float, end: float) -> float:
        """Normalization factor for an operation that ran from ``start`` to ``end``.

        Uses the kernel runs inside the interval plus
        ``NEIGHBOURS_PER_SIDE`` on each side of it.
        """
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        lo = max(0, lo - NEIGHBOURS_PER_SIDE)
        hi = min(len(self.ends), hi + NEIGHBOURS_PER_SIDE)
        if lo >= hi:
            raise ValueError("no reference kernel runs recorded near the operation")
        return NOMINAL_S / statistics.median(self.durations[lo:hi])

    def normalize(self, spans: Sequence[Sequence[float]]) -> List[float]:
        """Normalized wall times of ``(start, end, wall)`` operation records."""
        return [wall * self.factor(start, end) for start, end, wall in spans]
