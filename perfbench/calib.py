"""A fixed reference workload that tracks the host's current speed.

The host this benchmark runs on is shared, and its speed drifts by tens
of percent over minutes whatever runs on it. `Calibrator` times a small
pure-Python reference chunk (exact `Fraction` arithmetic, dict and heap
upkeep: the operations fognet spends its time on, but no fognet code)
at intervals during a measurement. A measured host time divided by the
chunk's current time, times the chunk's time at nominal speed, is that
host time at nominal speed; the drift cancels and a change in fognet
does not, because the chunk runs none of fognet's code.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import statistics
from fractions import Fraction
from time import perf_counter_ns
from typing import List, Tuple

# The chunk's host time at nominal speed. It only sets the unit: about
# the chunk's median on the host the baseline was measured on, so times
# read as host time there (see README.md).
NOMINAL_CHUNK_NS = 2_000_000
CHUNK_ROUNDS = 10
INTERVAL_NS = 100_000_000  # time the chunk at most this often during a measurement


def chunk() -> int:
    """Run the reference chunk once; returns a checksum of its result."""
    rates = {}
    heap: List[Tuple[Fraction, int]] = []
    total = Fraction(0)
    for r in range(CHUNK_ROUNDS):
        cap = Fraction(100 + r, 3)
        for i in range(12):
            share = cap / (i + 1)
            rates[i] = rates.get(i, Fraction(0)) + share
            heapq.heappush(heap, (share, i))
            if share < cap / 4:
                total += share
        while heap:
            share, i = heapq.heappop(heap)
            total -= share / 7
        rates = {k: v for k, v in rates.items() if v > 1}
    return int(total) + len(rates)


def time_chunk() -> int:
    """Host ns of one reference chunk, with the cyclic GC off so the
    measured program's heap size cannot lengthen it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        chunk()
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Chunk timings taken during one measurement, by when they ended.

    Take a sample whenever `due` between timed steps (and, in a long
    step, inside it between events) and one after the last step;
    `nominal_ns` then converts each step's host time."""

    def __init__(self) -> None:
        self.ends: List[int] = []
        self.chunks: List[int] = []

    def sample(self) -> int:
        """Time one chunk now; returns the host time at which it ended."""
        dur = time_chunk()
        end = perf_counter_ns()
        self.ends.append(end)
        self.chunks.append(dur)
        return end

    def due(self, now: int) -> bool:
        return not self.ends or now - self.ends[-1] >= INTERVAL_NS

    def nominal_ns(self, start: int, end: int) -> float:
        """The host time from `start` to `end`, at nominal speed: scaled by
        the mean chunk time over the last sample before `start`, the
        first after `end`, and every sample between them."""
        lo = max(bisect.bisect_right(self.ends, start) - 1, 0)
        hi = bisect.bisect_left(self.ends, end) + 1
        around = self.chunks[lo:hi]
        return (end - start) * NOMINAL_CHUNK_NS * len(around) / sum(around)

    def factor(self) -> float:
        """Nominal ns per host ns over every sample taken."""
        return NOMINAL_CHUNK_NS / statistics.median(self.chunks)
