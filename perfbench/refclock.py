"""Reference-loop normalisation of host timings.

The host this benchmark was written on is a shared two-core VM whose
speed drifts by tens of percent over tens of seconds: the same
deterministic warm scale-50k solve took from 1.03 to 2.05 s, in wall
and in thread CPU time alike, and the median of a 26-second run moved
from 1.10 s to 1.82 s over four consecutive runs.

So every host timing is divided by the time of a fixed reference loop
sampled around it, and multiplied by :data:`NOMINAL_S`: values are
"seconds at nominal reference speed".
Over four runs whose raw medians spread from 1.68 to 2.07 s, the
warm-solve median normalised this way stayed within 0.99-1.04.  The
samples must be adjacent to the work they scale: scaling by references
taken only before and after the whole window made the spread worse than
no scaling (0.23 against 0.10 over five runs), because the host's speed
changes within a window.

The reference lives in this directory and imports nothing from the
program, so no change to the program can move it.  Its mix resembles
the program's hot paths: a heap-ordered event loop over a large Python
graph (the DES playout) followed by numpy passes over a large array
(the fast model and cost tables).  Its median measured seconds are
reported as ``ref_s``.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

import numpy as np

#: Seconds one reference sample is scaled to: close to the loop's time on
#: the host the bounds were set on, when that host ran fast.
NOMINAL_S = 0.1

_NODES = 100_000
_EVENTS = 25_000


class RefClock:
    """Samples the reference loop and scales host seconds by it."""

    def __init__(self) -> None:
        rng = random.Random(20210809)
        self._succ = [
            (rng.randrange(_NODES), rng.randrange(_NODES), rng.randrange(_NODES))
            for _ in range(_NODES)
        ]
        self._vec = np.random.default_rng(20210809).random(200_000)
        self.samples: list[float] = []

    def _work(self) -> float:
        succ = self._succ
        heap = [(0.0, 0)]
        seen: dict[int, int] = {}
        handled = 0
        while heap and handled < _EVENTS:
            t, u = heapq.heappop(heap)
            handled += 1
            for v in succ[u]:
                c = seen.get(v, 0) + 1
                seen[v] = c
                if c == 1:
                    heapq.heappush(heap, (t + ((u ^ v) & 15) * 1e-3 + 1e-3, v))
        a = self._vec
        acc = 0.0
        for _ in range(2):
            order = np.argsort(a, kind="stable")
            acc += float(np.cumsum(a[order])[-1])
        return acc + handled

    def sample(self) -> int:
        """Time one reference sample; return its index.

        The collector is off while it runs, so a collection of the
        program's heap, whose size varies by workload, is not counted.
        """
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """Factor for work done between sample ``index`` and the next one.

        It uses the median of the two bracketing samples and their outer
        neighbours, so one disturbed sample does not skew it.
        """
        near = self.samples[max(0, index - 1):index + 3]
        return NOMINAL_S / statistics.median(near)

    @property
    def seconds(self) -> float:
        """Median measured seconds of one reference sample."""
        return statistics.median(self.samples)
