"""Host speed, sampled with a fixed pure-Python loop between runs.

On a shared host the speed this process gets drifts by 10-20% from one
5-second window to the next, and by about as much between 30-second
windows. The guest does not see it as steal time or as other load. The rate
of a fixed loop, sampled every INTERVAL_S through a batch of runs, follows
that drift. On a shared 2-vCPU Xeon VM, scaling each batch by the speed
sampled during it cut the spread of `steps_per_s` between 30-second runs
from 13-15% IQR to 4-5%, over five seeds on each of two workloads. The loop
shares no code with enertree, so a change to the program leaves its rate
alone.
"""

from __future__ import annotations

import random
from time import perf_counter

NOMINAL_HZ = 1.5e6  # loop iterations per second on the nominal host
INTERVAL_S = 0.4  # sample about this often
CHUNK = 30_000  # iterations per sample, about 20 ms


def reference_loop(iterations: int) -> float:
    """Seconds taken by a fixed loop of random pair draws, list reads and
    float updates, the kind of work the simulator's step loop does."""
    rng = random.Random(1)
    energy = [1.0] * 64
    t0 = perf_counter()
    for _ in range(iterations):
        u = rng.randrange(64)
        v = rng.randrange(63)
        if energy[u] > 2.0 * energy[v]:
            energy[v] += 0.5
        else:
            energy[u] += 1.0
    return perf_counter() - t0


class HostSpeed:
    """Samples the reference loop between runs, when one is due."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.iterations = 0
        self.seconds = 0.0
        self._due = perf_counter() + interval_s

    def between_runs(self) -> float:
        """Sample if due; returns the time taken, which callers leave out
        of what they measure."""
        t0 = perf_counter()
        if t0 < self._due:
            return 0.0
        self.seconds += reference_loop(CHUNK)
        self.iterations += CHUNK
        t1 = perf_counter()
        self._due = t1 + self.interval_s
        return t1 - t0

    def factor(self, iterations: int | None = None, seconds: float | None = None) -> float:
        """Nominal speed over the sampled speed, of all samples or of the
        given ones: above 1 when the host ran slow. Multiply a measured rate
        by it, divide a measured time by it."""
        if iterations is None:
            iterations, seconds = self.iterations, self.seconds
        return NOMINAL_HZ * seconds / iterations
