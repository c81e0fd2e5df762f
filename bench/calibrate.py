"""Host-speed calibration: a fixed probe timed between jobs.

The benchmark runs on a few cores of a shared host, whose speed drifts by
a quarter or more over minutes as neighbours come and go.  A run lasts
well under a minute, so one run sees one phase, and ten runs of the same
code spread as widely as the drift.  ``Probe`` times a fixed breadth-first
search over a fixed random 4-regular Schreier graph, the kind of pure
Python graph walk many jobs spend their time in.  It does not touch the
program, so a change to the program cannot move it.  ``run.py`` times it
before each set-up import and after each job, and scales every reported
wall time by ``(REFERENCE_S / median probe time) ** ELASTICITY`` of the
run.  The raw times and the probe median are in the report line.
"""

from __future__ import annotations

import random
import statistics
import time

# probe graph: vertices and seed, fixed so that every run times the same work
PROBE_N = 20000
PROBE_SEED = 20120116
# probe median in a quiet phase of the 2-vCPU x86-64 VM that defined the
# benchmark; over a session its run medians read 12.5 to 31 ms
REFERENCE_S = 0.0135
# Job times move less than the probe's: over 80 runs of the certify,
# ensembles and returns jobs in fast and slow phases, the slope of log job
# time on log probe time was 0.54 to 0.94 for the job metrics.  Scaling by
# the full ratio made runs in a fast phase read slow; between phases, the
# median of certify's job_p50_s moved 20% with the full ratio and 9% with
# this exponent.
ELASTICITY = 0.75


def _probe_graph() -> list[list[int]]:
    """Two random permutations of range(PROBE_N) and their inverses, as the
    neighbour lists of a 4-regular Schreier graph of the free group F2."""
    rng = random.Random(PROBE_SEED)
    perms = [list(range(PROBE_N)) for _ in range(2)]
    for perm in perms:
        rng.shuffle(perm)
    inverses = [[0] * PROBE_N for _ in perms]
    for perm, inverse in zip(perms, inverses):
        for v, w in enumerate(perm):
            inverse[w] = v
    return [
        [perms[0][v], perms[1][v], inverses[0][v], inverses[1][v]]
        for v in range(PROBE_N)
    ]


class Probe:
    def __init__(self) -> None:
        self.adjacency = _probe_graph()
        self.samples: list[float] = []
        self.sample()  # warm-up, not kept
        self.samples.clear()

    def _bfs(self) -> int:
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                d = dist[v] + 1
                for w in self.adjacency[v]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return len(dist)

    def sample(self) -> None:
        start = time.perf_counter()
        reached = self._bfs()
        self.samples.append(time.perf_counter() - start)
        if reached != PROBE_N:
            raise RuntimeError(f"probe BFS reached {reached} of {PROBE_N} vertices")

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that takes out this run's host speed from its wall times."""
        return (REFERENCE_S / self.median_s()) ** ELASTICITY
