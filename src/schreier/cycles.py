"""Girth and exact short-cycle counts.

The labeled graph is read as an undirected multigraph: each free-letter
pair contributes the edge orbit of its permutation (a transposition
yields two parallel edges, a fixed point one loop), each involutive
label one edge per unordered endpoint pair or a loop.  A loop is a
1-cycle, an unordered pair of parallel edges between two vertices is a
2-cycle, and for L ≥ 3 a cycle is a closed vertex-distinct walk up to
rotation and reflection, with parallel edges giving distinct cycles.
Counts describe the finite graph as given: on a truncation they say
nothing about edges beyond the boundary.

c_1 and c_2 are slot arithmetic: the loops, and the parallel edges
grouped by normalized endpoint pair.  For L ≥ 3 an L-cycle is a closed
walk through L distinct vertices; from its smallest vertex s it is walked
once in each direction, so c_L is half the closings.  One sweep carries
rows (s, the endpoints so far) depth first, in blocks of a fixed row
count: each step gathers the rows of the int32 slot table, a row closes
when its new endpoint is s, and it goes on only while the new endpoint is
above s and differs from every earlier one (a missing slot, −1, is below
every s).  About n·d(d − 1)^(L−1)/(L + 1) rows reach depth L.  On a whole
vertex-transitive graph every vertex lies on equally many L-cycles, so
the sweep runs from the root alone, keeping every endpoint other than the
root, and its w_L closings give c_L = n·w_L/(2L), which must be exact.
The census and ``girth`` read ``SchreierGraph.vertex_transitive``, which
a graph decides at most once; a graph with a missing slot is not asked.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from schreier.core import SchreierGraph

__all__ = [
    "LMAX",
    "girth",
    "cycle_counts",
    "CycleProfile",
    "cycle_profile",
]

LMAX = 12
_ROWS = 1 << 14  # rows per block of the sweep


def _transitive(g: SchreierGraph) -> bool:
    return not g.boundary and g.vertex_transitive


def _loops_and_pairs(g: SchreierGraph) -> tuple[int, int]:
    """c_1 and c_2: a pair's edges are read at its smaller label, an
    involution's at the smaller end; a missing slot (−1) is no edge."""
    x = np.arange(g.n)
    loops, keys = 0, []
    for l, m in enumerate(g.gens.inv):
        if m < l:
            continue
        y = g.slots[:, l]
        keep = (x <= y) if m == l else (y >= 0)
        u, v = x[keep], y[keep]
        loops += int(np.count_nonzero(u == v))
        keys.append((np.minimum(u, v) * g.n + np.maximum(u, v))[u != v])
    mult = np.unique(np.concatenate(keys), return_counts=True)[1]
    return loops, int((mult * (mult - 1)).sum()) // 2


def _closed_walks(table: np.ndarray, starts: np.ndarray, lmax: int, above: bool) -> list[int]:
    """walks[L], 3 ≤ L ≤ lmax: the closed walks from ``starts`` through
    distinct vertices, each vertex above its start if ``above``.  ``table``
    is the n × d int32 slot table.  A block of r rows at depth k is the
    starts, then the endpoints e_1..e_k; at depth lmax − 1 only closing is
    left, so a block there keeps the starts and e_k alone."""
    walks = [0] * (lmax + 1)
    stack = [(0, starts[None, i : i + _ROWS]) for i in range(0, len(starts), _ROWS)]
    while stack:
        k, rows = stack.pop()
        new = table.take(rows[-1], axis=0)
        start = rows[0][:, None]
        if k >= 2:
            walks[k + 1] += int(np.count_nonzero(new == start))
        if k + 2 > lmax:
            continue
        keep = new > start if above else new != start
        for e in rows[1:]:
            keep &= new != e[:, None]
        kept = np.flatnonzero(keep)
        head = (rows if k + 2 < lmax else rows[:1]).take(kept // table.shape[1], axis=1)
        child = np.vstack([head, new.take(kept)])
        stack.extend((k + 1, child[:, i : i + _ROWS]) for i in range(0, child.shape[1], _ROWS))
    return walks


def cycle_counts(g: SchreierGraph, lmax: int) -> tuple[int, ...]:
    """Exact cycle counts c_1 .. c_lmax, from the root alone when g is a
    whole vertex-transitive graph."""
    if not 1 <= lmax <= LMAX:
        raise ValueError(f"lmax = {lmax} is outside 1..{LMAX}: cycle lengths are supported up to {LMAX}")
    counts = list(_loops_and_pairs(g))[:lmax]
    if lmax < 3:
        return tuple(counts)
    transitive = _transitive(g)
    table = g.slots.astype(np.int32)
    starts = np.array([g.root], np.int32) if transitive else np.arange(g.n, dtype=np.int32)
    walks = _closed_walks(table, starts, lmax, above=not transitive)
    for length in range(3, lmax + 1):
        num, den = (g.n * walks[length], 2 * length) if transitive else (walks[length], 2)
        if num % den:
            raise ValueError(f"c_{length} = {num}/{den} is not a whole number of cycles")
        counts.append(num // den)
    return tuple(counts)


def girth(g: SchreierGraph) -> int | float:
    """Length of the shortest cycle of the underlying multigraph (math.inf
    for a forest), by breadth-first search over the slot table, where
    loops and parallel pairs close as 1- and 2-cycles.  A search from s
    finds a cycle no longer than the shortest one through s, so on a whole
    vertex-transitive graph, where every vertex lies on a shortest cycle,
    the search from the root alone is exact; other graphs and truncations
    are searched from every vertex."""
    nxt = g.slots.tolist()  # rows, −1 for a missing slot
    transitive = _transitive(g)
    best = math.inf
    dist, parent = [-1] * len(nxt), [-1] * len(nxt)
    for s in [g.root] if transitive else range(len(nxt)):
        dist[s] = 0
        parent[s] = -1
        touched = [s]
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if 2 * dist[x] >= best:
                break
            for w in nxt[x]:
                if w < 0:
                    continue
                if dist[w] == -1:
                    dist[w] = dist[x] + 1
                    parent[w] = x
                    touched.append(w)
                    queue.append(w)
                elif w != parent[x]:
                    best = min(best, dist[x] + dist[w] + 1)
        for v in touched:
            dist[v] = -1
    return best


@dataclass(frozen=True)
class CycleProfile:
    """``method``: ``"transitive-sweep"`` when the census ran from the root
    of a whole vertex-transitive graph alone, else ``"sweep"`` (the module
    docstring has both)."""

    n: int
    girth: int | float
    counts: tuple[int, ...]
    method: str

    def __post_init__(self) -> None:
        for i, c in enumerate(self.counts, start=1):
            if i < self.girth and c != 0:
                raise ValueError(f"a {i}-cycle below girth {self.girth}")
        if self.girth <= len(self.counts) and self.counts[int(self.girth) - 1] < 1:
            raise ValueError("no cycle of girth length")

    @property
    def densities(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.n) for c in self.counts)


def cycle_profile(g: SchreierGraph, lmax: int) -> CycleProfile:
    """The census and the girth, searched for only when every count is 0."""
    counts = cycle_counts(g, lmax)
    shortest = next((length for length, c in enumerate(counts, start=1) if c), None)
    return CycleProfile(
        n=g.n,
        girth=girth(g) if shortest is None else shortest,
        counts=counts,
        method="transitive-sweep" if _transitive(g) else "sweep",
    )
