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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from schreier.builders import CoreGraph
from schreier.core import SchreierGraph

__all__ = [
    "LMAX",
    "girth",
    "count_cycles",
    "cycle_counts",
    "cycles_through",
    "CycleProfile",
    "cycle_profile",
    "GirthProfileTable",
    "essential_girth_profile",
]

LMAX = 12


def _graph(g: SchreierGraph | CoreGraph) -> SchreierGraph:
    return g.graph if isinstance(g, CoreGraph) else g


def _multigraph(g: SchreierGraph) -> tuple[list[int], dict[tuple[int, int], int]]:
    """Loop counts per vertex and parallel-edge multiplicities per pair."""
    loops = [0] * g.n
    mu: dict[tuple[int, int], int] = {}
    for l in range(g.gens.degree):
        partner = g.gens.inv[l]
        if partner < l:
            continue  # the pair was handled at its other label
        involutive = partner == l
        for v in range(g.n):
            w = g.next[v][l]
            if w is None:
                continue
            if w == v:
                loops[v] += 1
            elif not involutive or v < w:
                key = (v, w) if v < w else (w, v)
                mu[key] = mu.get(key, 0) + 1
    return loops, mu


def _adjacency(n: int, mu: dict[tuple[int, int], int]) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (v, w), m in mu.items():
        adj[v].append((w, m))
        adj[w].append((v, m))
    return adj


def girth(g: SchreierGraph | CoreGraph) -> int | float:
    """Length of the shortest cycle of the underlying multigraph (math.inf
    for a forest): 1 for a loop, 2 for a parallel pair, else by breadth-first
    search from every vertex."""
    g = _graph(g)
    loops, mu = _multigraph(g)
    if any(loops):
        return 1
    if any(m >= 2 for m in mu.values()):
        return 2
    adj = _adjacency(g.n, mu)
    best = math.inf
    dist = [-1] * g.n
    parent = [-1] * g.n
    for s in range(g.n):
        dist[s] = 0
        parent[s] = -1
        touched = [s]
        queue = deque([s])
        while queue:
            x = queue.popleft()
            if 2 * dist[x] >= best:
                break
            for w, _ in adj[x]:
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


def _cycles_from(
    s: int, floor: int, adj: list, mu: dict, onpath: list, lmax: int, counts: list
) -> None:
    """Add to counts[L], for 3 ≤ L ≤ lmax, the L-cycles through s whose
    other vertices all exceed ``floor``.

    Each cycle is a path out of s closed by an edge back to s; its
    reflection is killed by requiring the first step to be smaller than
    the last, and edge multiplicities multiply along the way.
    """

    def extend(v: int, first: int, depth: int, weight: int) -> None:
        # depth = edges walked so far; closing now yields a (depth+1)-cycle
        if depth >= 2 and first < v:
            back = mu.get((s, v) if s < v else (v, s))
            if back is not None:
                counts[depth + 1] += weight * back
        if depth == lmax - 1:
            return
        for w, m in adj[v]:
            if w > floor and not onpath[w]:
                onpath[w] = True
                extend(w, first if depth >= 1 else w, depth + 1, weight * m)
                onpath[w] = False

    onpath[s] = True
    extend(s, -1, 0, 1)
    onpath[s] = False


def cycle_counts(g: SchreierGraph | CoreGraph, lmax: int) -> tuple[int, ...]:
    """Exact cycle counts c_1 .. c_lmax, in one pruned depth-first sweep:
    a cycle of length ≥ 3 is enumerated once, from its smallest vertex."""
    if not 1 <= lmax <= LMAX:
        raise ValueError(f"cycle lengths are supported up to {LMAX}")
    g = _graph(g)
    loops, mu = _multigraph(g)
    counts = [0] * (lmax + 1)
    counts[1] = sum(loops)
    if lmax >= 2:
        counts[2] = sum(m * (m - 1) // 2 for m in mu.values())
    if lmax < 3:
        return tuple(counts[1:])
    adj = _adjacency(g.n, mu)
    onpath = [False] * g.n
    for s in range(g.n):
        _cycles_from(s, s, adj, mu, onpath, lmax, counts)
    return tuple(counts[1:])


def count_cycles(g: SchreierGraph | CoreGraph, length: int) -> int:
    if not 1 <= length <= LMAX:
        raise ValueError(f"cycle lengths are supported up to {LMAX}")
    return cycle_counts(g, length)[length - 1]


def cycles_through(g: SchreierGraph | CoreGraph, v: int, length: int) -> int:
    """Cycles of the given length containing the vertex ``v``.

    On a vertex-transitive graph this equals length·c_L/n, which makes it
    a cross-check for the global counter.
    """
    if not 1 <= length <= LMAX:
        raise ValueError(f"cycle lengths are supported up to {LMAX}")
    g = _graph(g)
    loops, mu = _multigraph(g)
    if length == 1:
        return loops[v]
    if length == 2:
        return sum(m * (m - 1) // 2 for (a, b), m in mu.items() if v in (a, b))
    counts = [0] * (length + 1)
    _cycles_from(v, -1, _adjacency(g.n, mu), mu, [False] * g.n, length, counts)
    return counts[length]


@dataclass(frozen=True)
class CycleProfile:
    label: str
    n: int
    girth: int | float
    counts: tuple[int, ...]
    densities: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        for i, c in enumerate(self.counts, start=1):
            if i < self.girth and c != 0:
                raise ValueError(f"a {i}-cycle below girth {self.girth}")
        if self.girth <= len(self.counts) and self.counts[int(self.girth) - 1] < 1:
            raise ValueError("no cycle of girth length")
        if self.densities != tuple(Fraction(c, self.n) for c in self.counts):
            raise ValueError("densities do not match counts")


def cycle_profile(
    g: SchreierGraph | CoreGraph, lmax: int, label: str = ""
) -> CycleProfile:
    n = _graph(g).n
    counts = cycle_counts(g, lmax)
    return CycleProfile(
        label=label,
        n=n,
        girth=girth(g),
        counts=counts,
        densities=tuple(Fraction(c, n) for c in counts),
    )


@dataclass(frozen=True)
class GirthProfileTable:
    """Cycle densities along a graph sequence, with a per-length trend.

    ``essentially_large`` records whether every density column is zero or
    heading toward zero — a reported trend, not a proven limit.
    """

    lmax: int
    rows: tuple[CycleProfile, ...]
    trends: tuple[str, ...]

    @property
    def essentially_large(self) -> bool:
        return all(t in ("zero", "toward-zero") for t in self.trends)


def _trend(values: Sequence[Fraction]) -> str:
    if all(v == 0 for v in values):
        return "zero"
    if len(values) > 1 and values[-1] < values[0] and all(
        a >= b for a, b in zip(values, values[1:])
    ):
        return "toward-zero"
    if min(values) == max(values):
        return "flat"
    return "mixed"


def essential_girth_profile(
    graphs: Sequence[SchreierGraph | CoreGraph],
    lmax: int,
    labels: Sequence[str] | None = None,
) -> GirthProfileTable:
    if labels is None:
        labels = [f"graph {i}" for i in range(len(graphs))]
    rows = tuple(
        cycle_profile(g, lmax, label=lab) for g, lab in zip(graphs, labels)
    )
    trends = tuple(
        _trend([row.densities[i] for row in rows]) for i in range(lmax)
    )
    return GirthProfileTable(lmax=lmax, rows=rows, trends=trends)
