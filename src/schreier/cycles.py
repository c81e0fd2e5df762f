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

c_1..c_5 are exact int64 sparse traces of the loopless multiplicity
matrix W (w_uv parallel edges between u ≠ v), with s = diag(W²): the
weighted identities of Harary–Manvel (1971), sparse as in Alon–Yuster–Zwick
(Algorithmica 1997).  c_1 counts loops, c_2 = Σ_{u<v} C(w_uv, 2), and
    c_3 = tr W³ / 6,
    c_4 = (Σ (W²)_uv² − 2 Σ_v s_v² + Σ_{u,v} w_uv⁴) / 8,
    c_5 = (Σ (W²)_uv (W³)_uv − 5 Σ_v s_v (W³)_vv + 5 Σ_{u,v} w_uv³ (W²)_uv) / 10.
A row of W sums to at most the label count d, so every sum is at most n·d⁵;
the traces run only while n·d⁵ < 2⁶³.  Past that bound, and for every
length 6 ≤ L ≤ LMAX, a pruned depth-first sweep enumerates each cycle once,
from its smallest vertex, in Python integers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from schreier.builders import CoreGraph
from schreier.core import SchreierGraph
from schreier.local import is_vertex_transitive

__all__ = [
    "LMAX",
    "girth",
    "cycle_counts",
    "CycleProfile",
    "cycle_profile",
    "GirthProfileTable",
    "essential_girth_profile",
]

LMAX = 12
_TRACED = 5  # c_1..c_5 come from traces
_INT64_BOUND = 2**63


def _graph(g: SchreierGraph | CoreGraph) -> SchreierGraph:
    return g.graph if isinstance(g, CoreGraph) else g


def _multigraph(g: SchreierGraph) -> tuple[np.ndarray, sp.csr_matrix]:
    """Loop counts per vertex and the loopless multiplicity matrix W; a
    missing slot (−1) contributes no edge."""
    n, d = g.n, g.degree
    dst = g.slots.ravel()
    src, label = np.divmod(np.arange(n * d), d)
    partner = np.asarray(g.gens.inv)[label]
    # one slot per edge: a pair at its smaller label, an involution at its smaller end
    keep = (dst >= 0) & ((partner > label) | ((partner == label) & (src <= dst)))
    src, dst = src[keep], dst[keep]
    loop = src == dst
    u, v = src[~loop], dst[~loop]
    w = sp.csr_matrix((np.ones(len(u), np.int64), (u, v)), shape=(n, n))
    return np.bincount(src[loop], minlength=n), (w + w.T).tocsr()


def _method(g: SchreierGraph, lmax: int) -> str:
    if g.n * g.degree**5 >= _INT64_BOUND:
        return "enumeration"
    return "trace" if lmax <= _TRACED else "trace+enumeration"


def _traced_counts(loops: np.ndarray, w: sp.csr_matrix, lmax: int) -> list[int]:
    """c_1..c_lmax, lmax ≤ 5, by the identities of the module docstring."""
    m = w.data
    counts = [int(loops.sum()), int((m * (m - 1)).sum()) // 4]
    if lmax >= 3:
        w2 = w @ w
        counts.append(int(w2.multiply(w).sum()) // 6)
    if lmax >= 4:
        s = w2.diagonal()
        counts.append((int((w2.data**2).sum()) - 2 * int(s @ s) + int((m**4).sum())) // 8)
    if lmax >= 5:
        w3 = w2 @ w
        tr5, s_w3 = int(w2.multiply(w3).sum()), int(s @ w3.diagonal())
        counts.append((tr5 - 5 * s_w3 + 5 * int(w2.multiply(w.power(3)).sum())) // 10)
    return counts[:lmax]


def _enumerated_counts(w: sp.csr_matrix, lmax: int) -> list[int]:
    """counts[L] for 3 ≤ L ≤ lmax.  Each cycle is a path out of its smallest
    vertex s closed by an edge back to s; its reflection is killed by
    requiring the first step to be smaller than the last, and edge
    multiplicities multiply along the way."""
    indptr, indices, data = w.indptr.tolist(), w.indices.tolist(), w.data.tolist()
    counts = [0] * (lmax + 1)
    onpath = [False] * w.shape[0]

    def extend(s: int, back: dict, v: int, first: int, depth: int, weight: int) -> None:
        # depth = edges walked so far; closing now yields a (depth+1)-cycle
        if depth >= 2 and first < v and v in back:
            counts[depth + 1] += weight * back[v]
        if depth == lmax - 1:
            return
        for k in range(indptr[v], indptr[v + 1]):
            x = indices[k]
            if x > s and not onpath[x]:
                onpath[x] = True
                extend(s, back, x, first if depth >= 1 else x, depth + 1, weight * data[k])
                onpath[x] = False

    for s in range(len(onpath)):
        onpath[s] = True
        back = {indices[k]: data[k] for k in range(indptr[s], indptr[s + 1])}
        extend(s, back, s, -1, 0, 1)
        onpath[s] = False
    return counts


def cycle_counts(g: SchreierGraph | CoreGraph, lmax: int) -> tuple[int, ...]:
    """Exact cycle counts c_1 .. c_lmax: traces up to length 5, the
    enumerator beyond (or for c_3 on, past the int64 bound)."""
    if not 1 <= lmax <= LMAX:
        raise ValueError(f"cycle lengths are supported up to {LMAX}")
    g = _graph(g)
    loops, w = _multigraph(g)
    traced = 2 if _method(g, lmax) == "enumeration" else _TRACED
    counts = _traced_counts(loops, w, min(lmax, traced))
    if lmax > traced:
        counts += _enumerated_counts(w, lmax)[traced + 1 :]
    return tuple(counts)


def girth(g: SchreierGraph | CoreGraph, counts: Sequence[int] = ()) -> int | float:
    """Length of the shortest cycle of the underlying multigraph (math.inf
    for a forest): the first L with c_L > 0 in ``counts`` (c_1, c_2, ... of
    g, if known), else by breadth-first search over the slot table, where
    loops and parallel pairs close as 1- and 2-cycles.  A search from s
    finds a cycle no longer than the shortest one through s, so on a whole
    vertex-transitive graph, where every vertex lies on a shortest cycle,
    the search from the root alone is exact; other graphs and truncations
    are searched from every vertex."""
    for length, c in enumerate(counts, start=1):
        if c > 0:
            return length
    g = _graph(g)
    nxt = g.slots.tolist()  # rows, −1 for a missing slot
    transitive = not g.truncated and is_vertex_transitive(g)
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
    """``method``: ``"trace"`` (lmax ≤ 5), ``"trace+enumeration"`` (lmax > 5)
    or ``"enumeration"`` (past the int64 bound of the module docstring)."""

    label: str
    n: int
    girth: int | float
    counts: tuple[int, ...]
    densities: tuple[Fraction, ...]
    method: str

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
    g = _graph(g)
    counts = cycle_counts(g, lmax)
    return CycleProfile(
        label=label,
        n=g.n,
        girth=girth(g, counts),
        counts=counts,
        densities=tuple(Fraction(c, g.n) for c in counts),
        method=_method(g, lmax),
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
