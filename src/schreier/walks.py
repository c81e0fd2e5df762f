"""Exact random-walk statistics on labeled graphs.

Everything here is exact: |P_{x,y,n}| is the number of label sequences of
length n leading from x to y, probabilities are the counts divided by
d^n, and all comparisons the lemma checks make are exact (integers and
rationals, no floats).

A question streams the counts one step at a time, and only where the
walk can still matter.  ``bfs_layers`` searches the slot table around
the origin, core or graph, and lists its vertices in order of distance;
a stream numbers them by that position.
The row at step n holds the walks within distance n of the origin (all
of them), and a walk that must return by the horizon H only those within
H − n: it cannot come back from farther.  A question about radius R thus
costs the R-ball, not the graph.

On a stored graph a step is a pull over the local slot table
loc = pos[slots[order]], in which position E, one past the reach, is a
zero sentinel read for a missing slot and for any vertex outside the
reach: the count at w after the step sums the counts at loc[w, l] over
the labels l.  The pull is exact on a Schreier graph: by label
consistency the in-edges at w are exactly its slots read backwards, and
on a truncation a missing slot has no in-edge either.  The counts are
int64 residues.  Every count after t ≤ H steps is at most d^H, and the
moduli, pairwise coprime and chosen greedily downward from
⌊(2⁶³ − 1)/d⌋, multiply to more than d^H; a sum of d residues stays below
2⁶³, so a step reduces once.  A consumer lifts only the counts it reads
back to Python ints by the Chinese remainder theorem (CRT).  While d^H
fits, one modulus suffices and the lift is the identity; LPS(17,13) at
H = 100 counts modulo eight.

A core with undefined slots keeps an exact Python-int recurrence over
its vertices and the depths of the regular trees hanging at those slots
(inside a tree only the depth matters).  Residue arrays for the trees,
tried as (boundary vertex × depth) arrays, as a gather over a weighted
state graph and as a sparse matrix-vector product, were 1.5–4× slower
on the small cores whose return counts the estimates read:
``fold:ab,rank=3`` at H = 400 took 33–67 ms against 15 ms.  A complete
core has no trees and takes the array stream.

``return_counts`` reads the origin; ``return_domination_reports`` reads
every even step from the root; ``conditioned_prefix_probabilities`` reads
the last steps of a returning stream at every prefix's endpoint; and
``segment_distributions`` reads the returning stream from x and one
stream from all the starts of its wrapping segments at once.  The first
two take a graph or a core, the last two only a graph.

On truncated graphs the counts are still exact provided the walks cannot
feel the missing part: a returning walk of length n stays within distance
⌊n/2⌋ of its origin, so the returning streams need the boundary at
distance ⌈n/2⌉, and ``return_domination_reports`` answers step k only
with the boundary at distance ≥ k.  The preconditions are enforced, never
assumed, by ``core.stored_layers`` and ``require_room``: the first layer
of the search to hold a boundary vertex is the distance to the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator

import numpy as np

from schreier.core import (
    CoreGraph,
    InequalityViolation,
    SchreierGraph,
    Word,
    bfs_layers,
    boundary_layer,
    require_room,
    stored_layers,
    walk_endpoint,
)
from schreier.local import is_vertex_transitive

__all__ = [
    "return_counts",
    "segment_distributions",
    "conditioned_prefix_probabilities",
    "return_domination_reports",
    "DominationReport",
]

# a sum of d residues below ⌊_MODULUS_CAP/d⌋ is below the cap, int64's largest
_MODULUS_CAP = 2**63 - 1


def _walk_source(
    source: SchreierGraph, x: int, radius: int, needed: int, purpose: str
) -> tuple[tuple[np.ndarray, list[int]], dict[int, int]]:
    """(``bfs_layers`` of x to ``radius``, number of trees hanging at each
    vertex) for walks from x.  A core hangs a tree at each undefined slot
    and is never truncated; a graph has no trees, and ``stored_layers``
    refuses it if a boundary vertex lies closer to x than ``needed``."""
    if isinstance(source, CoreGraph):
        trees = {v: len(source.missing(v)) for v in source.boundary}
        return bfs_layers(source.slots, x, radius), trees
    return stored_layers(source, x, radius, needed, purpose), {}


def _numbering(g: SchreierGraph, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pos``, each vertex's position in ``order``, and the local slot
    table ``loc = pos[slots[order]]``.  Position E = len(order) is the
    sentinel: every vertex outside ``order`` maps to it, and so does a
    missing slot (−1), which reads ``pos[n]``."""
    size = len(order)
    pos = np.full(g.n + 1, size, dtype=np.int64)
    pos[order] = np.arange(size)
    return pos, pos[g.slots[order]]


def _held(n: int, horizon: int, returning: bool) -> int:
    """The distance within which the row at step n holds walks: all of
    them, or only those that can still be back at the origin by the horizon."""
    return min(n, horizon - n) if returning else n


def _moduli(d: int, horizon: int) -> list[int]:
    """Pairwise-coprime moduli, taken greedily downward from
    ⌊``_MODULUS_CAP``/d⌋, whose product exceeds d^horizon."""
    bound, total, moduli = d**horizon, 1, []
    m = _MODULUS_CAP // d
    while total <= bound:
        if math.gcd(m, total) == 1:
            moduli.append(m)
            total *= m
        m -= 1
    return moduli


class _ArrayWalks:
    """The walks on a stored graph or a complete core from the origin
    ``order[0]``, or from each vertex of ``starts``, for n = 0..horizon.
    Iterating yields each step's counts as a k×S×(E + 1) int64 array of
    residues: [i, s, p] counts the walks from the s-th start to position
    p of ``layers``' order modulo ``moduli[i]``, and position E is the
    zero sentinel.  ``lift`` turns residues back into counts.

    From the origin, step n pulls into the positions within ``_held``
    distance; ``layers`` must reach the farthest, radius horizon, or
    ⌊horizon/2⌋ for a returning stream.  The counts are exact within
    distance horizon − n (the origin's always are).  From ``starts``,
    every step pulls into every position, and a walk that leaves
    ``layers`` is dropped.  Each count is at most d^n ≤ d^horizon, below
    the product of the moduli, and a step sums d residues below
    ⌊``_MODULUS_CAP``/d⌋, which int64 holds.
    """

    def __init__(
        self,
        g: SchreierGraph,
        layers: tuple[np.ndarray, list[int]],
        horizon: int,
        returning: bool = False,
        starts: list[int] | None = None,
    ) -> None:
        order, self.ends = layers
        self.pos, self.loc = _numbering(g, order)
        self.starts = self.pos[starts or order[:1]]
        self.everywhere = starts is not None
        self.horizon, self.returning = horizon, returning
        self.moduli = _moduli(g.degree, horizon)
        self.total = math.prod(self.moduli)
        self.weights = [
            self.total // m * pow(self.total // m, -1, m) for m in self.moduli
        ]

    def __iter__(self) -> Iterator[np.ndarray]:
        ends, horizon = self.ends, self.horizon
        columns = np.ascontiguousarray(self.loc.T)  # one slot label per row
        moduli = np.array(self.moduli, dtype=np.int64)[:, None, None]
        starts = len(self.starts)
        counts = np.zeros((len(moduli), starts, len(self.loc) + 1), dtype=np.int64)
        counts[:, np.arange(starts), self.starts] = 1
        yield counts
        last = len(ends) - 1
        for n in range(1, horizon + 1):
            e = ends[last if self.everywhere else min(_held(n, horizon, self.returning), last)]
            pulled = counts.take(columns[0, :e], axis=2)
            for column in columns[1:, :e]:
                pulled += counts.take(column, axis=2)
            if len(moduli) > 1:
                pulled %= moduli
            counts = np.zeros_like(counts)
            counts[:, :, :e] = pulled
            yield counts

    def lift(self, residues: np.ndarray) -> list[int]:
        """The counts whose residues ``residues[:, ...]`` holds, flattened."""
        residues = residues.reshape(len(self.moduli), -1)
        if len(self.moduli) == 1:
            return residues[0].tolist()
        return [
            sum(r * w for r, w in zip(column, self.weights)) % self.total
            for column in zip(*residues.tolist())
        ]


def _walk_steps(
    g: SchreierGraph,
    layers: tuple[np.ndarray, list[int]],
    horizon: int,
    slots: dict[int, int],
    returning: bool = False,
) -> Iterator[tuple[list[int], dict[int, list[int]]]]:
    """For n = 0..horizon, on a core with undefined slots: the number of
    length-n walks from the origin ``order[0]`` that end at each position
    of ``layers``' vertices (the last one the zero sentinel), and, for
    each v listed in ``slots``, at each depth 1..n of the ``slots[v]``
    regular trees hanging at v (summed over those trees; entry 0 is
    unused).  Inside a tree only the depth matters: one step back, d−1
    steps deeper.

    The core steps pull over ``_numbering``'s slot table as
    ``_ArrayWalks`` does, within the same ``_held`` distance and with
    ``layers`` of the same radius, in Python ints; a returning stream
    follows tree depths only to min(n, horizon − n).
    """
    d1 = g.degree - 1
    order, ends = layers
    size = len(order)
    pos, loc = _numbering(g, order)
    # the sentinel holds no walk: adding its zeros would copy big ints
    rows = [[u for u in row if u < size] for row in loc.tolist()]
    hanging = [(int(pos[v]), m) for v, m in slots.items() if pos[v] < size]
    last = len(ends) - 1
    counts = [1] + [0] * size
    trees = {v: [0] * (horizon + 2) for v in slots if pos[v] < size}
    yield counts, trees
    for n in range(1, horizon + 1):
        e = ends[min(_held(n, horizon, returning), last)]
        nxt = [sum([counts[u] for u in row]) for row in rows[:e]] + [0] * (size + 1 - e)
        # depth 1 is kept at n = horizon, where no depth is read
        cut = min(n, max(horizon - n, 1)) if returning else n
        deeper = {}
        for (p, m), (v, depth) in zip(hanging, trees.items()):
            nxt[p] += depth[1]
            deeper[v] = (
                [0, m * counts[p] + depth[2]]
                + [d1 * a + b for a, b in zip(depth[1:cut], depth[3 : cut + 2])]
                + [0] * (horizon + 1 - cut)
            )
        counts, trees = nxt, deeper
        yield counts, trees


def return_counts(
    source: SchreierGraph, x: int, horizon: int
) -> tuple[int, ...]:
    """|P_{x,x,n}| for n = 0..horizon, holding one row of counts at a time.
    A core is exact at any horizon: the state space is the core plus (core
    vertices with undefined slots) × horizon depth classes, with no ball
    materialized.  A truncated graph needs its boundary at distance
    ≥ ⌈horizon/2⌉ from x."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    layers, trees = _walk_source(
        source, x, horizon // 2, (horizon + 1) // 2, "return counts"
    )
    if trees:
        steps = _walk_steps(source, layers, horizon, trees, returning=True)
        return tuple(counts[0] for counts, _ in steps)
    walks = _ArrayWalks(source, layers, horizon, returning=True)
    return tuple(walks.lift(counts[:, 0, 0])[0] for counts in walks)


def segment_distributions(
    g: SchreierGraph, x: int, n: int, k: int
) -> tuple[int, dict[int, tuple[dict[tuple[int, ...], int], ...]]]:
    """|P_{x,x,n}|, and ``laws[k′][t]``, the law of the cyclic segment
    (a_t, …, a_{t+k′−1}) of a uniform returning length-n word from x, for
    k′ = 1..k and t = 0..n − 1: each segment of positive probability with
    the number of returning words that show it there, over the one
    denominator |P_{x,x,n}| (none if no word returns).

    Walks reverse on a Schreier graph, so with c_m the row at step m of
    the returning stream from x, the words with segment s at t number
    Σ_v c_t[v]·c_{n−t−|s|}[v·s] if s does not wrap.  A trie per shift
    carries the weights c_t[v] letter by letter to the endpoints (a letter
    acts injectively), drops an endpoint at depth j farther than n − t − j
    from x, which cannot return in time, and extends only the segments of
    positive count; row m is complete within n − m of x, where it is read.
    A wrapping s = s_a·s_b with |s_a| = n − t numbers |P_{y,z,n−|s|}|, with
    y = x·s_b, z = x·s_a⁻¹, and s_a, s_b segments of positive count at t
    and at 0 that do not wrap.  One stream from every such y answers them
    all.  The subgroup need not be normal, so this is no rotation of
    another law.

    One guard at x covers every stream: each walk counted is a piece of a
    returning length-n word from x, which stays within ⌊n/2⌋ of x, on the
    slots of vertices closer than ⌈n/2⌉ or, at even n, inward from n/2
    along the inverse of an interior vertex's slot.  So the streams from
    the y walk on x's positions, and drop what leaves them; they must not
    be guarded, as y may lie closer than ⌈n/2⌉ to the boundary.
    """
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if not 0 <= k <= n:
        raise ValueError("segment length out of range")
    layers = stored_layers(g, x, n // 2, (n + 1) // 2, "returning words")
    walks = _ArrayWalks(g, layers, n, returning=True)
    rows = [walks.lift(c[:, 0]) for c in walks]
    ends = layers[1]
    # each position's distance from x; the sentinel's, far, is read for a
    # missing slot and for a vertex beyond ⌊n/2⌋, which cannot return
    dist = [r for r, (begin, end) in enumerate(zip([0, *ends], ends)) for _ in range(begin, end)]
    dist.append(n + 1)
    columns = walks.loc.T.tolist()
    counts: dict[int, list[dict]] = {j: [{} for _ in range(n)] for j in range(1, k + 1)}
    for t in range(n):
        level = [((), [(v, w) for v, w in enumerate(rows[t][: ends[min(t, n - t)]]) if w])]
        for j in range(1, min(k, n - t) + 1):
            bound, row, deeper = n - t - j, rows[n - t - j], []
            for segment, weights in level:
                for l, column in enumerate(columns):
                    moved = [(column[v], w) for v, w in weights if dist[column[v]] <= bound]
                    if count := sum(w * row[u] for u, w in moved):
                        counts[j][t][segment + (l,)] = count
                        deeper.append((segment + (l,), moved))
            level = deeper
    by_y: dict[int, dict] = {b: {} for b in range(1, k)}  # b -> y -> the s_b, x·s_b = y
    for b, ys in by_y.items():
        for tail in counts[b][0]:
            ys.setdefault(walk_endpoint(g, x, Word(tail)), []).append(tail)
    asks: dict[int, list] = {}  # y -> (n − |s|, the s_b, the s_a by z, the law)
    for t in range(n - k + 1, n):
        by_z: dict[int, list] = {}
        for head in counts[n - t][t]:
            z = walk_endpoint(g, x, Word(tuple(g.gens.inv[l] for l in reversed(head))))
            by_z.setdefault(z, []).append(head)
        for j in range(n - t + 1, k + 1):
            for y, tails in by_y[j - n + t].items():
                asks.setdefault(y, []).append((n - j, tails, by_z, counts[j][t]))
    if asks:
        top = max(m for wanted in asks.values() for m, *_ in wanted)
        stream = _ArrayWalks(g, layers, top, starts=list(asks))
        at = list(stream)
        for i, wanted in enumerate(asks.values()):
            for m, tails, by_z, law in wanted:
                found = stream.lift(at[m][:, i, stream.pos[list(by_z)]])
                for heads, count in zip(by_z.values(), found):
                    if count:
                        law.update((head + tail, count) for head in heads for tail in tails)
    return rows[n][0], {j: tuple(by_shift) for j, by_shift in counts.items()}


def _require_transitive(g: SchreierGraph, asserted: bool | None, refusal: str) -> None:
    """Raise ``ValueError(refusal)`` unless g is vertex-transitive, as the
    caller asserted or, failing that, as checked on the whole graph; a
    truncation, which cannot be checked, is refused with the way to assert
    it."""
    if asserted is None and g.boundary and not isinstance(g, CoreGraph):
        raise ValueError(
            "the vertex-transitivity check needs a whole graph; a truncation is "
            "unknown beyond its boundary: pass vertex_transitive=True "
            "(--assume-transitive on the CLI) if the full graph is transitive"
        )
    if not (is_vertex_transitive(g) if asserted is None else asserted):
        raise ValueError(refusal)


def conditioned_prefix_probabilities(
    g: SchreierGraph,
    x: int,
    n: int,
    length: int,
    vertex_transitive: bool | None = None,
) -> tuple[int, tuple[tuple[Word, Fraction], ...]]:
    """|P_{x,x,n}|, and for every word w of length ℓ = 1..``length``, in
    ``itertools.product`` order, P(the first ℓ steps of a returning
    length-n walk from x spell w) = |P_{y,x,n−ℓ}| / |P_{x,x,n}| with
    y = x·w, each checked against the guaranteed floor d^{−2ℓ}.

    The floor is a transitivity statement; pass ``vertex_transitive=True``
    for truncated inputs whose full graph is transitive, e.g. tree balls.
    It rests on |P_{x,x,n}| ≤ d^{2ℓ}·|P_{x,x,n−2ℓ}|, an even-n statement,
    so odd n (and negative n) is refused first.  It needs room to complete w·w⁻¹, so a
    prefix longer than n/2 is refused, after the rows of the shorter ones.

    One returning stream from x answers every row.  Walks reverse on a
    Schreier graph (read backwards with inverse labels), so
    |P_{y,x,m}| = |P_{x,y,m}|; and the stream's counts at step n − ℓ are
    complete within distance ℓ of x, where y lies.  So row w reads the
    count at y as the stream passes step n − ℓ, and a truncated graph
    needs its boundary only at distance ⌈n/2⌉, as for ``return_counts``.
    """
    if n % 2 or n < 0:
        raise ValueError(f"conditioned prefix checks concern even n >= 0, not n = {n}")
    fits = min(length, n // 2)  # the prefix lengths with 2ℓ ≤ n
    too_long = "need n >= twice the prefix length"
    if length and not fits:
        raise ValueError(too_long)
    _require_transitive(
        g, vertex_transitive,
        "conditioned prefix bound requires a vertex-transitive graph",
    )
    layers = stored_layers(g, x, n // 2, (n + 1) // 2, "conditioned prefix rows")
    d = g.degree
    # the endpoints x·w of the words of each length, in product order; the
    # guard keeps every slot on the way, which lies within ℓ − 1 < ⌈n/2⌉
    endpoints = [np.array([x])]
    for _ in range(fits):
        endpoints.append(g.slots[endpoints[-1]].ravel())
    at: dict[int, list[int]] = {}  # ℓ -> the counts at those endpoints at step n − ℓ
    walks = _ArrayWalks(g, layers, n, returning=True)
    for m, counts in enumerate(walks):
        if m >= n - fits:
            at[n - m] = walks.lift(counts[:, 0, walks.pos[endpoints[n - m]]])
    total = at[0][0]  # ≥ 1 at even n: a step and its inverse, repeated, return
    rows = []
    for l in range(1, fits + 1):
        for letters, count in zip(product(range(d), repeat=l), at[l]):
            p = Fraction(count, total)
            if p < Fraction(1, d ** (2 * l)):
                raise InequalityViolation(
                    f"conditioned prefix probability {p} fell below 1/{d ** (2 * l)}"
                )
            rows.append((Word(letters), p))
    if fits < length:
        raise ValueError(too_long)
    return total, tuple(rows)


# ---------------------------------------------------------------------------
# Return-count domination (the even-time comparison inequalities)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DominationReport:
    """Exact integer certificate that, at even horizon n, the return count
    dominates every |P_{x,y,n}| and is itself at most d²·|P_{x,x,n−2}|."""

    degree: int
    n: int
    return_count: int
    max_other_count: int
    previous_return_count: int

    def __post_init__(self) -> None:
        if self.max_other_count > self.return_count:
            raise InequalityViolation(
                f"|P_xy,{self.n}| = {self.max_other_count} exceeds the return count "
                f"{self.return_count}"
            )
        if self.return_count > self.degree**2 * self.previous_return_count:
            raise InequalityViolation(
                f"return count {self.return_count} exceeds d²·|P_xx,{self.n - 2}| = "
                f"{self.degree**2 * self.previous_return_count}"
            )


def _even_rows(
    g: SchreierGraph,
    layers: tuple[np.ndarray, list[int]],
    n: int,
    trees: dict[int, int],
) -> Iterator[tuple[int, list[int], list[int]]]:
    """For each even k = 2..n: k, the counts of the length-k walks from the
    root at the vertices within distance k of it, the only ones holding
    any (the root first), and on a core the count at each vertex of every
    hanging-tree depth 1..k.  The trees at v share their depth-j total
    equally among their m_v·(d−1)^{j−1} vertices, m_v = ``trees[v]``."""
    ends = layers[1]
    if not trees:
        walks = _ArrayWalks(g, layers, n)
        for k, counts in enumerate(walks):
            if k and k % 2 == 0:
                yield k, walks.lift(counts[:, 0, : ends[k]]), []
        return
    d = g.degree
    for k, (counts, depths) in enumerate(_walk_steps(g, layers, n, trees)):
        if k and k % 2 == 0:
            shared = []
            for v, depth in depths.items():
                for j in range(1, k + 1):
                    size = trees[v] * (d - 1) ** (j - 1)
                    if depth[j] % size:
                        raise AssertionError("depth total not divisible by the depth's size")
                    shared.append(depth[j] // size)
            yield k, counts[: ends[k]], shared


def return_domination_reports(
    source: SchreierGraph, n: int, vertex_transitive: bool | None = None
) -> tuple[DominationReport, ...]:
    """The certificate at each even k = 2..n, read as one walk stream from
    the root passes step k: the root's counts at k and k − 2 and the
    largest count at any other vertex.  A core also counts the trees
    hanging at each v: their depth-j total at step k is shared equally by
    their m_v·(d−1)^{j−1} vertices, m_v the missing slots at v.  A graph
    answers k only with its boundary at distance ≥ k, else refuses."""
    if n < 2 or n % 2:
        raise ValueError("the domination inequalities concern even n >= 2")
    layers, trees = _walk_source(source, source.root, n, 0, "walk counts")
    _require_transitive(
        source, vertex_transitive, "the domination inequalities require vertex-transitivity"
    )
    # only a core has trees, and its boundary vertices carry them
    near = n + 1 if trees else boundary_layer(source, *layers)
    reports = []
    previous = 1  # the one walk of length 0
    for k, row, shared in _even_rows(source, layers, n, trees):
        require_room("walk counts", source.root, near, k)
        reports.append(
            DominationReport(
                degree=source.degree,
                n=k,
                return_count=row[0],
                max_other_count=max(row[1:] + shared, default=0),
                previous_return_count=previous,
            )
        )
        previous = row[0]
    return tuple(reports)
