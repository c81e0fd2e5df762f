"""Exact random-walk statistics on labeled graphs.

Everything here is integer dynamic programming: |P_{x,y,n}| is the number
of label sequences of length n leading from x to y, probabilities are the
counts divided by d^n, and all comparisons the lemma checks make are exact
(arbitrary-precision integers and rationals, no floats).

One recurrence, ``_walk_steps``, advances the counts one step at a time
and, for cores, over the depths of the regular trees hanging at undefined
slots.  A step moves only the walks that can still matter: ``bfs_layers``
lists the vertices around the origin in order of distance, a step moves
the walks at the vertices the walk can have reached, and a walk that must
return by the horizon H also skips vertices it cannot come back from in
time.  A question about radius R thus costs the R-ball, not the graph.
``return_counts`` keeps the origin's column, ``return_domination_reports``
reads every even step from the root, and
``conditioned_prefix_probabilities`` reads the last steps of a returning
stream at every prefix's endpoint, each holding one row at a time;
``segment_distributions`` keeps the returning stream from x and reads one
from each start of a wrapping segment.  The first two take a graph or a
core; on a core they read the same steps with the trees attached.

On truncated graphs the counts are still exact provided the walks cannot
feel the missing part: a returning walk of length n stays within distance
⌊n/2⌋ of its origin, so the returning streams need the boundary at
distance ⌈n/2⌉, and ``return_domination_reports`` answers step k only
with the boundary at distance ≥ k.  The preconditions are enforced, never
assumed, by ``_walk_source``: the first layer of that search to hold a
boundary vertex is the distance to the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from typing import Iterator

from schreier.builders import CoreGraph
from schreier.core import (
    InequalityViolation,
    InsufficientRadiusError,
    SchreierGraph,
    Word,
    bfs_layers,
    boundary_layer,
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


def _require_room(what: str, x: int, near: int, needed: int) -> None:
    """Refuse if the truncation boundary, ``near`` from x, is closer than ``needed``."""
    if near < needed:
        raise InsufficientRadiusError(
            f"insufficient radius for {what}: distance from vertex {x} to the "
            f"truncation boundary is {near}, need at least {needed}"
        )


def _walk_source(
    source: SchreierGraph | CoreGraph, x: int, radius: int, needed: int, what: str
) -> tuple[SchreierGraph, tuple[list[int], list[int]], dict[int, int]]:
    """(graph, ``bfs_layers`` of x to ``radius``, number of trees hanging
    at each vertex) for walks from x.  A core hangs a tree at each
    undefined slot and is never truncated; a graph has no trees, and is
    refused if a boundary vertex lies closer to x than ``needed``."""
    if isinstance(source, CoreGraph):
        g = source.graph
        trees = {v: len(source.missing(v)) for v in g.boundary}
        return g, bfs_layers(g.next, x, radius), trees
    order, ends = bfs_layers(source.next, x, radius)
    _require_room(what, x, boundary_layer(source, order, ends), needed)
    return source, (order, ends), {}


def _walk_steps(
    g: SchreierGraph,
    layers: tuple[list[int], list[int]],
    horizon: int,
    slots: dict[int, int],
    returning: bool = False,
) -> Iterator[tuple[list[int], dict[int, list[int]]]]:
    """For n = 0..horizon, the number of length-n walks from the origin
    ``order[0]`` that end at each stored vertex, and, for each v listed in
    ``slots``, at each depth 1..n of the ``slots[v]`` regular trees
    hanging at v (summed over those trees; entry 0 is unused).  Inside a
    tree only the depth matters: one step back, d−1 steps deeper.  Walks
    through any other missing slot are dropped.

    ``layers`` is ``bfs_layers`` of the origin.  Step n moves only the walks
    at the vertices within distance n − 1, the only ones holding any, so
    ``layers`` must reach radius horizon − 1.  A ``returning`` walk must
    be back at the origin at the horizon: step n moves only the walks
    within min(n − 1, horizon − n + 1) and follows tree depths only to
    min(n, horizon − n), so ``layers`` need only reach ⌊horizon/2⌋, and
    only the counts at distance ≤ horizon − n from the origin are complete
    (the origin's always are).  The counts are exact for any numbering of
    the vertices.
    """
    d = g.degree
    order, ends = layers
    counts = [0] * g.n
    counts[order[0]] = 1
    trees = {v: [0] * (horizon + 2) for v in slots}
    yield counts, trees
    for n in range(1, horizon + 1):
        reach = min(n - 1, horizon - n + 1) if returning else n - 1
        nxt = [0] * g.n
        for v in order[: ends[reach]]:
            c = counts[v]
            if c:
                for w in g.next[v]:
                    if w is not None:
                        nxt[w] += c
        # depth 1 is kept at n = horizon, where no depth is read
        cut = min(n, max(horizon - n, 1)) if returning else n
        deeper = {}
        for v, depth in trees.items():
            nxt[v] += depth[1]
            deeper[v] = [
                0,
                slots[v] * counts[v] + depth[2],
                *((d - 1) * depth[j - 1] + depth[j + 1] for j in range(2, cut + 1)),
                *(0,) * (horizon + 1 - cut),
            ]
        counts, trees = nxt, deeper
        yield counts, trees


def return_counts(
    source: SchreierGraph | CoreGraph, x: int, horizon: int
) -> tuple[int, ...]:
    """|P_{x,x,n}| for n = 0..horizon, holding one row of counts at a time.
    A core is exact at any horizon: the state space is the core plus (core
    vertices with undefined slots) × horizon depth classes, with no ball
    materialized.  A truncated graph needs its boundary at distance
    ≥ ⌈horizon/2⌉ from x."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    g, layers, trees = _walk_source(
        source, x, horizon // 2, (horizon + 1) // 2, "return counts"
    )
    steps = _walk_steps(g, layers, horizon, trees, returning=True)
    return tuple(counts[x] for counts, _ in steps)


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
    and at 0 that do not wrap.  The returning stream from y answers them
    all: z reaches y in |s| steps, so a walk from y to z lies within
    min(i, n − i) of y at step i, and row n − |s| is complete at z.  The
    subgroup need not be normal, so this is no rotation of another law.

    One guard at x covers every stream: each walk counted is a piece of a
    returning length-n word from x, which stays within ⌊n/2⌋ of x, on the
    slots of vertices closer than ⌈n/2⌉ or, at even n, inward from n/2
    along the inverse of an interior vertex's slot.  The streams from y
    must not be guarded: y may lie closer than ⌈n/2⌉ to the boundary.
    """
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if not 0 <= k <= n:
        raise ValueError("segment length out of range")
    _, (order, ends), _ = _walk_source(g, x, n // 2, (n + 1) // 2, "returning words")
    rows = [c for c, _ in _walk_steps(g, (order, ends), n, {}, returning=True)]
    dist = [n + 1] * (g.n + 1)  # the last entry, far, is read for a missing slot (−1)
    for r, (begin, end) in enumerate(zip([0, *ends], ends)):
        for v in order[begin:end]:
            dist[v] = r
    columns = g.slots.T.tolist()
    counts: dict[int, list[dict]] = {j: [{} for _ in range(n)] for j in range(1, k + 1)}
    for t in range(n):
        level = [((), [(v, rows[t][v]) for v in order[: ends[min(t, n - t)]] if rows[t][v]])]
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
    for y, wanted in asks.items():
        stream = _walk_steps(g, bfs_layers(g.next, y, n // 2), n, {}, returning=True)
        at = [c for c, _ in islice(stream, max(m for m, *_ in wanted) + 1)]
        for m, tails, by_z, law in wanted:
            for z, heads in by_z.items():
                if at[m][z]:
                    law.update((head + tail, at[m][z]) for head in heads for tail in tails)
    return rows[n][x], {j: tuple(by_shift) for j, by_shift in counts.items()}


def _require_transitive(g: SchreierGraph, asserted: bool | None, refusal: str) -> None:
    """Raise ``ValueError(refusal)`` unless g is vertex-transitive, as the
    caller asserted or, failing that, as checked on the whole graph."""
    if asserted is None:
        if g.truncated:
            raise ValueError(
                "cannot verify vertex-transitivity of a truncated graph; "
                "pass vertex_transitive=True if the full graph is transitive"
            )
        asserted = is_vertex_transitive(g)
    if not asserted:
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
    if length and not isinstance(walk_endpoint(g, x, Word((0,))), int):
        raise InsufficientRadiusError(
            "insufficient radius: the prefix walk leaves the stored graph"
        )
    _, layers, _ = _walk_source(g, x, n // 2, (n + 1) // 2, "return counts")
    d = g.degree
    # the endpoints x·w of the words of each length, in product order; the
    # guard keeps every slot on the way, which lies within ℓ − 1 < ⌈n/2⌉
    endpoints = [[x]]
    for _ in range(fits):
        endpoints.append([g.next[v][l] for v in endpoints[-1] for l in range(d)])
    at: dict[int, list[int]] = {}  # ℓ -> the counts at those endpoints at step n − ℓ
    for m, (counts, _) in enumerate(_walk_steps(g, layers, n, {}, returning=True)):
        if m >= n - fits:
            at[n - m] = [counts[y] for y in endpoints[n - m]]
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


def return_domination_reports(
    source: SchreierGraph | CoreGraph, n: int, vertex_transitive: bool | None = None
) -> tuple[DominationReport, ...]:
    """The certificate at each even k = 2..n, read as one walk stream from
    the root passes step k: the root's counts at k and k − 2 and the
    largest count at any other vertex.  A core also counts the trees
    hanging at each v: their depth-j total at step k is shared equally by
    their m_v·(d−1)^{j−1} vertices, m_v the missing slots at v.  A graph
    answers k only with its boundary at distance ≥ k, else refuses."""
    if n < 2 or n % 2:
        raise ValueError("the domination inequalities concern even n >= 2")
    g, (order, ends), trees = _walk_source(source, source.root, n, 0, "walk counts")
    _require_transitive(
        g, vertex_transitive, "the domination inequalities require vertex-transitivity"
    )
    # only a core has trees, and its boundary vertices carry them
    near = n + 1 if trees else boundary_layer(g, order, ends)
    d = g.degree
    reports = []
    previous = 1  # the one walk of length 0
    for k, (counts, depths) in enumerate(_walk_steps(g, (order, ends), n, trees)):
        if k == 0 or k % 2:
            continue
        _require_room("walk counts", g.root, near, k)
        # every vertex holding a walk at step k lies within distance k
        others = [counts[v] for v in order[1 : ends[k]]]
        for v, m in trees.items():
            for j in range(1, k + 1):
                size = m * (d - 1) ** (j - 1)
                if depths[v][j] % size:
                    raise AssertionError("depth total not divisible by the depth's size")
                others.append(depths[v][j] // size)
        reports.append(
            DominationReport(
                degree=d,
                n=k,
                return_count=counts[g.root],
                max_other_count=max(others, default=0),
                previous_return_count=previous,
            )
        )
        previous = counts[g.root]
    return tuple(reports)
