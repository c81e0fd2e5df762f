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

A step is a pull over the local slot table loc = pos[slots[order]], in
which position E, one past the reach, is a zero sentinel read for a
missing slot and for any vertex outside the reach: the count at w after
the step sums the counts at loc[w, l] over the labels l.  The pull is
exact on a Schreier graph: by label consistency the in-edges at w are
exactly its slots read backwards, and on a truncation a missing slot has
no in-edge either.  On a core with undefined slots, domination pulls
over ``_hung_trees``: the trees hanging at v, cut to the horizon, fold
into one row per depth, standing for all the vertices at that depth.

A question that reads a few counts per step counts in int64 residues.
Every count after t ≤ H steps is at most d^H, and the moduli, pairwise
coprime and chosen greedily downward from ⌊(2⁶³ − 1)/d⌋, multiply to
more than d^H; a sum of d residues stays below 2⁶³, so a step reduces
once.  A consumer lifts only the counts it reads back to Python ints by
the Chinese remainder theorem (CRT).  While d^H fits, one modulus
suffices and the lift is the identity; LPS(17,13) at H = 100 counts
modulo eight.  ``return_domination_reports`` reads every count of every
even row, where a lift per count would cost more than the counts, so its
stream counts exactly: int64 while d^n ≤ 2⁶³ − 1, Python ints after.

A core with undefined slots answers return counts from the integer
recurrence of its return series, and no stream.  With K core vertices,
q = d − 1, A the core's adjacency (A[w, u] labels from w to u), M the
diagonal of missing slots and the uniformizer t, z = t/(1 + qt²) (a
hanging tree's first-return series is t²/(1 + qt²)), the series
G = Σ |P_{x,x,n}|·zⁿ is (1 + qt²)·[((1 + qt²)I − tA − t²M)⁻¹]_{xx}: rational
in t, over a determinant of degree ≤ 2K, with a numerator of degree ≤ 2K.
So its first 4K + 2 coefficients in t, an O(K·d) integer step each, fix
it, and a fraction-free Berlekamp–Massey finds its shortest recurrence,
of length L ≤ 2K + 1.  Reduced modulo q·z·t² − t + z and multiplied by
the conjugate of its denominator, it becomes Q·G = P_U + P_V·t over Z[z],
t = Σ_j C_j·q^j·z^{2j+1} (C_j the Catalan numbers), and each count is one
exact division of an O(L)-term sum, re-checked.  The setup costs
O(K²·d), the horizon O(H·L).  In process on a 2-vCPU VM,
``fold:ab,rank=3`` at H = 400 takes 0.49–0.50 ms and at H = 2000
3.2–3.3 ms, against 9.5–9.9 and 286–313 ms for the hanging-tree stream
it replaced; the fold of two random reduced F2 words of length 80 (158
vertices) takes 27–29 ms at H = 100, against 51–56 ms.

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

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul
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

__all__ = [
    "return_counts",
    "segment_distributions",
    "conditioned_prefix_probabilities",
    "return_domination_reports",
    "DominationReport",
]

_log = logging.getLogger("schreier")

# a sum of d residues below ⌊_MODULUS_CAP/d⌋ is below the cap, int64's largest
_MODULUS_CAP = 2**63 - 1


def _numbering(slots: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pos``, each vertex's position in ``order``, and the local slot
    table ``loc = pos[slots[order]]``.  Position E = len(order) is the
    sentinel: every vertex outside ``order`` maps to it, and so does a
    missing slot (−1), which reads the last entry of ``pos``."""
    size = len(order)
    pos = np.full(len(slots) + 1, size, dtype=np.int64)
    pos[order] = np.arange(size)
    return pos, pos[slots[order]]


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


def _hung_trees(core: CoreGraph, depth: int) -> np.ndarray:
    """The slot table of ``core`` with the trees hanging at its missing
    slots cut to ``depth`` and folded to one row per depth: each vertex v
    with a missing slot gets rows (v, j), j = 1..depth, after the core's;
    slot 0 of (v, j) is its parent, v or (v, j − 1), its other d − 1
    slots point to (v, j + 1), missing past ``depth``, and every missing
    slot of v points to (v, 1).  All the vertices at depth j below v have
    the same walks from a core vertex, and each has its parent and d − 1
    children, so a pull over this table is the pull over the completed
    graph, (v, j) standing for each of them; it is exact for walks of
    length ≤ ``depth``, which cannot reach past it and back."""
    slots = core.slots
    hung = np.flatnonzero((slots < 0).any(axis=1))
    if not depth or not len(hung):
        return slots
    size = len(slots)
    rows = size + np.arange(len(hung) * depth).reshape(len(hung), depth)  # (v, j)'s row
    first = np.full(size, -1, dtype=np.int64)
    first[hung] = rows[:, 0]
    table = np.full((size + rows.size, slots.shape[1]), -1, dtype=np.int64)
    table[:size] = np.where(slots < 0, first[:, None], slots)
    below = table[size:].reshape(len(hung), depth, -1)
    below[:, :, 0] = np.column_stack([hung, rows[:, :-1]])
    below[:, :-1, 1:] = rows[:, 1:, None]
    return table


class _ArrayWalks:
    """The walks over the slot table ``slots`` from the origin
    ``order[0]``, or from each vertex of ``starts``, for n = 0..horizon.
    Iterating yields each step's counts as a k×S×(E + 1) array: [i, s, p]
    counts the walks from the s-th start to position p of ``layers``'
    order, and position E is the zero sentinel.

    The counts are int64 residues, modulo ``moduli[i]``, and ``lift``
    turns the ones a consumer reads back into counts.  Each count is at
    most d^n ≤ d^horizon, below the product of the moduli, and a step sums
    d residues below ⌊``_MODULUS_CAP``/d⌋, which int64 holds.  An
    ``exact`` stream, for a consumer that reads whole rows, keeps k = 1
    row of the counts themselves: int64 while d^n ≤ ``_MODULUS_CAP``,
    Python ints (an object array) from the first step past it.

    From the origin, step n pulls into the positions within ``_held``
    distance; ``layers`` must reach the farthest, radius horizon, or
    ⌊horizon/2⌋ for a returning stream.  The counts are exact within
    distance horizon − n (the origin's always are).  From ``starts``,
    every step pulls into every position, and a walk that leaves
    ``layers`` is dropped.
    """

    def __init__(
        self,
        slots: np.ndarray,
        layers: tuple[np.ndarray, list[int]],
        horizon: int,
        returning: bool = False,
        starts: list[int] | None = None,
        exact: bool = False,
    ) -> None:
        order, self.ends = layers
        self.pos, self.loc = _numbering(slots, order)
        self.starts = self.pos[starts or order[:1]]
        self.everywhere = starts is not None
        self.horizon, self.returning, self.exact = horizon, returning, exact
        self.moduli = [] if exact else _moduli(slots.shape[1], horizon)
        self.total = math.prod(self.moduli)
        self.weights = [
            self.total // m * pow(self.total // m, -1, m) for m in self.moduli
        ]

    def __iter__(self) -> Iterator[np.ndarray]:
        ends, horizon = self.ends, self.horizon
        columns = np.ascontiguousarray(self.loc.T)  # one slot label per row
        d = len(columns)
        moduli = np.array(self.moduli, dtype=np.int64)[:, None, None]
        starts = len(self.starts)
        counts = np.zeros((len(moduli) or 1, starts, len(self.loc) + 1), dtype=np.int64)
        counts[:, np.arange(starts), self.starts] = 1
        yield counts
        last = len(ends) - 1
        for n in range(1, horizon + 1):
            if self.exact and counts.dtype != object and d**n > _MODULUS_CAP:
                counts = counts.astype(object)
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
        """The counts whose residues ``residues[:, ...]`` holds, flattened
        (an exact stream holds the counts)."""
        if len(self.moduli) < 2:
            return residues.ravel().tolist()
        residues = residues.reshape(len(self.moduli), -1)
        return [
            sum(r * w for r, w in zip(column, self.weights)) % self.total
            for column in zip(*residues.tolist())
        ]


def _return_series(core: CoreGraph, x: int, terms: int) -> list[int]:
    """The first ``terms`` coefficients r_k of the return series at x in
    the uniformizer t: r_k = y_k[x] + q·y_{k−2}[x], where
    y_k = A·y_{k−1} + (M − qI)·y_{k−2} + [k = 0]·e_x.  A·y pulls over the
    slot table, a missing slot reading the zero at position K, and
    m_w − q = 1 − (the defined slots at w), at most max(q, 1) in size.

    So d·max|y_{k−1}| + max(q, 1)·max|y_{k−2}| bounds every sum that step
    k forms.  The steps run in int64 while that bound fits, and in Python
    ints (object arrays) from the first step where it does not."""
    d, q, size = core.degree, core.degree - 1, core.n
    loc = np.where(core.slots < 0, size, core.slots)
    lags = 1 - (core.slots >= 0).sum(axis=1)
    before, y = np.zeros(size + 1, dtype=np.int64), np.zeros(size + 1, dtype=np.int64)
    y[x] = 1
    at, high, low = [1], 1, 0  # max |y_{k−1}| and max |y_{k−2}|
    for _ in range(1, terms):
        if y.dtype != object and d * high + max(q, 1) * low > _MODULUS_CAP:
            y, before = y.astype(object), before.astype(object)
        step = y[loc].sum(axis=1) + lags * before[:size]
        before, y = y, np.append(step, 0)
        low, high = high, int(abs(step).max())
        at.append(int(y[x]))
    return [a + q * b for a, b in zip(at, [0, 0] + at)]


def _berlekamp_massey(series: list[int]) -> tuple[list[int], int]:
    """The connection polynomial D and the length L of the shortest
    linear recurrence Σ_i D_i·s_{n−i} = 0, L ≤ n < len(series), that the
    integer ``series`` obeys (Massey, IEEE Trans. IT 15, 1969), D padded
    to L + 1 coefficients.

    Fraction-free: C and B are integer multiples of Massey's polynomials
    and b is the discrepancy of B, so C ← b·C − gap·t^shift·B is a
    multiple of his update; each C is divided by its content.  The last C
    is then ± the reduced denominator, which for an integer series has
    integer coefficients and constant term 1 (Fatou's lemma); any other
    constant term means too few terms, and raises."""
    C, B = [1], [1]
    length, shift, b = 0, 1, 1
    for n in range(len(series)):
        gap = sum(map(mul, C, series[n::-1]))
        if not gap:
            shift += 1
            continue
        update = [b * c for c in C] + [0] * (len(B) + shift - len(C))
        for i, c in enumerate(B, shift):
            update[i] -= gap * c
        content = math.gcd(*update) * (1 if update[0] > 0 else -1)
        if 2 * length <= n:
            length, B, b, shift = n + 1 - length, C, gap, 1
        else:
            shift += 1
        C = [c // content for c in update]
    if C[0] != 1:
        raise AssertionError(f"the recurrence's constant term is {C[0]}, not 1")
    return (C + [0] * length)[: length + 1], length


def _polymul(a: list[int], b: list[int]) -> list[int]:
    """The product of two polynomials given by their coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, e in enumerate(b, i):
                out[j] += c * e
    return out


def _polyadd(*polys: list[int]) -> list[int]:
    """The sum of polynomials given by their coefficient lists."""
    out = [0] * max(map(len, polys))
    for p in polys:
        for i, c in enumerate(p):
            out[i] += c
    return out


def _degree(p: list[int]) -> int:
    """The degree of a coefficient list, −1 for the zero polynomial."""
    return max((i for i, c in enumerate(p) if c), default=-1)


def _in_z(
    numerator: list[int], denominator: list[int], q: int
) -> tuple[list[int], list[int], list[int]]:
    """Q, P_U and P_V in Z[z] with Q·G = P_U + P_V·t, for the series
    G = numerator/denominator in t = t(z), the root of q·z·t² − t + z
    with t(0) = 0.  The three share no power of z and no integer factor.

    Each polynomial in t reduces to a₀ + a₁·t.  Horner's rule with
    q·z·t² = t − z keeps the reduction in Z[z], at the common scale
    (q·z)^{m−1}, m the longer coefficient list's length.  With the conjugate root
    t̄ = 1/(qz) − t, t·t̄ = 1/q, the norm (b₀ + b₁t)(b₀ + b₁t̄) =
    b₀² + b₀b₁/(qz) + b₁²/q is free of t, and

        G = [(a₀b₀ + a₀b₁/(qz) + a₁b₁/q) + (a₁b₀ − a₀b₁)·t] / that norm,

    which q·z times the squared scale clears of fractions.  At d = 1,
    q = 0 and t = z: each tree is one leaf, and G is already rational."""
    if not q:
        return denominator, numerator, []
    size = max(len(numerator), len(denominator))

    def reduced(poly: list[int]) -> tuple[list[int], list[int]]:
        # after e + 1 coefficients, from the top: (qz)^e·(their Horner sum) = U + V·t
        U, V = [0] * (size + 1), [0] * (size + 1)
        for e, c in enumerate(reversed(poly + [0] * (size - len(poly)))):
            U, V = [0] + [-v for v in V[:-1]], [v + q * u for u, v in zip([0] + U[:-1], V)]
            U[e] += c * q**e
        return U, V

    (a0, a1), (b0, b1) = reduced(numerator), reduced(denominator)

    def times_z(p: list[int], factor: int) -> list[int]:
        return [0] + [factor * c for c in p]

    polys = (
        _polyadd(times_z(_polymul(b0, b0), q), _polymul(b0, b1), times_z(_polymul(b1, b1), 1)),
        _polyadd(times_z(_polymul(a0, b0), q), _polymul(a0, b1), times_z(_polymul(a1, b1), 1)),
        times_z(_polyadd(_polymul(a1, b0), [-c for c in _polymul(a0, b1)]), q),
    )
    low = min(next((i for i, c in enumerate(p) if c), len(p)) for p in polys)
    content = math.gcd(*(c for p in polys for c in p))
    Q, P_U, P_V = ([c // content for c in p[low:]] for p in polys)
    return Q, P_U, P_V


def _series_counts(
    Q: list[int], P_U: list[int], P_V: list[int], q: int, horizon: int
) -> list[int]:
    """The coefficients p_0..p_horizon of G, Q·G = P_U + P_V·t, from
    Q_s·p_n = [P_U]_{n+s} + Σ_j [P_V]_j·τ_{n+s−j} − Σ_{i≥1} Q_{s+i}·p_{n−i},
    s the lowest power of z in Q and τ_{2j+1} = C_j·q^j the coefficients of
    t (C_j the Catalan numbers).  Every division is re-checked, and one
    that leaves a remainder raises.  When Q and P_U are even and P_V odd,
    G(−z) = G(z), as t is odd, so the odd p_n are 0 and are not computed."""
    s = next(i for i, c in enumerate(Q) if c)
    top = horizon + s
    tau = [0] * (top + 1)
    catalan = 1
    for j in range(1, top + 1, 2):
        tau[j] = catalan
        catalan = catalan * 2 * j * q // ((j + 3) // 2)
    lead = Q[s]
    tail = [(i, c) for i, c in enumerate(Q[s + 1 :], 1) if c]
    pv = [(j, c) for j, c in enumerate(P_V) if c]
    pu = P_U[: top + 1] + [0] * (top + 1 - len(P_U))
    even = not any(Q[1::2] + P_U[1::2] + P_V[::2])
    counts = [0] * (horizon + 1)
    for n in range(0, horizon + 1, 2 if even else 1):
        m = n + s
        total = (
            pu[m]
            + sum([c * tau[m - j] for j, c in pv if j <= m])
            - sum([c * counts[n - i] for i, c in tail if i <= n])
        )
        counts[n], rest = divmod(total, lead)
        if rest:
            raise AssertionError(f"Q_s = {lead} does not divide step {n}'s sum {total}")
    return counts


def _core_returns(core: CoreGraph, x: int, horizon: int) -> tuple[int, ...]:
    """|P_{x,x,n}| for n = 0..horizon on a core with undefined slots, from
    the return series' integer recurrence (see the module docstring)."""
    if not 0 <= x < core.n:
        raise ValueError(f"vertex {x} is not a vertex of the graph (0..{core.n - 1})")
    q = core.degree - 1
    series = _return_series(core, x, 4 * core.n + 2)
    denominator, order = _berlekamp_massey(series)
    numerator = [sum(map(mul, denominator, series[k::-1])) for k in range(order)]
    Q, P_U, P_V = _in_z(numerator, denominator, q)
    s = next(i for i, c in enumerate(Q) if c)
    _log.debug(
        "core return series: %d core vertices, %d series terms, recurrence order %d, "
        "deg Q %d, deg P_U %d, deg P_V %d, s %d",
        core.n, len(series), order, *(_degree(p) for p in (Q, P_U, P_V)), s,
    )
    return tuple(_series_counts(Q, P_U, P_V, q, horizon))


def return_counts(
    source: SchreierGraph, x: int, horizon: int
) -> tuple[int, ...]:
    """|P_{x,x,n}| for n = 0..horizon.  A core with undefined slots is
    exact at any horizon by the integer recurrence of its return series
    (see the module docstring), at a cost of O(K²·d) for the setup and
    O(L) per step, K its vertices and L the recurrence's length.  A graph
    or a complete core streams one row of residues at a time; a truncated
    graph needs its boundary at distance ≥ ⌈horizon/2⌉ from x."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if isinstance(source, CoreGraph) and not source.complete:
        return _core_returns(source, x, horizon)
    layers = stored_layers(source, x, horizon // 2, (horizon + 1) // 2, "return counts")
    walks = _ArrayWalks(source.slots, layers, horizon, returning=True)
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
    walks = _ArrayWalks(g.slots, layers, n, returning=True)
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
        stream = _ArrayWalks(g.slots, layers, top, starts=list(asks))
        at = list(stream)
        for i, wanted in enumerate(asks.values()):
            for m, tails, by_z, law in wanted:
                found = stream.lift(at[m][:, i, stream.pos[list(by_z)]])
                for heads, count in zip(by_z.values(), found):
                    if count:
                        law.update((head + tail, count) for head in heads for tail in tails)
    return rows[n][0], {j: tuple(by_shift) for j, by_shift in counts.items()}


def _require_transitive(g: SchreierGraph, asserted: bool, refusal: str) -> None:
    """Raise ``ValueError(refusal)`` unless g is vertex-transitive, as the
    caller asserted or, failing that, as decided on the whole graph; a
    truncation or an incomplete core, which the check cannot search, is
    refused with the way to assert it."""
    if asserted:
        return
    if g.boundary:
        unknown = (
            "a core's hanging trees are not searched" if isinstance(g, CoreGraph)
            else "a truncation is unknown beyond its boundary"
        )
        raise ValueError(
            f"the vertex-transitivity check needs a whole graph; {unknown}: pass "
            "vertex_transitive=True (--assume-transitive on the CLI) if the full "
            "graph is transitive"
        )
    if not g.vertex_transitive:
        raise ValueError(refusal)


def conditioned_prefix_probabilities(
    g: SchreierGraph,
    x: int,
    n: int,
    length: int,
    vertex_transitive: bool = False,
) -> tuple[int, tuple[tuple[Word, Fraction], ...]]:
    """|P_{x,x,n}|, and for every word w of length ℓ = 1..``length``, in
    ``itertools.product`` order, P(the first ℓ steps of a returning
    length-n walk from x spell w) = |P_{y,x,n−ℓ}| / |P_{x,x,n}| with
    y = x·w, each checked against the guaranteed floor d^{−2ℓ}.

    The floor is a transitivity statement: ``vertex_transitive=True``
    asserts it, for truncated inputs whose full graph is transitive, e.g.
    tree balls; False, the default, decides it on the whole graph.
    It rests on |P_{x,x,n}| ≤ d^{2ℓ}·|P_{x,x,n−2ℓ}|, an even-n statement,
    so odd n (and negative n) is refused first.  An incomplete core, or a
    boundary nearer x than ⌈n/2⌉, is refused next, before the transitivity
    check can ask for an assertion that would not help.  It needs room to
    complete w·w⁻¹, so a prefix longer than n/2 is refused, after the rows
    of the shorter ones.

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
    layers = stored_layers(g, x, n // 2, (n + 1) // 2, "conditioned prefix rows")
    _require_transitive(
        g, vertex_transitive,
        "conditioned prefix bound requires a vertex-transitive graph",
    )
    d = g.degree
    # the endpoints x·w of the words of each length, in product order; the
    # guard keeps every slot on the way, which lies within ℓ − 1 < ⌈n/2⌉
    endpoints = [np.array([x])]
    for _ in range(fits):
        endpoints.append(g.slots[endpoints[-1]].ravel())
    at: dict[int, list[int]] = {}  # ℓ -> the counts at those endpoints at step n − ℓ
    walks = _ArrayWalks(g.slots, layers, n, returning=True)
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


def return_domination_reports(
    source: SchreierGraph, n: int, vertex_transitive: bool = False
) -> tuple[DominationReport, ...]:
    """The certificate at each even k = 2..n, read as one exact walk
    stream from the root passes step k: the root's counts at k and k − 2
    and the largest count at any other vertex within distance k.  A core
    streams over ``_hung_trees``, where one row stands for every vertex at
    a depth of the trees hanging at a core vertex.  A graph answers k only
    with its boundary at distance ≥ k, else refuses.  Transitivity is
    asserted or decided as in ``conditioned_prefix_probabilities``."""
    if n < 2 or n % 2:
        raise ValueError("the domination inequalities concern even n >= 2")
    if isinstance(source, CoreGraph):  # never truncated
        slots = _hung_trees(source, n)
        layers, near = bfs_layers(slots, source.root, n), n + 1
    else:
        slots, layers = source.slots, stored_layers(source, source.root, n, 0, "walk counts")
        near = boundary_layer(source, *layers)
    _require_transitive(
        source, vertex_transitive, "the domination inequalities require vertex-transitivity"
    )
    walks = _ArrayWalks(slots, layers, n, exact=True)
    reports = []
    previous = 1  # the one walk of length 0
    for k, counts in enumerate(walks):
        if not k or k % 2:
            continue
        require_room("walk counts", source.root, near, k)
        row = walks.lift(counts[:, 0, : layers[1][k]])
        reports.append(
            DominationReport(
                degree=source.degree,
                n=k,
                return_count=row[0],
                max_other_count=max(row[1:], default=0),
                previous_return_count=previous,
            )
        )
        previous = row[0]
    return tuple(reports)
