"""Test-only references: the two-pass constructions that the one-pass
builders replaced, and hypothesis strategies to compare them on.

- ``bfs_distances`` and ``distance_to_boundary`` run one multi-source
  search over the whole graph, the oracle of ``core.bfs_layers`` and of
  the truncation guards built on it;
- ``shuffled`` renumbers a graph by a given permutation of its vertices;
- ``orbit``, ``from_perm_action``, ``restrict_to_orbit`` and
  ``rooted_orbits`` index an orbit by their own BFS over the permutations;
- ``row_layers`` is ``core.bfs_layers`` over rows, one vertex at a time,
  and ``canonical_rows`` numbers a table of rows by it, and ``serialize`` writes SGF1 one line at a time: the oracles of
  the array numbering and writer of ``core``;
- ``complete_ball`` builds the ball (core vertices by root distance, then
  sprouted tree vertices) and renumbers it with ``canonical_rows``;
- ``count_walks`` steps a full row of walk counts over the stored edges,
  dropping walks through missing slots;
- ``returning_words`` lists the returning words by depth-first search and
  ``segment_distribution`` counts a cyclic segment over the list, the
  oracles of ``walks.segment_distributions``;
- ``tree_ring_counts`` runs the ring recursion of the regular tree;
- ``rho0_dense`` reads ρ₀ off the whole dense Markov spectrum, which the
  Lanczos solver of ``spectral.rho0`` replaced;
- ``cycles_through`` counts the cycles through one vertex by walking out
  of it, the oracle of the identity Σ_v through(v) = L·c_L;
- ``traced_counts`` reads c_1..c_5 off int64 sparse traces of the
  multiplicity matrix and ``enumerated_counts`` walks every cycle out of
  its smallest vertex in Python integers: the two census paths that the
  array sweep of ``cycles.cycle_counts`` replaced;
- ``rows_digest`` hashes the repr of a ball's canonical rows, the digest
  that the endpoint-table classes of ``local._ball_classes`` replaced;
  ``perm_models`` draws actions with involutions, loops and parallel
  edges to compare them on;
- ``tree_ball_class`` is the R-ball of the free product's Cayley tree,
  ``invert_word`` the formal inverse of a word and ``point_mass`` the
  ensemble of one rooted graph;
- ``validate``, ``parse``, ``check_perm_action`` and ``generator_perms``
  are the trust boundaries as loops, one slot, line or point at a time,
  which the array checks of ``core`` replaced;
- ``proj_normalize`` takes the least of all q − 1 scalar multiples, which
  the one-inverse normalization of ``builders.lps_graph`` replaced, and
  ``lps_graph`` numbers the projective matrices by a breadth-first search
  over a dict of 4-tuples, the oracle of that builder's array search;
- ``fisher_yates`` shuffles with ``rng.randrange``, whose rejection draws
  ``builders._fisher_yates`` inlines, and ``random_perm_action`` builds the
  random action by the tuple path that the array table replaced: each
  shuffle and its inverse as tuples, checked by ``PermAction(gens, perms)``;
- ``serialize_table`` writes SGF1 from one byte matrix over the whole
  slot table, the writer that ``core.serialize``'s vertex blocks replaced;
- ``stallings_core`` folds and then trims non-root vertices with at most
  one slot, the pass that ``builders.stallings_core`` dropped;
- ``resolve_support``, ``support_subgroup_graph``, ``averaged_operator``
  and ``product_return_bound`` turn a support into labels once per reader
  (a pairing search, a dense sum per entry, a ``Fraction`` convolution
  point by point), the paths that ``spectral._support_action`` and the
  readers of its table replaced; ``support_actions`` and ``supports`` draw
  actions and supports, defective ones included, to compare them on;
- ``distribution_operator_norm`` reads the averaged operator's norm off
  its dense spectrum, and the dense spectrum of ``averaged_operator`` is
  the oracle of the copies statement: the norm that
  ``spectral.ProductReturnBound`` proves to be 1, and the spectrum that
  ``spectral.support_copies`` proves to be index copies of the subgroup
  graph's;
- ``label_perms`` is each label's permutation as a tuple of Python ints,
  the columns of ``PermAction.slots``;
- ``orbits_apart`` is an action whose two orbits under a support have the
  same size and the same row at their first points, and are copies of
  each other or not as asked;
- ``preset_transitivity`` is a view of a graph whose
  ``vertex_transitive`` is given, not decided: it picks which sweep of
  ``cycles.cycle_counts`` runs, the root-alone one or the all-starts one.
"""

from __future__ import annotations

import hashlib
import random
import re
from collections import deque
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from schreier import builders, core
from schreier.builders import (
    _matmul,
    _proj_normalize,
    _quaternion_solutions,
    _solve_xy,
)
from schreier.core import (
    CoreGraph,
    GenSet,
    GraphInvariantError,
    PermAction,
    SchreierGraph,
    SGF1Error,
    Word,
    reduce_word,
)
from schreier.irs import IrsEnsemble, Provenance
from schreier.local import RootedBall, ball
from schreier.spectral import (
    DENSE_THRESHOLD,
    ProductReturnBound,
    bipartition,
    markov_spectrum,
)


def bfs_distances(g: SchreierGraph, *starts: int) -> tuple[int, ...]:
    """Distance from the nearest of ``starts`` to every vertex (-1 if unreachable)."""
    dist = [-1] * g.n
    for s in starts:
        dist[s] = 0
    queue = deque(starts)
    while queue:
        v = queue.popleft()
        for w in g.next[v]:
            if w is not None and dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return tuple(dist)


def distance_to_boundary(g: SchreierGraph, v: int) -> float:
    """Graph distance from v to the nearest boundary vertex (inf if none)."""
    if not g.boundary:
        return float("inf")
    return bfs_distances(g, *g.boundary)[v]


def row_layers(
    table, start: int, radius: int | None = None
) -> tuple[list[int], list[int]]:
    """``core.bfs_layers`` over rows (None for a missing slot), one vertex
    at a time: the order and layer ends that the array search lists."""
    order, ends, seen = [start], [], {start}
    begin, last = 0, len(table) - 1 if radius is None else radius
    for r in range(last + 1):
        end = len(order)
        if begin == end and radius is None:
            break
        ends.append(end)
        if r < last:
            for v in order[begin:end]:
                for w in table[v]:
                    if w is not None and w not in seen:
                        seen.add(w)
                        order.append(w)
        begin = end
    return order, ends


def canonical_rows(
    table, root: int, radius: int | None = None
) -> tuple[dict[int, int], tuple[tuple[int | None, ...], ...]]:
    """The old-to-new index in ``bfs_layers`` order from ``root`` and the
    renumbered rows; with a radius, a vertex at depth R keeps just its
    slots back to depth R − 1."""
    order, ends = row_layers(table, root, radius)
    index = dict(zip(order, range(len(order))))
    sphere = len(order) if radius is None else (0, *ends)[radius]
    rows = [tuple(map(index.get, table[v])) for v in order[:sphere]]
    if sphere < len(order):
        inner = dict(zip(order[:sphere], range(sphere)))
        rows += [tuple(map(inner.get, table[v])) for v in order[sphere:]]
    return index, tuple(rows)


def serialize(g: SchreierGraph) -> str:
    lines = ["SGF1", f"gens {g.degree}"]
    for i, name in enumerate(g.gens.labels):
        lines.append(f"label {i} {name} inv {g.gens.inv[i]}")
    head = f"vertices {g.n} root {g.root}"
    if g.truncation_radius is not None:
        head += f" truncated {g.truncation_radius}"
    lines.append(head)
    for v, row in enumerate(g.next):
        for l, w in enumerate(row):
            if w is not None:
                lines.append(f"e {v} {l} {w}")
    for v in sorted(g.boundary):
        lines.append(f"b {v}")
    return "\n".join(lines) + "\n"


def shuffled(g: SchreierGraph, numbering) -> SchreierGraph:
    """g, of the same type, with vertex v renumbered ``numbering[v]``."""
    table = [()] * g.n
    for v, row in enumerate(g.next):
        table[numbering[v]] = tuple(None if w is None else numbering[w] for w in row)
    return type(g)(
        gens=g.gens,
        next=tuple(table),
        root=numbering[g.root],
        boundary=frozenset(numbering[v] for v in g.boundary),
        truncation_radius=g.truncation_radius,
    )


def label_perms(act: PermAction) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, act.slots.T.tolist()))


def orbit(act: PermAction, base: int) -> list[int]:
    rows = act.slots.tolist()
    seen = {base}
    order = [base]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for y in rows[x]:
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


def from_perm_action(act: PermAction, base: int = 0) -> SchreierGraph:
    order = orbit(act, base)
    index = {x: i for i, x in enumerate(order)}
    rows = act.slots.tolist()
    table = tuple(tuple(index[y] for y in rows[x]) for x in order)
    return SchreierGraph(gens=act.gens, next=table)


def restrict_to_orbit(act: PermAction, base: int = 0) -> PermAction:
    order = orbit(act, base)
    index = {x: i for i, x in enumerate(order)}
    perms = tuple(tuple(index[p[x]] for x in order) for p in label_perms(act))
    return PermAction(act.gens, perms)


def rooted_orbits(act: PermAction, points) -> list[tuple[tuple, int]]:
    """(table, root) of each point's orbit graph, the table numbered from
    the first point of the orbit met."""
    where: dict[int, tuple[tuple, int]] = {}
    out = []
    for x in points:
        if x not in where:
            table = from_perm_action(act, base=x).next
            where.update((y, (table, i)) for i, y in enumerate(orbit(act, x)))
        out.append(where[x])
    return out


def complete_ball(
    g: CoreGraph, radius: int, max_vertices: int = 2_000_000
) -> SchreierGraph:
    d, inv = g.degree, g.gens.inv
    dist = bfs_distances(g, g.root)
    kept = [v for v in range(g.n) if dist[v] <= radius]
    index = {v: i for i, v in enumerate(kept)}
    table: list[list[int | None]] = []
    depth: list[int] = []
    for v in kept:
        table.append([None if w is None else index.get(w) for w in g.next[v]])
        depth.append(dist[v])
    sprout = deque(
        i for i in range(len(table))
        if depth[i] < radius and any(s is None for s in table[i])
    )
    while sprout:
        i = sprout.popleft()
        for l in range(d):
            if table[i][l] is not None:
                continue
            if len(table) >= max_vertices:
                raise ValueError(f"exceeds max_vertices={max_vertices}")
            j = len(table)
            row: list[int | None] = [None] * d
            row[inv[l]] = i
            table.append(row)
            depth.append(depth[i] + 1)
            table[i][l] = j
            if depth[j] < radius:
                sprout.append(j)
    _, rows = canonical_rows(table, index[g.root])
    boundary = frozenset(i for i, row in enumerate(rows) if None in row)
    return SchreierGraph(
        gens=g.gens,
        next=rows,
        boundary=boundary,
        truncation_radius=radius if boundary else None,
    )


def rows_digest(gens: GenSet, table, v: int, radius: int) -> str:
    """SHA-256 of the repr of the radius, the alphabet and the canonical
    rows of v's R-ball in ``table``, also near a truncation boundary."""
    rows = canonical_rows(table, v, radius)[1]
    return hashlib.sha256(repr((radius, gens.labels, gens.inv, rows)).encode()).hexdigest()


def tree_ball_class(gens: GenSet, radius: int) -> RootedBall:
    """The R-ball class of the Cayley graph of the free product the
    alphabet presents (free letters contribute Z factors, involutive
    letters C₂ factors): a regular tree with single involution edges."""
    core = CoreGraph.from_table(gens, [[None] * gens.degree], root=0)
    g = complete_ball(core, radius)
    return ball(g, g.root, radius)


def invert_word(gens: GenSet, word: Word) -> Word:
    return Word(tuple(gens.inv[letter] for letter in reversed(word.letters)))


def point_mass(g: SchreierGraph) -> IrsEnsemble:
    return IrsEnsemble(
        gens=g.gens,
        samples=(g,),
        weights=(Fraction(1),),
        kind="exact",
        provenance=Provenance(source="point mass", seed=None),
    )


def count_walks(g: SchreierGraph, x: int, horizon: int) -> tuple[tuple[int, ...], ...]:
    """Row n holds the number of length-n walks from x to each vertex."""
    row = [0] * g.n
    row[x] = 1
    rows = [tuple(row)]
    for _ in range(horizon):
        nxt = [0] * g.n
        for v, c in enumerate(row):
            if c:
                for w in g.next[v]:
                    if w is not None:
                        nxt[w] += c
        row = nxt
        rows.append(tuple(row))
    return tuple(rows)


def returning_words(g: SchreierGraph, x: int, n: int) -> list[tuple[int, ...]]:
    """The label sequences of length n whose walk from x returns to x, by
    depth-first search; a walk farther from x than its remaining steps is
    pruned."""
    dist = bfs_distances(g, x)
    words: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def extend(v: int, remaining: int) -> None:
        if remaining == 0:
            if v == x:
                words.append(tuple(prefix))
            return
        for l, w in enumerate(g.next[v]):
            if w is not None and dist[w] <= remaining - 1:
                prefix.append(l)
                extend(w, remaining - 1)
                prefix.pop()

    extend(x, n)
    return words


def segment_distribution(
    words: list[tuple[int, ...]], n: int, t: int, k: int
) -> dict[tuple[int, ...], Fraction]:
    """Law of the cyclic segment (a_t, …, a_{t+k−1}), indices mod n, of a
    uniform word of the list."""
    freq: dict[tuple[int, ...], int] = {}
    for w in words:
        seg = tuple(w[(t + i) % n] for i in range(k))
        freq[seg] = freq.get(seg, 0) + 1
    return {seg: Fraction(c, len(words)) for seg, c in freq.items()}


def tree_ring_counts(degree: int, horizon: int) -> list[tuple[int, ...]]:
    rings = [0] * (horizon + 2)
    rings[0] = 1
    table = [tuple(rings[: horizon + 1])]
    for _ in range(horizon):
        nxt = [0] * (horizon + 2)
        nxt[0] = rings[1]
        nxt[1] = degree * rings[0] + rings[2]
        for j in range(2, horizon + 1):
            nxt[j] = (degree - 1) * rings[j - 1] + rings[j + 1]
        rings = nxt
        table.append(tuple(rings[: horizon + 1]))
    return table


def cycles_through(g: SchreierGraph, v: int, length: int) -> int:
    """Cycles of the given length containing the vertex ``v``, in the
    multigraph the slot table spells: a non-loop edge has exactly one slot
    at each end, a letter pair's fixed point is one loop on two slots and an
    involution's fixed point one loop on one.  For L ≥ 3 every cycle is
    walked out of v once in each direction."""
    inv = g.gens.inv

    def mult(a: int, b: int) -> int:
        return sum(1 for w in g.next[a] if w == b)

    if length == 1:
        fixed = [l for l, w in enumerate(g.next[v]) if w == v]
        return sum(2 if inv[l] == l else 1 for l in fixed) // 2
    neighbours = {w for w in g.next[v] if w is not None and w != v}
    if length == 2:
        return sum(mult(v, w) * (mult(v, w) - 1) // 2 for w in neighbours)
    total = 0

    def walk(x: int, depth: int, weight: int, path: set[int]) -> None:
        nonlocal total
        if depth == length - 1:
            total += weight * mult(x, v)
            return
        for y in {w for w in g.next[x] if w is not None} - path:
            walk(y, depth + 1, weight * mult(x, y), path | {y})

    walk(v, 0, 1, {v})
    return total // 2


def multigraph(g: SchreierGraph) -> tuple[np.ndarray, sp.csr_matrix]:
    """Loop counts per vertex and the loopless multiplicity matrix W (w_uv
    parallel edges between u ≠ v); a missing slot (−1) contributes no edge."""
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


def traced_counts(g: SchreierGraph, lmax: int) -> tuple[int, ...]:
    """c_1..c_lmax, lmax ≤ 5, by the weighted identities of Harary–Manvel
    (1971) in the sparse form of Alon–Yuster–Zwick (1997), s = diag(W²):
    c_1 counts loops, c_2 = Σ_{u<v} C(w_uv, 2), c_3 = tr W³/6,
    c_4 = (Σ (W²)_uv² − 2 Σ_v s_v² + Σ w_uv⁴)/8 and
    c_5 = (Σ (W²)_uv (W³)_uv − 5 Σ_v s_v (W³)_vv + 5 Σ w_uv³ (W²)_uv)/10.
    Each sum is at most n·d⁵, which the small test graphs keep in int64."""
    assert lmax <= 5 and g.n * g.degree**5 < 2**63
    loops, w = multigraph(g)
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
    return tuple(counts[:lmax])


def enumerated_counts(g: SchreierGraph, lmax: int) -> tuple[int, ...]:
    """c_1..c_lmax: c_1 and c_2 from the multiplicity matrix, and for L ≥ 3
    each cycle as a path out of its smallest vertex s closed by an edge back
    to s; its reflection is killed by requiring the first step to be smaller
    than the last, and edge multiplicities multiply along the way."""
    loops, w = multigraph(g)
    indptr, indices, data = w.indptr.tolist(), w.indices.tolist(), w.data.tolist()
    counts = [0, int(loops.sum()), sum(m * (m - 1) for m in data) // 4] + [0] * lmax
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
    return tuple(counts[1 : lmax + 1])


class DenseRho0(NamedTuple):
    rho0: float
    rho0_nonneg: float
    rho0_strict: float
    bipartite: bool


def rho0_dense(g: SchreierGraph) -> DenseRho0:
    """ρ₀, the largest nontrivial eigenvalue and the strict reading (the
    bipartite −1 dropped), from every eigenvalue of M."""
    bip = bipartition(g) is not None
    if g.n == 1:
        return DenseRho0(0.0, 0.0, 0.0, bip)
    evs = markov_spectrum(g)
    if evs[-2] > 1 - 1e-12:
        raise GraphInvariantError(
            "eigenvalue 1 is not simple; the graph cannot be connected"
        )
    if bip and abs(evs[0] + 1.0) > 1e-8:
        raise GraphInvariantError("bipartite graph without a −1 eigenvalue")
    strict_low = float(evs[1]) if bip else float(evs[0])
    return DenseRho0(
        rho0=max(abs(float(evs[0])), abs(float(evs[-2]))),
        rho0_nonneg=float(evs[-2]),
        rho0_strict=max(abs(strict_low), abs(float(evs[-2]))),
        bipartite=bip,
    )


def validate(g: SchreierGraph) -> None:
    n, d, inv = len(g.next), g.gens.degree, g.gens.inv
    if n == 0:
        raise GraphInvariantError("graph has no vertices")
    if not 0 <= g.root < n:
        raise GraphInvariantError(f"root {g.root} out of range")
    for v in g.boundary:
        if not 0 <= v < n:
            raise GraphInvariantError(f"boundary vertex {v} out of range")
    for v, row in enumerate(g.next):
        if len(row) != d:
            raise GraphInvariantError(f"vertex {v} has {len(row)} slots, expected {d}")
        for l, w in enumerate(row):
            if w is None:
                if v not in g.boundary:
                    raise GraphInvariantError(
                        f"interior vertex {v} missing edge slot {g.gens.labels[l]}"
                    )
                continue
            if not 0 <= w < n:
                raise GraphInvariantError(f"edge target {w} out of range")
            if g.next[w][inv[l]] != v:
                raise GraphInvariantError(
                    f"label-consistency violated at edge ({v},{g.gens.labels[l]})"
                )
    dist = bfs_distances(g, g.root)
    if -1 in dist:
        v = dist.index(-1)
        raise GraphInvariantError(f"graph not connected from root: vertex {v} unreachable")


def parse(text: str) -> SchreierGraph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines or lines[0] != "SGF1":
        raise SGF1Error("missing SGF1 magic line")
    pos = 1

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise SGF1Error("unexpected end of input")
        line = lines[pos]
        pos += 1
        return line

    m = re.fullmatch(r"gens (\d+)", take())
    if not m:
        raise SGF1Error("malformed gens line")
    d = int(m.group(1))
    labels: list[str | None] = [None] * d
    inv: list[int | None] = [None] * d
    for _ in range(d):
        m = re.fullmatch(r"label (\d+) (\S+) inv (\d+)", take())
        if not m:
            raise SGF1Error("malformed label line")
        i, name, j = int(m.group(1)), m.group(2), int(m.group(3))
        if not (0 <= i < d and 0 <= j < d):
            raise SGF1Error(f"label index out of range in {name!r}")
        if labels[i] is not None:
            raise SGF1Error(f"duplicate label index {i}")
        labels[i], inv[i] = name, j
    if any(x is None for x in labels):
        raise SGF1Error("missing label line")
    gens = GenSet(tuple(labels), tuple(inv))  # type: ignore[arg-type]

    m = re.fullmatch(r"vertices (\d+) root (\d+)(?: truncated (\d+))?", take())
    if not m:
        raise SGF1Error("malformed vertices line")
    n, root = int(m.group(1)), int(m.group(2))
    radius = int(m.group(3)) if m.group(3) is not None else None

    table: list[list[int | None]] = [[None] * d for _ in range(n)]
    boundary: set[int] = set()
    while pos < len(lines):
        line = take()
        if line.startswith("e "):
            m = re.fullmatch(r"e (\d+) (\d+) (\d+)", line)
            if not m:
                raise SGF1Error(f"malformed edge line {line!r}")
            v, l, w = (int(x) for x in m.groups())
            if not (0 <= v < n and 0 <= w < n and 0 <= l < d):
                raise SGF1Error(f"edge line out of range: {line!r}")
            if table[v][l] is not None:
                raise SGF1Error(f"duplicate edge slot ({v},{gens.labels[l]})")
            table[v][l] = w
        elif line.startswith("b "):
            m = re.fullmatch(r"b (\d+)", line)
            if not m:
                raise SGF1Error(f"malformed boundary line {line!r}")
            v = int(m.group(1))
            if not 0 <= v < n:
                raise SGF1Error(f"boundary vertex {v} out of range")
            boundary.add(v)
        else:
            raise SGF1Error(f"unrecognized line {line!r}")
    # ``b`` lines with no ``truncated`` mark describe a core
    kind = CoreGraph if boundary and radius is None else SchreierGraph
    g = kind._trusted(
        gens=gens,
        next=tuple(tuple(row) for row in table),
        root=root,
        boundary=frozenset(boundary),
        truncation_radius=radius,
    )
    try:
        validate(g)
        complete = [v for v in sorted(boundary) if None not in g.next[v]]
        if kind is CoreGraph and complete:
            raise GraphInvariantError(f"complete core vertex {complete[0]} flagged as partial")
    except GraphInvariantError as exc:
        raise SGF1Error(str(exc)) from exc
    return g


def check_perm_action(gens: GenSet, perms) -> None:
    d = gens.degree
    if len(perms) != d:
        raise GraphInvariantError(f"expected {d} permutations, got {len(perms)}")
    n = len(perms[0])
    if n == 0:
        raise GraphInvariantError("an action needs at least one point")
    for l, p in enumerate(perms):
        if len(p) != n or sorted(p) != list(range(n)):
            raise GraphInvariantError(f"label {gens.labels[l]} does not act by a permutation")
    for l in range(d):
        q = perms[gens.inv[l]]
        p = perms[l]
        for x in range(n):
            if q[p[x]] != x:
                raise GraphInvariantError(
                    f"label {gens.labels[l]}: inverse label does not act "
                    "by the inverse permutation"
                )


def generator_perms(pair_perms, involution_perms=()) -> tuple[tuple[int, ...], ...]:
    """The permutations of ``PermAction.from_generator_perms``, each pair
    inverted point by point."""
    perms: list[tuple[int, ...]] = []
    for p in pair_perms:
        p = tuple(p)
        q = [0] * len(p)
        for x, y in enumerate(p):
            q[y] = x
        perms += [p, tuple(q)]
    for p in involution_perms:
        p = tuple(p)
        if any(p[p[x]] != x for x in range(len(p))):
            raise GraphInvariantError("involution generator is not an involution")
        perms.append(p)
    return tuple(perms)


def proj_normalize(m: tuple[int, int, int, int], q: int) -> tuple[int, int, int, int]:
    return min(tuple((lam * e) % q for e in m) for lam in range(1, q))


def lps_graph(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The slot rows of X^{p,q}: the builder's generators, numbered in
    (parent, label) order by a queue and a dict of normalized 4-tuples."""
    x, y = _solve_xy(q)
    mats = [
        _proj_normalize(
            (a0 + a1 * x + a3 * y, -a1 * y + a2 + a3 * x, -a1 * y - a2 + a3 * x,
             a0 - a1 * x - a3 * y),
            q,
        )
        for a0, a1, a2, a3 in _quaternion_solutions(p)
    ]
    ident = (1, 0, 0, 1)
    index = {ident: 0}
    verts = [ident]
    table = []
    for v in verts:  # the list grows as the search goes: a queue
        row = []
        for g in mats:
            w = _proj_normalize(_matmul(v, g, q), q)
            if w not in index:
                index[w] = len(verts)
                verts.append(w)
            row.append(index[w])
        table.append(tuple(row))
    return tuple(table)


def fisher_yates(rng, n: int) -> tuple[int, ...]:
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        p[i], p[j] = p[j], p[i]
    return tuple(p)


def random_perm_action(m: int, n: int, seed: int) -> PermAction:
    rng = random.Random(seed)
    perms = generator_perms([fisher_yates(rng, n) for _ in range(m)])
    return PermAction(GenSet.free(m), perms)


def serialize_table(g: SchreierGraph) -> str:
    def digits(top: int) -> np.ndarray:
        powers = 10 ** np.arange(len(str(max(top - 1, 0))) - 1, -1, -1)
        x = np.arange(max(top, 1))[:, None] // powers
        rows = (x % 10 + ord("0")).astype(np.uint8)
        rows[:, :-1][x[:, :-1] == 0] = 0
        return rows

    def text_lines(lead: str, *columns: np.ndarray) -> str:
        cell = lambda char: np.full((len(columns[0]), 1), ord(char), dtype=np.uint8)
        parts = [cell(lead)]
        for column in columns:
            parts += [cell(" "), column]
        text = np.hstack([*parts, cell("\n")]).ravel()
        return text[text > 0].tobytes().decode("ascii")

    lines = ["SGF1", f"gens {g.degree}"]
    for i, name in enumerate(g.gens.labels):
        lines.append(f"label {i} {name} inv {g.gens.inv[i]}")
    head = f"vertices {g.n} root {g.root}"
    if g.truncation_radius is not None:
        head += f" truncated {g.truncation_radius}"
    lines.append(head)
    vertex = digits(g.n)
    v, l = np.nonzero(g.slots >= 0)
    return "".join([
        "\n".join(lines) + "\n",
        text_lines("e", vertex[v], digits(g.degree)[l], vertex[g.slots[v, l]]),
        text_lines("b", vertex[sorted(g.boundary)]),
    ])


def stallings_core(gens: GenSet, subgroup_words) -> CoreGraph:
    """The fold of ``builders.stallings_core`` followed by its former pass
    that trims non-root vertices with at most one defined slot."""
    if any(gens.inv[l] == l for l in range(gens.degree)):
        raise GraphInvariantError("folding requires a free alphabet (no involutive labels)")
    words = [reduce_word(gens, w) for w in subgroup_words]
    words = [w for w in words if w.letters]
    n_vertices = 1
    edges: list[tuple[int, int, int]] = []
    for w in words:
        prev = 0
        for i, letter in enumerate(w.letters):
            if i == len(w.letters) - 1:
                nxt = 0
            else:
                nxt = n_vertices
                n_vertices += 1
            edges.append((prev, letter, nxt))
            prev = nxt
    parent = list(range(n_vertices))
    size = [1] * n_vertices

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out: list[dict[int, int]] = [{} for _ in range(n_vertices)]
    pending: deque[tuple[int, int]] = deque()

    def add_slot(u: int, l: int, v: int) -> None:
        u = find(u)
        w = out[u].get(l)
        if w is None:
            out[u][l] = v
        else:
            pending.append((w, v))

    for u, l, v in edges:
        add_slot(u, l, v)
        add_slot(v, gens.inv[l], u)
    while pending:
        x, y = pending.popleft()
        x, y = find(x), find(y)
        if x == y:
            continue
        if size[x] < size[y]:
            x, y = y, x
        parent[y] = x
        size[x] += size[y]
        merged = out[y]
        out[y] = {}
        for l, t in merged.items():
            add_slot(x, l, t)
    root = find(0)
    table = [{l: find(t) for l, t in slots.items()} for slots in out]
    degree = [len(slots) for slots in table]
    trim = deque(r for r in range(n_vertices) if r != root and degree[r] <= 1)
    while trim:
        v = trim.popleft()
        for l, t in table[v].items():
            del table[t][gens.inv[l]]
            degree[t] -= 1
            if t != root and degree[t] <= 1:
                trim.append(t)
        table[v] = {}
    slots = np.array([[row.get(l, -1) for l in range(gens.degree)] for row in table])
    slots = core.canonical_rows(slots, root)[1]
    partial = np.flatnonzero((slots < 0).any(axis=1))
    g = CoreGraph._trusted(gens=gens, slots=slots, boundary=frozenset(partial.tolist()))
    g.validate()
    return g


def resolve_support(gens: GenSet, support) -> list[int | None]:
    out: list[int | None] = []
    for entry in support:
        if entry is None or entry == "e":
            out.append(None)
        elif isinstance(entry, str):
            out.append(gens.index(entry))
        else:
            if not 0 <= entry < gens.degree:
                raise ValueError(f"label index {entry} out of range")
            out.append(entry)
    if not out:
        raise ValueError("support is empty")
    for l in set(out):
        if l is not None and out.count(l) != out.count(gens.inv[l]):
            raise ValueError(
                f"support is not symmetric: {gens.labels[l]!r} and its inverse "
                "appear a different number of times"
            )
    return out


def averaged_operator(act: PermAction, support) -> np.ndarray:
    """The averaged operator as a dense sum, one entry's weight at a time."""
    if act.degree > DENSE_THRESHOLD:
        raise ValueError("the averaged operator is dense; degree too large")
    entries = resolve_support(act.gens, support)
    n = act.degree
    A = np.zeros((n, n))
    weight = 1.0 / len(entries)
    for entry in entries:
        if entry is None:
            A[np.arange(n), np.arange(n)] += weight
        else:
            A[np.arange(n), act.slots[:, entry]] += weight
    return A


def distribution_operator_norm(act: PermAction, support) -> float:
    """Operator norm of the averaged operator on the full point space
    (constants included), from its dense spectrum."""
    evs = np.linalg.eigvalsh(averaged_operator(act, support))
    return float(max(abs(evs[0]), abs(evs[-1])))


def support_subgroup_graph(act: PermAction, support, base: int = 0) -> SchreierGraph:
    """The support's own alphabet, paired entry by entry by a search for
    each entry's first later unpaired inverse."""
    entries = resolve_support(act.gens, support)
    names: list[str] = []
    inv: list[int] = []
    paired: list[int | None] = [None] * len(entries)
    seen: dict[str, int] = {}

    def fresh(stem: str) -> str:
        seen[stem] = seen.get(stem, 0) + 1
        return stem if seen[stem] == 1 else f"{stem}_{seen[stem]}"

    for i, entry in enumerate(entries):
        if paired[i] is not None:
            continue
        if entry is None or act.gens.inv[entry] == entry:
            stem = "e" if entry is None else act.gens.labels[entry]
            names.append(fresh(stem))
            inv.append(len(names) - 1)
            paired[i] = len(names) - 1
        else:
            partner = next(
                j
                for j in range(i + 1, len(entries))
                if paired[j] is None and entries[j] == act.gens.inv[entry]
            )
            k = len(names)
            names += [fresh(act.gens.labels[entry]), fresh(act.gens.labels[entries[partner]])]
            inv += [k + 1, k]
            paired[i] = k
            paired[partner] = k + 1
    order = sorted(range(len(entries)), key=lambda i: paired[i])
    identity = np.arange(act.degree)
    slots = np.column_stack([
        identity if entries[i] is None else act.slots[:, entries[i]] for i in order
    ])
    sub = PermAction._checked(GenSet(tuple(names), tuple(inv)), slots)
    return builders.from_perm_action(sub, base=base)


def product_return_bound(act: PermAction, supports, base: int = 0) -> ProductReturnBound:
    """The convolution in ``Fraction``s, point by point."""
    if not supports:
        raise ValueError("need at least one support")
    dist = [Fraction(0)] * act.degree
    dist[base] = Fraction(1)
    for support in supports:
        entries = resolve_support(act.gens, support)
        nxt = [Fraction(0)] * act.degree
        w = Fraction(1, len(entries))
        for entry in entries:
            if entry is None:
                for x, p in enumerate(dist):
                    nxt[x] += p * w
            else:
                perm = act.slots[:, entry].tolist()
                for x, p in enumerate(dist):
                    if p:
                        nxt[perm[x]] += p * w
        dist = nxt
    norms = tuple(distribution_operator_norm(act, s) for s in supports)
    return ProductReturnBound(degree=act.degree, probability=dist[base], norms=norms)


def orbits_apart(copies: bool) -> PermAction:
    """Eight points, a = (0 1 2 3)(4 5 6 7) and an involution m with
    m(0) = 2 and m(4) = 6: the orbits of the support {a, A, m} have four
    points each.  m = (4 6) on the second orbit; on the first it is (0 2)
    too if ``copies``, else (0 2)(1 3), which moves every point."""
    first = (2, 1, 0, 3) if copies else (2, 3, 0, 1)
    return PermAction.from_generator_perms(
        [(1, 2, 3, 0, 5, 6, 7, 4)], [first + (6, 5, 4, 7)],
        pair_names="a", involution_names="m",
    )


@st.composite
def folded_words(draw, rank: int) -> list[Word]:
    """1-3 words of length 1-8 over the free alphabet of the given rank."""
    letters = st.lists(st.integers(0, 2 * rank - 1), min_size=1, max_size=8)
    return draw(st.lists(letters.map(lambda ls: Word(tuple(ls))), min_size=1, max_size=3))


@st.composite
def perm_models(draw) -> PermAction:
    """Uniform permutations of 1-12 points by 1-3 labels, each a letter
    pair or an involution: fixed points give loops, and letters that agree
    at a point give parallel edges.  Orbits are not restricted."""
    n = draw(st.integers(1, 12))
    labels = draw(st.integers(1, 3))
    pairs = draw(st.integers(0, labels))
    pair_perms = [draw(st.permutations(range(n))) for _ in range(pairs)]
    involution_perms = []
    for _ in range(labels - pairs):
        points, swap = draw(st.permutations(range(n))), list(range(n))
        for x, y in zip(points[0::2], points[1::2]):
            if draw(st.booleans()):
                swap[x], swap[y] = y, x
        involution_perms.append(swap)
    return PermAction.from_generator_perms(pair_perms, involution_perms)


@st.composite
def sparse_actions(draw) -> PermAction:
    """Actions on 1-14 points by 0-2 letter pairs and 0-2 involutions, at
    least one label.  Pair permutations fix most points and involutions
    swap few, so most actions have several orbits."""
    n = draw(st.integers(1, 14))
    pairs = draw(st.integers(0, 2))
    involutions = draw(st.integers(0 if pairs else 1, 2))

    def sparse_perm(cycle_length: int) -> list[int]:
        p = list(range(n))
        moved = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n // 2 + 1))
        for i in range(0, len(moved) - cycle_length + 1, cycle_length):
            block = moved[i : i + cycle_length]
            for x, y in zip(block, block[1:] + block[:1]):
                p[x] = y
        return p

    pair_perms = [sparse_perm(draw(st.integers(2, 3))) for _ in range(pairs)]
    involution_perms = [sparse_perm(2) for _ in range(involutions)]
    return PermAction.from_generator_perms(pair_perms, involution_perms)


@st.composite
def support_actions(draw) -> PermAction:
    """The regular actions of S3 and Z/6, a cyclic action on 1-60 points, or
    a random action by 1-3 letter pairs on 1-60 points."""
    kind = draw(st.sampled_from(["s3", "z6", "cyclic", "randperm"]))
    if kind == "s3":
        return builders.s3_regular()
    if kind == "z6":
        return builders.z6_regular()
    if kind == "cyclic":
        return builders.cyclic_action(draw(st.integers(1, 60)))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 60))
    return builders.random_perm_action(m, n, draw(st.integers(0, 2**16)))


@st.composite
def supports(draw, gens: GenSet, defects: bool = False) -> list:
    """A shuffled symmetric multiset of labels, as names or indices, and
    identities, as None or "e": 0-2 copies of each involution, of each
    letter pair and of the identity, at least one entry.  With ``defects``,
    it may instead be empty, or hold an unknown name, an index out of range
    or one unpaired letter."""
    def entry(l: int):
        return draw(st.sampled_from([l, gens.labels[l]]))

    support: list = []
    for l in range(gens.degree):
        partner = gens.inv[l]
        if partner >= l:
            for _ in range(draw(st.integers(0, 2))):
                support += [entry(l)] if partner == l else [entry(l), entry(partner)]
    support += [draw(st.sampled_from([None, "e"])) for _ in range(draw(st.integers(0, 2)))]
    if not support:
        support.append(None)
    kinds = ["none"] * 4 + ["empty", "unknown", "range", "unpaired"]
    defect = draw(st.sampled_from(kinds)) if defects else "none"
    if defect == "none":
        pass
    elif defect == "empty":
        support = []
    elif defect == "unknown":
        support.append("zz")
    elif defect == "range":
        support.append(draw(st.sampled_from([-1, gens.degree, gens.degree + 3])))
    else:
        letters = [l for l in range(gens.degree) if gens.inv[l] != l]
        if letters:
            support.append(entry(draw(st.sampled_from(letters))))
    return list(draw(st.permutations(support)))


def preset_transitivity(g: SchreierGraph, transitive: bool) -> SchreierGraph:
    """g's table, root and boundary, with ``vertex_transitive`` preset."""
    return type(g)._trusted(
        gens=g.gens, slots=g.slots, root=g.root, boundary=g.boundary,
        truncation_radius=g.truncation_radius, vertex_transitive=transitive,
    )
