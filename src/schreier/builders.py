"""Constructors for Schreier graphs.

Four families cover everything the experiments need: orbits of explicit
permutation actions, seeded random permutation actions, folded subgroup
cores of free groups (with ball completion), and the Lubotzky--Phillips--
Sarnak Ramanujan family.  A small textual spec language exposes all of
them to the command line.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from string import ascii_lowercase
from typing import Iterable, Sequence

import numpy as np

from schreier.core import (
    GenSet,
    GraphInvariantError,
    PermAction,
    SchreierGraph,
    Word,
    canonical_rows,
    canonicalize,
    parse_word,
    reduce_word,
)
from schreier.core import parse as parse_sgf1


def from_perm_action(act: PermAction, base: int = 0) -> SchreierGraph:
    """Orbit of ``base`` as a rooted labeled graph.

    The result realizes the coset graph of the stabilizer of ``base`` in
    the group generated by the action.  Non-transitive actions are fine:
    only the orbit of ``base`` is materialized.  The rows are the
    ``canonical_rows`` of the action's slot array, so the output is
    canonical.
    """
    return SchreierGraph._trusted(gens=act.gens, slots=canonical_rows(act.slots, base)[1])


def restrict_to_orbit(act: PermAction, base: int = 0) -> PermAction:
    """The transitive sub-action on the orbit of ``base`` (point 0 = base),
    points numbered as the vertices of ``from_perm_action``."""
    return PermAction._checked(act.gens, canonical_rows(act.slots, base)[1])


# ---------------------------------------------------------------------------
# Subgroup cores of free groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreGraph:
    """A rooted labeled graph in which some edge slots may be undefined.

    An undefined slot means a regular tree hangs off that vertex in the
    full (usually infinite) graph the core represents, so a core is a
    finite description of the whole graph; ``complete_ball`` materializes
    any finite radius of it.  The wrapped graph flags every vertex with an
    undefined slot as boundary.
    """

    graph: SchreierGraph

    def __post_init__(self) -> None:
        g = self.graph
        partial = (g.slots < 0).any(axis=1)
        flagged = np.isin(np.arange(g.n), list(g.boundary))
        wrong = np.flatnonzero(partial != flagged)
        if wrong.size:
            v = int(wrong[0])
            if partial[v]:
                raise GraphInvariantError(f"core vertex {v} with undefined slots not flagged")
            raise GraphInvariantError(f"complete core vertex {v} flagged as partial")
        if g.truncation_radius is not None:
            raise GraphInvariantError("cores describe complete graphs, not truncations")

    @property
    def gens(self) -> GenSet:
        return self.graph.gens

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def root(self) -> int:
        return self.graph.root

    def missing(self, v: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.graph.slots[v] < 0).tolist())

    @property
    def complete(self) -> bool:
        """True when no slot is undefined (the core is the whole graph)."""
        return not self.graph.boundary

    @classmethod
    def from_table(
        cls, gens: GenSet, table: Sequence[Sequence[int | None]], root: int = 0
    ) -> "CoreGraph":
        boundary = frozenset(
            v for v, row in enumerate(table) if any(w is None for w in row)
        )
        g = SchreierGraph(
            gens=gens,
            next=tuple(tuple(row) for row in table),
            root=root,
            boundary=boundary,
        )
        return cls(canonicalize(g))


def free_core(rank: int) -> CoreGraph:
    """Core of the trivial subgroup: one vertex, every slot undefined."""
    gens = GenSet.free(rank)
    return CoreGraph.from_table(gens, [[None] * gens.degree], root=0)


def stallings_core(gens: GenSet, subgroup_words: Iterable[Word]) -> CoreGraph:
    """Fold a wedge of word loops into the core graph of the subgroup
    the words generate.

    Folding merges the two targets whenever a vertex acquires two
    same-labeled outgoing edges, until the graph is deterministic.  The
    result does not depend on the merge order, and undefined slots are
    exactly the places where the full coset graph continues into a tree.
    """
    if any(gens.inv[l] == l for l in range(gens.degree)):
        raise GraphInvariantError("folding requires a free alphabet (no involutive labels)")
    words = [reduce_word(gens, w) for w in subgroup_words]
    words = [w for w in words if w.letters]

    # Wedge of loops with fresh interior vertices; clashes are resolved by
    # a union-find whose worklist carries pending vertex identifications.
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

    # Indexed by union-find id; a merged-away id keeps no slots, and the
    # canonical search never meets it.  Nothing hangs off the fold, so no
    # trimming is needed: the words are reduced, so every non-root vertex
    # of the wedge has two distinct slots, and merging only unions slot sets.
    root = find(0)
    table = [{l: find(t) for l, t in slots.items()} for slots in out]
    slots = np.array([[row.get(l, -1) for l in range(gens.degree)] for row in table])
    slots = canonical_rows(slots, root)[1]  # the canonical core, root 0
    partial = np.flatnonzero((slots < 0).any(axis=1))
    g = SchreierGraph._trusted(gens=gens, slots=slots, boundary=frozenset(partial.tolist()))
    g.validate()
    return CoreGraph(g)


def complete_ball(
    core: CoreGraph, radius: int, max_vertices: int = 2_000_000
) -> SchreierGraph:
    """The radius-``radius`` ball (around the root) of the graph the core
    describes, with sphere vertices flagged as boundary.

    One level-synchronous pass over the core's slot table numbers the ball
    in ``canonical_rows`` order.  Per layer, the core vertices' targets are
    one gather; an undefined slot, or any slot of a tree vertex but the one
    back to its parent, sprouts a tree vertex; an unseen core target is
    kept at its first occurrence; and the new vertices are numbered in
    (parent, label) order by one ``cumsum``.  Sphere vertices keep their
    edges inside the ball.  If nothing ends up missing, the core already
    described a finite complete graph and the result carries no truncation
    mark.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    g = core.graph
    n, d, inv, labels = g.n, g.degree, np.asarray(g.gens.inv), np.arange(g.degree)
    targets = np.vstack([g.slots, np.full((1, d), -1)])  # row n: a tree vertex
    index = np.full(n + 1, -1, dtype=np.int64)  # core vertex -> ball vertex
    index[g.root] = 0
    # per vertex of the layer: its core vertex (n on a tree), and a tree
    # vertex's parent and the label of its slot back to it (−1 on the core)
    cores, parents, backs = np.array([g.root]), np.array([-1]), np.array([-1])
    rows, first = [], 0  # the layer's vertices are first, first + 1, …
    for _ in range(radius):
        hits = targets[cores]
        back = backs[:, None] == labels
        sprout = (hits < 0) & ~back
        unseen = np.flatnonzero(((hits >= 0) & (index[hits] < 0)).ravel())
        new = sprout.flatten()
        new[unseen[np.unique(hits.ravel()[unseen], return_index=True)[1]]] = True
        size = first + len(cores)
        if size + new.sum() > max_vertices:
            raise ValueError(f"ball of radius {radius} exceeds max_vertices={max_vertices}")
        ids = (size - 1 + np.cumsum(new)).reshape(hits.shape)
        new = new.reshape(hits.shape)
        index[hits[new & ~sprout]] = ids[new & ~sprout]
        rows.append(np.where(back, parents[:, None], np.where(sprout, ids, index[hits])))
        v, l = np.nonzero(new)
        tree = sprout[v, l]
        cores = np.where(tree, n, hits[v, l])
        parents = np.where(tree, first + v, -1)
        backs = np.where(tree, inv[l], -1)
        first = size
    back = backs[:, None] == labels  # a sphere core vertex keeps its edges in the ball
    rows.append(np.where(back, parents[:, None], index[targets[cores]]))
    slots = np.concatenate(rows)
    slots.flags.writeable = False
    boundary = frozenset((first + np.flatnonzero((rows[-1] < 0).any(axis=1))).tolist())
    return SchreierGraph._trusted(
        gens=g.gens,
        slots=slots,
        boundary=boundary,
        truncation_radius=radius if boundary else None,
    )


def tree_core(degree: int) -> CoreGraph:
    """One-vertex core of the degree-regular tree: ⌊d/2⌋ free letter pairs
    a..z, a1..z1, a2..z2, … plus one involutive label when the degree is
    odd, named m, or m0 once the pairs use m (d ≥ 27)."""
    if degree < 2:
        raise ValueError("tree degree must be at least 2")
    names = [
        c + (str(k) if k else "") for k in range(degree // 52 + 1) for c in ascii_lowercase
    ]
    involutions = ("m" if degree < 27 else "m0",) if degree % 2 else ()
    gens = GenSet.with_involutions(names[: degree // 2], involutions)
    return CoreGraph.from_table(gens, [[None] * gens.degree], root=0)


# ---------------------------------------------------------------------------
# Random permutation model
# ---------------------------------------------------------------------------


def _fisher_yates(rng: random.Random, n: int) -> tuple[int, ...]:
    """The shuffle of ``rng.randrange(i + 1)`` draws, by the rejection loop
    ``randrange`` runs (k-bit draws until one is at most i, k the bit length
    of i + 1), inlined one bit-length block i + 1 ∈ [2^(k−1), 2^k) at a time."""
    p = list(range(n))
    bits = rng.getrandbits
    for k in range(n.bit_length(), 1, -1):
        for i in range(min(n, (1 << k) - 1) - 1, (1 << (k - 1)) - 2, -1):
            j = bits(k)
            while j > i:
                j = bits(k)
            p[i], p[j] = p[j], p[i]
    return tuple(p)


def random_perm_action(m: int, n: int, seed: int) -> PermAction:
    """m independent uniform permutations of n points as free-letter images.

    The permutations are drawn by Fisher--Yates from ``random.Random(seed)``
    in label order, so the seed fully determines the action.  Each one and
    its inverse are written straight into the action's slot table.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 generators and n >= 1 points")
    rng = random.Random(seed)
    slots, points = np.empty((n, 2 * m), dtype=np.int64), np.arange(n)
    for i in range(m):
        slots[:, 2 * i] = _fisher_yates(rng, n)
        slots[slots[:, 2 * i], 2 * i + 1] = points
    return PermAction._checked(GenSet.with_involutions(ascii_lowercase[:m]), slots)


def random_perm_model(m: int, n: int, seed: int) -> SchreierGraph:
    """Orbit of 0 under ``random_perm_action``; 2m-regular on ≤ n vertices.

    For a disconnected sample the result is the root component (its actual
    size is ``result.n``).
    """
    return from_perm_action(random_perm_action(m, n, seed), base=0)


# ---------------------------------------------------------------------------
# Small named graphs and finite-group regular actions
# ---------------------------------------------------------------------------


def cycle_graph(n: int) -> SchreierGraph:
    """Cycle on n vertices: one free letter t acting as +1 mod n."""
    if n < 1:
        raise ValueError("cycle needs at least one vertex")
    act = cyclic_action(n)
    return SchreierGraph._trusted(gens=act.gens, slots=act.slots)


def cyclic_action(n: int) -> PermAction:
    points = np.arange(n)
    slots = np.column_stack([(points + 1) % n, (points - 1) % n])
    return PermAction._checked(GenSet(("t", "T"), (1, 0)), slots)


def petersen_graph() -> SchreierGraph:
    """Petersen graph with a Schreier labeling.

    The label a rotates the outer 5-cycle and steps the inner 5 vertices
    by two, so a's functional graph is the outer cycle plus the pentagram;
    the involution m is the spoke matching.  (Three involutions will not
    do: the Petersen graph has no proper 3-edge-coloring.)
    """
    a = tuple((x + 1) % 5 for x in range(5)) + tuple(5 + (x + 2) % 5 for x in range(5))
    m = tuple((x + 5) % 10 for x in range(10))
    act = PermAction.from_generator_perms([a], [m], pair_names="a", involution_names="m")
    return from_perm_action(act, base=0)


def k4_graph() -> SchreierGraph:
    """Complete graph on 4 vertices as three involutive perfect matchings."""
    matchings = [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    act = PermAction.from_generator_perms(
        [], matchings, involution_names=("x", "y", "z")
    )
    return from_perm_action(act, base=0)


def klein_cayley() -> SchreierGraph:
    """Cayley graph of Z/2 x Z/2 on its two standard involutions."""
    x = (1, 0, 3, 2)
    y = (2, 3, 0, 1)
    act = PermAction.from_generator_perms([], [x, y], involution_names=("x", "y"))
    return from_perm_action(act, base=0)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply p first, then q
    return tuple(q[x] for x in p)


def group_closure(generators: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All elements generated by the given permutations, identity first."""
    if not generators:
        raise ValueError("need at least one generator")
    ident = tuple(range(len(generators[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for s in generators:
                y = _compose(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    rest = sorted(seen - {ident})
    return [ident] + rest


def regular_action(
    pair_elements: Sequence[tuple[int, ...]],
    involution_elements: Sequence[tuple[int, ...]] = (),
    pair_names: Sequence[str] | None = None,
    involution_names: Sequence[str] | None = None,
) -> PermAction:
    """Right-multiplication action of a finite permutation group on itself.

    The group is the closure of all given elements; each element then acts
    on the element list by x -> x·s.  Stabilizers are trivial, so the orbit
    graph of the identity is the Cayley graph with respect to the chosen
    labels.
    """
    elements = group_closure(list(pair_elements) + list(involution_elements))
    index = {e: i for i, e in enumerate(elements)}

    def right_mult(s: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(index[_compose(x, s)] for x in elements)

    return PermAction.from_generator_perms(
        [right_mult(s) for s in pair_elements],
        [right_mult(t) for t in involution_elements],
        pair_names=pair_names,
        involution_names=involution_names,
    )


def s3_regular() -> PermAction:
    """Regular action of the symmetric group on 3 points, with every
    non-identity element as a label: the 3-cycle pair c/C and the three
    transpositions."""
    c = (1, 2, 0)
    transpositions = [(1, 0, 2), (2, 1, 0), (0, 2, 1)]
    return regular_action(
        [c], transpositions,
        pair_names=("c",), involution_names=("t01", "t02", "t12"),
    )


def z6_regular() -> PermAction:
    """Regular action of Z/6 with labels +1 (a), +2 (b) and the involution +3."""
    shift = lambda k: tuple((x + k) % 6 for x in range(6))
    return regular_action(
        [shift(1), shift(2)], [shift(3)],
        pair_names=("a", "b"), involution_names=("m",),
    )


def s3_cayley() -> SchreierGraph:
    """Cayley graph of the symmetric group on 3 points with one
    transposition and the 3-cycle pair (3-regular, vertex-transitive)."""
    act = regular_action(
        [(1, 2, 0)], [(1, 0, 2)], pair_names=("c",), involution_names=("t",)
    )
    return from_perm_action(act, base=0)


# ---------------------------------------------------------------------------
# Lubotzky--Phillips--Sarnak graphs
# ---------------------------------------------------------------------------


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _quaternion_solutions(p: int) -> list[tuple[int, int, int, int]]:
    # a0^2 + a1^2 + a2^2 + a3^2 = p with a0 odd positive, a1,a2,a3 even;
    # for p ≡ 1 mod 4 there are exactly p+1 of these (Jacobi).
    bound = math.isqrt(p)
    even = bound - bound % 2  # the even coordinates range over [-even, even]
    sols = set()
    for a0 in range(1, bound + 1, 2):
        for a1 in range(-even, even + 1, 2):
            for a2 in range(-even, even + 1, 2):
                rem = p - a0 * a0 - a1 * a1 - a2 * a2
                if rem < 0:
                    continue
                a3 = math.isqrt(rem)
                if a3 * a3 == rem and a3 % 2 == 0:
                    sols.add((a0, a1, a2, a3))
                    sols.add((a0, a1, a2, -a3))
    return sorted(sols)


def _solve_xy(q: int) -> tuple[int, int]:
    for x in range(q):
        for y in range(q):
            if (x * x + y * y + 1) % q == 0:
                return x, y
    raise ValueError(f"no solution of x^2+y^2+1 = 0 mod {q}")


def _proj_normalize(m: tuple[int, int, int, int], q: int) -> tuple[int, int, int, int]:
    # lexicographically smallest scalar multiple = canonical representative
    # of the projective class: every multiple has the same zero entries, so
    # the least one makes the first nonzero entry 1
    lead = next((e for e in m if e % q), 1)
    scale = pow(lead, -1, q)
    return tuple(scale * e % q for e in m)  # type: ignore[return-value]


def _matmul(a, b, q):
    return (
        (a[0] * b[0] + a[1] * b[2]) % q,
        (a[0] * b[1] + a[1] * b[3]) % q,
        (a[2] * b[0] + a[3] * b[2]) % q,
        (a[2] * b[1] + a[3] * b[3]) % q,
    )


def lps_graph(p: int, q: int) -> SchreierGraph:
    """The (p+1)-regular graph X^{p,q} on PSL(2,q) or PGL(2,q).

    Generators are the p+1 quaternion solutions of a0²+a1²+a2²+a3² = p
    (a0 odd positive, the rest even), sent to projective matrices over
    F_q via a fixed solution of x²+y²+1 = 0; a solution and its conjugate
    give mutually inverse labels.  When p is a quadratic residue mod q the
    generators land in PSL(2,q) (non-bipartite case); otherwise the graph
    doubles to PGL(2,q) and is bipartite.

    Vertex 0 is the identity; the rest are numbered in the (parent, label)
    order of a breadth-first search whose layers are looked up in an id table
    of q³ + q² projective keys (b·q² + c·q + d for a = 1, else q³ + c·q + d).
    """
    for r, name in ((p, "p"), (q, "q")):
        if r < 2 or any(r % k == 0 for k in range(2, math.isqrt(r) + 1)):
            raise ValueError(f"{name}={r} is not prime")
        if r % 4 != 1:
            raise ValueError(f"{name}={r} must be 1 mod 4")
    if p == q:
        raise ValueError("p and q must be distinct")
    if q * q <= 4 * p:
        raise ValueError(f"need q > 2*sqrt(p); got q={q}, p={p}")

    sols = _quaternion_solutions(p)
    if len(sols) != p + 1:
        raise AssertionError(f"expected {p + 1} quaternion solutions, found {len(sols)}")
    x, y = _solve_xy(q)
    mats = []
    for a0, a1, a2, a3 in sols:
        m = (
            (a0 + a1 * x + a3 * y) % q,
            (-a1 * y + a2 + a3 * x) % q,
            (-a1 * y - a2 + a3 * x) % q,
            (a0 - a1 * x - a3 * y) % q,
        )
        if (m[0] * m[3] - m[1] * m[2]) % q != p % q:
            raise AssertionError("generator matrix has wrong determinant")
        mats.append(_proj_normalize(m, q))

    inv = []
    for i, (a0, a1, a2, a3) in enumerate(sols):
        j = sols.index((a0, -a1, -a2, -a3))
        prod = _matmul(mats[i], mats[j], q)
        if prod[1] or prod[2] or prod[0] != prod[3]:
            raise AssertionError("conjugate generator is not the projective inverse")
        inv.append(j)
    gens = GenSet(tuple(f"g{i}" for i in range(p + 1)), tuple(inv))

    inverse = np.array([0, *(pow(e, -1, q) for e in range(1, q))], dtype=np.int64)
    steps = np.array(mats, dtype=np.int64).reshape(-1, 2, 2)
    ids = np.full(q**3 + q * q, -1, dtype=np.int64)
    ids[1] = 0  # the identity (1, 0, 0, 1)
    layer, rows, n = np.array([[1, 0, 0, 1]], dtype=np.int64), [], 1
    while len(layer):
        prod = (layer.reshape(-1, 1, 2, 2) @ steps).reshape(-1, 4)
        a = prod[:, 0] % q  # scale the first nonzero entry, a or else b, to 1
        prod *= inverse[np.where(a > 0, a, prod[:, 1] % q)][:, None]
        prod %= q
        a, b, c, d = prod.T
        key = np.where(a > 0, b * q * q, q**3) + c * q + d
        fresh = np.flatnonzero(ids[key] < 0)
        claim = fresh - len(key) - 1  # below −1: each unseen key keeps its least
        np.minimum.at(ids, key[fresh], claim)
        first = fresh[ids[key[fresh]] == claim]
        ids[key[first]] = np.arange(n, n + len(first))
        n += len(first)
        rows.append(ids[key].reshape(-1, p + 1))
        layer = prod[first]

    order = q * (q * q - 1) // 2 if _legendre(p, q) == 1 else q * (q * q - 1)
    if n != order:
        raise AssertionError(f"orbit size {n} != group order {order}")
    g = SchreierGraph._trusted(gens=gens, slots=np.concatenate(rows))
    g.validate()
    return g


# ---------------------------------------------------------------------------
# Textual builder specs
# ---------------------------------------------------------------------------

SPEC_GRAMMAR = """\
graph spec  := kind [ '@' RADIUS ]          ('@R' completes a core to its R-ball)
kind        := 'cycle:' N
             | 'petersen' | 'k4' | 'klein' | 's3'
             | 'tree:d=' D ',r=' R
             | 'randperm:m=' M ',n=' N ',seed=' S
             | 'lps:p=' P ',q=' Q
             | 'free:rank=' K
             | 'fold:' word (',' word)*     (words over a..z/A..Z; 'rank=K' entry
                                             widens the alphabet beyond the letters used)
             | 'file:' PATH                 (SGF1 file; a core when it has 'b' lines
                                             and no 'truncated' mark)
action spec := 'randperm:m=M,n=N,seed=S' | 'cyclic:N' | 'regular:s3' | 'regular:z6'
"""


def _parse_kv(text: str, keys: Sequence[str], kind: str) -> dict[str, int]:
    values: dict[str, int] = {}
    for part in text.split(","):
        k, sep, v = part.partition("=")
        if not sep or k not in keys:
            raise ValueError(f"bad {kind} spec entry {part!r} (expected {'/'.join(keys)})")
        if k in values:
            raise ValueError(f"repeated {kind} spec entry {part!r} ({k} is already set)")
        values[k] = int(v)
    missing = [k for k in keys if k not in values]
    if missing:
        raise ValueError(f"{kind} spec missing {','.join(missing)}")
    return values


def from_spec(text: str) -> SchreierGraph | CoreGraph:
    """Build a graph from a compact textual description.

    Examples: ``cycle:6``, ``petersen``, ``tree:d=4,r=3``,
    ``randperm:m=2,n=1000,seed=7``, ``lps:p=17,q=13``, ``fold:a^2,b``,
    ``free:rank=2``, ``file:graph.sgf``.  See ``SPEC_GRAMMAR`` for the
    full grammar.  Specs that describe cores (``fold``, ``free``, and a
    file with boundary vertices but no ``truncated`` mark) return a
    CoreGraph unless the ``@R`` suffix asks for the completed ball.
    """
    built, radius = parse_spec(text)
    return built if radius is None else complete_ball(built, radius)


def parse_spec(text: str) -> tuple[SchreierGraph | CoreGraph, int | None]:
    """``from_spec`` without the ball: the graph or core a spec names, and
    the radius R of a ball spec (``@R`` on a core, or ``tree:d=D,r=R``,
    which is ``tree_core(D)`` with radius R), whose ``complete_ball`` is
    the spec's graph; None for every other spec."""
    text = text.strip()
    at: int | None = None  # the '@R' suffix
    if "@" in text:
        text, _, suffix = text.rpartition("@")
        try:
            at = int(suffix)
        except ValueError:
            raise ValueError(f"bad radius suffix {suffix!r}") from None
    kind, sep, rest = text.partition(":")
    radius = at
    result: SchreierGraph | CoreGraph
    if kind == "cycle":
        result = cycle_graph(int(rest))
    elif kind == "petersen" and not sep:
        result = petersen_graph()
    elif kind == "k4" and not sep:
        result = k4_graph()
    elif kind == "klein" and not sep:
        result = klein_cayley()
    elif kind == "s3" and not sep:
        result = s3_cayley()
    elif kind == "tree":
        kv = _parse_kv(rest, ("d", "r"), "tree")
        result, radius = tree_core(kv["d"]), kv["r"]
    elif kind == "randperm":
        kv = _parse_kv(rest, ("m", "n", "seed"), "randperm")
        result = random_perm_model(kv["m"], kv["n"], kv["seed"])
    elif kind == "lps":
        kv = _parse_kv(rest, ("p", "q"), "lps")
        result = lps_graph(kv["p"], kv["q"])
    elif kind == "free":
        kv = _parse_kv(rest, ("rank",), "free")
        result = free_core(kv["rank"])
    elif kind == "fold":
        words: list[str] = []
        rank = 0
        for part in rest.split(","):
            if part.startswith("rank="):
                rank = int(part[5:])
            elif part:
                words.append(part)
        if not words:
            raise ValueError("fold spec needs at least one word")
        used = {c.lower() for w in words for c in w if c.isalpha()}
        if not used:
            raise ValueError(f"no fold spec word names a generator: {', '.join(words)}")
        implied = max(ascii_lowercase.index(c) for c in used) + 1
        gens = GenSet.free(max(rank, implied))
        result = stallings_core(gens, [parse_word(gens, w) for w in words])
    elif kind == "file":
        with open(rest) as fh:
            result = parse_sgf1(fh.read())
        if result.boundary and result.truncation_radius is None:
            result = CoreGraph(result)  # a core, as ``build`` writes one
    else:
        raise ValueError(f"unknown graph spec {text!r}")
    misplaced = "'@radius' applies only to core specs (fold/free)"
    if at is not None and not isinstance(result, CoreGraph):
        raise ValueError(misplaced)
    if radius is not None and radius < 0:
        raise ValueError("radius must be nonnegative")
    if at is not None and kind == "tree":
        raise ValueError(misplaced)
    return result, radius


def action_from_spec(text: str) -> PermAction:
    """Build a permutation action from a compact textual description
    (see ``from_spec``; actions: randperm, cyclic:N, regular:s3, regular:z6)."""
    text = text.strip()
    kind, _, rest = text.partition(":")
    if kind == "randperm":
        kv = _parse_kv(rest, ("m", "n", "seed"), "randperm")
        return random_perm_action(kv["m"], kv["n"], kv["seed"])
    if kind == "cyclic":
        return cyclic_action(int(rest))
    if kind == "regular":
        if rest == "s3":
            return s3_regular()
        if rest == "z6":
            return z6_regular()
        raise ValueError(f"unknown regular action {rest!r}")
    raise ValueError(f"unknown action spec {text!r}")
