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
    ``canonical_rows`` of the action's table, so the output is canonical.
    """
    _, rows = canonical_rows(act.table, base)
    return SchreierGraph._trusted(gens=act.gens, next=rows)


def restrict_to_orbit(act: PermAction, base: int = 0) -> PermAction:
    """The transitive sub-action on the orbit of ``base`` (point 0 = base),
    points numbered as the vertices of ``from_perm_action``."""
    _, rows = canonical_rows(act.table, base)
    return PermAction(act.gens, tuple(zip(*rows)))


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
        for v, row in enumerate(g.next):
            has_missing = any(w is None for w in row)
            if has_missing and v not in g.boundary:
                raise GraphInvariantError(f"core vertex {v} with undefined slots not flagged")
            if not has_missing and v in g.boundary:
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
        return tuple(l for l, w in enumerate(self.graph.next[v]) if w is None)

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

    root = find(0)
    reps = sorted({find(v) for v in range(n_vertices)})
    table: dict[int, dict[int, int]] = {
        r: {l: find(t) for l, t in out[r].items()} for r in reps
    }

    # Trim hanging paths: a non-root vertex with a single defined slot
    # carries no loop of the subgroup and is not part of the core.
    degree = {r: len(table[r]) for r in reps}
    trim = deque(r for r in reps if r != root and degree[r] <= 1)
    dead: set[int] = set()
    while trim:
        v = trim.popleft()
        if v in dead or v == root or degree[v] > 1:
            continue
        dead.add(v)
        for l, t in table[v].items():
            del table[t][gens.inv[l]]
            degree[t] -= 1
            if t != root and degree[t] <= 1:
                trim.append(t)
        table[v] = {}

    # trimmed vertices keep no slots, so the canonical BFS never reaches them
    slots = {r: [table[r].get(l) for l in range(gens.degree)] for r in reps}
    return CoreGraph.from_table(gens, canonical_rows(slots, root)[1])


def complete_ball(
    core: CoreGraph, radius: int, max_vertices: int = 2_000_000
) -> SchreierGraph:
    """The radius-``radius`` ball (around the root) of the graph the core
    describes, with sphere vertices flagged as boundary.

    One breadth-first pass numbers the ball in ``canonical_rows`` order:
    inside the radius each vertex takes its slots in label order, and an
    undefined slot sprouts a tree vertex whose other slots sprout in turn.
    Sphere vertices keep their edges inside the ball.  If nothing ends up
    missing, the core already described a finite complete graph and the
    result carries no truncation mark.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    g = core.graph
    d, inv = g.degree, g.gens.inv
    tree = (None,) * d  # the slots of a tree vertex, none of them in the core
    index = {g.root: 0}  # core vertex -> ball vertex
    rows: list = [[None] * d]  # a vertex's row is a list until it is done
    cores: list[int | None] = [g.root]  # the core vertex behind each ball vertex
    start = 0  # rows[start:] is the layer at ``depth``
    for depth in range(radius):
        end = len(rows)
        for i in range(start, end):
            row, v = rows[i], cores[i]
            for l, w in enumerate(tree if v is None else g.next[v]):
                if row[l] is not None:
                    continue  # a tree vertex's slot back to its parent
                if w is None:
                    row[l] = len(rows)
                    child: list[int | None] = [None] * d
                    child[inv[l]] = i
                    rows.append(child)
                    cores.append(None)
                elif w in index:
                    row[l] = index[w]
                else:
                    row[l] = index[w] = len(rows)
                    rows.append([None] * d)
                    cores.append(w)
            rows[i] = tuple(row)
            if len(rows) > max_vertices:
                raise ValueError(
                    f"ball of radius {radius} exceeds max_vertices={max_vertices}"
                )
        start = end
    for i in range(start, len(rows)):
        v = cores[i]  # a sphere core vertex keeps its edges in the ball
        rows[i] = tuple(rows[i] if v is None else map(index.get, g.next[v]))
    boundary = frozenset(i for i in range(start, len(rows)) if None in rows[i])
    return SchreierGraph._trusted(
        gens=g.gens,
        next=tuple(rows),
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


def tree_ball(degree: int, radius: int) -> SchreierGraph:
    """Ball of the degree-regular tree (alphabet as in ``tree_core``)."""
    return complete_ball(tree_core(degree), radius)


# ---------------------------------------------------------------------------
# Random permutation model
# ---------------------------------------------------------------------------


def _fisher_yates(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        p[i], p[j] = p[j], p[i]
    return tuple(p)


def random_perm_action(m: int, n: int, seed: int) -> PermAction:
    """m independent uniform permutations of n points as free-letter images.

    The permutations are drawn by Fisher--Yates from ``random.Random(seed)``
    in label order, so the seed fully determines the action.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 generators and n >= 1 points")
    rng = random.Random(seed)
    perms = [_fisher_yates(rng, n) for _ in range(m)]
    return PermAction.from_generator_perms(perms, pair_names=ascii_lowercase[:m])


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
    gens = GenSet(("t", "T"), (1, 0))
    table = tuple(((v + 1) % n, (v - 1) % n) for v in range(n))
    return SchreierGraph(gens=gens, next=table)


def cyclic_action(n: int) -> PermAction:
    gens = GenSet(("t", "T"), (1, 0))
    forward = tuple((x + 1) % n for x in range(n))
    backward = tuple((x - 1) % n for x in range(n))
    return PermAction(gens, (forward, backward))


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

    ident = _proj_normalize((1, 0, 0, 1), q)
    index = {ident: 0}
    verts = [ident]
    table: list[tuple[int, ...]] = []
    head = 0
    while head < len(verts):
        v = verts[head]
        head += 1
        row = []
        for g in mats:
            w = _proj_normalize(_matmul(v, g, q), q)
            if w not in index:
                index[w] = len(verts)
                verts.append(w)
            row.append(index[w])
        table.append(tuple(row))

    order = q * (q * q - 1) // 2 if _legendre(p, q) == 1 else q * (q * q - 1)
    if len(verts) != order:
        raise AssertionError(f"orbit size {len(verts)} != group order {order}")
    return SchreierGraph(gens=gens, next=tuple(table), root=0)


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
    text = text.strip()
    radius: int | None = None
    if "@" in text:
        text, _, suffix = text.rpartition("@")
        try:
            radius = int(suffix)
        except ValueError:
            raise ValueError(f"bad radius suffix {suffix!r}") from None
    kind, sep, rest = text.partition(":")
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
        result = tree_ball(kv["d"], kv["r"])
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
    if radius is not None:
        if not isinstance(result, CoreGraph):
            raise ValueError("'@radius' applies only to core specs (fold/free)")
        result = complete_ball(result, radius)
    return result


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
