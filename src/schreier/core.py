"""Labeled graph model for coset spaces of finitely generated groups.

A generating multiset S with a formal inversion pairing acts on the right
cosets of a subgroup: each coset Hg has one outgoing edge per generator,
Hg -> Hgs.  The resulting edge-labeled d-regular graph determines the
subgroup up to conjugacy, and every operation in this package (walk
counting, spectra, local statistics) is phrased in terms of it.

The representation is a transition table: ``slots[v, l]`` is the endpoint
of the l-labeled edge at vertex v, or −1 where the edge is not stored.
Defined slots always come in inverse pairs -- ``slots[v, l] == w`` if and
only if ``slots[w, inv(l)] == v`` -- so the underlying multigraph is
symmetric by construction.  A label that is its own inverse occupies a
single slot and contributes one to the degree.

``slots`` is one read-only n×d int64 array, the only table a graph
stores and the one every reader searches: the builders, canonical
numbering, SGF1 writing and reading, the trust boundary ``validate``, the
walk streams, the truncation guards, the Markov matrix, the cycle census
and the ball classes.  The public constructor takes the table as rows of
Python ints, None for a missing slot, and converts them into ``slots``
once.  A ``PermAction`` stores its action the same way: ``slots[x, l]`` is
the image of point x under label l, the action's one table and its only
form.

Graphs may be *truncated*: vertices whose full set of neighbours is not
stored are flagged as boundary vertices.  Stepping through a missing slot
yields None (``BOUNDARY``) rather than an error, and operations whose
result could depend on missing edges check distances to the boundary before
answering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from string import ascii_lowercase
from typing import Iterator, Sequence

import numpy as np


class GraphInvariantError(ValueError):
    """A structural invariant of a graph or generating set is violated."""


class SGF1Error(ValueError):
    """Malformed SGF1 input."""


class InsufficientRadiusError(ValueError):
    """A truncated graph does not store enough of the true graph to answer."""


class InequalityViolation(AssertionError):
    """An inequality that holds by theorem failed on concrete data.

    This never fires on correct inputs; it indicates a bug (or a
    precondition violation that slipped past the guards) and is mapped to
    exit code 2 by the command-line interface.
    """


# How a verdict is reached: by an integer or rational re-check that raises
# otherwise (exact); on every input, by the argument its check names
# (theorem); by a converged Lanczos solve within its measured residual,
# rigorous only when it refutes (lanczos-residual); or not at all (undecided).
CERTIFICATES = ("exact", "theorem", "lanczos-residual", "undecided")


@dataclass(frozen=True)
class Verdict:
    """The answer of one check and the certificate that says how it was
    reached: a bool, or None exactly when the certificate is ``undecided``."""

    value: bool | None
    certificate: str

    def __post_init__(self) -> None:
        if self.certificate not in CERTIFICATES:
            raise ValueError(f"unknown certificate {self.certificate!r}")
        expected = type(None) if self.certificate == "undecided" else bool
        if type(self.value) is not expected:
            raise ValueError(f"a {self.certificate} verdict is not {self.value!r}")


BOUNDARY = None  # where a walk that leaves the stored graph ends

_NAME_RE = re.compile(r"^\S+$")


@dataclass(frozen=True)
class GenSet:
    """A finite symmetric generating alphabet.

    ``labels`` names the d edge labels; ``inv`` is an involution on label
    indices pairing each generator with its formal inverse.  A fixed point
    of ``inv`` is an involutive generator (s == s^-1).  Multisets are
    expressed by distinct labels bound to equal actions, so label names are
    required to be unique.
    """

    labels: tuple[str, ...]
    inv: tuple[int, ...]

    def __post_init__(self) -> None:
        d = len(self.labels)
        if d == 0:
            raise GraphInvariantError("generating set is empty")
        if len(set(self.labels)) != d:
            raise GraphInvariantError("label names are not unique")
        for name in self.labels:
            if not _NAME_RE.match(name):
                raise GraphInvariantError(f"label name {name!r} contains whitespace")
        if sorted(self.inv) != list(range(d)):
            raise GraphInvariantError("inv is not a permutation of the labels")
        for i, j in enumerate(self.inv):
            if self.inv[j] != i:
                raise GraphInvariantError("inv is not an involution")

    @property
    def degree(self) -> int:
        return len(self.labels)

    def index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"no label named {name!r}") from None

    @classmethod
    def free(cls, rank: int, names: Sequence[str] | None = None) -> "GenSet":
        """Alphabet of a free group: ``rank`` lower/upper-case letter pairs,
        named by ``names`` (one per pair) or else a, b, c, …."""
        if rank < 1:
            raise GraphInvariantError("rank must be positive")
        if names is None:
            if rank > 26:
                raise GraphInvariantError("default letter names support rank <= 26")
            names = ascii_lowercase[:rank]
        elif len(names) != rank:
            raise GraphInvariantError(f"rank {rank} needs {rank} names, got {len(names)}")
        return cls.with_involutions(names)

    @classmethod
    def with_involutions(
        cls, pairs: Sequence[str] = (), involutions: Sequence[str] = ()
    ) -> "GenSet":
        """Alphabet with ``pairs`` free letter pairs and ``involutions``
        self-inverse labels (each occupying a single edge slot)."""
        labels: list[str] = []
        inv: list[int] = []
        for nm in pairs:
            labels += [nm, nm.upper()]
            inv += [len(inv) + 1, len(inv)]
        for nm in involutions:
            labels.append(nm)
            inv.append(len(inv))
        return cls(tuple(labels), tuple(inv))


@dataclass(frozen=True)
class Word:
    """A word over a generating alphabet, stored as label indices."""

    letters: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.letters)


def reduce_word(gens: GenSet, word: Word) -> Word:
    """Cancel adjacent (l, inv(l)) pairs until none remain.

    For an involutive label m this cancels m·m as well, matching the group
    where m has order two.
    """
    stack: list[int] = []
    for letter in word.letters:
        if stack and stack[-1] == gens.inv[letter]:
            stack.pop()
        else:
            stack.append(letter)
    return Word(tuple(stack))


def is_reduced(gens: GenSet, word: Word) -> bool:
    return all(
        word.letters[i + 1] != gens.inv[word.letters[i]]
        for i in range(len(word.letters) - 1)
    )


_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?")


def parse_word(gens: GenSet, text: str) -> Word:
    """Parse word syntax like ``a^2 b A`` or ``aB^-1`` into label indices.

    Tokens are label names with optional integer exponents.  When the text
    contains no separators and every label name is a single character, the
    string is read character by character, so ``abA`` works for free
    alphabets.  Negative exponents use the inverse label.
    """
    text = text.strip()
    letters: list[int] = []
    if not text:
        return Word(())
    if re.search(r"[\s,.·*]", text):
        chunks = re.split(r"[\s,.·*]+", text)
    elif all(len(nm) == 1 for nm in gens.labels):
        chunks = list(_iter_char_tokens(text))
    else:
        chunks = [text]
    for chunk in chunks:
        if not chunk:
            continue
        m = _TOKEN_RE.fullmatch(chunk)
        if not m:
            raise ValueError(f"cannot parse word chunk {chunk!r}")
        name, exp_text = m.group(1), m.group(2)
        exp = int(exp_text) if exp_text is not None else 1
        label = gens.index(name)
        if exp < 0:
            label, exp = gens.inv[label], -exp
        letters.extend([label] * exp)
    return Word(tuple(letters))


def _iter_char_tokens(text: str) -> Iterator[str]:
    i = 0
    while i < len(text):
        j = i + 1
        if j < len(text) and text[j] == "^":
            j += 1
            if j < len(text) and text[j] == "-":
                j += 1
            while j < len(text) and text[j].isdigit():
                j += 1
        yield text[i:j]
        i = j


def format_word(gens: GenSet, word: Word) -> str:
    if not word.letters:
        return "e"
    single = all(len(nm) == 1 for nm in gens.labels)
    sep = "" if single else " "
    return sep.join(gens.labels[letter] for letter in word.letters)


class SchreierGraph:
    """A rooted, edge-labeled graph with paired transition slots.

    Interior vertices carry exactly one edge per label; vertices in
    ``boundary`` may have missing slots (the graph is then a truncation of
    a larger or infinite graph, and ``truncation_radius`` records the
    radius out to which the stored part is exact around the root).

    Stored graphs are always induced: every edge of the true graph between
    two stored vertices is present in the table.  Operations rely on this
    when extracting balls near the boundary.

    ``SchreierGraph(gens=…, table=…)`` takes the table as rows, converts
    them once into ``slots``, the one table the graph stores, and
    validates it.  A graph built inside the package from a validated one
    (``_trusted``) is handed its ``slots``.  Graphs are immutable.  Two are
    equal when their types, alphabets, tables, roots, boundaries and
    truncation radii are; the hash and repr leave out the table.
    """

    gens: GenSet
    slots: np.ndarray
    root: int
    boundary: frozenset[int]
    truncation_radius: int | None

    def __init__(
        self, gens: GenSet, table: Sequence[Sequence[int | None]], root: int = 0,
        boundary: frozenset[int] = frozenset(), truncation_radius: int | None = None,
    ) -> None:
        """Convert the rows of ``table`` into ``slots`` and ``validate`` it.
        Refused first is an entry that is not an integer; then the first,
        in row-major order, of a row of the wrong length, a target that is
        not a vertex (a negative int included) and a defect of ``validate``."""
        self.__dict__.update(
            gens=gens, root=root, boundary=boundary, truncation_radius=truncation_radius
        )
        n, d = len(table), gens.degree
        numbers, ragged, odd = _number_table(table, d)
        self._check_marks(n)
        if odd is not None:
            v, l = odd
            raise GraphInvariantError(
                f"edge target {table[v][l]!r} at ({v},{gens.labels[l]}) is not an integer"
            )
        vertex = (numbers >= 0) & (numbers < n)  # NaN, a missing slot, is neither
        stray = ~vertex & ~np.isnan(numbers)
        self.__dict__["slots"] = np.where(vertex, numbers, -1).astype(np.int64)
        if ragged < n or stray.any():
            v, l = self._first_defect(stray)
            if ragged <= v:
                raise GraphInvariantError(f"vertex {ragged} has {len(table[ragged])} slots, expected {d}")
            if stray[v, l]:
                raise GraphInvariantError(f"edge target {table[v][l]} out of range")
        self.validate()

    @classmethod
    def _trusted(cls, **fields) -> "SchreierGraph":
        """Build from ``slots`` without ``validate()``: only for graphs
        derived from an already validated graph or ``PermAction``, and for
        ``parse``, which validates its ``slots`` next."""
        g = object.__new__(cls)
        g.__dict__.update(
            {"root": 0, "boundary": frozenset(), "truncation_radius": None, **fields}
        )
        return g

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: SchreierGraph is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchreierGraph):
            return NotImplemented
        return (type(self), self.gens, self.root, self.boundary, self.truncation_radius) == (
            type(other), other.gens, other.root, other.boundary, other.truncation_radius
        ) and np.array_equal(self.slots, other.slots)

    def __hash__(self) -> int:
        return hash((self.gens, self.slots.shape, self.root, self.truncation_radius))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(gens={self.gens!r}, n={self.n}, root={self.root}, "
            f"boundary={len(self.boundary)} vertices, "
            f"truncation_radius={self.truncation_radius})"
        )

    @property
    def next(self) -> np.ndarray:
        # ``slots`` itself, not a second table; kept only because
        # bench/tracing.py counts ``core.validate`` vertices by it
        return self.slots

    @property
    def n(self) -> int:
        return len(self.slots)

    @property
    def degree(self) -> int:
        return self.gens.degree

    @property
    def truncated(self) -> bool:
        return bool(self.boundary)

    def _check_marks(self, n: int) -> None:
        """Refuse an empty graph, and a root or boundary vertex outside 0..n − 1."""
        if n == 0:
            raise GraphInvariantError("graph has no vertices")
        if not 0 <= self.root < n:
            raise GraphInvariantError(f"root {self.root} out of range")
        for v in self.boundary:
            if not 0 <= v < n:
                raise GraphInvariantError(f"boundary vertex {v} out of range")

    def _first_defect(self, stray: np.ndarray | None = None) -> tuple[int, int]:
        """(v, l) of the first slot in row-major order that is missing at an
        interior vertex, whose target's inverse slot does not lead back, or
        that is ``stray``; (n, 0) if there is none.  The pairing check is one
        gather per label, ``slots[slots[:, l], inv[l]] == arange(n)``."""
        slots = self.slots
        n, d = slots.shape
        interior = np.ones(n, dtype=bool)
        interior[list(self.boundary)] = False
        back = slots[slots, np.asarray(self.gens.inv)]
        bad = np.where(slots < 0, interior[:, None], back != np.arange(n)[:, None])
        if stray is not None:
            bad |= stray
        return divmod(int(bad.argmax()) if bad.any() else n * d, d)

    def validate(self) -> None:
        """Check the invariants of ``slots`` and make it read-only: the
        root and boundary are vertices, the first defect in (v, l)
        row-major order is reported (an interior vertex's missing slot, a
        broken inverse pair), and connectivity is read off ``root_depths``,
        one search over the slot array."""
        self._check_marks(self.n)
        (v, l), labels = self._first_defect(), self.gens.labels
        if v < self.n:
            if self.slots[v, l] < 0:
                raise GraphInvariantError(f"interior vertex {v} missing edge slot {labels[l]}")
            raise GraphInvariantError(f"label-consistency violated at edge ({v},{labels[l]})")
        self.slots.flags.writeable = False
        # paired slots make the search over defined slots an undirected one
        unreached = np.flatnonzero(self.root_depths[:-1] < 0)
        if unreached.size:
            raise GraphInvariantError(
                f"graph not connected from root: vertex {unreached[0]} unreachable"
            )

    @cached_property
    def root_depths(self) -> np.ndarray:
        """Distance from the root to every vertex, −1 if unreachable, as a
        read-only int64 array of n + 1 entries whose last, −1, is what a
        missing slot reads: ``layer_depths`` of one search from the root."""
        depth = layer_depths(self.n, *bfs_layers(self.slots, self.root))
        depth.flags.writeable = False
        return depth

    @cached_property
    def vertex_transitive(self) -> bool:
        """Whether some label-preserving automorphism carries the root to
        every vertex, i.e. every vertex has the root's canonical rows.  An
        automorphism carrying x to y fixes x·w = x exactly when it fixes
        y·w = y, so a word of length ≤ 2 that fixes some vertices but not
        all refutes it at once.  Otherwise the root's neighbours suffice:
        if φ_l carries the root to root·l for each label l, then ψ∘φ_l
        carries ψ(root) to ψ(root)·l for every automorphism ψ, so the
        root's class is closed under steps and, by connectivity, is every
        vertex."""
        require_whole(self, "the vertex-transitivity check")
        if _short_word_refutes(self.slots):
            return False
        reference = canonical_rows(self.slots, self.root)[1]
        neighbours = set(self.slots[self.root].tolist()) - {self.root}
        return all(np.array_equal(canonical_rows(self.slots, v)[1], reference) for v in neighbours)


class CoreGraph(SchreierGraph):
    """A rooted labeled graph in which some edge slots may be undefined.

    An undefined slot means a regular tree hangs off that vertex in the
    full (usually infinite) graph the core represents, so a core is a
    finite description of the whole graph; ``complete_ball`` materializes
    any finite radius of it.  Every vertex with an undefined slot, and no
    other, is flagged as boundary, and a core is never truncated.  What
    does not tell cores apart reads one as the finite graph it stores.
    """

    def validate(self) -> None:
        """``SchreierGraph.validate``, which refuses an unflagged vertex
        with an undefined slot, then the core's checks: every flagged
        vertex has an undefined slot, and there is no truncation mark."""
        super().validate()
        partial = (self.slots < 0).any(axis=1)
        complete = [v for v in self.boundary if not partial[v]]
        if complete:
            raise GraphInvariantError(f"complete core vertex {min(complete)} flagged as partial")
        if self.truncation_radius is not None:
            raise GraphInvariantError("cores describe complete graphs, not truncations")

    @property
    def complete(self) -> bool:
        """True when no slot is undefined (the core is the whole graph)."""
        return not self.boundary

    @classmethod
    def from_table(
        cls, gens: GenSet, table: Sequence[Sequence[int | None]], root: int = 0
    ) -> "CoreGraph":
        boundary = frozenset(
            v for v, row in enumerate(table) if any(w is None for w in row)
        )
        return canonicalize(cls(gens=gens, table=table, root=root, boundary=boundary))


def _number_table(
    rows: Sequence[Sequence[int | None]], width: int, missing: bool = True
) -> tuple[np.ndarray, int, tuple[int, int] | None]:
    """``rows`` as a len(rows)×width array, the first row whose length is
    not ``width`` (len(rows) if none is), and (i, j) of the first entry,
    row by row, that is not an integer, nor None if ``missing`` allows it
    (None if there is no such entry).  When a row has another length,
    every row is cut to ``width`` or padded with None (−1 if not
    ``missing``) first.  The array is int64 when numpy reads
    every entry as one, else float with NaN for None: a float holds every
    vertex index exactly and keeps any int below 10³⁰⁸ on its side of 0
    and n."""
    n = len(rows)
    ragged = next((i for i, row in enumerate(rows) if len(row) != width), n)
    if ragged < n:
        pad = (None if missing else -1,)
        rows = [tuple(row[:width]) + pad * (width - len(row)) for row in rows]
    try:
        table = np.array(rows)
    except ValueError:  # an entry that is itself a sequence
        table = np.array(None)
    if table.dtype.kind in "iu" and table.shape == (n, width):
        return table, ragged, None
    numbers = (int, np.integer, type(None)) if missing else (int, np.integer)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if not isinstance(x, numbers):
                return table, ragged, (i, j)
    return np.array(rows, dtype=float).reshape(n, width), ragged, None


_NARROW = 64  # slots a layer may hold for ``bfs_layers`` to step it in Python


def bfs_layers(
    slots: np.ndarray, start: int, radius: int | None = None
) -> tuple[np.ndarray, list[int]]:
    """The vertices within ``radius`` of ``start`` (all it reaches if None)
    in breadth-first order, slots taken in label order, and ``ends``, where
    ``ends[r]`` counts those within distance r, for r = 0..radius (up to the
    last nonempty layer if None).  Radius −1 gives ``([start], [])``.

    One layer per step: a layer's targets in (parent, label) order, the
    first occurrence of each one not yet seen kept in that order.  Each
    step is chosen by the layer's size, so a layer costs its own size.  A
    layer of at most ``_NARROW`` slots is stepped in Python over a
    ``bytearray`` of marks, with no numpy call; a wider one gathers its
    targets and keeps the first occurrence of each unseen one through
    ``np.minimum.at`` of positions, whose result is defined for repeated
    indices (a plain fancy assignment leaves the winner to numpy).  The
    search stops at its first empty layer, and a radius beyond it repeats
    the last end.

    It is the one search over stored tables: canonical rows, root
    distances, the walk streams' reach and the truncation guards read it.
    Two searches stay apart: ``group_closure`` searches group elements,
    which no table stores, and ``cycles.girth`` needs parents and stops at
    the first cycle.  ``complete_ball`` and ``lps_graph`` build their
    tables in the same layers.
    """
    n, d = slots.shape
    if not 0 <= start < n:
        raise ValueError(f"vertex {start} is not a vertex of the graph (0..{n - 1})")
    marks = bytearray(n + 1)  # a missing slot (−1) reads the mark at n
    marks[start] = marks[n] = 1
    row = memoryview(slots.ravel())  # Python ints, no copy of a C-ordered table
    seen = first = None  # numpy views of the marks, and a wide layer's first positions
    # the order listed: ``parts``, then the layers stepped in Python since
    parts, stepped = [], [start]
    layer, ends = [start], [1]
    while radius is None or len(ends) <= radius:
        if len(layer) * d <= _NARROW:
            if not isinstance(layer, list):
                layer = layer.tolist()
            fresh = []
            for v in layer:
                for w in row[v * d : v * d + d]:
                    if not marks[w]:
                        marks[w] = 1
                        fresh.append(w)
            stepped += fresh
        else:
            if seen is None:
                seen, first = np.frombuffer(marks, dtype=bool), np.empty(n, dtype=np.int64)
            hits = slots.take(layer, 0).ravel()
            hits = np.compress(~seen[hits], hits)  # hits[mask] is slower on a random mask
            at = np.arange(len(hits))
            first[hits] = len(hits)
            np.minimum.at(first, hits, at)
            fresh = np.compress(first[hits] == at, hits)
            seen[fresh] = True
            parts += [np.array(stepped, dtype=np.int64), fresh]
            stepped = []
        if not len(fresh):
            break
        layer = fresh
        ends.append(ends[-1] + len(fresh))
    order = np.array(stepped, dtype=np.int64)
    if parts:
        order = np.concatenate([*parts, order])
    if radius is None:
        return order, ends
    ends += ends[-1:] * (radius + 1 - len(ends))
    return order, ends[: radius + 1]


def layer_depths(n: int, order: np.ndarray, ends: list[int]) -> np.ndarray:
    """Each vertex's layer in ``(order, ends) = bfs_layers(…)`` of radius
    ≥ 0, −1 for a vertex the search did not list and at index n, which a
    missing slot (−1) reads."""
    depth = np.full(n + 1, -1, dtype=np.int64)
    depth[order] = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    return depth


def boundary_layer(g: SchreierGraph, order: np.ndarray, ends: list[int]) -> int:
    """v's distance to g's truncation boundary, the first layer of
    ``(order, ends) = bfs_layers(g.slots, v, R)`` to hold a boundary
    vertex; R + 1 if none does."""
    if g.boundary:  # a set lookup per listed vertex costs the ball, not the graph
        for r, (begin, end) in enumerate(zip([0, *ends], ends)):
            if not g.boundary.isdisjoint(order[begin:end].tolist()):
                return r
    return len(ends)


def require_whole(g: SchreierGraph, purpose: str) -> None:
    """Refuse g for ``purpose`` if it has a missing slot, naming its kind:
    an incomplete core, whose missing slots hang regular trees, or a
    truncation, unknown beyond its boundary."""
    if not g.boundary:
        return
    hint = (
        "complete the core with an '@radius' suffix" if isinstance(g, CoreGraph)
        else "a truncation is unknown beyond its boundary"
    )
    raise ValueError(f"{purpose} needs a whole graph; {hint}")


def require_room(purpose: str, x: int, near: int, needed: int) -> None:
    """Refuse if the truncation boundary, ``near`` from x, is closer than ``needed``."""
    if near < needed:
        raise InsufficientRadiusError(
            f"insufficient radius for {purpose}: distance from vertex {x} to the "
            f"truncation boundary is {near}, need at least {needed}"
        )


def stored_layers(
    g: SchreierGraph, x: int, radius: int, needed: int, purpose: str
) -> tuple[np.ndarray, list[int]]:
    """``bfs_layers(g.slots, x, radius)`` for a question that reads only
    stored slots: an incomplete core is refused, as no table stores its
    trees, and so is a truncation whose boundary lies closer to x than
    ``needed``."""
    if isinstance(g, CoreGraph):
        require_whole(g, purpose)
    layers = bfs_layers(g.slots, x, radius)
    if g.boundary:
        require_room(purpose, x, boundary_layer(g, *layers), needed)
    return layers


def walk_endpoint(g: SchreierGraph, start: int, word: Word) -> int | None:
    """Follow ``word`` from ``start``; None (``BOUNDARY``) if it leaves the stored graph."""
    if not 0 <= start < g.n:
        raise ValueError(f"vertex {start} is not a vertex of the graph (0..{g.n - 1})")
    v, slots = start, g.slots
    for letter in word.letters:
        v = int(slots[v, letter])
        if v < 0:
            return BOUNDARY
    return v


def canonical_rows(
    slots: np.ndarray, root: int, radius: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Renumber the vertices of a slot array in the ``bfs_layers`` order
    from ``root``.

    Returns ``order``, the old index of each new vertex, and the renumbered
    slot array (−1 for a missing slot).  With a ``radius`` the search
    stops at that depth and, beyond two length-n scratch arrays, costs
    only the size of the R-ball: a vertex at depth R keeps just its slots
    back to depth R−1, which is the R-ball of ``local.ball``.

    Because transition tables are deterministic (one slot per label), this
    ordering is invariant under relabeling: two rooted graphs are
    label-preserving isomorphic exactly when their canonical rows agree.
    """
    order, ends = bfs_layers(slots, root, radius)
    index = np.full(len(slots) + 1, -1, dtype=np.int64)  # index[−1] stays −1
    index[order] = np.arange(len(order))
    rows = index[slots[order]]
    if radius is not None:
        # a vertex at depth R keeps only its slots back to depth R − 1: slots
        # along the sphere, or out of the ball, are not in it
        sphere = (0, *ends)[radius]
        rim = rows[sphere:]
        rim[rim >= sphere] = -1
    rows.flags.writeable = False
    return order, rows


def _short_word_refutes(slots: np.ndarray) -> bool:
    """Whether a reduced word of length ≤ 2 fixes some vertices but not all.
    Rows 0 and 1 + l, x and x·l, agree where l fixes x, and rows 1 + l and
    1 + j where l·j⁻¹ does (l ≠ j); the letters are tried first."""
    n, d = slots.shape
    rows = np.empty((d + 1, n), np.int32)
    rows[0] = np.arange(n)
    rows[1:] = slots.T
    for i in range(d):
        agree = rows[i + 1 :] == rows[i]
        if (agree != agree[:, :1]).any():
            return True
    return False


def canonicalize(g: SchreierGraph) -> SchreierGraph:
    """The same rooted graph, of the same type, renumbered by
    ``canonical_rows`` (root 0)."""
    order, slots = canonical_rows(g.slots, g.root)
    flagged = np.isin(order, list(g.boundary))
    return type(g)._trusted(
        gens=g.gens,
        slots=slots,
        boundary=frozenset(np.flatnonzero(flagged).tolist()),
        truncation_radius=g.truncation_radius,
    )


# ---------------------------------------------------------------------------
# SGF1 serialization
#
#   SGF1
#   gens <d>
#   label <index> <name> inv <index>        x d
#   vertices <n> root <r> [truncated <R>]
#   e <v> <label-index> <w>                 one line per defined slot
#   b <v>                                   one line per boundary vertex
# ---------------------------------------------------------------------------


_WRITE_BLOCK = 2**14  # vertices whose ``e`` lines ``serialize`` formats at once


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """The decimal ASCII bytes of ``values`` (each below 10**width), one
    right-aligned row each, leading zeros as 0 bytes."""
    x = values[:, None] // 10 ** np.arange(width - 1, -1, -1)
    rows = (x % 10 + ord("0")).astype(np.uint8)
    rows[:, :-1][x[:, :-1] == 0] = 0
    return rows


def _text_lines(lead: str, *columns: np.ndarray) -> str:
    """``lead c1 c2 …`` lines, each ended by a newline, from rows of
    ``_digits``: one byte matrix whose 0 bytes are dropped."""
    width = 2 + sum(1 + column.shape[1] for column in columns)
    text = np.full((len(columns[0]), width), ord(" "), dtype=np.uint8)
    text[:, 0], text[:, -1] = ord(lead), ord("\n")
    end = 1
    for column in columns:  # each after its space
        end += 1 + column.shape[1]
        text[:, end - column.shape[1] : end] = column
    text = text.ravel()
    return text[text > 0].tobytes().decode("ascii")


def serialize(g: SchreierGraph) -> str:
    """SGF1 text of g, the body formatted from ``slots`` as byte matrices:
    one ``e`` line per defined slot in (v, l) order, then the ``b`` lines.

    The ``e`` lines are formatted ``_WRITE_BLOCK`` vertices at a time and
    joined once, so beyond the text itself the writer holds the digits of
    every vertex (a byte per digit), one block's arrays and the text of the
    blocks before it: about twice the text at its peak."""
    lines = ["SGF1", f"gens {g.degree}"]
    for i, name in enumerate(g.gens.labels):
        lines.append(f"label {i} {name} inv {g.gens.inv[i]}")
    head = f"vertices {g.n} root {g.root}"
    if g.truncation_radius is not None:
        head += f" truncated {g.truncation_radius}"
    lines.append(head)
    # the digits of every vertex, one byte each, made a block at a time
    width, starts = len(str(g.n - 1)), range(0, g.n, _WRITE_BLOCK)
    vertex = np.concatenate(
        [_digits(np.arange(i, min(i + _WRITE_BLOCK, g.n)), width) for i in starts]
    )
    label = _digits(np.arange(g.degree), len(str(g.degree - 1)))
    chunks = ["\n".join(lines) + "\n"]
    for first in starts:
        block = g.slots[first : first + _WRITE_BLOCK]
        v, l = np.nonzero(block >= 0)
        # ``take`` gathers rows several times faster than fancy indexing
        columns = vertex.take(v + first, 0), label.take(l, 0), vertex.take(block[v, l], 0)
        chunks.append(_text_lines("e", *columns))
    chunks.append(_text_lines("b", vertex[sorted(g.boundary)]))
    return "".join(chunks)


# the line breaks of str.splitlines
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# a break not followed by a plain ``e v l w`` or ``b v`` line
_IRREGULAR = re.compile(r"\n(?!(?:e [0-9]+ [0-9]+ [0-9]+|b [0-9]+)(?:\n|\Z))")
_EDGE_LINE = re.compile(r"e ([0-9]+) ([0-9]+) ([0-9]+)")
_BOUNDARY_LINE = re.compile(r"b ([0-9]+)")
_BLOCK = 2**20  # characters of body that ``parse`` reads into arrays at once


def _stripped_lines(text: str) -> Iterator[tuple[str, int]]:
    """The non-blank lines of ``text`` as ``str.splitlines`` and
    ``str.strip`` give them, each with the offset past its line break."""
    pos = 0
    while pos < len(text):
        m = _LINE_BREAK.search(text, pos)
        end, after = (m.start(), m.end()) if m else (len(text), len(text))
        line = text[pos:end].strip()
        pos = after
        if line:
            yield line, pos


def _line_error(body: str, start: int, hi: int) -> SGF1Error:
    """The error of the body line at ``start``, not a valid ``e`` or ``b`` line."""
    end = body.find("\n", start, hi)
    line = body[start : end if end >= 0 else hi]
    if line.startswith("e "):
        if not _EDGE_LINE.fullmatch(line):
            return SGF1Error(f"malformed edge line {line!r}")
        return SGF1Error(f"edge line out of range: {line!r}")
    if line.startswith("b "):
        m = _BOUNDARY_LINE.fullmatch(line)
        if not m:
            return SGF1Error(f"malformed boundary line {line!r}")
        return SGF1Error(f"boundary vertex {int(m.group(1))} out of range")
    return SGF1Error(f"unrecognized line {line!r}")


def _regular_lines(
    chunk: str,
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
    """Regular body lines, each after a newline, read in bulk: where each
    line starts in ``chunk``, whether it is an ``e`` line, the (v, l, w)
    columns of the ``e`` lines and the v of the ``b`` lines.  A value past
    int64 saturates (``strtoll``), so it reads as out of range."""
    codes = np.frombuffer(chunk.encode("ascii"), dtype=np.uint8)
    starts = np.flatnonzero(codes == ord("\n")) + 1
    is_edge = codes[starts] == ord("e")
    del codes
    numbers = np.fromstring(
        chunk.replace("e", " ").replace("b", " "), dtype=np.int64, sep=" "
    )
    width = np.where(is_edge, 3, 1)
    first = np.cumsum(width) - width
    edges = tuple(numbers[first[is_edge] + k] for k in range(3))
    return starts, is_edge, edges, numbers[first[~is_edge]]


def parse(text: str) -> SchreierGraph:
    """Read SGF1 text, a trust boundary.

    The header is read line by line.  The body is read in bulk: one regex
    search finds the first line that is not a plain ``e v l w`` or ``b v``
    line (a body with padded, blank or CRLF lines is first rewritten the
    way ``str.splitlines`` and ``str.strip`` read it), and the lines before
    it are read in blocks of about ``_BLOCK`` characters straight into the
    slot array.  Each block becomes numpy columns, and masks over them find
    out-of-range values and duplicate slots (repeated in the block, or
    filled by an earlier one).  An error names the first offending line in
    file order.  Numbers are ASCII digits.  A connected graph on n vertices has
    at least n − 1 edges, and each of its interior vertices fills all d
    slots, so with E ``e`` lines and B ``b`` lines a ``vertices n`` header
    with n > E + 1 or (n − B)·d > E is refused before any table is
    allocated.  ``b`` lines with no ``truncated`` mark describe a core,
    and make a ``CoreGraph``; any other file makes a ``SchreierGraph``.
    The table is then checked by that type's ``validate``.
    """
    lines = _stripped_lines(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        line, pos = next(lines, ("", -1))
        if pos < 0:
            raise SGF1Error("unexpected end of input")
        return line

    if next(lines, ("",))[0] != "SGF1":
        raise SGF1Error("missing SGF1 magic line")
    m = re.fullmatch(r"gens ([0-9]+)", take())
    if not m:
        raise SGF1Error("malformed gens line")
    d = int(m.group(1))
    labels: dict[int, str] = {}  # filled as lines are read, never sized by d
    inv: dict[int, int] = {}
    for _ in range(d):
        m = re.fullmatch(r"label ([0-9]+) (\S+) inv ([0-9]+)", take())
        if not m:
            raise SGF1Error("malformed label line")
        i, name, j = int(m.group(1)), m.group(2), int(m.group(3))
        if not (0 <= i < d and 0 <= j < d):
            raise SGF1Error(f"label index out of range in {name!r}")
        if i in labels:
            raise SGF1Error(f"duplicate label index {i}")
        labels[i], inv[i] = name, j
    # d distinct indices below d: every label has its line
    gens = GenSet(tuple(labels[i] for i in range(d)), tuple(inv[i] for i in range(d)))

    m = re.fullmatch(r"vertices ([0-9]+) root ([0-9]+)(?: truncated ([0-9]+))?", take())
    if not m:
        raise SGF1Error("malformed vertices line")
    n, root = int(m.group(1)), int(m.group(2))
    radius = int(m.group(3)) if m.group(3) is not None else None

    # the body is body[lo:hi], every line after a "\n"
    body, lo, hi = text, pos - 1, len(text) - text.endswith("\n")
    irregular = _IRREGULAR.search(body, lo, hi)
    if irregular or body[lo] != "\n":
        body = "".join("\n" + ln for ln in map(str.strip, text[pos:].splitlines()) if ln)
        lo, hi = 0, len(body)
        irregular = _IRREGULAR.search(body)
    edges = body.count("\ne ", lo, hi)
    if n > edges + 1:
        raise SGF1Error(
            f"vertices {n} needs at least {n - 1} e lines to be connected, found {edges}"
        )
    interior = n - body.count("\nb ", lo, hi)
    if interior * d > edges:
        raise SGF1Error(
            f"vertices {n} with {n - interior} b lines needs (n - B)*d = {interior * d}"
            f" e lines to fill the interior slots, found {edges}"
        )

    cut = irregular.start() if irregular else hi
    slots = np.full((n, d), -1, dtype=np.int64)
    filled = slots.reshape(-1)
    boundary: list[int] = []
    start = lo
    while start < cut:  # blocks of about _BLOCK characters, each up to a "\n"
        end = body.find("\n", min(start + _BLOCK, cut), cut)
        end = cut if end < 0 else end
        starts, is_edge, (v, l, w), b = _regular_lines(body[start:end])
        out = (v >= n) | (l >= d) | (w >= n)
        inside = np.flatnonzero(~out)
        slot = v[inside] * d + l[inside]
        first = np.zeros(len(slot), dtype=bool)
        first[np.unique(slot, return_index=True)[1]] = True
        repeat = np.zeros(len(v), dtype=bool)  # a slot's first line is not a repeat
        repeat[inside] = ~first | (filled[slot] >= 0)
        edge_lines = np.flatnonzero(is_edge)
        offending = np.zeros(len(is_edge), dtype=bool)
        offending[edge_lines[out | repeat]] = True
        offending[np.flatnonzero(~is_edge)[b >= n]] = True
        if offending.any():
            k = int(offending.argmax())
            e = int(np.searchsorted(edge_lines, k))
            if is_edge[k] and repeat[e]:
                raise SGF1Error(f"duplicate edge slot ({v[e]},{gens.labels[l[e]]})")
            raise _line_error(body, start + starts[k], hi)
        filled[slot] = w[inside]
        boundary += b.tolist()
        start = end
    if irregular:
        raise _line_error(body, cut + 1, hi)
    kind = CoreGraph if boundary and radius is None else SchreierGraph
    g = kind._trusted(
        gens=gens,
        slots=slots,
        root=root,
        boundary=frozenset(boundary),
        truncation_radius=radius,
    )
    try:
        g.validate()
    except GraphInvariantError as exc:
        raise SGF1Error(str(exc)) from exc
    return g


class PermAction:
    """An action of the generating alphabet on points by permutations.

    ``slots`` is the action's one table, a read-only n×d int64 array:
    ``slots[x, l]`` is the image of point x under label l, and inverse
    labels act by inverse permutations.  The orbit of a base point, read as
    a transition table, is a Schreier graph of the point stabilizer:
    ``canonical_rows(act.slots, x)`` numbers the orbit of x as that graph.

    ``PermAction(gens, perms)`` takes one sequence of points per label and
    converts it once into the table.  The builders write the table as an
    array and pass it through the same checks (``_checked``).  Two actions
    are equal when their alphabets and tables are.
    """

    gens: GenSet
    slots: np.ndarray

    def __init__(self, gens: GenSet, perms: Sequence[Sequence[int]]) -> None:
        self._set(gens, _point_table(gens, perms))

    @classmethod
    def _checked(cls, gens: GenSet, slots: np.ndarray) -> "PermAction":
        """The action whose table is ``slots``, after the constructor's
        checks; an int64 C-ordered array is taken over, not copied."""
        act = object.__new__(cls)
        act._set(gens, slots)
        return act

    def _set(self, gens: GenSet, slots: np.ndarray) -> None:
        """Check the table and store it: d labels, at least one point, each
        label's column hits every point once, and each label's inverse maps
        its images back, checked a column at a time."""
        n, k = slots.shape
        d, labels, inv = gens.degree, gens.labels, gens.inv
        if k != d:
            raise GraphInvariantError(f"expected {d} permutations, got {k}")
        if n == 0:
            raise GraphInvariantError("an action needs at least one point")
        slots = np.ascontiguousarray(slots, dtype=np.int64)
        for l in range(d):
            image = slots[:, l]
            if not (
                0 <= image.min() and image.max() < n
                and (np.bincount(image, minlength=n) == 1).all()
            ):
                raise GraphInvariantError(f"label {labels[l]} does not act by a permutation")
        points = np.arange(n)
        for l in range(d):
            if (slots[slots[:, l], inv[l]] != points).any():
                raise GraphInvariantError(
                    f"label {labels[l]}: inverse label does not act by the inverse permutation"
                )
        slots.flags.writeable = False
        self.__dict__.update(gens=gens, slots=slots)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: PermAction is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PermAction):
            return NotImplemented
        return self.gens == other.gens and np.array_equal(self.slots, other.slots)

    def __hash__(self) -> int:
        return hash((self.gens, self.slots.shape))

    def __repr__(self) -> str:
        return f"PermAction(gens={self.gens!r}, n={self.degree})"

    @property
    def degree(self) -> int:
        return len(self.slots)

    def word_images(self, word: Word) -> np.ndarray:
        """The image of every point under ``word``, letters applied left to right."""
        images = np.arange(self.degree)
        for letter in word.letters:
            images = self.slots[images, letter]
        return images

    @classmethod
    def from_generator_perms(
        cls,
        pair_perms: Sequence[Sequence[int]],
        involution_perms: Sequence[Sequence[int]] = (),
        pair_names: Sequence[str] | None = None,
        involution_names: Sequence[str] | None = None,
    ) -> "PermAction":
        """Build an action from one permutation per generator.

        Permutations in ``pair_perms`` get an explicit inverse label; those
        in ``involution_perms`` must be involutions and act as their own
        inverses.
        """
        if pair_names is None:
            pair_names = ascii_lowercase[: len(pair_perms)]
        if involution_names is None:
            involution_names = tuple(f"m{i}" for i in range(len(involution_perms)))
        gens = GenSet.with_involutions(pair_names, involution_names)
        # each pair's permutation twice, the second overwritten by its inverse
        slots = _point_table(gens, [r for p in pair_perms for r in (p, p)] + [*involution_perms])
        points = np.arange(len(slots))
        for i in range(len(pair_perms)):
            # a column that is no permutation leaves garbage, but is refused first
            slots[slots[:, 2 * i], 2 * i + 1] = points
        for l in range(2 * len(pair_perms), gens.degree):
            image = slots[:, l]
            if (image >= 0).all() and (slots[image, l] != points).any():
                raise GraphInvariantError("involution generator is not an involution")
        return cls._checked(gens, slots)


def _point_table(gens: GenSet, perms: Sequence[Sequence[int]]) -> np.ndarray:
    """One sequence of points per label as the n×k int64 table of
    ``PermAction`` (n = len(perms[0])), −1 for an entry that is not a
    point and throughout a row of another length.  An entry that is not
    an integer is refused here, before the table is checked."""
    n = len(perms[0]) if len(perms) else 0
    table, _, odd = _number_table(perms, n, missing=False)
    if odd is not None:
        l, x = odd
        raise GraphInvariantError(
            f"label {gens.labels[l]} sends point {x} to {perms[l][x]!r}, "
            "which is not an integer"
        )
    table = np.where((table >= 0) & (table < n), table, -1)
    table[[len(p) != n for p in perms]] = -1
    return np.ascontiguousarray(table.T, dtype=np.int64)
