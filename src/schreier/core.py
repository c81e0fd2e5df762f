"""Labeled graph model for coset spaces of finitely generated groups.

A generating multiset S with a formal inversion pairing acts on the right
cosets of a subgroup: each coset Hg has one outgoing edge per generator,
Hg -> Hgs.  The resulting edge-labeled d-regular graph determines the
subgroup up to conjugacy, and every operation in this package (walk
counting, spectra, local statistics) is phrased in terms of it.

The representation is a transition table: ``next[v][l]`` is the endpoint of
the l-labeled edge at vertex v, or None where the edge is not stored.
Defined slots always come in inverse pairs -- ``next[v][l] == w`` if and
only if ``next[w][inv(l)] == v`` -- so the underlying multigraph is
symmetric by construction.  A label that is its own inverse occupies a
single slot and contributes one to the degree.

Graphs may be *truncated*: vertices whose full set of neighbours is not
stored are flagged as boundary vertices.  Stepping through a missing slot
yields the ``BOUNDARY`` sentinel rather than an error, and operations whose
result could depend on missing edges check distances to the boundary before
answering.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from string import ascii_lowercase
from typing import Iterator, Sequence


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


class _Boundary:
    """Sentinel for walk endpoints that leave the stored part of a graph."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BOUNDARY"

    def __bool__(self) -> bool:
        return False


BOUNDARY = _Boundary()

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

    def is_involution(self, label: int) -> bool:
        return self.inv[label] == label

    def index(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise KeyError(f"no label named {name!r}") from None

    @classmethod
    def free(cls, rank: int, names: Sequence[str] | None = None) -> "GenSet":
        """Alphabet of a free group: ``rank`` lower/upper-case letter pairs."""
        if rank < 1:
            raise GraphInvariantError("rank must be positive")
        if names is None:
            if rank > 26:
                raise GraphInvariantError("default letter names support rank <= 26")
            names = ascii_lowercase[:rank]
        labels: list[str] = []
        inv: list[int] = []
        for i, nm in enumerate(names):
            labels += [nm, nm.upper()]
            inv += [2 * i + 1, 2 * i]
        return cls(tuple(labels), tuple(inv))

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

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)


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


@dataclass(frozen=True)
class SchreierGraph:
    """A rooted, edge-labeled graph with paired transition slots.

    Interior vertices carry exactly one edge per label; vertices in
    ``boundary`` may have missing slots (the graph is then a truncation of
    a larger or infinite graph, and ``truncation_radius`` records the
    radius out to which the stored part is exact around the root).

    Stored graphs are always induced: every edge of the true graph between
    two stored vertices is present in the table.  Operations rely on this
    when extracting balls near the boundary.
    """

    gens: GenSet
    next: tuple[tuple[int | None, ...], ...]
    root: int = 0
    boundary: frozenset[int] = frozenset()
    truncation_radius: int | None = None

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def _trusted(cls, **fields) -> "SchreierGraph":
        """Build without ``validate()``: only for graphs derived from an
        already validated graph or ``PermAction``."""
        g = object.__new__(cls)
        g.__dict__.update(
            {"root": 0, "boundary": frozenset(), "truncation_radius": None, **fields}
        )
        return g

    @property
    def n(self) -> int:
        return len(self.next)

    @property
    def degree(self) -> int:
        return self.gens.degree

    @property
    def truncated(self) -> bool:
        return bool(self.boundary)

    def validate(self) -> None:
        n, d, inv = len(self.next), self.gens.degree, self.gens.inv
        if n == 0:
            raise GraphInvariantError("graph has no vertices")
        if not 0 <= self.root < n:
            raise GraphInvariantError(f"root {self.root} out of range")
        for v in self.boundary:
            if not 0 <= v < n:
                raise GraphInvariantError(f"boundary vertex {v} out of range")
        for v, row in enumerate(self.next):
            if len(row) != d:
                raise GraphInvariantError(f"vertex {v} has {len(row)} slots, expected {d}")
            for l, w in enumerate(row):
                if w is None:
                    if v not in self.boundary:
                        raise GraphInvariantError(
                            f"interior vertex {v} missing edge slot "
                            f"{self.gens.labels[l]}"
                        )
                    continue
                if not 0 <= w < n:
                    raise GraphInvariantError(f"edge target {w} out of range")
                if self.next[w][inv[l]] != v:
                    raise GraphInvariantError(
                        "label-consistency violated at edge "
                        f"({v},{self.gens.labels[l]})"
                    )
        # connectivity: paired slots make defined-slot BFS an undirected search
        if -1 in self.root_distances:
            v = self.root_distances.index(-1)
            raise GraphInvariantError(f"graph not connected from root: vertex {v} unreachable")

    @cached_property
    def root_distances(self) -> tuple[int, ...]:
        return bfs_distances(self, self.root)

    @cached_property
    def _boundary_distances(self) -> tuple[int, ...]:
        return bfs_distances(self, *self.boundary)

    def distance_to_boundary(self, v: int) -> float:
        """Graph distance from v to the nearest boundary vertex (inf if none)."""
        if not self.boundary:
            return float("inf")
        return self._boundary_distances[v]

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


def walk_endpoint(g: SchreierGraph, start: int, word: Word) -> int | _Boundary:
    """Follow ``word`` from ``start``; BOUNDARY if the walk leaves the stored graph."""
    v = start
    for letter in word.letters:
        nxt = g.next[v][letter]
        if nxt is None:
            return BOUNDARY
        v = nxt
    return v


def canonical_rows(
    table: Sequence[Sequence[int | None]], root: int, radius: int | None = None
) -> tuple[dict[int, int], tuple[tuple[int | None, ...], ...]]:
    """Renumber vertices in BFS order from ``root``, slots taken in label order.

    Returns the old-to-new index (its iteration order is the BFS order) and
    the renumbered rows.  With a ``radius`` the search stops at that depth
    and costs only the size of the R-ball: a vertex at depth R keeps just
    its slots back to depth R−1, which is the R-ball of ``local.ball``.

    Because transition tables are deterministic (one slot per label), this
    ordering is invariant under relabeling: two rooted graphs are
    label-preserving isomorphic exactly when their canonical rows agree.
    """
    index = {root: 0}
    order = [root]
    start, depth = 0, 0  # order[start:] is the layer at ``depth``
    while start < len(order) and depth != radius:
        end = len(order)
        for v in order[start:end]:
            for w in table[v]:
                if w is not None and w not in index:
                    index[w] = len(order)
                    order.append(w)
        start, depth = end, depth + 1
    sphere = start if depth == radius else len(order)
    rows = [
        tuple(None if w is None else index[w] for w in table[v]) for v in order[:sphere]
    ]
    for v in order[sphere:]:
        # slots to unvisited vertices, or along the sphere, are not in the ball
        news = map(index.get, table[v])
        rows.append(tuple(j if j is not None and j < sphere else None for j in news))
    return index, tuple(rows)


def canonicalize(g: SchreierGraph) -> SchreierGraph:
    """The same rooted graph renumbered by ``canonical_rows`` (root 0)."""
    index, rows = canonical_rows(g.next, g.root)
    return SchreierGraph._trusted(
        gens=g.gens,
        next=rows,
        root=0,
        boundary=frozenset(index[v] for v in g.boundary),
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
    try:
        return SchreierGraph(
            gens=gens,
            next=tuple(tuple(row) for row in table),
            root=root,
            boundary=frozenset(boundary),
            truncation_radius=radius,
        )
    except GraphInvariantError as exc:
        raise SGF1Error(str(exc)) from exc


@dataclass(frozen=True)
class PermAction:
    """An action of the generating alphabet on points by permutations.

    ``perms[l]`` is the permutation of ``range(degree)`` induced by label l,
    and inverse labels must act by inverse permutations.  The orbit of a
    base point, read as a transition table, is a Schreier graph of the
    point stabilizer.
    """

    gens: GenSet
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        d = self.gens.degree
        if len(self.perms) != d:
            raise GraphInvariantError(f"expected {d} permutations, got {len(self.perms)}")
        n = len(self.perms[0])
        if n == 0:
            raise GraphInvariantError("an action needs at least one point")
        for l, p in enumerate(self.perms):
            if len(p) != n or sorted(p) != list(range(n)):
                raise GraphInvariantError(
                    f"label {self.gens.labels[l]} does not act by a permutation"
                )
        for l in range(d):
            q = self.perms[self.gens.inv[l]]
            p = self.perms[l]
            for x in range(n):
                if q[p[x]] != x:
                    raise GraphInvariantError(
                        f"label {self.gens.labels[l]}: inverse label does not act "
                        "by the inverse permutation"
                    )

    @property
    def degree(self) -> int:
        return len(self.perms[0])

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """The action as a transition table: ``table[x][l]`` is the image of
        x under label l, so ``canonical_rows(act.table, x)`` numbers the
        orbit of x as its Schreier graph."""
        return tuple(zip(*self.perms))

    def word_permutation(self, word: Word) -> tuple[int, ...]:
        cur = list(range(self.degree))
        for letter in word.letters:
            p = self.perms[letter]
            cur = [p[x] for x in cur]
        return tuple(cur)

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
        return cls(gens, tuple(perms))


def orbit_of(act: PermAction, base: int) -> list[int]:
    """The orbit of ``base`` in the breadth-first order of ``canonical_rows``."""
    return list(canonical_rows(act.table, base)[0])
