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

``next`` is tuples of Python ints, read by the exact code: the walk DPs,
canonical rows and digests.  ``slots`` is the same table as one read-only
n×d int64 array, −1 for a missing slot, read by the array code: the trust
boundaries (``validate``, ``parse``), the Markov matrix, the bipartition
test and the cycle census.

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
        already validated graph or ``PermAction``, and for ``parse``, which
        passes its ``slots`` array and then validates."""
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
        """Check the invariants and cache ``slots``.

        The table checks are masks over the slot array and one gather per
        label, ``slots[slots[:, l], inv[l]] == arange(n)``.  The first
        defect in (v, l) row-major order is reported, a row of the wrong
        length before its slots: an interior vertex's missing slot, a
        target that is not a vertex (a negative int included), a broken
        inverse pair.  Connectivity is a BFS from the root.
        """
        n, d, labels = len(self.next), self.gens.degree, self.gens.labels
        if n == 0:
            raise GraphInvariantError("graph has no vertices")
        if not 0 <= self.root < n:
            raise GraphInvariantError(f"root {self.root} out of range")
        for v in self.boundary:
            if not 0 <= v < n:
                raise GraphInvariantError(f"boundary vertex {v} out of range")
        slots = self.__dict__.get("slots")  # set by parse: −1 exactly where missing
        if slots is None:
            table, ragged = _float_table(self.next, d)
            missing = np.isnan(table)
            slots = np.where((table >= 0) & (table < n), table, -1).astype(np.int64)
        else:
            missing, ragged = slots < 0, n
        interior = np.ones(n, dtype=bool)
        interior[list(self.boundary)] = False
        back = slots[slots, np.asarray(self.gens.inv)]
        bad = np.where(
            missing, interior[:, None], (slots < 0) | (back != np.arange(n)[:, None])
        )
        v, l = divmod(int(bad.argmax()) if bad.any() else n * d, d)
        if ragged <= v and ragged < n:
            size = len(self.next[ragged])
            raise GraphInvariantError(f"vertex {ragged} has {size} slots, expected {d}")
        if v < n:
            if missing[v, l]:
                raise GraphInvariantError(
                    f"interior vertex {v} missing edge slot {labels[l]}"
                )
            if slots[v, l] < 0:
                raise GraphInvariantError(f"edge target {self.next[v][l]} out of range")
            raise GraphInvariantError(
                f"label-consistency violated at edge ({v},{labels[l]})"
            )
        # connectivity: paired slots make defined-slot BFS an undirected search
        if -1 in self.root_distances:
            v = self.root_distances.index(-1)
            raise GraphInvariantError(f"graph not connected from root: vertex {v} unreachable")
        slots.flags.writeable = False
        self.__dict__["slots"] = slots

    @cached_property
    def slots(self) -> np.ndarray:
        """The slot table as a read-only n×d int64 array, −1 for a missing
        slot.  ``validate`` and ``parse`` set it; a graph derived from a
        validated one builds it from ``next`` on first use."""
        table = _float_table(self.next, self.degree)[0]
        slots = np.where(np.isnan(table), -1, table).astype(np.int64)
        slots.flags.writeable = False
        return slots

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


def _float_table(
    rows: Sequence[Sequence[int | None]], d: int
) -> tuple[np.ndarray, int]:
    """``rows`` as an n×d float array, NaN for None, and the first row
    whose length is not d (n if none is).  When there is one, every row is
    cut or padded with None to d slots first.  A float holds every vertex
    index exactly and keeps any int below 10³⁰⁸ on its side of 0 and n."""
    n = len(rows)
    ragged = next((v for v, row in enumerate(rows) if len(row) != d), n)
    if ragged < n:
        rows = [tuple(row[:d]) + (None,) * (d - len(row)) for row in rows]
    return np.array(rows, dtype=float).reshape(n, d), ragged


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


# the line breaks of str.splitlines
_LINE_BREAK = re.compile(r"\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
# a break not followed by a plain ``e v l w`` or ``b v`` line
_IRREGULAR = re.compile(r"\n(?!(?:e [0-9]+ [0-9]+ [0-9]+|b [0-9]+)(?:\n|\Z))")
_EDGE_LINE = re.compile(r"e ([0-9]+) ([0-9]+) ([0-9]+)")
_BOUNDARY_LINE = re.compile(r"b ([0-9]+)")


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


def _line_error(line: str) -> SGF1Error:
    """The error of a body line that is not a valid ``e`` or ``b`` line."""
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
    way ``str.splitlines`` and ``str.strip`` read it), the lines before it
    become one numpy array, and masks over it find out-of-range values and
    duplicate slots.  An error names the first offending line in file
    order.  Numbers are ASCII digits.  A connected graph on n vertices has
    at least n − 1 edges, so a ``vertices n`` header with n above the
    number of ``e`` lines + 1 is refused before any table is allocated.
    The table is then checked by ``validate``.
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

    cut = irregular.start() if irregular else hi
    starts, is_edge, (v, l, w), boundary = _regular_lines(body[lo:cut])
    out = (v >= n) | (l >= d) | (w >= n)
    inside = np.flatnonzero(~out)
    slot = v[inside] * d + l[inside]
    repeat = np.zeros(len(v), dtype=bool)
    repeat[inside] = np.bincount(slot, minlength=n * d)[slot] > 1
    if repeat.any():  # a slot's first line is not a repeat
        shared = np.flatnonzero(repeat)
        repeat[shared[np.unique(v[shared] * d + l[shared], return_index=True)[1]]] = False
    edge_lines = np.flatnonzero(is_edge)
    offending = np.zeros(len(is_edge) + 1, dtype=bool)
    offending[edge_lines[out | repeat]] = True
    offending[np.flatnonzero(~is_edge)[boundary >= n]] = True
    offending[-1] = irregular is not None
    if offending.any():
        k = int(offending.argmax())
        e = int(np.searchsorted(edge_lines, k))
        if k < len(is_edge) and is_edge[k] and repeat[e]:
            raise SGF1Error(f"duplicate edge slot ({v[e]},{gens.labels[l[e]]})")
        start = cut + 1 if k == len(is_edge) else lo + starts[k]
        end = body.find("\n", start, hi)
        raise _line_error(body[start : end if end >= 0 else hi])

    slots = np.full((n, d), -1, dtype=np.int64)
    slots[v, l] = w
    rows = list(zip(*(slots[:, k].tolist() for k in range(d))))
    for r in np.flatnonzero((slots < 0).any(axis=1)).tolist():
        rows[r] = tuple(None if x < 0 else x for x in rows[r])
    g = SchreierGraph._trusted(
        gens=gens,
        next=tuple(rows),
        root=root,
        boundary=frozenset(boundary.tolist()),
        truncation_radius=radius,
        slots=slots,
    )
    try:
        g.validate()
    except GraphInvariantError as exc:
        raise SGF1Error(str(exc)) from exc
    return g


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
        # the labels before the first that maps outside range(n), as arrays
        fits = (len(p) == n and 0 <= min(p) <= max(p) < n for p in self.perms)
        k = next((l for l, ok in enumerate(fits) if not ok), d)
        perms = np.array(self.perms[:k], dtype=np.int64).reshape(k, n)
        hits = np.bincount((perms + n * np.arange(k)[:, None]).ravel(), minlength=k * n)
        onto = np.append((hits.reshape(k, n) == 1).all(axis=1), False)
        labels = self.gens.labels
        if not onto[:d].all():
            l = int(onto.argmin())
            raise GraphInvariantError(f"label {labels[l]} does not act by a permutation")
        back = perms[np.asarray(self.gens.inv)[:, None], perms]
        inverse = (back == np.arange(n)).all(axis=1)
        if not inverse.all():
            l = int(inverse.argmin())
            raise GraphInvariantError(
                f"label {labels[l]}: inverse label does not act by the inverse permutation"
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
            p = np.asarray(p, dtype=np.int64)
            q = np.empty_like(p)
            q[p] = np.arange(len(p))
            perms += [tuple(p.tolist()), tuple(q.tolist())]
        for p in involution_perms:
            p = np.asarray(p, dtype=np.int64)
            if (p[p] != np.arange(len(p))).any():
                raise GraphInvariantError("involution generator is not an involution")
            perms.append(tuple(p.tolist()))
        return cls(gens, tuple(perms))


def orbit_of(act: PermAction, base: int) -> list[int]:
    """The orbit of ``base`` in the breadth-first order of ``canonical_rows``."""
    return list(canonical_rows(act.table, base)[0])
