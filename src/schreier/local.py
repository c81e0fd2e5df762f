"""Rooted balls, ball statistics, and local-approximation inequalities.

The R-ball around a vertex contains the vertices within distance R and the
edges having an endpoint at distance at most R−1.  Edges between two
sphere vertices are deliberately not part of the ball: a ball is what
walks of length R issued from the root can certify, and with this reading
a ball is tree-like exactly when no two distinct reduced words of length
at most R collide — which is what makes the fixed-point inequalities below
exact with word lists of length at most 2R.

Schreier graphs are deterministic, so ball classes need no isomorphism
search.  In the endpoint table E[x, k] = x·w_k over the reduced words of
length ≤ R, two roots have isomorphic R-balls exactly when their rows have
one first-occurrence pattern (entry k is the first column ending where w_k
does, −1 off the stored graph): every ball vertex ends a geodesic word and
every ball edge joins the ends of w and w·l, |w| < R.  A class digest is
the SHA-256 of the radius, the alphabet and that pattern.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from schreier.core import (
    GenSet,
    InequalityViolation,
    InsufficientRadiusError,
    PermAction,
    SchreierGraph,
    Word,
    canonical_rows,
    is_reduced,
    require_whole,
    stored_layers,
)

__all__ = [
    "RootedBall",
    "BallDistribution",
    "BallDistanceResult",
    "LocalApproxReport",
    "ball",
    "ball_distance",
    "bs_statistics",
    "fix_density",
    "enumerate_reduced_words",
    "local_approx_check",
]


@dataclass(frozen=True)
class RootedBall:
    """A canonical rooted R-ball; equal digests ⟺ isomorphic balls.  The digest
    is the root's endpoint-table class, as ``bs_statistics`` keys it."""

    radius: int
    graph: SchreierGraph

    @cached_property
    def digest(self) -> str:
        g = self.graph
        return _ball_classes(g.slots, g.gens, np.array([g.root]), self.radius)[0][0]


def ball(g: SchreierGraph, v: int, radius: int) -> RootedBall:
    """Extract the canonical R-ball around v.

    An incomplete core is refused (``stored_layers``): no table stores its
    trees.  On truncated inputs v must sit at distance at least R from the
    truncation boundary, which (graphs being stored as induced subgraphs)
    guarantees the extracted ball equals the true one.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if g.boundary:
        stored_layers(g, v, radius - 1, radius, f"a {radius}-ball")
    rows = canonical_rows(g.slots, v, radius)[1]
    boundary = frozenset(np.flatnonzero((rows < 0).any(axis=1)).tolist())
    inner = SchreierGraph._trusted(
        gens=g.gens,
        slots=rows,
        boundary=boundary,
        truncation_radius=radius if boundary else None,
    )
    return RootedBall(radius=radius, graph=inner)


@dataclass(frozen=True)
class BallDistanceResult:
    """1/k for the largest k with isomorphic k-balls; when every radius up
    to the cap matched, ``exact`` is False and ``value`` is only an upper
    bound on the true distance."""

    value: Fraction
    agreement_radius: int
    exact: bool


def ball_distance(
    g1: SchreierGraph, g2: SchreierGraph, max_radius: int = 32
) -> BallDistanceResult:
    if g1.gens != g2.gens:
        raise ValueError("ball distance compares graphs over one alphabet")
    if max_radius < 1:
        raise ValueError("max_radius must be at least 1")
    for r in range(1, max_radius + 1):
        try:
            b1 = ball(g1, g1.root, r)
            b2 = ball(g2, g2.root, r)
        except InsufficientRadiusError as exc:
            raise InsufficientRadiusError(
                f"cannot compare {r}-balls (agreement so far: radius {r - 1}): {exc}"
            ) from exc
        if b1 != b2:
            return BallDistanceResult(
                value=Fraction(1, max(r - 1, 1)), agreement_radius=r - 1, exact=True
            )
    return BallDistanceResult(
        value=Fraction(1, max_radius), agreement_radius=max_radius, exact=False
    )


@dataclass(frozen=True, eq=False)
class BallDistribution:
    """Exact distribution of R-ball classes under a uniform random root."""

    radius: int
    n: int
    frequencies: dict[str, Fraction]

    def __post_init__(self) -> None:
        numerators, common = _over_common(self.frequencies.values())
        if sum(numerators) != common:
            raise AssertionError("ball-class frequencies must sum to 1")


def _over_common(law: Iterable[Fraction]) -> tuple[list[int], int]:
    """The integer numerators of ``law`` over D, the lcm of their
    denominators, and D: sums and comparisons of the law are then exact
    integer ones, with no ``Fraction`` built."""
    law = tuple(law)
    common = math.lcm(*{p.denominator for p in law})
    return [p.numerator * (common // p.denominator) for p in law], common


def bs_statistics(g: SchreierGraph, radius: int) -> BallDistribution:
    """Exact R-ball class frequencies over all vertices of a finite graph,
    by descending frequency, then digest."""
    require_whole(g, "ball statistics")
    digests, classes = _ball_classes(g.slots, g.gens, np.arange(g.n), radius)
    counts = np.bincount(classes, minlength=len(digests)).tolist()
    order = sorted(range(len(digests)), key=lambda c: (-counts[c], digests[c]))
    freqs = {digests[c]: Fraction(counts[c], g.n) for c in order}
    return BallDistribution(radius=radius, n=g.n, frequencies=freqs)


# ---------------------------------------------------------------------------
# Fixed points and the local-approximation inequalities
# ---------------------------------------------------------------------------


def fix_density(act: PermAction, word: Word) -> Fraction:
    """Fraction of points fixed by the permutation the word evaluates to."""
    fixed = np.count_nonzero(act.word_images(word) == np.arange(act.degree))
    return Fraction(int(fixed), act.degree)


def _word_tree(gens: GenSet, max_length: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The reduced words of length ≤ max_length as a tree, level by level
    in length-then-lex order: column k is word ``parent[k]`` followed by
    ``letter[k]``, column 0 is the empty word, and the words of length j
    are the columns ``starts[j]:starts[j + 1]``."""
    inv = np.array(gens.inv + (-1,))  # the empty word's letter, -1, bans none
    parent, letter, starts = np.array([-1]), np.array([-1]), [0, 1]
    for _ in range(max_length):
        kids = np.repeat(np.arange(starts[-2], starts[-1]), gens.degree)
        letters = np.tile(np.arange(gens.degree), starts[-1] - starts[-2])
        keep = letters != inv[letter[kids]]
        parent = np.append(parent, kids[keep])
        letter = np.append(letter, letters[keep])
        starts.append(len(parent))
    return parent, letter, starts


def enumerate_reduced_words(gens: GenSet, max_length: int) -> list[Word]:
    """All nonempty reduced words of length ≤ max_length, in length-then-lex
    order.  (A letter never follows its inverse; for an involutive letter
    that also rules out the immediate repeat.)"""
    parent, letter, _ = _word_tree(gens, max_length)
    letters: list[tuple[int, ...]] = [()]
    for p, l in zip(parent[1:].tolist(), letter[1:].tolist()):
        letters.append(letters[p] + (l,))
    return [Word(w) for w in letters[1:]]


@dataclass(frozen=True, eq=False)
class LocalApproxReport:
    """Both fixed-point inequalities at one scale, exactly.

    Let P be the probability that the R-ball around a uniform root is the
    free (tree) ball class.  Every tested word w satisfies
    fix_density(w) ≤ 1 − P, and when the word list is the complete set of
    nonempty reduced words of length ≤ 2R, additionally
    P ≥ 1 − Σ_w fix_density(w).  Both are theorems for words that are
    nontrivial in the free product; the report constructor re-checks them
    and raises on violation.
    """

    radius: int
    n: int
    tree_ball_probability: Fraction
    densities: tuple[tuple[Word, Fraction], ...]
    words_complete: bool

    def __post_init__(self) -> None:
        ceiling = 1 - self.tree_ball_probability
        for word, density in self.densities:
            if density > ceiling:
                raise InequalityViolation(
                    f"fix-density {density} of a length-{len(word.letters)} word "
                    f"exceeds 1 - P = {ceiling} at radius {self.radius}"
                )
        if self.words_complete and self.tree_ball_probability < 1 - self.density_sum:
            raise InequalityViolation(
                f"P = {self.tree_ball_probability} fell below "
                f"1 - Σ fix-densities = {1 - self.density_sum} at radius {self.radius}"
            )

    @property
    def density_sum(self) -> Fraction:
        return sum((d for _, d in self.densities), start=Fraction(0))


_CELLS = 1 << 20  # endpoint-table entries per chunk; its pattern pass peaks near 48 MB


def _endpoint_tables(
    slots: np.ndarray, gens: GenSet, roots: np.ndarray, radius: int, max_length: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """(offset into ``roots``, E, P) in chunks under ``_CELLS`` entries:
    E[x, k] = x·w_k over the reduced words of length ≤ max_length, and P
    each row's first-occurrence pattern over those of length ≤ R.  A
    missing slot steps to the sentinel n, whose every slot is n."""
    parent, letter, starts = _word_tree(gens, max_length)
    n, near = len(slots), starts[radius + 1]
    vertex = np.int32 if n < 2**31 - 1 else np.int64  # holds every vertex and n
    step_to = np.vstack([np.where(slots < 0, n, slots), np.full((1, gens.degree), n)])
    step_to, roots = step_to.astype(vertex), np.asarray(roots, dtype=vertex)
    columns, step = np.arange(near, dtype=vertex), max(1, _CELLS // len(parent))
    for first in range(0, len(roots), step):
        ends = np.repeat(roots[first : first + step, None], len(parent), axis=1)
        for lo, hi in zip(starts[1:], starts[2:]):
            ends[:, lo:hi] = step_to[ends[:, parent[lo:hi]], letter[lo:hi]]
        order = np.argsort(ends[:, :near], axis=1, kind="stable")  # runs by first column
        ordered = np.take_along_axis(ends, order, axis=1)
        runs = np.where(np.diff(ordered, axis=1, prepend=-1) != 0, columns, 0)
        np.maximum.accumulate(runs, axis=1, out=runs)
        pattern = np.empty(order.shape, dtype=np.int32)
        np.put_along_axis(pattern, order, np.take_along_axis(order, runs, axis=1), axis=1)
        pattern[ends[:, :near] == n] = -1
        yield first, ends, pattern


def _ball_classes(
    slots: np.ndarray, gens: GenSet, roots: np.ndarray, radius: int
) -> tuple[list[str], np.ndarray]:
    """The distinct R-ball class digests of ``roots`` and each root's index
    into them; a root nearer than R to a missing slot gets its stored ball's."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    index: dict[bytes, int] = {}  # pattern row -> class
    classes = np.empty(len(roots), dtype=np.int64)
    for first, ends, pattern in _endpoint_tables(slots, gens, roots, radius, radius):
        rows, inverse = np.unique(pattern.view(f"V{pattern.strides[0]}"), return_inverse=True)
        ids = [index.setdefault(row, len(index)) for row in rows.tolist()]
        classes[first : first + len(ends)] = np.array(ids)[inverse.ravel()]
    if not index:
        return [], classes
    # the payload is repr((radius, labels, inv, row)), its row spelled by str
    head = repr((radius, gens.labels, gens.inv, []))[:-2]
    rows = np.frombuffer(b"".join(index), np.int32).reshape(len(index), -1).tolist()
    payloads = (f"{head}{str(row)[1:]})".encode() for row in rows)
    return [hashlib.sha256(p).hexdigest() for p in payloads], classes


def _endpoint_counts(act: PermAction, radius: int, max_length: int) -> tuple[int, np.ndarray]:
    """Both sides of the local-approximation check from one endpoint table
    over the reduced words of length ≤ max_length (≥ R): the number of
    points whose R-ball is the tree ball (no repeat in the pattern) and
    the number each nonempty word fixes, in word order."""
    tree, fixed = 0, 0
    slots, points = act.slots, np.arange(act.degree)
    for _, ends, pattern in _endpoint_tables(slots, act.gens, points, radius, max_length):
        tree += int((pattern == np.arange(pattern.shape[1])).all(axis=1).sum())
        fixed = fixed + (ends == ends[:, :1]).sum(axis=0)
    return tree, fixed[1:]


def local_approx_check(
    actions: Sequence[PermAction],
    radius: int,
    words: Sequence[Word] | None = None,
) -> tuple[LocalApproxReport, ...]:
    """Check the fixed-point inequalities on each action, exactly.

    With ``words=None`` every nonempty reduced word of length ≤ 2R is
    used and both inequalities are asserted; an explicit word list (each
    word reduced, nonempty, of length ≤ 2R) asserts only the per-word
    bound, since the aggregate one needs the complete list.  Words are
    label-index sequences, so a list needs every action on one alphabet.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if words is not None:
        if any(act.gens != actions[0].gens for act in actions):
            raise ValueError(
                "a word list reads the same letters in every action; "
                "the actions have different alphabets"
            )
        for w in words:
            if not w.letters:
                raise ValueError("word lists must contain nonempty words")
            if len(w.letters) > 2 * radius:
                raise ValueError(
                    f"word of length {len(w.letters)} exceeds 2R = {2 * radius}; "
                    "the fixed-point bound is only guaranteed up to that length"
                )
    reports = []
    for act in actions:
        if len(canonical_rows(act.slots, 0)[0]) != act.degree:
            raise ValueError(
                "local approximation compares one coset space at a time; "
                "restrict the action to an orbit first"
            )
        if words is not None and not all(is_reduced(act.gens, w) for w in words):
            raise ValueError("word lists must be reduced")
        tree, fixed = _endpoint_counts(act, radius, 2 * radius if words is None else radius)
        if words is None:
            all_words = enumerate_reduced_words(act.gens, 2 * radius)
            pairs = [(w, Fraction(int(c), act.degree)) for w, c in zip(all_words, fixed)]
        else:
            pairs = [(w, fix_density(act, w)) for w in words]
        reports.append(
            LocalApproxReport(
                radius=radius,
                n=act.degree,
                tree_ball_probability=Fraction(tree, act.degree),
                densities=tuple(pairs),
                words_complete=words is None,
            )
        )
    return tuple(reports)

