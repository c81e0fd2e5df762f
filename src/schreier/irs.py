"""Empirical conjugation-invariant distributions over subgroups.

A random subgroup is handled extensionally, as the rooted Schreier graph
of the corresponding coset space — the two carry the same information,
and rooted graphs are finite, canonicalizable objects.  An ensemble is a
weighted list of rooted graphs; conjugating the subgroup by a generator
is moving the root along that generator's edge, so conjugation
invariance becomes a measurable statement about R-ball statistics under
root moves.  Samples rooted in one orbit share one table, and one endpoint
table over its roots and moved roots gives all their R-ball classes, keyed
by the ``local`` digest of a root's first-occurrence pattern.

Every law is a row of integer numerators over one denominator D, the lcm
of the weights' denominators (n for ``uniform_conjugate``, ``count`` for
``stabilizer_sample``): a row sums to D, and two rows differ by at most 2D
in total, so rows are int64 while D ≤ (2⁶³ − 1) // 2 and Python ints
beyond.  ``Fraction``s are built only for the report; no float enters.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from schreier.core import (
    GenSet,
    PermAction,
    SchreierGraph,
    canonical_rows,
    stored_layers,
)
from schreier.local import _ball_classes, _over_common

__all__ = [
    "Provenance",
    "IrsEnsemble",
    "InvarianceReport",
    "uniform_conjugate",
    "stabilizer_sample",
    "invariance_diagnostic",
]


@dataclass(frozen=True)
class Provenance:
    source: str
    seed: int | None


@dataclass(frozen=True, eq=False)
class IrsEnsemble:
    """Weighted rooted Schreier graphs over one alphabet.

    ``kind`` distinguishes exact ensembles (weights are the distribution
    itself) from sampled ones (weights are empirical frequencies); only
    exact ensembles support exact-zero invariance assertions.
    """

    gens: GenSet
    samples: tuple[SchreierGraph, ...]
    weights: tuple[Fraction, ...]
    kind: str
    provenance: Provenance

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "sampled"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if len(self.samples) != len(self.weights) or not self.samples:
            raise ValueError("need equally many samples and weights, at least one")
        numerators, common = self._numerators
        if min(numerators) <= 0:
            raise ValueError("weights must be positive")
        if sum(numerators) != common:
            raise ValueError("weights must sum to 1")
        if any(g.gens != self.gens for g in self.samples):
            raise ValueError("samples must share the ensemble's alphabet")

    @cached_property
    def _numerators(self) -> tuple[list[int], int]:
        """Each weight's integer numerator over D, the lcm of the weights'
        denominators, and D."""
        return _over_common(self.weights)


def _rooted_orbits(act: PermAction, points: Iterable[int]) -> tuple[SchreierGraph, ...]:
    """The orbit graph of each point, rooted at it: one table per orbit,
    shared by every sample rooted in that orbit."""
    where: dict[int, tuple[np.ndarray, int]] = {}  # point -> (orbit table, vertex)
    samples = []
    for x in points:
        if x not in where:
            order, table = canonical_rows(act.slots, x)
            where.update((y, (table, i)) for i, y in enumerate(order.tolist()))
        table, root = where[x]
        samples.append(SchreierGraph._trusted(gens=act.gens, slots=table, root=root))
    return tuple(samples)


def uniform_conjugate(act: PermAction) -> IrsEnsemble:
    """The stabilizer of a uniformly random point of a transitive action:
    the orbit graph rooted at each vertex, weight 1/n each.  The orbit of
    point 0 is numbered first, and an action it does not cover is refused
    before any sample is built."""
    n = act.degree
    order, table = canonical_rows(act.slots, 0)
    if len(order) != n:
        raise ValueError("uniform conjugation needs a transitive action")
    roots = np.empty(n, dtype=np.int64)
    roots[order] = np.arange(n)  # point x is vertex roots[x]
    return IrsEnsemble(
        gens=act.gens,
        samples=tuple(
            SchreierGraph._trusted(gens=act.gens, slots=table, root=root)
            for root in roots.tolist()
        ),
        weights=(Fraction(1, n),) * n,
        kind="exact",
        provenance=Provenance(f"uniform conjugate of an action on {n} points", None),
    )


def _sample_seed(master: int, index: int) -> int:
    # per-sample streams: sample i always draws from Random(master·2³² + i)
    return master * 2**32 + index


def stabilizer_sample(act: PermAction, count: int, seed: int) -> IrsEnsemble:
    """Stabilizers of ``count`` uniform points, as rooted orbit graphs."""
    if count < 1:
        raise ValueError("need at least one sample")
    points = (
        random.Random(_sample_seed(seed, i)).randrange(act.degree) for i in range(count)
    )
    return IrsEnsemble(
        gens=act.gens,
        samples=_rooted_orbits(act, points),
        weights=(Fraction(1, count),) * count,
        kind="sampled",
        provenance=Provenance(
            source=f"stabilizers of uniform points of an action on {act.degree} points",
            seed=seed,
        ),
    )


# a law's row sums to D and two rows differ by at most 2D, which int64
# holds for D up to this; a larger D keeps its rows in Python ints
_INT64_DENOMINATOR_CAP = (2**63 - 1) // 2


def _distributions(e: IrsEnsemble, radius: int) -> tuple[list[str], np.ndarray, int]:
    """The R-ball class digests met at the roots and moved roots, a
    (d + 1) × K integer array of laws over them, and its denominator D.
    Row 0 is the law at the roots and row 1 + l the law after moving every
    root along label l; entry [r, c] is the summed numerators over D of the
    samples whose row-r root lies in class c, so each row sums to D.  One
    endpoint table per shared orbit table classes its samples' roots and
    moved roots.  The rows are int64 while D ≤ ``_INT64_DENOMINATOR_CAP``
    and Python ints (an object array) beyond."""
    numerators, common = e._numerators
    exact = np.int64 if common <= _INT64_DENOMINATOR_CAP else object
    tables: dict[int, list[int]] = {}  # id(slots) -> the samples rooted in it
    for i, g in enumerate(e.samples):
        tables.setdefault(id(g.slots), []).append(i)
    index: dict[str, int] = {}  # digest -> class
    codes = []
    for members in tables.values():
        slots = e.samples[members[0]].slots
        roots = np.array([e.samples[i].root for i in members])
        at = np.column_stack([roots, slots[roots]])  # each root, then moved by each label
        vertices, where = np.unique(at, return_inverse=True)
        digests, classes = _ball_classes(slots, e.gens, vertices, radius)
        ids = np.array([index.setdefault(d, len(index)) for d in digests])
        codes.append(ids[classes[where.reshape(at.shape)]])
    weights = np.array(numerators, dtype=exact)[np.concatenate(list(tables.values()))]
    laws = np.zeros((e.gens.degree + 1, len(index)), dtype=exact)
    np.add.at(laws, (np.arange(e.gens.degree + 1), np.concatenate(codes)), weights[:, None])
    return list(index), laws, common


@dataclass(frozen=True)
class InvarianceReport:
    """Total-variation response of R-ball statistics to root moves.

    A conjugation-invariant ensemble has ``max_tv == 0``; exact kinds
    report the TV itself.  Sampled kinds also carry ``confidence_radius`` =
    √(2 ln 40 / m) for m samples, a heuristic: it ignores the number K of
    ball classes and does not bound the TV between empirical laws over K
    classes, which exactly invariant ensembles exceed at large K.
    ``distribution`` is the law at the roots, by descending weight, then
    digest.
    """

    radius: int
    kind: str
    per_generator: tuple[tuple[str, Fraction], ...]
    confidence_radius: float | None
    distribution: dict[str, Fraction]

    @property
    def max_tv(self) -> Fraction:
        return max(tv for _, tv in self.per_generator)


def invariance_diagnostic(e: IrsEnsemble, radius: int) -> InvarianceReport:
    for g in e.samples:
        if g.boundary:
            stored_layers(g, g.root, radius, radius + 1, f"invariance at radius {radius}")
    digests, laws, common = _distributions(e, radius)
    apart = np.abs(laws[1:] - laws[0]).sum(axis=1).tolist()
    rows = tuple((name, Fraction(a, 2 * common)) for name, a in zip(e.gens.labels, apart))
    base = laws[0].tolist()
    held = sorted(np.flatnonzero(laws[0]).tolist(), key=lambda c: (-base[c], digests[c]))
    confidence = None
    if e.kind == "sampled":
        confidence = math.sqrt(2.0 * math.log(40.0) / len(e.samples))
    return InvarianceReport(
        radius=radius,
        kind=e.kind,
        per_generator=rows,
        confidence_radius=confidence,
        distribution={digests[c]: Fraction(base[c], common) for c in held},
    )
