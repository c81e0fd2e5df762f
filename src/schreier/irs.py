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
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterable

import numpy as np

from schreier.core import (
    GenSet,
    InsufficientRadiusError,
    PermAction,
    SchreierGraph,
    bfs_layers,
    boundary_layer,
    canonical_rows,
)
from schreier.local import _ball_classes, tv_distance

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
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if sum(self.weights) != 1:
            raise ValueError("weights must sum to 1")
        if any(g.gens != self.gens for g in self.samples):
            raise ValueError("samples must share the ensemble's alphabet")


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


def _distributions(
    e: IrsEnsemble, radius: int
) -> tuple[dict[str, Fraction], list[dict[str, Fraction]]]:
    """Weighted R-ball class distributions at the roots and after moving every
    root along each label, from one endpoint table per shared orbit table
    over its samples' roots and moved roots.  A class's weight is exact for
    any weights: a count × weight per distinct weight, summed."""
    tables: dict[int, list[int]] = {}  # id(slots) -> the samples rooted in it
    for i, g in enumerate(e.samples):
        tables.setdefault(id(g.slots), []).append(i)
    pairs = [(w.numerator, w.denominator) for w in e.weights]  # hashed faster than Fractions
    index = {p: k for k, p in enumerate(dict.fromkeys(pairs))}
    distinct, ks = [Fraction(*p) for p in index], np.array([index[p] for p in pairs])
    tallies = [defaultdict(Counter) for _ in range(e.gens.degree + 1)]  # digest -> k -> count
    for members in tables.values():
        slots = e.samples[members[0]].slots
        roots = np.array([e.samples[i].root for i in members])
        at = np.column_stack([roots, slots[roots]])  # each root, then moved by each label
        vertices, where = np.unique(at, return_inverse=True)
        digests, classes = _ball_classes(slots, e.gens, vertices, radius)
        codes = classes[where.reshape(at.shape)] * len(distinct) + ks[members, None]
        for tally, column in zip(tallies, codes.T):
            found, counts = np.unique(column, return_counts=True)
            for code, count in zip(found.tolist(), counts.tolist()):
                c, k = divmod(code, len(distinct))
                tally[digests[c]][k] += count
    base, *moved = (
        {d: reduce(add, (c * distinct[k] for k, c in by_k.items())) for d, by_k in t.items()}
        for t in tallies
    )
    return base, moved


@dataclass(frozen=True)
class InvarianceReport:
    """Total-variation response of R-ball statistics to root moves.

    A conjugation-invariant ensemble has ``max_tv == 0``; exact kinds
    report the TV itself.  Sampled kinds also carry ``confidence_radius`` =
    √(2 ln 40 / m) for m samples, a heuristic: it ignores the number K of
    ball classes and does not bound the TV between empirical laws over K
    classes, which exactly invariant ensembles exceed at large K.
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
        if g.truncated and boundary_layer(g, *bfs_layers(g.slots, g.root, radius)) <= radius:
            raise InsufficientRadiusError(
                f"invariance at radius {radius} needs radius {radius + 1} around "
                "every sample root"
            )
    base, moved = _distributions(e, radius)
    rows = tuple((name, tv_distance(base, m)) for name, m in zip(e.gens.labels, moved))
    confidence = None
    if e.kind == "sampled":
        confidence = math.sqrt(2.0 * math.log(40.0) / len(e.samples))
    return InvarianceReport(
        radius=radius,
        kind=e.kind,
        per_generator=rows,
        confidence_radius=confidence,
        distribution=base,
    )
