"""Empirical conjugation-invariant distributions over subgroups.

A random subgroup is handled extensionally, as the rooted Schreier graph
of the corresponding coset space — the two carry the same information,
and rooted graphs are finite, canonicalizable objects.  An ensemble is a
weighted list of rooted graphs; conjugating the subgroup by a generator
is moving the root along that generator's edge, so conjugation
invariance becomes a measurable statement about R-ball statistics under
root moves.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from schreier.builders import from_perm_action
from schreier.core import (
    GenSet,
    InsufficientRadiusError,
    PermAction,
    SchreierGraph,
    orbit_of,
    parse,
    serialize,
)
from schreier.local import ball, tv_distance

__all__ = [
    "Provenance",
    "IrsEnsemble",
    "InvarianceReport",
    "WeakConvergenceReport",
    "uniform_conjugate",
    "stabilizer_sample",
    "point_mass",
    "ensemble_ball_distribution",
    "invariance_diagnostic",
    "weak_convergence_diagnostic",
    "to_json",
    "from_json",
]


@dataclass(frozen=True)
class Provenance:
    source: str
    seed: int | None
    sample_count: int


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


def uniform_conjugate(act: PermAction) -> IrsEnsemble:
    """The stabilizer of a uniformly random point of a transitive action:
    one rooted copy of the orbit graph per vertex, weight 1/n each."""
    n = act.degree
    if len(orbit_of(act, 0)) != n:
        raise ValueError("uniform conjugation needs a transitive action")
    samples = tuple(from_perm_action(act, base=v) for v in range(n))
    return IrsEnsemble(
        gens=act.gens,
        samples=samples,
        weights=(Fraction(1, n),) * n,
        kind="exact",
        provenance=Provenance(
            source=f"uniform conjugate of an action on {n} points",
            seed=None,
            sample_count=n,
        ),
    )


def _sample_seed(master: int, index: int) -> int:
    # per-sample streams: sample i always draws from Random(master·2³² + i)
    return master * 2**32 + index


def stabilizer_sample(act: PermAction, count: int, seed: int) -> IrsEnsemble:
    """Stabilizers of ``count`` uniform points, as rooted orbit graphs."""
    if count < 1:
        raise ValueError("need at least one sample")
    samples = []
    for i in range(count):
        x = random.Random(_sample_seed(seed, i)).randrange(act.degree)
        samples.append(from_perm_action(act, base=x))
    return IrsEnsemble(
        gens=act.gens,
        samples=tuple(samples),
        weights=(Fraction(1, count),) * count,
        kind="sampled",
        provenance=Provenance(
            source=f"stabilizers of uniform points of an action on {act.degree} points",
            seed=seed,
            sample_count=count,
        ),
    )


def point_mass(g: SchreierGraph, source: str = "point mass") -> IrsEnsemble:
    return IrsEnsemble(
        gens=g.gens,
        samples=(g,),
        weights=(Fraction(1),),
        kind="exact",
        provenance=Provenance(source=source, seed=None, sample_count=1),
    )


def ensemble_ball_distribution(
    e: IrsEnsemble, radius: int, move: int | None = None
) -> dict[str, Fraction]:
    """Weighted R-ball class distribution, optionally after moving every
    root along generator ``move`` first."""
    dist: dict[str, Fraction] = {}
    for g, w in zip(e.samples, e.weights):
        root = g.root
        if move is not None:
            root = g.next[root][move]
            if root is None:
                raise InsufficientRadiusError(
                    "cannot move the root along a missing slot"
                )
        digest = ball(g, root, radius).digest
        dist[digest] = dist.get(digest, Fraction(0)) + w
    return dist


@dataclass(frozen=True)
class InvarianceReport:
    """Total-variation response of R-ball statistics to root moves.

    A conjugation-invariant ensemble has ``max_tv == 0``; exact kinds
    report the TV itself, sampled kinds additionally carry a rough
    DKW-style confidence radius for reading the empirical value.
    """

    radius: int
    kind: str
    per_generator: tuple[tuple[str, Fraction], ...]
    confidence_radius: float | None

    @property
    def max_tv(self) -> Fraction:
        return max(tv for _, tv in self.per_generator)

    @property
    def invariant(self) -> bool:
        return self.max_tv == 0


def invariance_diagnostic(e: IrsEnsemble, radius: int) -> InvarianceReport:
    for g in e.samples:
        if g.truncated and g.distance_to_boundary(g.root) < radius + 1:
            raise InsufficientRadiusError(
                f"invariance at radius {radius} needs radius {radius + 1} around "
                "every sample root"
            )
    base = ensemble_ball_distribution(e, radius)
    rows = []
    for l, name in enumerate(e.gens.labels):
        moved = ensemble_ball_distribution(e, radius, move=l)
        rows.append((name, tv_distance(base, moved)))
    confidence = None
    if e.kind == "sampled":
        confidence = math.sqrt(2.0 * math.log(40.0) / e.provenance.sample_count)
    return InvarianceReport(
        radius=radius,
        kind=e.kind,
        per_generator=tuple(rows),
        confidence_radius=confidence,
    )


@dataclass(frozen=True)
class WeakConvergenceReport:
    radius: int
    consecutive: tuple[Fraction, ...]
    against_limit: tuple[Fraction, ...] | None
    monotone_toward_limit: bool | None


def weak_convergence_diagnostic(
    ensembles: Sequence[IrsEnsemble],
    radius: int,
    limit: IrsEnsemble | None = None,
) -> WeakConvergenceReport:
    """TV distances of R-ball statistics along a sequence of ensembles,
    and against a designated limit; trends are reported, never asserted."""
    if not ensembles:
        raise ValueError("need at least one ensemble")
    gens = ensembles[0].gens
    if any(e.gens != gens for e in ensembles) or (limit and limit.gens != gens):
        raise ValueError("ensembles must share one alphabet")
    dists = [ensemble_ball_distribution(e, radius) for e in ensembles]
    consecutive = tuple(tv_distance(a, b) for a, b in zip(dists, dists[1:]))
    against = None
    monotone = None
    if limit is not None:
        limit_dist = ensemble_ball_distribution(limit, radius)
        against = tuple(tv_distance(d, limit_dist) for d in dists)
        monotone = all(a >= b for a, b in zip(against, against[1:]))
    return WeakConvergenceReport(
        radius=radius,
        consecutive=consecutive,
        against_limit=against,
        monotone_toward_limit=monotone,
    )


def to_json(e: IrsEnsemble) -> str:
    return json.dumps(
        {
            "schema": 1,
            "kind": e.kind,
            "provenance": {
                "source": e.provenance.source,
                "seed": e.provenance.seed,
                "sample_count": e.provenance.sample_count,
            },
            "weights": [
                {"num": w.numerator, "den": w.denominator} for w in e.weights
            ],
            "samples": [serialize(g) for g in e.samples],
        },
        indent=1,
    )


def from_json(text: str) -> IrsEnsemble:
    data = json.loads(text)
    if data.get("schema") != 1:
        raise ValueError("unsupported ensemble schema")
    samples = tuple(parse(s) for s in data["samples"])
    prov = data["provenance"]
    return IrsEnsemble(
        gens=samples[0].gens,
        samples=samples,
        weights=tuple(Fraction(w["num"], w["den"]) for w in data["weights"]),
        kind=data["kind"],
        provenance=Provenance(
            source=prov["source"],
            seed=prov["seed"],
            sample_count=prov["sample_count"],
        ),
    )
