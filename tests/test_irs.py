"""Ensembles of rooted Schreier graphs and their invariance diagnostics."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference

from schreier.builders import (
    CoreGraph,
    complete_ball,
    cyclic_action,
    from_perm_action,
    random_perm_action,
    random_perm_model,
    restrict_to_orbit,
    s3_regular,
    stallings_core,
)
from schreier.core import (
    GenSet,
    InsufficientRadiusError,
    PermAction,
    SchreierGraph,
    canonicalize,
    parse_word,
    serialize,
)
from schreier import irs, local
from schreier.cli import run
from schreier.irs import (
    IrsEnsemble,
    Provenance,
    _distributions,
    _rooted_orbits,
    invariance_diagnostic,
    stabilizer_sample,
    uniform_conjugate,
)
from schreier.local import bs_statistics


def line_ball(radius):
    """Ball of the two-sided infinite path, over the t/T alphabet."""
    gens = GenSet(("t", "T"), (1, 0))
    core = CoreGraph.from_table(gens, [[None, None]])
    return complete_ball(core, radius)


def two_point_action():
    # a swaps the two points, b fixes both
    return PermAction.from_generator_perms([(1, 0), (0, 1)], pair_names=("a", "b"))


def lopsided_action():
    # a cycles a triangle, b swaps two of its vertices: not vertex-transitive
    return PermAction.from_generator_perms([(1, 2, 0), (0, 2, 1)], pair_names=("a", "b"))


class TestEnsembleValidation:
    def test_weights_must_sum_to_one(self):
        g = from_perm_action(cyclic_action(4))
        with pytest.raises(ValueError, match="sum to 1"):
            IrsEnsemble(
                gens=g.gens,
                samples=(g, g),
                weights=(Fraction(1, 2), Fraction(1, 3)),
                kind="exact",
                provenance=Provenance("test", None),
            )

    def test_weights_must_be_positive(self):
        g = from_perm_action(cyclic_action(4))
        with pytest.raises(ValueError, match="positive"):
            IrsEnsemble(
                gens=g.gens,
                samples=(g, g),
                weights=(Fraction(3, 2), Fraction(-1, 2)),
                kind="exact",
                provenance=Provenance("test", None),
            )

    def test_samples_share_alphabet(self):
        g = from_perm_action(cyclic_action(4))
        h = from_perm_action(s3_regular())
        with pytest.raises(ValueError, match="alphabet"):
            IrsEnsemble(
                gens=g.gens,
                samples=(g, h),
                weights=(Fraction(1, 2), Fraction(1, 2)),
                kind="exact",
                provenance=Provenance("test", None),
            )

    def test_unknown_kind(self):
        g = from_perm_action(cyclic_action(4))
        with pytest.raises(ValueError, match="kind"):
            IrsEnsemble(
                gens=g.gens,
                samples=(g,),
                weights=(Fraction(1),),
                kind="empirical",
                provenance=Provenance("test", None),
            )


class TestUniformConjugate:
    def test_cycle_roots(self):
        e = uniform_conjugate(cyclic_action(6))
        assert e.kind == "exact"
        assert e.weights == (Fraction(1, 6),) * 6
        # every re-rooting of a cycle is the same rooted graph
        assert len({serialize(canonicalize(g)) for g in e.samples}) == 1
        assert e.samples[0].n == 6
        assert len(e.samples) == 6

    def test_needs_transitivity(self):
        fixes_everything = PermAction.from_generator_perms([(0, 1)], pair_names=("a",))
        with pytest.raises(ValueError, match="transitive"):
            uniform_conjugate(fixes_everything)

    def test_refused_before_any_sample_is_built(self, monkeypatch, capsys):
        built, searched = [], []
        trusted, rows = SchreierGraph._trusted, irs.canonical_rows
        monkeypatch.setattr(
            SchreierGraph, "_trusted", lambda **fields: built.append(1) or trusted(**fields)
        )
        monkeypatch.setattr(
            irs, "canonical_rows", lambda *a: searched.append(1) or rows(*a)
        )
        # one random permutation of 2000 points: many cycles, so many orbits
        assert run(["irs-sample", "--exact", "--action", "randperm:m=1,n=2000,seed=0"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: uniform conjugation needs a transitive action\n")
        assert (built, searched) == ([], [1])
        # a transitive action is searched once, then viewed from every root
        assert len(uniform_conjugate(cyclic_action(7)).samples) == 7
        assert (len(built), searched) == (7, [1, 1])

    def test_matches_ball_statistics_exactly(self):
        act = restrict_to_orbit(random_perm_action(2, 50, seed=3))
        g = random_perm_model(2, 50, seed=3)
        dist = invariance_diagnostic(uniform_conjugate(act), 2).distribution
        # equal laws, held in one order: descending weight, then digest
        assert list(dist.items()) == list(bs_statistics(g, 2).frequencies.items())


class TestStabilizerSample:
    def test_deterministic_per_seed(self):
        act = restrict_to_orbit(random_perm_action(2, 40, seed=9))
        a = stabilizer_sample(act, 25, seed=4)
        b = stabilizer_sample(act, 25, seed=4)
        assert [serialize(g) for g in a.samples] == [serialize(g) for g in b.samples]
        assert a.kind == "sampled"
        assert a.provenance.seed == 4
        assert a.weights == (Fraction(1, 25),) * 25

    def test_regular_action_is_a_point_mass(self):
        e = stabilizer_sample(s3_regular(), 12, seed=0)
        cayley = serialize(from_perm_action(s3_regular()))
        assert {serialize(canonicalize(g)) for g in e.samples} == {cayley}

    def test_trivial_letter_loops_at_every_root(self):
        act = two_point_action()
        e = stabilizer_sample(act, 10, seed=7)
        b = act.gens.index("b")
        a = act.gens.index("a")
        for g in e.samples:
            assert g.slots[g.root, b] == g.root
            assert g.slots[g.root, a] != g.root

    def test_count_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            stabilizer_sample(cyclic_action(3), 0, seed=0)


def _reference_points(act, count, seed):
    """The points ``stabilizer_sample`` draws: sample i from Random(seed·2³² + i)."""
    return [random.Random(seed * 2**32 + i).randrange(act.degree) for i in range(count)]


def _class_profiles(dists):
    """Each class's weights under the base law and every moved law: equal
    profiles mean equal partitions, up to renaming the class keys."""
    keys = set().union(*dists)
    return sorted(tuple(dist.get(k, 0) for dist in dists) for k in keys)


def _assert_matches_per_root_copies(e, act, points, radius):
    """The ensemble must answer as one canonical copy of the orbit graph per
    point did: the same rooted graphs, and ball distributions and root
    moves that partition the weight as the canonical rows of each copy's
    balls do."""
    refs = [from_perm_action(act, base=x) for x in points]
    assert [serialize(canonicalize(g)) for g in e.samples] == [serialize(r) for r in refs]
    for g in e.samples:
        g.validate()
    dists = [{} for _ in range(e.gens.degree + 1)]
    for r, w in zip(refs, e.weights):
        roots = [r.root] + r.slots[r.root].tolist()
        for dist, v in zip(dists, roots):
            digest = reference.rows_digest(r.gens, reference.rows(r), v, radius)
            dist[digest] = dist.get(digest, Fraction(0)) + w
    digests, laws, common = _distributions(e, radius)
    base, *moved = (
        {d: Fraction(c, common) for d, c in zip(digests, row) if c} for row in laws.tolist()
    )
    assert _class_profiles([base, *moved]) == _class_profiles(dists)
    report = invariance_diagnostic(e, radius)
    assert report.distribution == base
    assert report.per_generator == tuple(
        (name, reference.tv_distance(dists[0], m)) for name, m in zip(e.gens.labels, dists[1:])
    )


class TestSharedOrbitTables:
    """Samples are rooted views of one table per orbit, and answer exactly
    as the per-root copies the ensemble builders used to make."""

    @settings(deadline=None, max_examples=30)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        radius=st.integers(0, 3),
    )
    def test_uniform_conjugate(self, m, n, seed, radius):
        act = restrict_to_orbit(random_perm_action(m, n, seed))
        e = uniform_conjugate(act)
        _assert_matches_per_root_copies(e, act, range(act.degree), radius)
        assert len({id(g.slots) for g in e.samples}) == 1

    @settings(deadline=None, max_examples=30)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        count=st.integers(1, 30),
        sample_seed=st.integers(0, 1000),
        radius=st.integers(0, 3),
    )
    def test_stabilizer_sample(self, m, n, seed, count, sample_seed, radius):
        # random actions are usually not transitive, so samples hit several orbits
        act = random_perm_action(m, n, seed)
        e = stabilizer_sample(act, count, sample_seed)
        points = _reference_points(act, count, sample_seed)
        _assert_matches_per_root_copies(e, act, points, radius)
        orbit = {}
        for x in points:
            orbit.setdefault(x, frozenset(reference.orbit(act, x)))
        for g, x in zip(e.samples, points):
            for h, y in zip(e.samples, points):
                assert (g.slots is h.slots) == (orbit[x] == orbit[y])

    def test_two_orbit_tables(self):
        # a lopsided triangle (b swaps two of its points) beside a 4-cycle
        # of a that b fixes pointwise: the samples hit both orbit tables
        act = PermAction.from_generator_perms(
            [(1, 2, 0, 4, 5, 6, 3), (0, 2, 1, 3, 4, 5, 6)], pair_names=("a", "b")
        )
        e = stabilizer_sample(act, 30, seed=1)
        points = _reference_points(act, 30, 1)
        assert len({id(g.slots) for g in e.samples}) == 2
        for radius in range(4):
            _assert_matches_per_root_copies(e, act, points, radius)

    @settings(max_examples=200)
    @given(
        act=reference.sparse_actions(),
        points=st.lists(st.integers(0, 10**6), min_size=1, max_size=12),
    )
    def test_one_bfs_per_orbit_matches_two(self, act, points):
        # mostly non-transitive actions with involutions, from random points
        points = [x % act.degree for x in points]
        samples = _rooted_orbits(act, points)
        assert [(reference.rows(g), g.root) for g in samples] == reference.rooted_orbits(act, points)


def _fraction_laws(e, radius):
    """The law at the roots and after each root move as ``Fraction`` dicts
    keyed by ``reference.rows_digest``, summed weight by weight, and the
    map from each class's ``local`` digest to that key, checked one to one."""
    laws, pairs = [{} for _ in range(e.gens.degree + 1)], set()
    for g, w in zip(e.samples, e.weights):
        for law, v in zip(laws, [g.root, *g.slots[g.root].tolist()]):
            key = reference.rows_digest(g.gens, g.slots, v, radius)
            law[key] = law.get(key, Fraction(0)) + w
            pairs.add((local._ball_classes(g.slots, g.gens, np.array([v]), radius)[0][0], key))
    assert len(pairs) == len({d for d, _ in pairs}) == len({k for _, k in pairs})
    return laws, dict(pairs)


def _assert_matches_fraction_laws(e, radius):
    laws, key = _fraction_laws(e, radius)
    report = invariance_diagnostic(e, radius)
    items = list(report.distribution.items())
    assert items == sorted(items, key=lambda item: (-item[1], item[0]))
    assert {key[d]: w for d, w in items} == laws[0]
    assert report.per_generator == tuple(
        (name, reference.tv_distance(laws[0], moved)) for name, moved in zip(e.gens.labels, laws[1:])
    )
    return report


@st.composite
def mixed_ensembles(draw):
    """Samples of a mostly non-transitive action rooted at random points, so
    on several orbit tables, with weights of mixed denominators."""
    act = draw(reference.sparse_actions())
    points = draw(st.lists(st.integers(0, act.degree - 1), min_size=1, max_size=8))
    raw = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in points]
    return IrsEnsemble(
        gens=act.gens,
        samples=_rooted_orbits(act, points),
        weights=tuple(r / sum(raw) for r in raw),
        kind=draw(st.sampled_from(("exact", "sampled"))),
        provenance=Provenance("mixed weights", None),
    )


def _two_orbit_ensemble(weights):
    # a lopsided triangle (b swaps two of its points) beside a 4-cycle of a
    # that b fixes pointwise, rooted at 0, 3 and 1: two orbit tables
    act = PermAction.from_generator_perms(
        [(1, 2, 0, 4, 5, 6, 3), (0, 2, 1, 3, 4, 5, 6)], pair_names=("a", "b")
    )
    return IrsEnsemble(
        gens=act.gens,
        samples=_rooted_orbits(act, [0, 3, 1]),
        weights=weights,
        kind="exact",
        provenance=Provenance("two orbits", None),
    )


class TestIntegerLaws:
    """Laws are integer numerators over the lcm D of the weights'
    denominators until the report, and answer exactly as ``Fraction`` sums."""

    @settings(deadline=None, max_examples=150)
    @given(e=mixed_ensembles(), radius=st.integers(0, 3))
    def test_mixed_denominators_match_fraction_sums(self, e, radius):
        _assert_matches_fraction_laws(e, radius)

    def test_halves_thirds_and_sixths(self):
        e = _two_orbit_ensemble((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        assert len({id(g.slots) for g in e.samples}) == 2
        for radius in range(4):
            report = _assert_matches_fraction_laws(e, radius)
            assert (report.max_tv > 0) == (radius > 0)
            _, laws, common = _distributions(e, radius)
            assert (common, laws.dtype) == (6, np.int64)
            assert set(laws.sum(axis=1).tolist()) == {6}

    def test_a_denominator_past_int64(self):
        p, q = 2**61 - 1, 2**31 - 1  # primes: D = pq > 2⁶³
        wp, wq = Fraction(1, p), Fraction(1, q)
        e = _two_orbit_ensemble((wp, wq, 1 - wp - wq))
        for radius in range(3):
            report = _assert_matches_fraction_laws(e, radius)
            assert (report.max_tv > 0) == (radius > 0)
            _, laws, common = _distributions(e, radius)
            assert (common, laws.dtype) == (p * q, object)
            assert set(laws.sum(axis=1).tolist()) == {p * q}

    def test_the_int64_bound(self):
        # weights 1/D, 1/D and (D − 2)/D for odd D: the cap keeps int64 rows
        for common, dtype in ((irs._INT64_DENOMINATOR_CAP, np.int64),
                              (irs._INT64_DENOMINATOR_CAP + 2, object)):
            w = Fraction(1, common)
            e = _two_orbit_ensemble((w, w, 1 - 2 * w))
            _assert_matches_fraction_laws(e, 1)
            _, laws, d = _distributions(e, 1)
            assert (d, laws.dtype) == (common, dtype)
            assert set(laws.sum(axis=1).tolist()) == {common}

    def test_a_denominator_one_past_the_cap(self):
        """D = 2⁶², one past the cap: two samples at point 0 of a 3-point
        action, weighted 1/D and 1 − 1/D.  Moving the root by b carries the
        whole law to another class, so that row differs by 2D = 2⁶³, which
        int64 does not hold."""
        act = PermAction.from_generator_perms([(0, 2, 1), (1, 0, 2)], pair_names=("a", "b"))
        w = Fraction(1, 2**62)
        e = IrsEnsemble(
            gens=act.gens,
            samples=_rooted_orbits(act, [0, 0]),
            weights=(w, 1 - w),
            kind="exact",
            provenance=Provenance("one point twice", None),
        )
        report = _assert_matches_fraction_laws(e, 1)
        assert dict(report.per_generator)["b"] == 1 and report.max_tv == 1
        _, laws, common = _distributions(e, 1)
        assert (common, laws.dtype) == (2**62, object)


class TestEnsembleBallDistribution:
    def test_transitive_single_class(self):
        dist = invariance_diagnostic(uniform_conjugate(cyclic_action(6)), 1).distribution
        assert list(dist.values()) == [Fraction(1)]



class TestInvarianceDiagnostic:
    def test_uniform_conjugate_is_exactly_invariant(self):
        report = invariance_diagnostic(uniform_conjugate(cyclic_action(6)), 2)
        assert report.max_tv == 0
        assert report.kind == "exact"
        assert report.confidence_radius is None
        assert tuple(name for name, _ in report.per_generator) == ("t", "T")

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000), radius=st.integers(1, 3))
    def test_uniform_conjugate_invariance_is_general(self, seed, radius):
        act = restrict_to_orbit(random_perm_action(2, 30, seed=seed))
        report = invariance_diagnostic(uniform_conjugate(act), radius)
        assert report.max_tv == 0

    def test_detects_a_preferred_root(self):
        pm = reference.point_mass(from_perm_action(lopsided_action(), base=0))
        report = invariance_diagnostic(pm, 1)
        rows = dict(report.per_generator)
        assert rows["a"] > 0  # the a-step leaves the b-loop vertex
        assert rows["b"] == 0  # b fixes the root, so its move does nothing
        assert report.max_tv > 0

    def test_single_vertex_graph(self):
        gens = GenSet.free(2)
        words = [parse_word(gens, "a"), parse_word(gens, "b")]
        pm = reference.point_mass(stallings_core(gens, words))
        assert invariance_diagnostic(pm, 3).max_tv == 0

    def test_truncated_sample_refused_before_any_table(self):
        graphs = [from_perm_action(cyclic_action(5)), line_ball(2)]
        e = IrsEnsemble(
            gens=graphs[0].gens,
            samples=tuple(graphs),
            weights=(Fraction(1, 2),) * 2,
            kind="sampled",
            provenance=Provenance("a cycle and a truncated line", None),
        )
        with mock.patch.object(irs, "_ball_classes", side_effect=AssertionError):
            with pytest.raises(InsufficientRadiusError, match="need at least 3$"):
                invariance_diagnostic(e, 2)
        assert invariance_diagnostic(e, 1).max_tv == 0

    def test_truncated_samples_need_one_spare_level(self):
        pm = reference.point_mass(line_ball(4))
        assert invariance_diagnostic(pm, 3).max_tv == 0
        with pytest.raises(InsufficientRadiusError, match="need at least 5$"):
            invariance_diagnostic(pm, 4)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), truncation=st.integers(0, 4), radius=st.integers(0, 3))
    def test_truncated_samples_refused_exactly_below_one_spare_level(
        self, data, truncation, radius
    ):
        """A hand-built ensemble of truncated balls rooted anywhere in them:
        the diagnostic refuses exactly when some root lies closer than R + 1
        to its boundary."""
        gens = GenSet.free(2)
        h = complete_ball(stallings_core(gens, data.draw(reference.folded_words(2))), truncation)
        roots = data.draw(st.lists(st.integers(0, h.n - 1), min_size=1, max_size=4))
        samples = tuple(reference.rerooted(h, v) for v in roots)
        e = IrsEnsemble(
            gens=gens,
            samples=samples,
            weights=(Fraction(1, len(samples)),) * len(samples),
            kind="sampled",
            provenance=Provenance("truncated balls", None),
        )
        room = min(reference.distance_to_boundary(g, g.root) for g in samples)
        if room < radius + 1:
            with pytest.raises(InsufficientRadiusError, match=f"need at least {radius + 1}$"):
                invariance_diagnostic(e, radius)
        else:
            assert invariance_diagnostic(e, radius).radius == radius

    def test_sampled_kind_reports_a_confidence_radius(self):
        e = stabilizer_sample(cyclic_action(6), 40, seed=2)
        report = invariance_diagnostic(e, 1)
        assert report.kind == "sampled"
        assert report.max_tv == 0
        assert 0 < report.confidence_radius < 1

    def test_exact_ensemble_at_ten_thousand_roots(self):
        act = restrict_to_orbit(random_perm_action(2, 10_000, seed=0))
        assert act.degree == 10_000
        assert invariance_diagnostic(uniform_conjugate(act), 2).max_tv == 0

    def test_sampling_approaches_the_exact_ensemble(self):
        act = restrict_to_orbit(random_perm_action(2, 150, seed=5))
        exact = invariance_diagnostic(uniform_conjugate(act), 2).distribution
        sampled = invariance_diagnostic(
            stabilizer_sample(act, 10_000, seed=11), 2
        ).distribution
        assert reference.tv_distance(exact, sampled) < Fraction(1, 20)


def test_an_ensemble_needs_one_weight_per_sample():
    g = random_perm_model(2, 4, 0)
    with pytest.raises(ValueError, match="^need equally many samples and weights, at least one$"):
        IrsEnsemble(g.gens, (g,), (Fraction(1, 2),) * 2, "exact", Provenance("test", None))
