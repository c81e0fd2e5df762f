"""Rooted balls, ball statistics, and the fixed-point inequalities."""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schreier.builders import (
    complete_ball,
    from_spec,
    from_perm_action,
    cycle_graph,
    cyclic_action,
    free_core,
    k4_graph,
    klein_cayley,
    lps_graph,
    petersen_graph,
    random_perm_action,
    random_perm_model,
    regular_action,
    restrict_to_orbit,
    s3_cayley,
    s3_regular,
    stallings_core,
    tree_core,
    z6_regular,
)
from schreier.core import (
    GenSet,
    InequalityViolation,
    InsufficientRadiusError,
    PermAction,
    SchreierGraph,
    Word,
    canonicalize,
    parse_word,
    reduce_word,
    serialize,
)
from schreier import local
from schreier.local import (
    LocalApproxReport,
    RootedBall,
    ball,
    ball_distance,
    bs_statistics,
    enumerate_reduced_words,
    fix_density,
    local_approx_check,
)
import reference
from reference import tree_ball_class

F2 = GenSet.free(2)
F1 = GenSet.free(1)


class TestBall:
    def test_negative_vertex_refused(self):
        with pytest.raises(ValueError, match=r"vertex -1 is not a vertex"):
            ball(cycle_graph(6), -1, 2)

    def test_vertex_past_the_last_refused(self):
        with pytest.raises(ValueError, match=r"vertex 6 is not a vertex"):
            ball(cycle_graph(6), 6, 1)

    def test_cycle_radius_one_is_path(self):
        b = ball(cycle_graph(6), 0, 1)
        assert b.graph.n == 3
        assert len(b.graph.boundary) == 2
        assert b.graph.truncated

    def test_cycle_closes_up(self):
        # the 3-ball of a hexagon is the whole hexagon, not a path of 7
        b = ball(cycle_graph(6), 0, 3)
        assert b.graph.n == 6
        assert not b.graph.truncated
        assert b != ball(cycle_graph(8), 0, 3)

    def test_odd_cycle_half_radius_still_a_path(self):
        # in a 5-cycle at radius 2 both sphere vertices are adjacent, but an
        # edge between sphere vertices is not part of the ball, so the ball
        # is still the path a 2-ball of Z gives
        b5 = ball(cycle_graph(5), 0, 2)
        b9 = ball(cycle_graph(9), 0, 2)
        assert b5 == b9
        assert b5.graph.n == 5

    def test_loop_subgroup_ball(self):
        g = complete_ball(stallings_core(F2, [parse_word(F2, "a")]), 4)
        b = ball(g, g.root, 1)
        # the root keeps its a-loop; the two b-neighbours are sphere vertices
        assert b.graph.n == 3
        assert b.graph.slots[b.graph.root, 0] == b.graph.root
        assert b != tree_ball_class(F2, 1)

    def test_root_position_irrelevant_after_canonicalization(self):
        g = cycle_graph(7)
        assert ball(g, 2, 2) == ball(g, 5, 2)

    def test_matches_tree_ball_builder(self):
        g = complete_ball(tree_core(4), 5)
        for r in range(4):
            assert ball(g, g.root, r).digest == tree_ball_class(F2, r).digest

    def test_truncation_refusal(self):
        g = complete_ball(tree_core(4), 3)
        with pytest.raises(InsufficientRadiusError, match="boundary is 3,"):
            ball(g, g.root, 4)
        leaf = g.n - 1
        with pytest.raises(InsufficientRadiusError):
            ball(g, leaf, 1)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            ball(cycle_graph(4), 0, -1)


def _reference_ball(g: SchreierGraph, v: int, radius: int) -> RootedBall:
    """Ball extraction as first written: a BFS over the whole graph, a scan
    of every vertex, then a separate canonical renumbering of the result."""
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if g.truncated:
        dist = reference.bfs_distances(g, v)
        available = min(dist[b] for b in g.boundary)
        if available < radius:
            raise InsufficientRadiusError(
                f"insufficient radius for a {radius}-ball: distance from vertex {v} "
                f"to the truncation boundary is {available}, need at least {radius}"
            )
    dist = reference.bfs_distances(g, v)
    kept = [u for u in range(g.n) if 0 <= dist[u] <= radius]
    index = {u: i for i, u in enumerate(kept)}
    rows, table = reference.rows(g), []
    for u in kept:
        row = []
        for w in rows[u]:
            if w is None or dist[w] > radius or (
                dist[u] == radius and dist[w] == radius
            ):
                row.append(None)
            else:
                row.append(index[w])
        table.append(tuple(row))
    # renumber in BFS order from the root, slots in label order
    order = [index[v]]
    pos = {index[v]: 0}
    for u in order:
        for w in table[u]:
            if w is not None and w not in pos:
                pos[w] = len(order)
                order.append(w)
    canon = tuple(
        tuple(None if w is None else pos[w] for w in table[u]) for u in order
    )
    boundary = frozenset(pos[i] for i, row in enumerate(table) if None in row)
    inner = SchreierGraph(
        gens=g.gens,
        table=canon,
        boundary=boundary,
        truncation_radius=radius if boundary else None,
    )
    return RootedBall(radius=radius, graph=inner)


def _outcome(extract, g: SchreierGraph, v: int, radius: int):
    try:
        b = extract(g, v, radius)
    except InsufficientRadiusError as exc:
        return "refused", str(exc)
    return b, b.digest


@lru_cache(maxsize=None)
def _lps_5_13() -> SchreierGraph:
    return lps_graph(5, 13)


_words = st.lists(
    st.text(alphabet="abAB", min_size=1, max_size=5), min_size=1, max_size=3
)


def _truncated_fold(words: list[str], radius: int) -> SchreierGraph:
    core = stallings_core(F2, [parse_word(F2, w) for w in words])
    return complete_ball(core, radius)


class TestBallAgainstReference:
    """``ball`` must give the reference's table, boundary, truncation radius
    and digest, and refuse exactly the vertices the reference refuses."""

    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        radius=st.integers(0, 3),
    )
    @settings(max_examples=40)
    def test_random_permutation_models(self, m, n, seed, radius):
        g = random_perm_model(m, n, seed)
        for v in range(g.n):
            assert _outcome(ball, g, v, radius) == _outcome(_reference_ball, g, v, radius)

    @given(
        vertices=st.lists(st.integers(0, 2183), min_size=1, max_size=4),
        radius=st.integers(0, 3),
    )
    @settings(max_examples=8)
    def test_lps_5_13(self, vertices, radius):
        g = _lps_5_13()
        for v in vertices:
            assert _outcome(ball, g, v, radius) == _outcome(_reference_ball, g, v, radius)

    @given(words=_words, truncation=st.integers(0, 4), radius=st.integers(0, 3))
    @settings(max_examples=40)
    def test_truncated_folded_cores(self, words, truncation, radius):
        g = _truncated_fold(words, truncation)
        outcomes = [
            (_outcome(ball, g, v, radius), _outcome(_reference_ball, g, v, radius))
            for v in range(g.n)
        ]
        assert all(new == old for new, old in outcomes)

    @given(words=_words, truncation=st.integers(0, 4), radius=st.integers(0, 3))
    @settings(max_examples=30)
    def test_distance_to_boundary_is_nearest_boundary_vertex(
        self, words, truncation, radius
    ):
        """On the truncations and on balls cut from them, ``ball`` refuses
        exactly when the nearest boundary vertex is closer than R, and the
        refusal names that vertex's distance."""
        g = _truncated_fold(words, truncation)
        truncated = [g] + [
            b.graph for b in (ball(g, g.root, r) for r in range(truncation + 1))
        ]
        for h in truncated:
            if not h.truncated:
                continue
            for v in range(h.n):
                available = reference.distance_to_boundary(h, v)
                if available < radius:
                    refusal = f"vertex {v} to the truncation boundary is {available},"
                    with pytest.raises(InsufficientRadiusError, match=refusal):
                        ball(h, v, radius)
                else:
                    ball(h, v, radius)


def _sgf1_digest(b: RootedBall) -> str:
    """The digest as first written: SHA-256 of the radius and the ball's SGF1
    serialization."""
    payload = f"radius {b.radius}\n" + serialize(b.graph)
    return hashlib.sha256(payload.encode()).hexdigest()


def _assert_same_partition(balls) -> None:
    pairs = {(b.digest, _sgf1_digest(b)) for b in balls}
    assert len({new for new, _ in pairs}) == len(pairs)
    assert len({old for _, old in pairs}) == len(pairs)


def _balls_allowed(g: SchreierGraph, vertices, radii):
    for v in vertices:
        for r in radii:
            try:
                yield ball(g, v, r)
            except InsufficientRadiusError:
                pass


class TestDigestAgainstSgf1:
    """Two balls have equal digests exactly when their SGF1 digests are
    equal; balls of every radius 0–3 are pooled, so radius must separate."""

    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 30),
        seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=3),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_permutation_models(self, m, n, seeds):
        graphs = [random_perm_model(m, n, seed) for seed in seeds]
        _assert_same_partition(
            b for g in graphs for b in _balls_allowed(g, range(g.n), range(4))
        )

    @given(vertices=st.lists(st.integers(0, 2183), min_size=1, max_size=4))
    @settings(max_examples=5, deadline=None)
    def test_lps_5_13(self, vertices):
        g = _lps_5_13()
        _assert_same_partition(_balls_allowed(g, vertices, range(4)))

    @given(
        folds=st.lists(
            st.tuples(_words, st.integers(0, 4)), min_size=1, max_size=3
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_truncated_folded_cores(self, folds):
        graphs = [_truncated_fold(words, truncation) for words, truncation in folds]
        _assert_same_partition(
            b for g in graphs for b in _balls_allowed(g, range(g.n), range(4))
        )


def _pattern_keys(gens: GenSet, table, radius: int, numbering) -> list[str]:
    """Each vertex's endpoint-table digest, with the table renumbered by
    ``numbering`` first, checked to split the vertices as the canonical
    rows' ``rows_digest`` does."""
    slots = np.array([-1 if w is None else w for row in table for w in row])
    slots = slots.reshape(len(table), gens.degree)
    numbering = np.asarray(numbering)
    renumbered = np.empty_like(slots)
    renumbered[numbering] = np.where(slots < 0, -1, numbering[slots])
    digests, classes = local._ball_classes(renumbered, gens, numbering, radius)
    keys = [digests[c] for c in classes]
    pairs = {(key, reference.rows_digest(gens, table, v, radius)) for v, key in enumerate(keys)}
    assert len(pairs) == len({new for new, _ in pairs}) == len({old for _, old in pairs})
    return keys


class TestPatternClassesAgainstRows:
    """Two roots share an endpoint-table class exactly when their canonical
    R-ball rows agree, whatever the vertex numbering; near a truncation
    boundary too, where words leave the stored graph."""

    @given(act=reference.perm_models(), radius=st.integers(0, 3), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_permutation_models(self, act, radius, data):
        numbering = data.draw(st.permutations(range(act.degree)))
        keys = _pattern_keys(act.gens, act.slots.tolist(), radius, numbering)
        assert keys == _pattern_keys(act.gens, act.slots.tolist(), radius, range(act.degree))
        with mock.patch.object(local, "_CELLS", 1):  # one root per chunk
            assert keys == _pattern_keys(act.gens, act.slots.tolist(), radius, numbering)

    @given(
        words=_words, truncation=st.integers(0, 4), radius=st.integers(0, 3), data=st.data()
    )
    @settings(max_examples=60, deadline=None)
    def test_truncated_folded_cores(self, words, truncation, radius, data):
        g = _truncated_fold(words, truncation)
        numbering = data.draw(st.permutations(range(g.n)))
        keys = _pattern_keys(g.gens, reference.rows(g), radius, numbering)
        for v, key in enumerate(keys):
            if reference.distance_to_boundary(g, v) >= radius:
                assert ball(g, v, radius).digest == key

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_a_lone_word_off_the_stored_graph(self, radius):
        # on a truncated line, the vertex R − 1 short of an end loses only
        # the word a^R, whose last step would otherwise read as a sphere
        # vertex: one class at distance ≥ R from both ends, and one for each
        # distance 0..R − 1 to either end
        g = complete_ball(free_core(1), radius + 1)
        keys = _pattern_keys(g.gens, reference.rows(g), radius, range(g.n))
        assert len(set(keys)) == 2 * radius + 1

    @pytest.mark.parametrize(
        "g, radius",
        [
            (cycle_graph(6), 1),
            (random_perm_model(2, 12, seed=3), 2),
            (from_perm_action(s3_regular()), 3),  # an involutive alphabet
            (_truncated_fold(["ab", "aaB"], 3), 2),  # words off the stored graph
        ],
    )
    def test_digests_are_the_repr_payloads(self, g, radius):
        """A class digest is the SHA-256 of repr((radius, labels, inv, row))
        for the class's first-occurrence pattern row, as first written."""
        digests, classes = local._ball_classes(g.slots, g.gens, np.arange(g.n), radius)
        patterns = np.vstack([p for *_, p in local._endpoint_tables(
            g.slots, g.gens, np.arange(g.n), radius, radius)])
        for row, c in zip(patterns.tolist(), classes.tolist()):
            payload = repr((radius, g.gens.labels, g.gens.inv, row)).encode()
            assert digests[c] == hashlib.sha256(payload).hexdigest()

    def test_digests_are_pinned(self):
        g = random_perm_model(2, 12, seed=3)
        digests, classes = local._ball_classes(g.slots, g.gens, np.arange(g.n), 2)
        assert digests[classes[11]] == (
            "eb6e3c35dd6ddefb21c9cb212944669d14298133348fbf309b68509fb3afe6d8"
        )
        g = cycle_graph(6)
        assert local._ball_classes(g.slots, g.gens, np.arange(g.n), 1)[0] == [
            "c7ddd94b6aa2268752de2c3c71acfdbd8ffc4a4d9bc7a92adbbd130fcb57a3da"
        ]

    def test_no_roots_no_classes(self):
        g = cycle_graph(6)
        digests, classes = local._ball_classes(g.slots, g.gens, np.arange(0), 2)
        assert digests == [] and classes.shape == (0,)

    def test_negative_radius_is_refused_before_the_table(self):
        g = cycle_graph(5)
        with mock.patch.object(local, "_word_tree", side_effect=AssertionError):
            with pytest.raises(ValueError, match="radius must be nonnegative"):
                bs_statistics(g, -1)


class TestTrustedPathsValidate:
    """Graphs built without ``validate()`` must be graphs it accepts."""

    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 30),
        seed=st.integers(0, 10_000),
        base=st.integers(0, 29),
        words=_words,
        radius=st.integers(0, 3),
    )
    @settings(max_examples=40)
    def test_outputs_validate(self, m, n, seed, base, words, radius):
        act = random_perm_action(m, n, seed)
        g = from_perm_action(act, base=base % n)
        core = stallings_core(F2, [parse_word(F2, w) for w in words])
        truncated = complete_ball(core, radius + 1)
        shuffled = reference.rerooted(g, g.n - 1)
        trusted = [
            g,
            core,
            truncated,
            canonicalize(shuffled),
            canonicalize(reference.rerooted(truncated, truncated.n - 1)),
            ball(g, base % g.n, radius).graph,
            ball(truncated, truncated.root, radius).graph,
        ]
        for h in trusted:
            h.validate()


class TestBallDistance:
    def test_hexagon_vs_octagon(self):
        r = ball_distance(cycle_graph(6), cycle_graph(8))
        assert r.value == Fraction(1, 2)
        assert r.agreement_radius == 2
        assert r.exact

    def test_tree_vs_loop_graph(self):
        t = complete_ball(tree_core(4), 3)
        h = complete_ball(stallings_core(F2, [parse_word(F2, "a")]), 3)
        r = ball_distance(t, h)
        assert r.value == 1
        assert r.agreement_radius == 0

    def test_same_graph_is_bounded_not_zero(self):
        r = ball_distance(cycle_graph(6), cycle_graph(6), max_radius=8)
        assert not r.exact
        assert r.value == Fraction(1, 8)
        assert r.agreement_radius == 8

    def test_truncation_too_shallow_to_decide(self):
        with pytest.raises(InsufficientRadiusError, match="agreement so far: radius 2"):
            ball_distance(complete_ball(tree_core(4), 2), complete_ball(tree_core(4), 5))

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError, match="one alphabet"):
            ball_distance(cycle_graph(6), complete_ball(tree_core(4), 2))

    @pytest.mark.parametrize("cap", [0, -3])
    def test_max_radius_below_one(self, cap):
        with pytest.raises(ValueError, match="max_radius"):
            ball_distance(cycle_graph(6), cycle_graph(7), max_radius=cap)

    def test_max_radius_one_is_accepted(self):
        r = ball_distance(cycle_graph(6), cycle_graph(8), max_radius=1)
        assert (r.value, r.agreement_radius, r.exact) == (1, 1, False)

    @given(
        n=st.integers(min_value=3, max_value=14),
        m=st.integers(min_value=3, max_value=14),
    )
    def test_cycle_pairs(self, n, m):
        # two cycles look alike exactly until the shorter one closes up
        if n == m:
            return
        k = -(-min(n, m) // 2) - 1
        r = ball_distance(cycle_graph(n), cycle_graph(m))
        assert r.value == Fraction(1, max(k, 1))


class TestBallStatistics:
    def test_cycle_single_class(self):
        stats = bs_statistics(cycle_graph(6), 1)
        assert stats.frequencies == {ball(cycle_graph(6), 0, 1).digest: Fraction(1)}

    def test_lps_graph_looks_the_same_everywhere(self):
        stats = bs_statistics(lps_graph(5, 13), 1)
        assert list(stats.frequencies.values()) == [Fraction(1)]

    @pytest.mark.parametrize("spec, radius", [("randperm:m=2,n=60,seed=1", 2), ("randperm:m=3,n=40,seed=2", 1)])
    def test_classes_by_descending_frequency_then_digest(self, spec, radius):
        items = list(bs_statistics(from_spec(spec), radius).frequencies.items())
        assert items == sorted(items, key=lambda item: (-item[1], item[0]))

    def test_exemplar_digests_match_keys(self):
        g = random_perm_model(2, 40, seed=5)
        stats = bs_statistics(g, 2)
        assert set(stats.frequencies) == {ball(g, v, 2).digest for v in range(g.n)}

    def test_refuses_truncations(self):
        with pytest.raises(ValueError, match="whole graph"):
            bs_statistics(complete_ball(tree_core(4), 3), 1)

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=15)
    def test_relabeling_invariance(self, seed):
        g = random_perm_model(2, 23, seed=seed)
        relabeled = canonicalize(reference.rerooted(g, g.n - 1))
        assert bs_statistics(g, 1).frequencies == bs_statistics(relabeled, 1).frequencies

    @given(seed=st.integers(min_value=0, max_value=30))
    @settings(max_examples=10)
    def test_tree_mass_nonincreasing_in_radius(self, seed):
        g = random_perm_model(2, 40, seed=seed)
        masses = [
            bs_statistics(g, r).frequencies.get(tree_ball_class(F2, r).digest, 0)
            for r in (1, 2, 3)
        ]
        assert masses[0] >= masses[1] >= masses[2]


class TestTvDistance:
    def test_identical(self):
        s = bs_statistics(cycle_graph(6), 2)
        assert reference.tv_distance(s, s) == 0

    def test_disjoint_supports(self):
        a = bs_statistics(cycle_graph(4), 2)
        b = bs_statistics(cycle_graph(6), 2)
        assert reference.tv_distance(a, b) == 1

    def test_plain_dicts(self):
        a = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
        b = {"x": Fraction(1, 4), "z": Fraction(3, 4)}
        assert reference.tv_distance(a, b) == Fraction(3, 4)
        assert reference.tv_distance(b, a) == Fraction(3, 4)

    @given(
        st.dictionaries(st.sampled_from("uvwxyz"), st.fractions() | st.integers()),
        st.dictionaries(st.sampled_from("uvwxyz"), st.fractions() | st.integers()),
    )
    def test_exact_for_any_weights(self, a, b):
        """Unequal denominators, negative and integer weights, empty laws:
        the common-denominator sum is the Fraction sum."""
        expected = sum(
            (abs(Fraction(a.get(k, 0)) - Fraction(b.get(k, 0))) for k in a.keys() | b.keys()),
            start=Fraction(0),
        ) / 2
        assert reference.tv_distance(a, b) == expected
        assert isinstance(reference.tv_distance(a, b), Fraction)

    @given(
        n=st.sampled_from([3, 4, 5, 6]),
        m=st.sampled_from([3, 4, 5, 6]),
        k=st.sampled_from([3, 4, 5, 6]),
    )
    def test_triangle_inequality(self, n, m, k):
        sn, sm, sk = (bs_statistics(cycle_graph(i), 2) for i in (n, m, k))
        tv = reference.tv_distance
        assert tv(sn, sk) <= tv(sn, sm) + tv(sm, sk)


class TestFixDensity:
    def test_rotation(self):
        act = cyclic_action(6)
        t = act.gens.index("t")
        assert fix_density(act, Word((t,))) == 0
        assert fix_density(act, Word((t,) * 3)) == 0
        assert fix_density(act, Word((t,) * 6)) == 1
        assert fix_density(act, Word(())) == 1

    def test_regular_action_is_all_or_nothing(self):
        act = s3_regular()
        for w in enumerate_reduced_words(act.gens, 3):
            assert fix_density(act, w) in (0, 1)
        c = act.gens.index("c")
        assert fix_density(act, Word((c, c, c))) == 1
        assert fix_density(act, Word((c, c))) == 0

    @given(st.lists(st.integers(min_value=0, max_value=4), max_size=8))
    def test_free_reduction_is_invisible(self, letters):
        act = s3_regular()
        w = Word(tuple(letters))
        assert fix_density(act, w) == fix_density(act, reduce_word(act.gens, w))


class TestEnumerateReducedWords:
    def test_free_rank_two_counts(self):
        words = enumerate_reduced_words(F2, 2)
        assert len(words) == 4 + 12
        assert len(enumerate_reduced_words(F2, 0)) == 0
        lengths = [len(w.letters) for w in words]
        assert lengths == sorted(lengths)

    def test_involution_alphabet(self):
        gens = GenSet.with_involutions(["a"], ["m"])
        words = enumerate_reduced_words(gens, 2)
        # 3 single letters, then 9 pairs minus aA, Aa, mm
        assert len(words) == 3 + 6
        mm = Word((gens.index("m"), gens.index("m")))
        assert mm not in words

    def test_no_cancelling_neighbours(self):
        for w in enumerate_reduced_words(F2, 4):
            for x, y in zip(w.letters, w.letters[1:]):
                assert y != F2.inv[x]


class TestLocalApproxCheck:
    def test_large_cycle_is_locally_a_line(self):
        (report,) = local_approx_check([cyclic_action(9)], radius=2)
        assert report.tree_ball_probability == 1
        assert report.density_sum == 0
        assert report.words_complete

    def test_short_cycle_relation_pays_for_lost_tree_mass(self):
        (report,) = local_approx_check([cyclic_action(4)], radius=2)
        assert report.tree_ball_probability == 0
        t = Word((0,))
        densities = dict(report.densities)
        assert densities[Word((0, 0, 0, 0))] == 1
        assert densities[t] == 0

    def test_five_cycle_at_radius_two(self):
        # a 5-cycle has no nontrivial fixed-point-bearing word of length
        # ≤ 4, and consistently its 2-balls all carry the line's ball class
        (report,) = local_approx_check([cyclic_action(5)], radius=2)
        assert report.tree_ball_probability == 1
        assert report.density_sum == 0

    def test_regular_action_of_s3(self):
        (r1,) = local_approx_check([s3_regular()], radius=1)
        assert r1.tree_ball_probability == 1
        assert r1.density_sum == 0
        (r2,) = local_approx_check([s3_regular()], radius=2)
        assert r2.tree_ball_probability == 0
        assert r2.density_sum >= 1

    @given(seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=12)
    def test_random_instances(self, seed):
        act = restrict_to_orbit(random_perm_action(2, 50, seed=seed))
        (report,) = local_approx_check([act], radius=2)
        assert report.words_complete
        assert 0 <= report.tree_ball_probability <= 1
        # the two bounds, restated from the report's own data
        ceiling = 1 - report.tree_ball_probability
        assert all(d <= ceiling for _, d in report.densities)
        assert report.tree_ball_probability >= 1 - report.density_sum

    def test_sequence_of_actions(self):
        acts = [cyclic_action(n) for n in (3, 4, 6, 10)]
        reports = local_approx_check(acts, radius=2)
        # a cycle looks like the line at radius R exactly when n ≥ 2R+1
        assert [r.tree_ball_probability for r in reports] == [0, 0, 1, 1]

    def test_explicit_word_list_skips_aggregate_bound(self):
        # with only a density-zero word the aggregate bound would read
        # 0 ≥ 1; supplying a partial list must not assert it
        (report,) = local_approx_check(
            [cyclic_action(4)], radius=2, words=[Word((0,))]
        )
        assert not report.words_complete
        assert report.densities == ((Word((0,)), Fraction(0)),)

    def test_word_list_validation(self):
        with pytest.raises(ValueError, match="exceeds 2R"):
            local_approx_check([cyclic_action(5)], radius=1, words=[Word((0, 0, 0))])
        with pytest.raises(ValueError) as caught:
            local_approx_check([cyclic_action(9)], radius=2, words=[Word((0,) * 5)])
        assert str(caught.value) == (
            "word of length 5 exceeds 2R = 4; "
            "the fixed-point bound is only guaranteed up to that length"
        )
        with pytest.raises(ValueError, match="nonempty"):
            local_approx_check([cyclic_action(5)], radius=1, words=[Word(())])
        with pytest.raises(ValueError, match="reduced"):
            local_approx_check([cyclic_action(5)], radius=1, words=[Word((0, 1))])

    def test_word_list_needs_one_alphabet(self):
        # (0, 0) is tt on the cycle but cc on S3; letter 2 is past the
        # cycle's alphabet
        cycle, s3 = cyclic_action(5), s3_regular()
        with pytest.raises(ValueError, match="different alphabets"):
            local_approx_check([cycle, s3], radius=1, words=[Word((0, 0))])
        with pytest.raises(ValueError, match="different alphabets"):
            local_approx_check([s3, cycle], radius=1, words=[Word((2,))])

    def test_requires_transitivity(self):
        idle = PermAction(gens=F1, perms=((0, 1), (0, 1)))
        with pytest.raises(ValueError, match="orbit"):
            local_approx_check([idle], radius=1)

    def test_radius_validation(self):
        with pytest.raises(ValueError, match="radius"):
            local_approx_check([cyclic_action(5)], radius=0)


def _reference_fix_counts(act: PermAction, max_length: int) -> list[tuple[Word, int]]:
    """The former depth-first fix counts: permutations composed along the
    word tree, then sorted into length-then-lex order."""
    d = act.gens.degree
    perms = list(act.slots.T)
    idx = np.arange(act.degree, dtype=np.int64)
    out: list[tuple[Word, int]] = []

    def extend(prefix: list[int], current: np.ndarray) -> None:
        if len(prefix) >= max_length:
            return
        banned = act.gens.inv[prefix[-1]] if prefix else -1
        for l in range(d):
            if l == banned:
                continue
            nxt = perms[l][current]
            prefix.append(l)
            out.append((Word(tuple(prefix)), int((nxt == idx).sum())))
            extend(prefix, nxt)
            prefix.pop()

    extend([], idx.copy())
    out.sort(key=lambda pair: (len(pair[0].letters), pair[0].letters))
    return out


def _reference_report(act: PermAction, radius: int, words=None):
    """(P, densities, words_complete) the former way: P as the share of
    points whose canonical rows are those of the ``tree_ball_class``."""
    tree = tree_ball_class(act.gens, radius).graph
    tree = reference.rows_digest(act.gens, reference.rows(tree), tree.root, radius)
    roots = [reference.rows_digest(act.gens, act.slots.tolist(), x, radius) for x in range(act.degree)]
    p = Fraction(roots.count(tree), act.degree)
    if words is None:
        pairs = tuple(
            (w, Fraction(c, act.degree)) for w, c in _reference_fix_counts(act, 2 * radius)
        )
    else:
        pairs = tuple((w, fix_density(act, w)) for w in words)
    return p, pairs, words is None


def _random_transitive_action(m: int, involution: bool, n: int, seed: int) -> PermAction:
    """Orbit of 0 under m random free letters and, optionally, one random
    involution (which may fix points)."""
    rng = random.Random(seed)
    pairs = [rng.sample(range(n), n) for _ in range(m)]
    involutions = []
    if involution:
        points, swap = rng.sample(range(n), n), list(range(n))
        for x, y in zip(points[0::2], points[1::2]):
            if rng.random() < 0.7:
                swap[x], swap[y] = y, x
        involutions.append(swap)
    return restrict_to_orbit(PermAction.from_generator_perms(pairs, involutions))


class TestLocalApproxAgainstReference:
    """One endpoint table gives the former P, densities (in order) and
    completeness flag."""

    @pytest.mark.parametrize("cells", [None, 64], ids=["default-cells", "64-cells"])
    @given(
        free=st.integers(0, 3),
        involution=st.booleans(),
        n=st.integers(1, 30),
        seed=st.integers(0, 10_000),
        radius=st.integers(1, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_transitive_actions(self, cells, free, involution, n, seed, radius):
        assume(free >= 1 or involution)
        act = _random_transitive_action(free, involution, n, seed)
        assume(act.gens.degree ** (2 * radius) <= 5_000)
        with mock.patch.object(local, "_CELLS", cells or local._CELLS):
            (report,) = local_approx_check([act], radius)
        expected = _reference_report(act, radius)
        assert (report.tree_ball_probability, report.densities, report.words_complete) == expected

    @given(n=st.integers(1, 30), seed=st.integers(0, 10_000), radius=st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_explicit_word_list(self, n, seed, radius):
        act = _random_transitive_action(1, True, n, seed)
        words = random.Random(seed).sample(enumerate_reduced_words(act.gens, 2 * radius), 5)
        (report,) = local_approx_check([act], radius, words=words)
        expected = _reference_report(act, radius, words)
        assert (report.tree_ball_probability, report.densities, report.words_complete) == expected


class TestReportGuards:
    def test_violations_state_their_numbers(self):
        with pytest.raises(InequalityViolation) as caught:
            LocalApproxReport(
                radius=3,
                n=12,
                tree_ball_probability=Fraction(1, 3),
                densities=((Word((0, 0)), Fraction(3, 4)),),
                words_complete=False,
            )
        assert str(caught.value) == (
            "fix-density 3/4 of a length-2 word exceeds 1 - P = 2/3 at radius 3"
        )
        with pytest.raises(InequalityViolation) as caught:
            LocalApproxReport(
                radius=2,
                n=12,
                tree_ball_probability=Fraction(1, 4),
                densities=((Word((0,)), Fraction(1, 6)), (Word((1,)), Fraction(1, 3))),
                words_complete=True,
            )
        assert str(caught.value) == (
            "P = 1/4 fell below 1 - Σ fix-densities = 1/2 at radius 2"
        )

    def test_per_word_bound_enforced(self):
        with pytest.raises(InequalityViolation, match="exceeds 1 - P"):
            LocalApproxReport(
                radius=1,
                n=4,
                tree_ball_probability=Fraction(1),
                densities=((Word((0,)), Fraction(1, 2)),),
                words_complete=False,
            )

    def test_aggregate_bound_enforced_only_when_complete(self):
        kwargs = dict(
            radius=1,
            n=4,
            tree_ball_probability=Fraction(0),
            densities=((Word((0,)), Fraction(1, 2)),),
        )
        LocalApproxReport(words_complete=False, **kwargs)
        with pytest.raises(InequalityViolation, match="fell below"):
            LocalApproxReport(words_complete=True, **kwargs)


class TestVertexTransitivity:
    @pytest.mark.parametrize(
        "g",
        [cycle_graph(5), cycle_graph(6), klein_cayley(), s3_cayley(), k4_graph()],
        ids=["c5", "c6", "klein", "s3", "k4"],
    )
    def test_cayley_graphs(self, g):
        assert g.vertex_transitive

    def test_labelled_petersen_is_not(self):
        # the pentagram's rotation steps by two, so no label-preserving
        # automorphism can carry an outer vertex to an inner one
        assert not petersen_graph().vertex_transitive

    def test_loop_asymmetry(self):
        # a-triangle plus a b-edge swapping two of its corners: the third
        # corner is the only one with a b-loop
        act = PermAction.from_generator_perms([(1, 2, 0), (0, 2, 1)], [], ["a", "b"])
        assert not from_perm_action(act).vertex_transitive

    def test_refuses_truncations(self):
        with pytest.raises(ValueError, match="unknown beyond its boundary"):
            complete_ball(tree_core(4), 2).vertex_transitive


def _transitive_at_every_vertex(g: SchreierGraph) -> bool:
    """The all-vertices check, all vertices at once: an automorphism carries
    the root to v iff the map root·w ↦ v·w, defined along a breadth-first
    spanning tree, respects every edge."""
    nxt = g.slots.astype(np.int32)
    order, step = [g.root], {g.root: None}
    for u in order:
        for l, w in enumerate(nxt[u].tolist()):
            if w not in step:
                step[w] = (u, l)
                order.append(w)
    image = np.empty((g.n, g.n), dtype=np.int32)  # image[v, u]: u under v's map
    image[:, g.root] = np.arange(g.n)
    for u in order[1:]:
        parent, l = step[u]
        image[:, u] = nxt[image[:, parent], l]
    return all((nxt[image, l] == image[:, nxt[:, l]]).all() for l in range(g.degree))


class TestTransitivityAgainstAllVertices:
    """Comparing the root with its neighbours decides what comparing it with
    every vertex decides."""

    @given(m=st.integers(1, 3), n=st.integers(1, 30), seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_random_permutation_models(self, m, n, seed):
        g = random_perm_model(m, n, seed)
        assert g.vertex_transitive == _transitive_at_every_vertex(g)

    @given(
        points=st.integers(2, 4),
        elements=st.integers(1, 3),
        involutions=st.integers(0, 1),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30)
    def test_cayley_graphs_of_random_regular_actions(self, points, elements, involutions, seed):
        rng = random.Random(seed)
        pairs = [tuple(rng.sample(range(points), points)) for _ in range(elements)]
        swaps = [tuple(range(points - 2)) + (points - 1, points - 2)] * involutions
        g = from_perm_action(regular_action(pairs, swaps))
        assert g.vertex_transitive and _transitive_at_every_vertex(g)

    @given(k=st.integers(3, 12), s=st.integers(1, 11))
    @settings(max_examples=30)
    def test_two_layers_rotated_at_different_speeds(self, k, s):
        # a steps (i, 0) by 1 and (i, 1) by s, and the involution joins
        # (i, 0) to (i, 1): rotating both layers is an automorphism, so the
        # root always matches its a-neighbour but not always its m-neighbour
        a = [i + 1 if i + 1 < k else 0 for i in range(k)] + [k + (i + s) % k for i in range(k)]
        m = [i + k for i in range(k)] + list(range(k))
        g = from_perm_action(PermAction.from_generator_perms([a], [m]))
        assert g.vertex_transitive == _transitive_at_every_vertex(g)

    def test_lps_5_13(self):
        g = _lps_5_13()
        assert g.vertex_transitive and _transitive_at_every_vertex(g)

    @given(data=st.data(), rank=st.integers(1, 2))
    @settings(max_examples=40)
    def test_completed_folded_cores(self, data, rank):
        # each letter's partial injection on the core is completed to a
        # permutation, matching the points with no image to the points with
        # no preimage in order
        words = data.draw(reference.folded_words(rank))
        slots = stallings_core(GenSet.free(rank), words).slots
        perms = []
        for l in range(0, 2 * rank, 2):
            p = slots[:, l].copy()
            p[p < 0] = np.setdiff1d(np.arange(len(p)), p)
            perms.append(p.tolist())
        g = from_perm_action(PermAction.from_generator_perms(perms))
        assert g.vertex_transitive == _transitive_at_every_vertex(g)

    @pytest.mark.parametrize(
        "pairs, swaps",
        [
            ([(0, 1, 2), (1, 2, 0)], []),
            ([(1, 2, 0), (1, 2, 0)], []),
            ([(1, 0)], []),
            ([(1, 2, 0)], [(0, 1, 2)]),
        ],
        ids=["identity-letter", "repeated-letter", "square-is-identity", "identity-involution"],
    )
    def test_words_fixing_every_vertex_do_not_refute(self, pairs, swaps):
        # a loop at every vertex, a·B = 1 or a·a = 1 fixes every vertex: a
        # short word refutes only when it fixes some vertices but not all
        g = from_perm_action(regular_action(pairs, swaps))
        assert g.vertex_transitive and _transitive_at_every_vertex(g)

    def test_a_letter_fixing_one_vertex_refutes(self):
        g = from_perm_action(PermAction.from_generator_perms([(0, 2, 3, 1), (1, 0, 2, 3)]))
        assert not g.vertex_transitive and not _transitive_at_every_vertex(g)


def test_ball_frequencies_must_sum_to_one():
    with pytest.raises(AssertionError, match="^ball-class frequencies must sum to 1$"):
        local.BallDistribution(1, 4, {"a": Fraction(1, 2)})
