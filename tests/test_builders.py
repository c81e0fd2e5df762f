import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schreier import builders
from schreier.builders import (
    _fisher_yates,
    _proj_normalize,
    _quaternion_solutions,
    CoreGraph,
    action_from_spec,
    complete_ball,
    cycle_graph,
    cyclic_action,
    free_core,
    from_perm_action,
    from_spec,
    group_closure,
    k4_graph,
    klein_cayley,
    lps_graph,
    parse_spec,
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
    GraphInvariantError,
    PermAction,
    SchreierGraph,
    SGF1Error,
    Word,
    bfs_layers,
    boundary_layer,
    canonicalize,
    parse_word,
    reduce_word,
    walk_endpoint,
)

import reference

F2 = GenSet.free(2)


def neighbors(g: SchreierGraph, v: int) -> set[int]:
    return {w for w in g.next[v] if w is not None}


class TestFromPermAction:
    def test_cyclic_shift_gives_cycle(self):
        g = from_perm_action(cyclic_action(6), base=0)
        assert g.n == 6
        assert canonicalize(cycle_graph(6)).next == g.next

    def test_identity_generator_gives_loops(self):
        act = PermAction.from_generator_perms([(0, 1), (1, 0)], pair_names="ab")
        g = from_perm_action(act, base=0)
        assert g.n == 2
        # a acts trivially: a- and A-loops at both vertices
        assert g.next[0][0] == 0 and g.next[0][1] == 0
        assert g.next[1][0] == 1 and g.next[1][1] == 1

    def test_orbit_restriction(self):
        # the 3-cycle pair generates only the alternating group on 3 points;
        # its regular-action orbit of the identity has 3 of the 6 elements
        act = regular_action([(1, 2, 0)], [(1, 0, 2)], pair_names="c", involution_names="t")
        sub = PermAction(GenSet.free(1, names="c"), reference.label_perms(act)[:2])
        g = from_perm_action(sub, base=0)
        assert g.n == 3

    def test_stabilizer_words_return(self):
        g = from_perm_action(cyclic_action(5))
        assert walk_endpoint(g, 0, parse_word(g.gens, "t^5")) == 0
        assert walk_endpoint(g, 0, parse_word(g.gens, "t^3")) != 0


class TestStallingsCore:
    @pytest.mark.parametrize("entry", [1.5, "1", (0, 1)])
    def test_from_table_refuses_entries_that_are_not_integers(self, entry):
        table = [[entry, None, None, None], [None, 0, None, None]]
        with pytest.raises(
            GraphInvariantError,
            match=re.escape(f"edge target {entry!r} at (0,a) is not an integer"),
        ):
            CoreGraph.from_table(F2, table)

    def test_single_loop(self):
        core = stallings_core(F2, [parse_word(F2, "a")])
        assert core.n == 1
        assert core.next[0] == (0, 0, None, None)

    def test_a_squared_and_b(self):
        core = stallings_core(F2, [parse_word(F2, "a^2"), parse_word(F2, "b")])
        assert core.n == 2
        assert core.next[0] == (1, 1, 0, 0)
        assert core.next[1] == (0, 0, None, None)

    def test_fold_to_full_group(self):
        core = stallings_core(F2, [parse_word(F2, "a"), parse_word(F2, "ab")])
        assert core.n == 1
        assert core.complete

    def test_conjugate_keeps_root_path(self):
        core = stallings_core(F2, [parse_word(F2, "abA")])
        assert core.n == 2
        assert core.next[core.root] == (1, None, None, None)
        assert core.next[1] == (None, 0, 1, 1)

    def test_unreduced_input_reduced_first(self):
        w = parse_word(F2, "aBb")  # reduces to a
        core = stallings_core(F2, [w])
        assert core.n == 1
        assert core.next[0] == (0, 0, None, None)

    def test_involutive_alphabet_rejected(self):
        gens = GenSet.with_involutions(pairs=("a",), involutions=("m",))
        with pytest.raises(GraphInvariantError, match="free alphabet"):
            stallings_core(gens, [Word((2,))])

    @settings(max_examples=150)
    @given(data=st.data(), rank=st.integers(1, 3))
    def test_fold_needs_no_trimming(self, data, rank):
        gens = GenSet.free(rank)
        words = data.draw(reference.folded_words(rank))
        core = stallings_core(gens, words)
        assert core == reference.stallings_core(gens, words)
        defined = (core.slots >= 0).sum(axis=1)
        assert (defined[1:] >= 2).all()  # the root is vertex 0

    @given(st.data())
    def test_fold_confluence(self, data):
        words = data.draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=1, max_size=10).map(
                    lambda ls: Word(tuple(ls))
                ),
                min_size=1,
                max_size=4,
            )
        )
        core = stallings_core(F2, words)
        shuffled = data.draw(st.permutations(words))
        assert stallings_core(F2, list(shuffled)) == core

    @given(st.data())
    def test_core_invariant_under_redundant_generators(self, data):
        words = data.draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=1, max_size=8).map(
                    lambda ls: Word(tuple(ls))
                ),
                min_size=1,
                max_size=3,
            )
        )
        core = stallings_core(F2, words)
        i = data.draw(st.integers(0, len(words) - 1))
        j = data.draw(st.integers(0, len(words) - 1))
        extra = Word(words[i].letters + words[j].letters)
        assert stallings_core(F2, words + [extra]) == core
        inverses = [reference.invert_word(F2, w) for w in words]
        assert stallings_core(F2, inverses) == core

    @given(st.data())
    def test_generator_words_stabilize_root(self, data):
        words = data.draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=1, max_size=12).map(
                    lambda ls: Word(tuple(ls))
                ),
                min_size=1,
                max_size=4,
            )
        )
        core = stallings_core(F2, words)
        for w in words:
            w = reduce_word(F2, w)
            if w.letters:
                assert walk_endpoint(core, core.root, w) == core.root


class TestCompleteBall:
    def test_loop_core_radius_one(self):
        core = stallings_core(F2, [parse_word(F2, "a")])
        g = complete_ball(core, 1)
        assert g.n == 3
        assert g.truncation_radius == 1
        assert g.next[g.root][0] == g.root  # the a-loop survives
        assert g.boundary == frozenset({1, 2})

    def test_tree_ball_sizes(self):
        assert complete_ball(free_core(2), 2).n == 1 + 4 + 12
        assert complete_ball(tree_core(4), 2).n == 17
        assert complete_ball(tree_core(3), 3).n == 1 + 3 + 6 + 12

    def test_radius_zero(self):
        g = complete_ball(free_core(2), 0)
        assert g.n == 1
        assert g.boundary == frozenset({0})
        assert g.truncation_radius == 0

    def test_complete_core_needs_no_truncation(self):
        core = stallings_core(F2, [parse_word(F2, "a"), parse_word(F2, "b")])
        g = complete_ball(core, 5)
        assert g.n == 1
        assert not g.truncated
        assert g.truncation_radius is None

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(builders, "MAX_VERTICES", 1000)
        with pytest.raises(ValueError, match="max_vertices"):
            complete_ball(free_core(2), 20)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_truncation_consistency(self, radius):
        core = stallings_core(F2, [parse_word(F2, "a^2"), parse_word(F2, "bab")])
        small = complete_ball(core, radius)
        big = complete_ball(core, radius + 1)
        assert _restrict(big, radius).next == small.next

    def test_distance_to_boundary_equals_radius(self):
        g = complete_ball(free_core(2), 4)
        assert boundary_layer(g, *bfs_layers(g.slots, g.root, 4)) == 4
        distances = g.root_depths[:-1]
        assert tuple(distances.tolist()) == reference.bfs_distances(g, g.root)
        assert set(distances[list(g.boundary)].tolist()) == {4}


class TestOnePassBuilders:
    """The one-pass ``complete_ball`` and the orbit builders against the
    two-pass constructions they replaced (``tests/reference.py``)."""

    @staticmethod
    def _same_graph(g: SchreierGraph, ref: SchreierGraph) -> None:
        assert (g.next, g.root, g.boundary, g.truncation_radius) == (
            ref.next, ref.root, ref.boundary, ref.truncation_radius,
        )

    @settings(max_examples=200)
    @given(data=st.data(), rank=st.integers(1, 3), radius=st.integers(0, 5))
    def test_ball_of_a_folded_core(self, data, rank, radius):
        gens = GenSet.free(rank)
        core = stallings_core(gens, data.draw(reference.folded_words(rank)))
        self._same_graph(complete_ball(core, radius), reference.complete_ball(core, radius))

    @pytest.mark.parametrize("degree", range(2, 8))
    def test_ball_of_a_tree(self, degree):
        for radius in range(6):
            core = tree_core(degree)
            ball = complete_ball(core, radius)
            ball.validate()
            self._same_graph(ball, reference.complete_ball(core, radius))

    @pytest.mark.parametrize(
        "spec",
        [
            "fold:a,b,rank=4@5",
            "fold:ab,rank=3@6",
            "fold:aab,abA,rank=2@10",
            "fold:a,rank=2@11",
            "fold:abaB,bbA,rank=2@3",
            "fold:aba,rank=2@0",
            "free:rank=2@8",
        ],
    )
    def test_ball_slots_match_the_reference(self, spec):
        """The level-synchronous pass numbers the ball's slot table as the
        two-pass construction does: cores with trees and with core
        vertices on the sphere, a complete core, radius 0, and F2 at R = 8."""
        core, radius = parse_spec(spec)
        g, ref = complete_ball(core, radius), reference.complete_ball(core, radius)
        assert np.array_equal(g.slots, ref.slots)
        assert not g.slots.flags.writeable
        assert (g.boundary, g.truncation_radius) == (ref.boundary, ref.truncation_radius)

    @pytest.mark.parametrize(
        "core, radius",
        [
            (free_core(2), 4),
            (stallings_core(F2, [parse_word(F2, "a^2"), parse_word(F2, "bab")]), 3),
            (stallings_core(F2, [parse_word(F2, "a^5"), parse_word(F2, "b")]), 2),
        ],
        ids=["tree", "core-and-trees", "core-vertices-on-the-sphere"],
    )
    def test_max_vertices_is_exact(self, core, radius, monkeypatch):
        size = complete_ball(core, radius).n
        monkeypatch.setattr(builders, "MAX_VERTICES", size)
        assert complete_ball(core, radius).n == size
        monkeypatch.setattr(builders, "MAX_VERTICES", size - 1)
        with pytest.raises(ValueError, match="max_vertices"):
            complete_ball(core, radius)

    @settings(max_examples=200)
    @given(act=reference.sparse_actions(), data=st.data())
    def test_orbit_builders(self, act, data):
        base = data.draw(st.integers(0, act.degree - 1))
        g = from_perm_action(act, base)
        assert g.next == reference.from_perm_action(act, base).next
        assert restrict_to_orbit(act, base) == reference.restrict_to_orbit(act, base)
        assert bfs_layers(act.slots, base)[0].tolist() == reference.orbit(act, base)
        perms = reference.label_perms(act)
        assert act.slots.tolist() == [[p[x] for p in perms] for x in range(act.degree)]


class TestTreeCore:
    def test_every_degree(self):
        for degree in range(2, 121):
            core = tree_core(degree)
            assert core.degree == degree and core.n == 1

    @pytest.mark.parametrize(
        "degree, last", [(3, "m"), (25, "m"), (27, "m0"), (52, "Z"), (54, "A1"), (61, "m0")]
    )
    def test_label_names(self, degree, last):
        labels = tree_core(degree).gens.labels
        assert labels[-1] == last
        pairs = labels[: 2 * (degree // 2) : 2]
        assert pairs[:26] == tuple("abcdefghijklmnopqrstuvwxyz")[: degree // 2]


def _restrict(g: SchreierGraph, radius: int) -> SchreierGraph:
    dist = reference.bfs_distances(g, g.root)
    kept = [v for v in range(g.n) if dist[v] <= radius]
    index = {v: i for i, v in enumerate(kept)}
    table = tuple(
        tuple(None if w is None else index.get(w) for w in g.next[v]) for v in kept
    )
    boundary = frozenset(i for i, row in enumerate(table) if any(s is None for s in row))
    return canonicalize(
        SchreierGraph(
            gens=g.gens, next=table, root=index[g.root],
            boundary=boundary, truncation_radius=radius,
        )
    )


class TestNamedGraphs:
    def test_petersen_structure(self):
        g = petersen_graph()
        assert g.n == 10
        for v in range(10):
            assert sum(w is not None for w in g.next[v]) == 3
            assert len(neighbors(g, v)) == 3  # simple: no loops or doubled edges
            assert v not in neighbors(g, v)

    def test_k4(self):
        g = k4_graph()
        assert g.n == 4
        for v in range(4):
            assert neighbors(g, v) == set(range(4)) - {v}

    def test_klein_is_four_cycle(self):
        g = klein_cayley()
        assert g.n == 4
        assert all(sum(w is not None for w in g.next[v]) == 2 for v in range(4))
        assert all(len(neighbors(g, v)) == 2 for v in range(4))

    def test_s3_cayley(self):
        g = s3_cayley()
        assert g.n == 6
        assert g.degree == 3
        assert all(len(neighbors(g, v)) == 3 for v in range(6))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_cycle_is_the_cyclic_action_table(self, n):
        g = cycle_graph(n)
        assert "next" not in g.__dict__  # no row tuple is stored
        rows = [((v + 1) % n, (v - 1) % n) for v in range(n)]
        assert g.slots.tolist() == [list(row) for row in rows]
        assert g.gens == GenSet(("t", "T"), (1, 0)) and g.root == 0
        g.validate()

    @pytest.mark.parametrize("n", [0, -3])
    def test_cycle_needs_a_vertex(self, n):
        with pytest.raises(ValueError, match="at least one vertex"):
            cycle_graph(n)


class TestRegularActions:
    def test_s3_regular_is_free_and_transitive(self):
        act = s3_regular()
        assert act.degree == 6
        assert act.gens.degree == 5
        g = from_perm_action(act, base=0)
        assert g.n == 6
        # regular actions are fixed-point free off the identity
        for p in reference.label_perms(act):
            assert all(p[x] != x for x in range(6))

    def test_z6_regular(self):
        act = z6_regular()
        assert act.degree == 6
        assert act.gens.degree == 5
        assert from_perm_action(act).n == 6

    def test_group_closure_identity_first(self):
        elems = group_closure([(1, 0, 2)])
        assert elems[0] == (0, 1, 2)
        assert len(elems) == 2


class TestRandomPermModel:
    def test_seed_determinism(self):
        g1 = random_perm_model(2, 60, seed=7)
        g2 = random_perm_model(2, 60, seed=7)
        assert g1 == g2
        assert random_perm_model(2, 60, seed=8) != g1

    def test_regularity(self):
        g = random_perm_model(3, 40, seed=1)
        assert g.degree == 6
        assert all(sum(w is not None for w in row) == 6 for row in g.next)

    def test_single_point(self):
        g = random_perm_model(2, 1, seed=0)
        assert g.n == 1
        assert g.next[0] == (0, 0, 0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 17, 1000, 1023, 1024, 1025, 10**5])
    def test_fisher_yates_draws_as_randrange(self, n):
        """The inlined rejection draws give the permutations, and leave the
        generator in the state, of the ``randrange`` shuffle."""
        for seed in range(4):
            rng = random.Random(seed)
            assert _fisher_yates(rng, n) == reference.fisher_yates(random.Random(seed), n)
            expected = random.Random(seed)
            reference.fisher_yates(expected, n)
            assert rng.random() == expected.random()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3000) | st.sampled_from([2**k + j for k in range(1, 12) for j in (-1, 0, 1)]),
        st.integers(0, 2**32),
    )
    def test_table_matches_the_tuple_path(self, m, n, seed):
        act, expected = random_perm_action(m, n, seed), reference.random_perm_action(m, n, seed)
        assert act == expected
        assert act.slots.dtype == expected.slots.dtype == np.int64
        assert act.slots.tobytes() == expected.slots.tobytes()

    def test_peak_below_five_tables(self):
        tracemalloc.start()
        try:
            act = random_perm_action(2, 10**5, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * act.slots.nbytes

    def test_restrict_to_orbit_transitive(self):
        act = random_perm_action(2, 30, seed=5)
        sub = restrict_to_orbit(act, 0)
        assert from_perm_action(sub).n == sub.degree


class TestLps:
    def test_psl_case(self):
        g = lps_graph(17, 13)
        assert g.n == 13 * (13 * 13 - 1) // 2 == 1092
        assert g.degree == 18
        for v in (0, 1, 500):
            assert len(neighbors(g, v)) == 18
            assert v not in neighbors(g, v)

    def test_pgl_case_is_bipartite(self):
        g = lps_graph(5, 13)
        assert g.n == 13 * (13 * 13 - 1) == 2184
        assert g.degree == 6
        color = [-1] * g.n
        color[0] = 0
        stack = [0]
        while stack:
            v = stack.pop()
            for w in neighbors(g, v):
                if color[w] < 0:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                else:
                    assert color[w] != color[v]

    @pytest.mark.parametrize(
        "p", [p for p in range(5, 110, 4) if all(p % k for k in range(2, p))]
    )
    def test_quaternion_solutions(self, p):
        # p = 13, 29, 53, ... have odd isqrt(p); the even coordinates must
        # still range over even values
        sols = _quaternion_solutions(p)
        assert len(sols) == p + 1
        for a0, a1, a2, a3 in sols:
            assert a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 == p
            assert a0 > 0 and a0 % 2 == 1
            assert a1 % 2 == a2 % 2 == a3 % 2 == 0

    @pytest.mark.parametrize("q", [5, 13, 17])
    def test_normalization_is_least_multiple(self, q):
        # every 2×2 matrix over F_q, the zero matrix included
        for m in itertools.product(range(q), repeat=4):
            assert _proj_normalize(m, q) == reference.proj_normalize(m, q)

    @given(st.tuples(*[st.integers(0, 28)] * 4))
    def test_normalization_is_least_multiple_q29(self, m):
        assert _proj_normalize(m, 29) == reference.proj_normalize(m, 29)

    def test_odd_isqrt_p_builds(self):
        g = lps_graph(13, 17)
        assert g.n == 17 * (17 * 17 - 1) // 2 == 2448
        assert g.degree == 14

    @pytest.mark.parametrize(
        "p,q",
        # PSL, PGL, odd isqrt(p), PGL at q = 17, 30 labels, a larger q
        [(17, 13), (5, 13), (13, 17), (5, 17), (29, 13), (5, 29)],
    )
    def test_array_search_matches_dict_search(self, p, q):
        assert lps_graph(p, q).slots.tolist() == list(map(list, reference.lps_graph(p, q)))

    @pytest.mark.parametrize(
        "p,q,message",
        [
            (13, 5, "q > 2"),
            (5, 3, "1 mod 4"),
            (6, 13, "not prime"),
            (7, 13, "1 mod 4"),
            (13, 13, "distinct"),
        ],
    )
    def test_parameter_validation(self, p, q, message):
        with pytest.raises(ValueError, match=message):
            lps_graph(p, q)


class TestSpecLanguage:
    def test_cycle(self):
        assert from_spec("cycle:6") == cycle_graph(6)

    def test_fold_with_completion(self):
        g = from_spec("fold:rank=2,a@1")
        assert isinstance(g, SchreierGraph)
        assert g.n == 3

    def test_fold_infers_rank(self):
        core = from_spec("fold:a^2,b")
        assert isinstance(core, CoreGraph)
        assert core.gens.degree == 4

    def test_free_core(self):
        core = from_spec("free:rank=3")
        assert isinstance(core, CoreGraph)
        assert core.n == 1 and core.gens.degree == 6

    def test_file_round_trip(self, tmp_path):
        from schreier.core import serialize

        g = petersen_graph()
        path = tmp_path / "g.sgf"
        path.write_text(serialize(g))
        assert from_spec(f"file:{path}") == g

    def test_file_with_boundary_and_no_truncation_is_a_core(self, tmp_path):
        from schreier.core import serialize

        core = from_spec("fold:a^2,b")
        path = tmp_path / "core.sgf"
        path.write_text(serialize(core))
        assert from_spec(f"file:{path}") == core
        # a complete vertex flagged as boundary is neither core nor truncation
        path.write_text(serialize(cycle_graph(3)) + "b 0\n")
        with pytest.raises(SGF1Error, match="flagged as partial"):
            from_spec(f"file:{path}")

    def test_radius_takes_the_ball_of_a_whole_graph(self):
        assert from_spec("cycle:10@3") == complete_ball(cycle_graph(10), 3)
        assert from_spec("cycle:6@5") == canonicalize(cycle_graph(6))

    def test_radius_on_a_truncation_rejected(self, tmp_path):
        from schreier.core import serialize

        path = tmp_path / "ball.sgf"
        path.write_text(serialize(from_spec("tree:d=4,r=3")))
        for spec in (f"file:{path}@2", "tree:d=4,r=3@2"):
            with pytest.raises(ValueError, match="this spec names a truncation"):
                from_spec(spec)

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown graph spec"):
            from_spec("dodecahedron")

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            from_spec("randperm:m=2,n=10")

    def test_action_specs(self):
        assert action_from_spec("cyclic:6").degree == 6
        assert action_from_spec("regular:s3").gens.degree == 5
        assert action_from_spec("randperm:m=2,n=9,seed=1").degree == 9
