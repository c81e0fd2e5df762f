import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference

from schreier.core import (
    BOUNDARY,
    GenSet,
    GraphInvariantError,
    PermAction,
    SchreierGraph,
    SGF1Error,
    Word,
    bfs_distances,
    canonicalize,
    canonical_rows,
    format_word,
    is_reduced,
    orbit_of,
    parse,
    parse_word,
    reduce_word,
    serialize,
    walk_endpoint,
)


def cycle(n: int) -> SchreierGraph:
    gens = GenSet.free(1)
    table = tuple(((v + 1) % n, (v - 1) % n) for v in range(n))
    return SchreierGraph(gens=gens, next=table)


def random_action(rng_draw, n: int, pairs: int, invs: int) -> PermAction:
    pair_perms = [rng_draw(st.permutations(range(n))) for _ in range(pairs)]
    inv_perms = []
    for _ in range(invs):
        # random involution: pair up points from a shuffled order
        order = rng_draw(st.permutations(range(n)))
        p = list(range(n))
        for i in range(0, n - 1, 2):
            a, b = order[i], order[i + 1]
            p[a], p[b] = b, a
        inv_perms.append(p)
    return PermAction.from_generator_perms(pair_perms, inv_perms)


def orbit_graph(act: PermAction, base: int = 0) -> SchreierGraph:
    order = orbit_of(act, base)
    index = {x: i for i, x in enumerate(order)}
    table = tuple(
        tuple(index[p[x]] for p in act.perms) for x in order
    )
    return SchreierGraph(gens=act.gens, next=table)


class TestGenSet:
    def test_free_rank_two(self):
        gens = GenSet.free(2)
        assert gens.labels == ("a", "A", "b", "B")
        assert gens.inv == (1, 0, 3, 2)
        assert gens.degree == 4
        assert not any(gens.is_involution(l) for l in range(4))

    def test_involutions_count_once(self):
        gens = GenSet.with_involutions(pairs=("a",), involutions=("m",))
        assert gens.degree == 3
        assert gens.is_involution(2)

    def test_inv_must_be_involution(self):
        with pytest.raises(GraphInvariantError, match="involution"):
            GenSet(("a", "b", "c"), (1, 2, 0))

    def test_duplicate_names_rejected(self):
        with pytest.raises(GraphInvariantError, match="unique"):
            GenSet(("a", "a"), (1, 0))


class TestWords:
    def test_reduce_cancels_pairs(self):
        gens = GenSet.free(2)
        w = parse_word(gens, "abBA")
        assert reduce_word(gens, w) == Word(())

    def test_reduce_involution_squares(self):
        gens = GenSet.with_involutions(involutions=("m", "t"))
        w = parse_word(gens, "m t t m m")
        assert reduce_word(gens, w) == Word((0,))

    def test_parse_exponents(self):
        gens = GenSet.free(2)
        assert parse_word(gens, "a^3") == Word((0, 0, 0))
        assert parse_word(gens, "a^-2 b") == Word((1, 1, 2))
        assert parse_word(gens, "aB") == Word((0, 3))

    def test_format_round_trip(self):
        gens = GenSet.free(2)
        w = parse_word(gens, "aabA")
        assert parse_word(gens, format_word(gens, w)) == w

    def test_empty_word_formats_as_identity(self):
        gens = GenSet.free(1)
        assert format_word(gens, Word(())) == "e"

    @given(st.data())
    def test_reduce_idempotent(self, data):
        gens = GenSet.free(2)
        letters = data.draw(st.lists(st.integers(0, 3), max_size=30))
        once = reduce_word(gens, Word(tuple(letters)))
        assert is_reduced(gens, once)
        assert reduce_word(gens, once) == once

    @given(st.data())
    def test_word_times_inverse_reduces_to_identity(self, data):
        gens = GenSet.with_involutions(pairs=("a",), involutions=("m",))
        letters = data.draw(st.lists(st.integers(0, 2), max_size=20))
        w = Word(tuple(letters))
        wi = reference.invert_word(gens, w)
        assert reduce_word(gens, Word(w.letters + wi.letters)) == Word(())


class TestSchreierGraph:
    def test_cycle_distances(self):
        g = cycle(6)
        assert g.n == 6
        assert bfs_distances(g, 0) == (0, 1, 2, 3, 2, 1)

    def test_missing_interior_slot_rejected(self):
        gens = GenSet.free(1)
        table = ((1, None), (None, 0))
        with pytest.raises(GraphInvariantError, match="missing edge slot A"):
            SchreierGraph(gens=gens, next=table)

    def test_unpaired_slot_rejected(self):
        gens = GenSet.free(1)
        # 0 --a--> 1 but 1's A-slot points elsewhere
        table = ((1, 2), (2, 2), (0, 1))
        with pytest.raises(GraphInvariantError, match=r"label-consistency violated at edge \(0,a\)"):
            SchreierGraph(gens=gens, next=table)

    def test_disconnected_rejected(self):
        gens = GenSet.free(1)
        table = ((1, 1), (0, 0), (3, 3), (2, 2))
        with pytest.raises(GraphInvariantError, match="not connected"):
            SchreierGraph(gens=gens, next=table)

    def test_boundary_allows_missing_slots(self):
        gens = GenSet.free(1)
        # path 0-1-2 with a acting as +1, truncated at both ends
        table = ((1, None), (2, 0), (None, 1))
        g = SchreierGraph(
            gens=gens, next=table, root=1,
            boundary=frozenset({0, 2}), truncation_radius=1,
        )
        assert g.truncated
        assert g.distance_to_boundary(1) == 1
        assert walk_endpoint(g, 1, parse_word(gens, "a^2")) is BOUNDARY

    def test_walk_endpoint(self):
        g = cycle(5)
        assert walk_endpoint(g, 0, parse_word(g.gens, "a^7")) == 2
        assert walk_endpoint(g, 0, parse_word(g.gens, "a^-1")) == 4


class TestCanonicalize:
    @given(st.data())
    def test_relabeling_invariance(self, data):
        act = random_action(data.draw, n=7, pairs=2, invs=0)
        g = orbit_graph(act)
        # renumber by a random permutation fixing nothing structural
        perm = data.draw(st.permutations(range(g.n)))
        table = tuple(
            tuple(None if w is None else perm[w] for w in g.next[old])
            for old in sorted(range(g.n), key=lambda v: perm[v])
        )
        shuffled = SchreierGraph(gens=g.gens, next=table, root=perm[g.root])
        assert canonicalize(shuffled).next == canonicalize(g).next

    def test_canonical_is_bfs_numbered(self):
        act = PermAction.from_generator_perms([(1, 2, 3, 4, 0)])
        g = canonicalize(orbit_graph(act))
        assert g.root == 0
        assert list(canonical_rows(g.next, 0)[0]) == list(range(g.n))


class TestSGF1:
    def test_round_trip_exact(self):
        g = cycle(4)
        text = serialize(g)
        assert text.startswith("SGF1\ngens 2\n")
        g2 = parse(text)
        assert g2.next == g.next
        assert g2.gens == g.gens
        assert serialize(g2) == text

    def test_truncated_round_trip(self):
        gens = GenSet.free(1)
        table = ((1, None), (2, 0), (None, 1))
        g = SchreierGraph(
            gens=gens, next=table, root=1,
            boundary=frozenset({0, 2}), truncation_radius=1,
        )
        g2 = parse(serialize(g))
        assert g2.boundary == g.boundary
        assert g2.truncation_radius == 1
        assert g2.root == 1

    def test_missing_magic(self):
        with pytest.raises(SGF1Error, match="magic"):
            parse("gens 2\n")

    def test_duplicate_edge_slot(self):
        text = (
            "SGF1\ngens 2\nlabel 0 a inv 1\nlabel 1 A inv 0\n"
            "vertices 2 root 0\ne 0 0 1\ne 0 0 1\ne 1 1 0\n"
        )
        with pytest.raises(SGF1Error, match=r"duplicate edge slot \(0,a\)"):
            parse(text)

    def test_inconsistent_pairing_caught(self):
        text = (
            "SGF1\ngens 2\nlabel 0 a inv 1\nlabel 1 A inv 0\n"
            "vertices 3 root 0\n"
            "e 0 0 1\ne 1 1 2\ne 2 0 1\ne 1 0 2\ne 2 1 0\ne 0 1 2\n"
        )
        with pytest.raises(SGF1Error, match="label-consistency"):
            parse(text)

    @given(st.data())
    def test_round_trip_random_orbits(self, data):
        act = random_action(data.draw, n=6, pairs=1, invs=1)
        g = orbit_graph(act)
        g2 = parse(serialize(g))
        assert g2 == g


class TestPermAction:
    def test_inverse_pairing_validated(self):
        gens = GenSet.free(1)
        with pytest.raises(GraphInvariantError, match="inverse permutation"):
            PermAction(gens, ((1, 2, 0), (1, 2, 0)))

    def test_no_points_rejected(self):
        with pytest.raises(GraphInvariantError, match="at least one point"):
            PermAction(GenSet.free(1), ((), ()))

    def test_word_permutation_composes_left_to_right(self):
        act = PermAction.from_generator_perms([(1, 0, 2), (0, 2, 1)], pair_names="ab")
        w = parse_word(act.gens, "ab")
        # x -> a -> b
        assert act.word_permutation(w) == (2, 0, 1)

    def test_orbit_of_transitive_action(self):
        # breadth-first in label order: a sends 0 to 1, A sends 0 to 3
        act = PermAction.from_generator_perms([(1, 2, 3, 0)])
        assert orbit_of(act, 0) == [0, 1, 3, 2]
