"""Girth and cycle counting, pinned against an exhaustive enumerator."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from schreier.builders import (
    complete_ball,
    cycle_graph,
    free_core,
    from_perm_action,
    k4_graph,
    klein_cayley,
    lps_graph,
    petersen_graph,
    random_perm_model,
    regular_action,
    s3_cayley,
    stallings_core,
    tree_core,
)
from schreier import cycles
from schreier.core import GenSet, PermAction, parse_word
from schreier.cycles import (
    CycleProfile,
    cycle_counts,
    cycle_profile,
    girth,
)
from schreier.local import ball
from reference import cycles_through


def brute_edges(g):
    """Multigraph edge list recovered from half-edge pairing alone: each
    edge is an orbit of (v, l) ↔ (slots[v, l], l⁻¹) on defined slots."""
    seen, edges = set(), []
    for v in range(g.n):
        for l in range(g.gens.degree):
            w = int(g.slots[v, l])
            if w < 0:
                continue
            half = frozenset({(v, l), (w, g.gens.inv[l])})
            if half in seen:
                continue
            seen.add(half)
            edges.append((v, w))
    return edges


def brute_cycle_count(g, length):
    """Subset enumeration: spell out every vertex set of the right size and
    count its Hamilton cycles, weighting by parallel-edge choices."""
    edges = brute_edges(g)
    if length == 1:
        return sum(1 for v, w in edges if v == w)
    mult = Counter((v, w) if v < w else (w, v) for v, w in edges if v != w)
    if length == 2:
        return sum(m * (m - 1) // 2 for m in mult.values())
    n = g.n
    total = 0
    for subset in combinations(range(n), length):
        anchor = subset[0]
        for rest in permutations(subset[1:]):
            if rest[0] > rest[-1]:
                continue  # one direction per cycle
            cyc = (anchor,) + rest
            weight = 1
            for i, a in enumerate(cyc):
                b = cyc[(i + 1) % length]
                weight *= mult.get((a, b) if a < b else (b, a), 0)
                if not weight:
                    break
            total += weight
    return total


def loop_core():
    gens = GenSet.free(2)
    return stallings_core(gens, [parse_word(gens, "a")])


class TestFrozenCounts:
    def test_k4(self):
        assert girth(k4_graph()) == 3
        assert cycle_counts(k4_graph(), 4) == (0, 0, 4, 3)

    def test_petersen(self):
        assert girth(petersen_graph()) == 5
        assert cycle_counts(petersen_graph(), 9) == (0, 0, 0, 0, 12, 10, 0, 15, 20)

    def test_hexagon(self):
        assert girth(cycle_graph(6)) == 6
        assert cycle_counts(cycle_graph(6), 6) == (0, 0, 0, 0, 0, 1)
        assert cycle_counts(cycle_graph(6), 5)[4] == 0

    def test_transposition_makes_a_parallel_pair(self):
        assert girth(cycle_graph(2)) == 2
        assert cycle_counts(cycle_graph(2), 2) == (0, 1)

    def test_fixed_point_makes_a_loop(self):
        assert girth(cycle_graph(1)) == 1
        assert cycle_counts(cycle_graph(1), 1)[0] == 1

    def test_core_with_a_loop(self):
        assert girth(loop_core()) == 1
        assert cycle_counts(loop_core(), 2) == (1, 0)

    def test_forests(self):
        assert girth(free_core(2)) == math.inf
        assert girth(complete_ball(tree_core(3), 3)) == math.inf
        assert cycle_counts(complete_ball(tree_core(3), 3), 6) == (0,) * 6

    def test_involutive_half_loop(self):
        act = PermAction.from_generator_perms(
            [], [(0, 2, 1)], involution_names=("m",)
        )
        fixed = from_perm_action(act, base=0)
        assert fixed.n == 1 and girth(fixed) == 1
        swapped = from_perm_action(act, base=1)
        assert girth(swapped) == math.inf

    def test_a_tree_ball_is_answered_without_a_search(self, monkeypatch):
        """A connected multigraph is a forest exactly when it has n − 1
        edges, loops and parallel edges counted; the graphs above with n
        edges have one cycle."""

        def no_search(*args):
            raise AssertionError("girth searched a forest")

        g = complete_ball(tree_core(4), 8)  # 13,121 vertices
        monkeypatch.setattr(cycles, "deque", no_search)
        assert girth(g) == math.inf
        assert girth(free_core(3)) == math.inf


class TestBruteForceAgreement:
    @pytest.mark.parametrize(
        "g",
        [k4_graph(), klein_cayley(), s3_cayley(), cycle_graph(2), cycle_graph(5), loop_core()],
        ids=["k4", "klein", "s3", "c2", "c5", "loop-core"],
    )
    def test_named_graphs(self, g):
        for length in range(1, 9):
            assert cycle_counts(g, length)[length - 1] == brute_cycle_count(g, length)

    def test_petersen_full_range(self):
        p = petersen_graph()
        for length in range(1, 9):
            assert cycle_counts(p, length)[length - 1] == brute_cycle_count(p, length)

    @settings(deadline=None, max_examples=12)
    @given(
        m=st.integers(2, 3),
        n=st.integers(4, 10),
        seed=st.integers(0, 10_000),
    )
    def test_random_models(self, m, n, seed):
        g = random_perm_model(m, n, seed)
        assert cycle_counts(g, 6) == tuple(
            brute_cycle_count(g, length) for length in range(1, 7)
        )

    @settings(deadline=None, max_examples=30)
    @given(m=st.integers(1, 3), n=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_girth_is_the_first_positive_count(self, m, n, seed):
        # girth(g) alone is the breadth-first search, loops and parallel pairs included
        g = random_perm_model(m, n, seed)
        counts = cycle_counts(g, 8)
        firsts = [length for length, c in enumerate(counts, start=1) if c > 0]
        assert cycle_profile(g, 8).girth == girth(g)
        if firsts:
            assert girth(g) == firsts[0]
        else:
            assert girth(g) > 8


def brute_girth(g):
    """The first L with a brute-force L-cycle; no cycle has more than n
    vertices, so a graph with none up to n is a forest."""
    n = g.n
    return next((L for L in range(1, n + 1) if brute_cycle_count(g, L)), math.inf)


_S4 = list(permutations(range(4)))


@st.composite
def small_cayley_graphs(draw):
    """Cayley graphs of subgroups of S4 of order at most 14, on 0-2 random
    letter pairs and 0-1 random involution (repeats and the identity make
    parallel edges and loops)."""
    pairs = draw(st.lists(st.sampled_from(_S4), max_size=2))
    involutions = [p for p in _S4 if all(p[p[x]] == x for x in range(4))]
    singles = draw(st.lists(st.sampled_from(involutions), min_size=not pairs, max_size=1))
    act = regular_action(pairs, singles)
    assume(act.degree <= 14)
    return from_perm_action(act)


class TestGirthSearch:
    """``girth`` without counts searches from the root alone on whole
    vertex-transitive graphs and from every vertex otherwise."""

    @settings(deadline=None, max_examples=100)
    @given(g=small_cayley_graphs())
    def test_cayley_graphs(self, g):
        assert girth(g) == brute_girth(g)

    @settings(deadline=None, max_examples=100)
    @given(m=st.integers(2, 3), n=st.integers(1, 14), seed=st.integers(0, 10_000))
    def test_random_models(self, m, n, seed):
        # 2m ≥ 4 keeps the girth at most 4 below 17 vertices (Moore bound),
        # so the brute force stays small; roots often miss the shortest cycle
        g = random_perm_model(m, n, seed)
        assert girth(g) == brute_girth(g)

    def test_long_cycle(self):
        assert girth(cycle_graph(5000)) == 5000


def brute_census(g, lmax=5):
    return tuple(brute_cycle_count(g, length) for length in range(1, lmax + 1))


class TestTraceIdentities:
    """c_1..c_5 by the sweep, at every lmax ≤ 5, against the trace identities
    and the subset enumerator; a transitive graph's root-alone sweep against
    its all-starts sweep."""

    def assert_traced(self, g):
        expected = brute_census(g)
        assert reference.traced_counts(g, 5) == expected
        everywhere = reference.preset_transitivity(g, False)
        for lmax in range(1, 6):
            assert cycle_counts(g, lmax) == cycle_counts(everywhere, lmax) == expected[:lmax]
        assert cycle_profile(g, 5).method in ("sweep", "transitive-sweep")

    @settings(deadline=None, max_examples=40)
    @given(m=st.integers(1, 3), n=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_random_models(self, m, n, seed):
        # m = 1 gives fixed points and transpositions: loops and parallel pairs
        self.assert_traced(random_perm_model(m, n, seed))

    @settings(deadline=None, max_examples=40)
    @given(act=reference.sparse_actions(), data=st.data())
    def test_involutive_labels(self, act, data):
        self.assert_traced(from_perm_action(act, data.draw(st.integers(0, act.degree - 1))))

    @settings(deadline=None, max_examples=30)
    @given(data=st.data(), rank=st.integers(1, 3))
    def test_folded_cores(self, data, rank):
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        assume(core.n <= 14)
        self.assert_traced(core)

    def test_missing_slots(self):
        self.assert_traced(loop_core())
        for degree, radius in ((2, 3), (3, 2), (4, 2)):
            self.assert_traced(complete_ball(tree_core(degree), radius))

    def test_lmax_6_against_the_enumerators(self):
        graphs = [random_perm_model(1, 9, 3), random_perm_model(3, 12, 5), loop_core()]
        assert cycle_profile(graphs[0], 6).method == "transitive-sweep"  # a 9-cycle
        assert cycle_profile(graphs[1], 6).method == "sweep"
        for g in graphs:
            assert cycle_counts(g, 6) == reference.enumerated_counts(g, 6) == brute_census(g, 6)


@st.composite
def slot_tables(draw):
    """Graphs of ``reference.perm_models`` actions (involutions, fixed points,
    transpositions), whole or cut to a ball, whose sphere edges become
    missing slots."""
    act = draw(reference.perm_models())
    g = from_perm_action(act, draw(st.integers(0, act.degree - 1)))
    radius = draw(st.integers(0, 4))
    return ball(g, draw(st.integers(0, g.n - 1)), radius).graph if radius else g


def _both_sweeps(g, lmax):
    """c_1 .. c_lmax by the root-alone sweep and by the all-starts sweep."""
    return tuple(
        cycle_counts(reference.preset_transitivity(g, transitive), lmax)
        for transitive in (True, False)
    )


class TestSweepAgainstOracles:
    @settings(deadline=None, max_examples=60)
    @given(g=slot_tables())
    def test_random_slot_tables(self, g):
        sweep = cycle_counts(g, 6)
        assert sweep[:5] == reference.traced_counts(g, 5)
        assert sweep == reference.enumerated_counts(g, 6) == brute_census(g, 6)

    @settings(deadline=None, max_examples=40)
    @given(g=small_cayley_graphs())
    def test_root_alone_on_cayley_graphs(self, g):
        assert cycle_profile(g, 6).method == "transitive-sweep"
        root_alone, everywhere = _both_sweeps(g, 6)
        assert root_alone == everywhere

    def test_root_alone_on_lps_5_13(self):
        root_alone, everywhere = _both_sweeps(lps_graph(5, 13), 6)
        assert root_alone == everywhere == (0,) * 6

    def test_root_alone_on_lps_17_13(self):
        root_alone, everywhere = _both_sweeps(lps_graph(17, 13), 4)
        assert root_alone == everywhere == (0, 0, 1092, 6552)

    def test_root_alone_refuses_a_count_that_does_not_split(self):
        # this 4-vertex graph is not vertex-transitive: its root lies on one
        # triangle, walked both ways, and c_3 would be 4·2/6
        g = reference.preset_transitivity(random_perm_model(2, 4, 0), True)
        with pytest.raises(ValueError, match="c_3 = 8/6 is not a whole number"):
            cycle_counts(g, 3)

    def test_traced_peak_at_n_100000(self):
        g = random_perm_model(2, 10**5, 0)
        tracemalloc.start()
        try:
            cycle_counts(g, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestCyclesThrough:
    def test_triangle(self):
        assert cycles_through(cycle_graph(3), 0, 3) == 1

    def test_k4_vertex(self):
        assert cycles_through(k4_graph(), 2, 3) == 3

    @pytest.mark.parametrize(
        "g", [petersen_graph(), k4_graph(), cycle_graph(7), s3_cayley()],
        ids=["petersen", "k4", "c7", "s3"],
    )
    def test_transitive_consistency(self, g):
        # on a vertex-transitive graph, n·(cycles through a vertex) = L·c_L
        for length in range(1, 8):
            total = cycle_counts(g, length)[length - 1]
            for v in (0, g.n - 1):
                assert g.n * cycles_through(g, v, length) == length * total

    def test_loop_core_root(self):
        assert cycles_through(loop_core(), 0, 1) == 1

    @settings(deadline=None, max_examples=40)
    @given(
        m=st.integers(1, 3),
        n=st.integers(1, 14),
        seed=st.integers(0, 10_000),
    )
    def test_vertex_sums_on_random_models(self, m, n, seed):
        # every L-cycle has L vertices, transitive or not; small random
        # models carry loops and parallel edges
        g = random_perm_model(m, n, seed)
        counts = cycle_counts(g, 6)
        for length in range(1, 7):
            total = sum(cycles_through(g, v, length) for v in range(g.n))
            assert total == length * counts[length - 1]


class TestLpsShortCycles:
    def test_triangles_through_every_vertex(self):
        # three triangles per vertex: six ordered generator triples multiply
        # to a scalar matrix, so the girth collapses to 3 at these parameters
        g = lps_graph(17, 13)
        assert girth(g) == 3
        assert cycle_counts(g, 4) == (0, 0, 1092, 6552)


class TestValidation:
    def test_length_bounds(self):
        g = cycle_graph(5)
        for bad in (0, 13):
            with pytest.raises(ValueError, match="up to 12"):
                cycle_counts(g, bad)


class TestProfiles:
    def test_petersen_profile(self):
        profile = cycle_profile(petersen_graph(), 6)
        assert profile.girth == 5
        assert profile.densities[4] == Fraction(12, 10)
        assert profile.densities[:4] == (0, 0, 0, 0)

    def test_girth_search_reads_the_one_decision(self, transitivity_decisions):
        # LPS(5, 13) has girth 8: c_1 .. c_5 are 0, so the girth is searched
        # for, from the root alone, on the decision the census made
        profile = cycle_profile(lps_graph(5, 13), 5)
        assert profile.counts == (0,) * 5 and profile.girth == 8
        assert profile.method == "transitive-sweep"
        assert len(transitivity_decisions) == 1

    def test_profile_guards(self):
        with pytest.raises(ValueError, match="below girth"):
            CycleProfile(4, 3, (0, 1, 4), "trace")
        with pytest.raises(ValueError, match="girth length"):
            CycleProfile(4, 2, (0, 0, 4), "trace")
