import functools
import itertools
import logging
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference

from schreier import walks
from schreier.builders import (
    CoreGraph,
    complete_ball,
    cycle_graph,
    free_core,
    from_perm_action,
    from_spec,
    lps_graph,
    random_perm_model,
    regular_action,
    stallings_core,
    tree_core,
)
from schreier.core import (
    GenSet,
    InequalityViolation,
    InsufficientRadiusError,
    Word,
    bfs_layers,
    parse_word,
    walk_endpoint,
)
from schreier.local import ball
from schreier.spectral import estimate_rho_returns
from schreier.walks import (
    DominationReport,
    conditioned_prefix_probabilities,
    core_rho,
    return_counts,
    return_domination_reports,
    segment_distributions,
)

F2 = GenSet.free(2)


@functools.cache
def _tree_ball(degree: int, radius: int):
    return complete_ball(tree_core(degree), radius)


_transitive_graph = functools.cache(from_spec)


def brute_force_returns(g, x: int, n: int) -> int:
    """Independent oracle: walk every word in S^n."""
    return sum(
        1
        for word in itertools.product(range(g.degree), repeat=n)
        if walk_endpoint(g, x, Word(word)) == x
    )


@pytest.fixture(scope="module")
def t4_ball():
    return complete_ball(tree_core(4), 4)


@pytest.fixture(scope="module")
def loop_core():
    return stallings_core(F2, [parse_word(F2, "a")])


class TestCountWalks:
    def test_c6_oracle(self):
        g = cycle_graph(6)
        assert return_counts(g, 0, 2)[2] == 2
        # C(6, 3) returning walks take three steps each way and two go once
        # around; ttt reaches the antipode, and two walks come back from it
        total, rows = conditioned_prefix_probabilities(g, 0, 6, 3)
        assert total == 22
        assert dict(rows)[parse_word(g.gens, "ttt")] == Fraction(2, 22)

    def test_t4_small_returns_against_enumeration(self, t4_ball):
        counts = return_counts(t4_ball, t4_ball.root, 4)
        assert counts[2] == 4
        assert counts[4] == 28 == brute_force_returns(t4_ball, t4_ball.root, 4)

    @pytest.mark.parametrize("x", [-1, 6])
    def test_vertex_out_of_range(self, x):
        with pytest.raises(ValueError, match="not a vertex"):
            return_counts(cycle_graph(6), x, 3)
        with pytest.raises(ValueError, match="not a vertex"):
            conditioned_prefix_probabilities(cycle_graph(6), x, 4, 1)

    def test_return_counts_need_half_radius(self, t4_ball):
        assert return_counts(t4_ball, t4_ball.root, 8)
        with pytest.raises(InsufficientRadiusError, match="insufficient radius"):
            return_counts(t4_ball, t4_ball.root, 9)

    @given(st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 3))
    def test_supermultiplicative_returns(self, seed, m, n):
        g = random_perm_model(2, 10, seed)
        counts = return_counts(g, 0, 2 * (m + n))
        # p_{2(m+n)} >= p_{2m} p_{2n}, with p_k = counts[k] / d^k
        assert counts[2 * (m + n)] >= counts[2 * m] * counts[2 * n]


class TestCoreReturnCounts:
    def test_free_group_returns(self):
        counts = return_counts(free_core(2), 0, 8)
        assert counts[0] == 1
        assert counts[1] == counts[3] == 0
        assert (counts[2], counts[4], counts[6], counts[8]) == (4, 28, 232, 2092)

    def test_matches_explicit_ball(self, t4_ball):
        counts = return_counts(free_core(2), 0, 8)
        rows = reference.count_walks(t4_ball, t4_ball.root, 8)
        assert all(counts[n] == rows[n][t4_ball.root] for n in range(9))

    def test_loop_subgroup_returns(self, loop_core):
        counts = return_counts(loop_core, loop_core.root, 6)
        ball = complete_ball(loop_core, 3)
        oracle = [brute_force_returns(ball, ball.root, n) for n in range(7)]
        assert list(counts) == oracle
        assert counts[1] == 2  # both orientations of the loop
        assert (counts[2], counts[4], counts[6]) == (6, 50, 460)

    def test_complete_core_equals_plain_dp(self):
        # index-2 subgroup: its core is a complete finite graph, so the
        # compressed recursion must agree with the plain table
        words = [parse_word(F2, w) for w in ("a^2", "b^2", "ab")]
        core = stallings_core(F2, words)
        assert core.complete
        counts = return_counts(core, core.root, 6)
        rows = reference.count_walks(core, core.root, 6)
        assert all(counts[n] == rows[n][core.root] for n in range(7))


@pytest.mark.parametrize(
    "source, x, horizon, refusal",
    [
        (cycle_graph(4), 0, -1, "horizon must be nonnegative"),
        (free_core(2), 1, 4, r"vertex 1 is not a vertex of the graph \(0..0\)"),
    ],
    ids=["negative-horizon", "vertex-outside-the-core"],
)
def test_return_counts_refusals(source, x, horizon, refusal):
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        return_counts(source, x, horizon)


class TestHangingTreeRecurrence:
    """``return_counts``, ``return_domination_reports`` and
    ``conditioned_prefix_probabilities`` on graphs and on cores, each
    checked against an independent count: the limb stream answers a
    graph's or a complete core's return counts and prefix rows and every
    domination report, over ``_hung_trees`` on a core, and the return
    series' recurrence a core's return counts."""

    @given(degree=st.integers(2, 7), n=st.sampled_from([2, 4, 6, 8, 10, 12]))
    def test_rings_match_the_ring_recursion(self, degree, n):
        """On the tree's core, the report at every even k ≤ n is the ring
        recursion's: ring j holds d(d−1)^{j−1} vertices with equal counts.
        Where the radius-n ball is small, the reports on it agree."""
        rings = reference.tree_ring_counts(degree, n)
        expected = tuple(
            DominationReport(
                degree=degree,
                n=k,
                return_count=rings[k][0],
                max_other_count=max(
                    rings[k][j] // (degree * (degree - 1) ** (j - 1))
                    for j in range(1, k + 1)
                ),
                previous_return_count=rings[k - 2][0],
            )
            for k in range(2, n + 1, 2)
        )
        assert return_domination_reports(tree_core(degree), n, vertex_transitive=True) == expected
        if degree * (degree - 1) ** (n - 1) <= 3000:
            ball = _tree_ball(degree, n)
            assert return_domination_reports(ball, n, vertex_transitive=True) == expected

    @settings(max_examples=100)
    @given(data=st.data(), rank=st.integers(1, 3), horizon=st.integers(0, 10))
    def test_core_returns_match_walks_on_the_ball(self, data, rank, horizon):
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        ball = complete_ball(core, (horizon + 1) // 2)
        rows = reference.count_walks(ball, ball.root, horizon)
        assert return_counts(core, core.root, horizon) == tuple(row[ball.root] for row in rows)

    @settings(max_examples=100)
    @given(data=st.data(), rank=st.integers(1, 3), horizon=st.integers(0, 10))
    def test_cores_return_from_every_vertex(self, data, rank, horizon):
        """From any core vertex x, the counts are those of the core
        re-rooted at x, read on its completed ball."""
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        x = data.draw(st.integers(0, core.n - 1), label="origin")
        rerooted = CoreGraph.from_table(core.gens, reference.rows(core), root=x)
        ball = complete_ball(rerooted, (horizon + 1) // 2)
        rows = reference.count_walks(ball, ball.root, horizon)
        assert return_counts(core, x, horizon) == tuple(row[ball.root] for row in rows)

    @settings(max_examples=100)
    @given(data=st.data(), horizon=st.integers(0, 8))
    def test_tables_and_returns_match_the_reference(self, data, horizon):
        """Permutation models (loops, parallel edges) and truncated balls of
        folded cores, from any origin; too close to the boundary, the
        counts are refused."""
        if data.draw(st.booleans(), label="ball"):
            rank = data.draw(st.integers(1, 2), label="rank")
            core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
            g = complete_ball(core, data.draw(st.integers(0, 4), label="radius"))
        else:
            m, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 7))
            g = random_perm_model(m, n, data.draw(st.integers(0, 10**6)))
        x = data.draw(st.integers(0, g.n - 1), label="origin")
        room = reference.distance_to_boundary(g, x)
        rows = reference.count_walks(g, x, horizon)
        if (horizon + 1) // 2 <= room:
            assert return_counts(g, x, horizon) == tuple(row[x] for row in rows)
        else:
            with pytest.raises(InsufficientRadiusError):
                return_counts(g, x, horizon)

    @settings(max_examples=150)
    @given(data=st.data(), horizon=st.integers(0, 9))
    def test_shuffled_numbering_matches_the_reference(self, data, horizon):
        """The steps follow distance order, not index order: on graphs
        numbered at random, from an origin other than the root, at odd and
        even horizons, the returns are the reference's, and a refusal
        reports the exact distance to the boundary."""
        if data.draw(st.booleans(), label="ball"):
            rank = data.draw(st.integers(1, 2), label="rank")
            core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
            g = complete_ball(core, data.draw(st.integers(1, 4), label="radius"))
        else:
            m, n = data.draw(st.integers(1, 2)), data.draw(st.integers(2, 30))
            g = random_perm_model(m, n, data.draw(st.integers(0, 10**6)))
        g = reference.shuffled(g, data.draw(st.permutations(range(g.n)), label="numbering"))
        others = [v for v in range(g.n) if v != g.root] or [g.root]
        x = data.draw(st.sampled_from(others), label="origin")
        room = reference.distance_to_boundary(g, x)
        rows = reference.count_walks(g, x, horizon)
        needed = (horizon + 1) // 2
        if needed <= room:
            assert return_counts(g, x, horizon) == tuple(row[x] for row in rows)
        else:
            refusal = f"boundary is {room}, need at least {needed}"
            with pytest.raises(InsufficientRadiusError, match=refusal):
                return_counts(g, x, horizon)

    @settings(max_examples=100)
    @given(data=st.data(), rank=st.integers(1, 3), horizon=st.integers(0, 11))
    def test_shuffled_cores_match_walks_on_the_ball(self, data, rank, horizon):
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        numbering = data.draw(st.permutations(range(core.n)))
        ball = complete_ball(core, (horizon + 1) // 2)
        rows = reference.count_walks(ball, ball.root, horizon)
        shuffled = reference.shuffled(core, numbering)
        counts = return_counts(shuffled, shuffled.root, horizon)
        assert counts == tuple(row[ball.root] for row in rows)

    @settings(max_examples=50)
    @given(data=st.data(), n=st.integers(0, 7))
    def test_returning_words_on_shuffled_balls(self, data, n):
        core = stallings_core(F2, data.draw(reference.folded_words(2)))
        ball = complete_ball(core, (n + 1) // 2)
        g = reference.shuffled(ball, data.draw(st.permutations(range(ball.n))))
        total, laws = segment_distributions(g, g.root, n, n)
        assert total == reference.count_walks(g, g.root, n)[n][g.root]
        words = reference.returning_words(g, g.root, n)
        assert len(words) == total
        if n:
            # the whole word is the segment of length n at shift 0
            assert set(laws[n][0]) == set(words)
            assert all(walk_endpoint(g, g.root, Word(w)) == g.root for w in laws[n][0])

    @pytest.mark.parametrize("degree", [27, 60])
    def test_large_degree_trees(self, degree):
        # two steps return along each of the d edges at the root, and reach
        # each of the d(d−1) vertices at distance 2 one way
        reports = return_domination_reports(tree_core(degree), 2, vertex_transitive=True)
        assert reports == (DominationReport(degree, 2, degree, 1, 1),)


def _stream_returns(core, x: int, horizon: int) -> tuple[int, ...]:
    """The origin's entry of the one stream from x over the core's table
    with its hanging trees cut to depth ``horizon``, lifted from its limbs."""
    table = walks._hung_trees(core, horizon)
    stream = walks._ArrayWalks(table, bfs_layers(table, x, horizon), horizon)
    return tuple(stream.lift(counts[:, 0, 0])[0] for counts in stream)


# the cores of the benchmark's return-count jobs
BENCH_CORES = [
    "fold:a,rank=2", "fold:a,b,rank=4", "fold:ab,rank=3", "free:rank=2", "fold:a,b,rank=5",
]


class TestCoreReturnRecurrence:
    """On a core with undefined slots, ``return_counts`` reads the return
    series' integer recurrence; the stream over ``_hung_trees`` is its
    oracle."""

    @settings(max_examples=100)
    @given(data=st.data(), rank=st.integers(1, 3), horizon=st.integers(0, 120))
    def test_every_origin_matches_the_stream(self, data, rank, horizon):
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        for x in range(core.n):
            assert return_counts(core, x, horizon) == _stream_returns(core, x, horizon)

    @pytest.mark.parametrize("spec", BENCH_CORES)
    def test_bench_cores_at_horizon_400(self, spec):
        core = from_spec(spec)
        assert return_counts(core, core.root, 400) == _stream_returns(core, core.root, 400)

    @pytest.mark.parametrize("degree", range(2, 12))
    def test_trees_at_horizon_400(self, degree):
        """Odd degrees carry an involutive label."""
        core = tree_core(degree)
        assert return_counts(core, 0, 400) == _stream_returns(core, 0, 400)

    def test_a_series_past_int64(self):
        """This core's series passes 2⁶³ (70 bits) before its 42 terms end."""
        core = from_spec("fold:cBCab,bbBabb,BCbbCb,AcBB,CAaB,BBc,AcabBC,CACA")
        for x in range(core.n):
            assert return_counts(core, x, 60) == _stream_returns(core, x, 60)

    @pytest.mark.parametrize(
        "table",
        [[[None]], [[None, None, 1], [1, 1, 0]], [[1, None, 0], [None, 0, None]]],
        ids=["one-leaf-trees", "swap", "fixed-point"],
    )
    def test_involutive_labels(self, table):
        """Labels a, A, m with m an involution; alone, m has d = 1, and the
        tree at its missing slot is a single leaf (q = 0, t = z)."""
        gens = GenSet.with_involutions(["a"] if len(table[0]) > 1 else [], ["m"])
        core = CoreGraph.from_table(gens, table)
        for x in range(core.n):
            assert return_counts(core, x, 200) == _stream_returns(core, x, 200)

    def test_depth_zero_hangs_no_rows(self):
        core = from_spec("fold:ab,rank=3")
        assert walks._hung_trees(core, 0) is core.slots
        assert _stream_returns(core, 0, 0) == (1,)

    def test_an_inexact_division_raises(self):
        # 2·G = 1 has no integer solution
        with pytest.raises(AssertionError, match="does not divide"):
            walks._series_counts([2], [1], [], 3, 4)

    def test_too_few_terms_give_the_constant_terms_bit_length(self):
        """The refusal gives the constant term's bit length, not its digits:
        on LPS(5, 29)'s return series, whose recurrence fits in none of
        these prefixes, and on (10⁵⁰⁰⁰, 1), whose recurrence s₁ = s₀/10⁵⁰⁰⁰
        has a constant term past the 4,300 digits that int-to-str
        conversion allows, as 257 terms of that series reach."""
        g = lps_graph(5, 29)
        series = list(return_counts(g, g.root, 128))
        refusal = r"^the recurrence's constant term is a (\d+)-bit integer, not 1$"
        for terms in (17, 65, 129):
            with pytest.raises(AssertionError, match=refusal):
                walks._berlekamp_massey(series[:terms])
        with pytest.raises(AssertionError, match=refusal) as caught:
            walks._berlekamp_massey([10**5000, 1])
        assert re.match(refusal, str(caught.value))[1] == str((10**5000).bit_length())

    def test_one_debug_line_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="schreier"):
            return_counts(from_spec("fold:ab,rank=3"), 0, 40)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("core return series")]
        assert record.getMessage() == (
            "core return series: 2 core vertices, 10 series terms, recurrence order 5, "
            "deg Q 4, deg P_U 2, deg P_V 3, s 0"
        )


class TestCoreRho:
    """``core_rho`` counts the roots of the return series' reduced
    denominator D in (0, 1/√q), exactly; Grigorchuk's cogrowth formula
    (``reference.cogrowth_rho``) is its oracle."""

    @pytest.mark.parametrize("rank, rho", [(3, Fraction(7, 9)), (4, Fraction(2, 3))])
    def test_two_letters_below_rank_5_have_a_bound_state(self, rank, rho):
        # D = (1 − t)(1 − 3t) at every rank, and t* = 1/3 < 1/√(2·rank − 1)
        core = from_spec(f"fold:a,b,rank={rank}")
        assert walks._return_fraction(core, 0)[1] == [1, -4, 3, 0]
        # t* = 1/3 is rational, so it replaces the bisection's dyadic ends
        assert core_rho(core) == (True, rho, rho)

    def test_two_letters_in_rank_5_are_critical_at_the_edge(self):
        # 1/√9 = 1/3 is D's root itself: critical, and ρ = 2·3/10 exactly
        assert core_rho(from_spec("fold:a,b,rank=5")) == (False, Fraction(3, 5), Fraction(3, 5))

    @pytest.mark.parametrize("spec", ["fold:a,rank=2", "free:rank=2", "free:rank=3"])
    def test_critical_cores_enclose_the_tree_value(self, spec):
        # ⟨a⟩ in F2 has D = (1 − t)², its double root beyond 1/√3
        core = from_spec(spec)
        d, q = core.degree, core.degree - 1
        bound_state, low, high = core_rho(core)
        assert not bound_state and (d * low / 2) ** 2 <= q <= (d * high / 2) ** 2
        assert 0 < high - low <= 1e-15

    def test_a_complete_core_is_a_finite_graph(self):
        assert core_rho(from_spec("fold:a,b,rank=2")) == (True, 1, 1)

    @pytest.mark.parametrize("q", [2, 3, 5, 6, 7, 8, 10])
    def test_the_sign_at_the_edge_is_exact(self, q):
        # q·t² − 1 vanishes at 1/√q, where floats read ±2⁻⁵² for most q
        assert walks._sign_at_edge([-1, 0, q], q) == 0
        assert walks._sign_at_edge([-1, 0, q + 1], q) == 1
        assert walks._sign_at_edge([1, -1, q], q) == 1
        assert walks._sign_at_edge([1, -q], q) == -1

    def test_a_multiple_root_at_the_edge_raises(self, monkeypatch):
        # D = (1 − 3t²)² at q = 3: the Sturm sequence ends in a factor
        # that vanishes at 1/√3, and no sign change can be counted there
        monkeypatch.setattr(walks, "_return_fraction", lambda core, x: ([], [1, 0, -6, 0, 9], 0, 0))
        with pytest.raises(AssertionError, match="multiple root at 1/√q"):
            core_rho(from_spec("fold:a,rank=2"))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), rank=st.integers(1, 3), half=st.integers(1, 60))
    def test_the_enclosure_matches_the_cogrowth_formula(self, data, rank, half):
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        bound_state, low, high = core_rho(core)
        assert low - 1e-12 <= reference.cogrowth_rho(core) <= high + 1e-12
        assert low <= high and estimate_rho_returns(core, 2 * half)[-1] <= high


def _laws(g, n, k, x=None):
    """``segment_distributions`` from x (the root by default), with every
    law, its counts over the total, checked against the enumeration oracle."""
    x = g.root if x is None else x
    total, laws = segment_distributions(g, x, n, k)
    words = reference.returning_words(g, x, n)
    assert total == len(words)
    for j, by_shift in laws.items():
        for t, law in enumerate(by_shift):
            law = {s: Fraction(c, total) for s, c in law.items()}
            assert law == reference.segment_distribution(words, n, t, j), (j, t)
    return total, laws


class TestReturningWords:
    def test_f2_length_two(self, t4_ball):
        total, laws = _laws(t4_ball, 2, 2)
        assert total == 4
        assert set(laws[2][0]) == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_f2_length_four(self, t4_ball):
        assert _laws(t4_ball, 4, 1)[0] == 28

    def test_loop_subgroup_length_one(self, loop_core):
        # both the generator and its inverse lie in the subgroup
        total, laws = _laws(complete_ball(loop_core, 1), 1, 1)
        assert total == 2
        assert set(laws[1][0]) == {(0,), (1,)}

    def test_rotation_closure(self, t4_ball):
        listed = set(_laws(t4_ball, 6, 6)[1][6][0])
        for letters in listed:
            for r in range(6):
                assert letters[r:] + letters[:r] in listed

    @given(st.integers(0, 10**6), st.integers(0, 4))
    def test_count_matches_walk_dp(self, seed, n):
        g = random_perm_model(2, 6, seed)
        total, _ = _laws(g, n, n)
        assert total == return_counts(g, g.root, n)[n]


class TestSegmentDistribution:
    def test_uniform_single_letters(self, t4_ball):
        total, laws = _laws(t4_ball, 2, 1)
        assert total == 4
        assert laws[1][0] == {(l,): 1 for l in range(4)}

    def test_quarter_each_at_length_four(self, t4_ball):
        total, laws = _laws(t4_ball, 4, 1)
        assert total == 28
        assert all(c == 7 for c in laws[1][0].values())

    def test_rotation_invariance(self, t4_ball):
        laws = _laws(t4_ball, 4, 2)[1]
        assert laws[1][0] == laws[1][2]
        assert laws[2][0] == laws[2][3]

    def test_mass_sums_to_one(self, t4_ball):
        total, laws = _laws(t4_ball, 4, 2)
        assert sum(laws[2][1].values()) == total

    @settings(max_examples=60)
    @given(data=st.data(), n=st.integers(1, 7), extra=st.integers(0, 2))
    def test_every_shift_matches_the_enumeration(self, data, n, extra):
        # folded cores are Schreier graphs of subgroups that need not be
        # normal, where the law can change with the shift
        core = stallings_core(F2, data.draw(reference.folded_words(2)))
        ball = complete_ball(core, (n + 1) // 2 + extra)
        g = reference.shuffled(ball, data.draw(st.permutations(range(ball.n))))
        x = data.draw(st.sampled_from(range(g.n)), label="origin")
        room, needed = reference.distance_to_boundary(g, x), (n + 1) // 2
        if needed <= room:
            _laws(g, n, min(3, n), x)
        else:
            refusal = f"returning words: .* boundary is {room}, need at least {needed}"
            with pytest.raises(InsufficientRadiusError, match=refusal):
                segment_distributions(g, x, n, min(3, n))

    @pytest.mark.parametrize("n", [5, 6])
    def test_one_guard_at_the_origin(self, n):
        # the wrap streams start within k − 1 of the root, closer than
        # ⌈n/2⌉ to the boundary of the smallest ball that answers
        needed = (n + 1) // 2
        with pytest.raises(
            InsufficientRadiusError,
            match="insufficient radius for returning words: distance from vertex 0 "
            f"to the truncation boundary is {needed - 1}, need at least {needed}",
        ):
            segment_distributions(complete_ball(tree_core(4), needed - 1), 0, n, 3)
        g = complete_ball(tree_core(4), needed)
        assert _laws(g, n, 3) == segment_distributions(complete_ball(tree_core(4), n), 0, n, 3)

    def test_refusals(self, t4_ball):
        with pytest.raises(ValueError, match="nonnegative"):
            segment_distributions(t4_ball, 0, -1, 0)
        with pytest.raises(ValueError, match="segment length out of range"):
            segment_distributions(t4_ball, 0, 2, 3)


def _prefix_probabilities(g, n, length, vertex_transitive=False):
    """{prefix: probability} of ``conditioned_prefix_probabilities`` from the root."""
    _, rows = conditioned_prefix_probabilities(g, g.root, n, length, vertex_transitive)
    return dict(rows)


class TestPrefixProbability:
    def test_single_letter(self, t4_ball):
        probabilities = _prefix_probabilities(t4_ball, 4, 1, vertex_transitive=True)
        assert probabilities[parse_word(F2, "a")] == Fraction(1, 4)

    def test_double_letter_frozen_value(self):
        g = complete_ball(tree_core(4), 3)
        total, rows = conditioned_prefix_probabilities(g, g.root, 6, 2, True)
        assert total == 232
        assert dict(rows)[parse_word(F2, "aa")] == Fraction(10, 232)

    def test_prefix_mass_sums_to_one(self, t4_ball):
        probabilities = _prefix_probabilities(t4_ball, 4, 2, vertex_transitive=True)
        for length in (1, 2):
            assert sum(p for w, p in probabilities.items() if len(w) == length) == 1

    def test_length_guard(self, t4_ball):
        # a prefix longer than n/2 is refused, a one-letter one before
        # anything but odd n
        for n, length, refusal in (
            (4, 3, "twice the prefix length"),
            (1, 1, "concern even n >= 0, not n = 1"),
            (0, 1, "twice the prefix length"),
        ):
            with pytest.raises(ValueError, match=refusal):
                conditioned_prefix_probabilities(
                    t4_ball, t4_ball.root, n, length, vertex_transitive=True
                )

    @given(
        points=st.integers(2, 4),
        elements=st.integers(1, 3),
        involutions=st.integers(0, 1),
        seed=st.integers(0, 10_000),
    )
    def test_bound_on_random_graphs(self, points, elements, involutions, seed):
        g = _random_cayley_graph(points, elements, involutions, seed)
        for w, p in _prefix_probabilities(g, 4, 2).items():
            assert p >= Fraction(1, g.degree ** (2 * len(w)))


def _random_cayley_graph(points: int, elements: int, involutions: int, seed: int):
    """The Cayley graph of a random permutation group, as ``test_local`` draws it."""
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(points), points)) for _ in range(elements)]
    swaps = [tuple(range(points - 2)) + (points - 1, points - 2)] * involutions
    return from_perm_action(regular_action(pairs, swaps))


class TestConditionedPrefix:
    def test_t4_single_step(self):
        g = complete_ball(tree_core(4), 4)
        probabilities = _prefix_probabilities(g, 4, 1, vertex_transitive=True)
        assert probabilities[parse_word(F2, "a")] == Fraction(7, 28)

    def test_c6(self):
        g = cycle_graph(6)
        assert _prefix_probabilities(g, 2, 1)[parse_word(g.gens, "t")] == Fraction(1, 2)

    def test_t4_length_two_prefixes(self):
        g = complete_ball(tree_core(4), 6)
        probabilities = _prefix_probabilities(g, 6, 2, vertex_transitive=True)
        assert len(probabilities) == 4 + 16
        for w, p in probabilities.items():
            assert p >= Fraction(1, 4 ** (2 * len(w)))

    def test_floor_recheck_fires(self, monkeypatch):
        # p_2n is nonincreasing on every Schreier graph, so no graph breaks
        # the floor; counts of 0 at the prefix ends stand in for a broken DP
        real = walks._ArrayWalks.lift

        def starved(self, counts):
            lifted = real(self, counts)
            return lifted if len(lifted) == 1 else [0] * len(lifted)

        monkeypatch.setattr(walks._ArrayWalks, "lift", starved)
        g = cycle_graph(6)
        with pytest.raises(InequalityViolation, match="probability 0 fell below 1/4"):
            conditioned_prefix_probabilities(g, g.root, 4, 1)

    def test_truncated_needs_declaration(self):
        g = complete_ball(tree_core(4), 4)
        with pytest.raises(ValueError, match="vertex-transitivity"):
            conditioned_prefix_probabilities(g, g.root, 4, 1)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, -1, -2])
    def test_odd_or_negative_n_is_refused_first(self, n):
        """The floor is an even-time statement: on C₇ no returning 7-walk
        starts with a step and its inverse.  Odd and negative n are refused
        before the length guard and the transitivity check."""
        for g in (cycle_graph(7), random_perm_model(2, 9, 1)):
            with pytest.raises(ValueError, match=f"concern even n >= 0, not n = {n}$"):
                conditioned_prefix_probabilities(g, g.root, n, n + 1)


def _assert_reference_rows(g, x: int, n: int, length: int) -> None:
    """Row w is |P_{x·w,x,n−ℓ}| / |P_{x,x,n}| from the reference table of
    x·w, or the first refusal or violation a reference run would meet."""
    d = g.degree
    total = reference.count_walks(g, x, n)[n][x]
    expected: list = []
    outcome = None
    if n % 2:
        outcome = "concern even n"
    elif n < 2:
        outcome = "twice the prefix length"
    else:
        assert total > 0  # a step and its inverse, repeated
        for l in range(1, length + 1):
            for letters in itertools.product(range(d), repeat=l):
                y = walk_endpoint(g, x, Word(letters))
                p = Fraction(reference.count_walks(g, y, n - l)[n - l][x], total)
                if p < Fraction(1, d ** (2 * l)) and outcome is None:
                    outcome = f"probability {p} fell below 1/{d ** (2 * l)}"
                expected.append((Word(letters), p))
    if outcome is None:
        assert conditioned_prefix_probabilities(g, x, n, length, True) == (
            total, tuple(expected),
        )
    else:
        with pytest.raises((ValueError, InequalityViolation), match=outcome):
            conditioned_prefix_probabilities(g, x, n, length, True)


class TestOneReturningStream:
    """Every prefix row is read off one returning stream from x: the count
    at y = x·w as the stream passes step n − ℓ."""

    @settings(max_examples=150)
    @given(data=st.data(), n=st.integers(0, 9))
    def test_rows_match_the_reference(self, data, n):
        """On shuffled transitive graphs and tree balls, at odd and even n."""
        kind = data.draw(st.sampled_from(["cycle", "cayley", "tree"]), label="kind")
        if kind == "cycle":
            g = cycle_graph(data.draw(st.integers(3, 12), label="length"))
        elif kind == "cayley":
            g = _random_cayley_graph(
                data.draw(st.integers(2, 4), label="points"),
                data.draw(st.integers(1, 3), label="elements"),
                data.draw(st.integers(0, 1), label="involutions"),
                data.draw(st.integers(0, 10_000), label="seed"),
            )
        else:
            degree = data.draw(st.integers(2, 4), label="degree")
            g = _tree_ball(degree, data.draw(st.integers((n + 1) // 2, 5), label="radius"))
        g = reference.shuffled(g, data.draw(st.permutations(range(g.n)), label="numbering"))
        x = g.root if kind == "tree" else data.draw(st.integers(0, g.n - 1), label="origin")
        length = data.draw(st.integers(1, max(1, n // 2)), label="length")
        _assert_reference_rows(g, x, n, length)

    @pytest.mark.parametrize("n, length", [(4, 2), (6, 3), (7, 3)])
    def test_rows_where_reversed_words_end_elsewhere(self, n, length):
        """S3 on two letter pairs and an involution: unlike on cycles, trees
        and the ``s3`` spec, some x·w and x·(w reversed) hold different
        counts here."""
        g = _random_cayley_graph(3, 2, 1, seed=5)
        _assert_reference_rows(g, g.root, n, length)

    @given(m=st.integers(1, 3), n=st.integers(1, 12), seed=st.integers(0, 10**6),
           horizon=st.integers(0, 8))
    def test_walks_reverse(self, m, n, seed, horizon):
        """|P_{x,y,k}| = |P_{y,x,k}| on a Schreier graph: a walk read
        backwards with inverse labels is a walk."""
        g = random_perm_model(m, n, seed)
        tables = [reference.count_walks(g, x, horizon) for x in range(g.n)]
        for k in range(horizon + 1):
            for x in range(g.n):
                for y in range(g.n):
                    assert tables[x][k][y] == tables[y][k][x]

    @pytest.mark.parametrize(
        "radius, n", [(2, 4), (3, 6), (4, 6), (4, 8), (5, 8), (6, 8)]
    )
    def test_truncated_tree_balls_give_the_whole_rows(self, radius, n):
        """The ball needs its boundary at ⌈n/2⌉ only, not at n − ℓ from x·w."""
        small = from_spec(f"tree:d=4,r={radius}")
        large = _tree_ball(4, n)
        assert conditioned_prefix_probabilities(
            small, small.root, n, n // 2, True
        ) == conditioned_prefix_probabilities(large, large.root, n, n // 2, True)

    def test_truncated_fold_ball_gives_the_whole_rows(self):
        small, large = from_spec("fold:a,rank=2@4"), from_spec("fold:a,rank=2@6")
        assert conditioned_prefix_probabilities(
            small, small.root, 6, 3, True
        ) == conditioned_prefix_probabilities(large, large.root, 6, 3, True)

    def test_refusal_order(self):
        """Odd n is refused first, then a one-letter prefix too long for n;
        then the return-count guard, which refuses an incomplete core or a
        boundary too near the root, and the transitivity check; a longer
        prefix only after the shorter rows are checked."""
        refusals = [
            (random_perm_model(2, 9, 1), 1, 1, False, "concern even n"),
            (cycle_graph(9), 3, 2, False, "concern even n"),
            (cycle_graph(5), 5, 3, False, "concern even n"),
            (cycle_graph(6), 0, 1, False, "twice the prefix length"),
            (random_perm_model(2, 9, 1), 4, 2, False, "requires a vertex-transitive"),
            (_tree_ball(4, 0), 2, 1, True, "boundary is 0, need at least 1"),
            (_tree_ball(4, 1), 4, 1, True, "conditioned prefix rows"),
            (cycle_graph(6), 4, 3, False, "twice the prefix length"),
        ]
        for g, n, length, transitive, refusal in refusals:
            with pytest.raises((ValueError, InequalityViolation), match=refusal):
                conditioned_prefix_probabilities(g, g.root, n, length, transitive)


class TestDomination:
    def test_cycle(self):
        report = return_domination_reports(cycle_graph(6), 4)[-1]
        assert report.n == 4
        assert report.return_count == 6
        assert report.max_other_count <= 6

    def test_tree_report_matches_explicit(self):
        explicit = return_domination_reports(complete_ball(tree_core(4), 6), 6, vertex_transitive=True)
        ring = return_domination_reports(tree_core(4), 6, vertex_transitive=True)
        assert [(r.return_count, r.max_other_count) for r in explicit] == [
            (r.return_count, r.max_other_count) for r in ring
        ]
        assert [r.previous_return_count for r in explicit] == [
            r.previous_return_count for r in ring
        ]

    def test_odd_horizon_rejected(self):
        with pytest.raises(ValueError, match="even"):
            return_domination_reports(cycle_graph(6), 3)

    def test_violation_guard_fires(self):
        with pytest.raises(InequalityViolation, match="exceeds the return count"):
            DominationReport(
                degree=2, n=2, return_count=1, max_other_count=5,
                previous_return_count=1,
            )
        with pytest.raises(InequalityViolation, match="exceeds d²"):
            DominationReport(
                degree=2, n=4, return_count=100, max_other_count=0,
                previous_return_count=1,
            )

    @given(st.integers(3, 12), st.sampled_from([2, 4, 6]))
    def test_cycles_all_sizes(self, n_vertices, horizon):
        reports = return_domination_reports(cycle_graph(n_vertices), horizon)
        assert [r.n for r in reports] == list(range(2, horizon + 1, 2))
        assert all(r.return_count >= 1 for r in reports)

    @settings(max_examples=100)
    @given(
        data=st.data(),
        spec=st.sampled_from(
            [*(f"cycle:{m}" for m in range(3, 13)), "klein", "s3", "lps:p=5,q=13"]
        ),
        n=st.sampled_from([2, 4, 6, 8, 10, 12]),
    )
    def test_shuffled_transitive_graphs_match_the_reference(self, data, spec, n):
        """Row k is read at step k: the largest other count is taken over
        every vertex within distance k, the farthest layer included, and
        the previous count at step k − 2, in any numbering."""
        g = _transitive_graph(spec)
        g = reference.shuffled(g, data.draw(st.permutations(range(g.n)), label="numbering"))
        rows = reference.count_walks(g, g.root, n)
        expected = tuple(
            DominationReport(
                degree=g.degree,
                n=k,
                return_count=rows[k][g.root],
                max_other_count=max(c for v, c in enumerate(rows[k]) if v != g.root),
                previous_return_count=rows[k - 2][g.root],
            )
            for k in range(2, n + 1, 2)
        )
        assert return_domination_reports(g, n) == expected

    @settings(max_examples=100)
    @given(data=st.data(), rank=st.integers(1, 2), n=st.sampled_from([2, 4, 6]))
    def test_cores_match_their_balls(self, data, rank, n):
        """On any folded core, the trees' depth counts and the core's
        farthest layer give the report of the radius-n ball, or the same
        violation."""
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        outcomes = []
        for source in (core, complete_ball(core, n)):
            try:
                outcomes.append(return_domination_reports(source, n, vertex_transitive=True))
            except InequalityViolation as violation:
                outcomes.append(str(violation))
        assert outcomes[0] == outcomes[1]

    def test_ball_too_small_is_refused(self):
        refusal = (
            "insufficient radius for walk counts: distance from vertex 0 to the "
            "truncation boundary is 5, need at least 6"
        )
        with pytest.raises(InsufficientRadiusError) as caught:
            return_domination_reports(complete_ball(tree_core(4), 5), 6, vertex_transitive=True)
        assert str(caught.value) == refusal

    @pytest.mark.parametrize("radius", range(7))
    def test_refusal_names_the_first_row_past_the_boundary(self, radius):
        g = _tree_ball(4, radius)
        near = reference.distance_to_boundary(g, g.root)
        first = near + 2 - near % 2  # the least even k above near
        refusal = (
            "insufficient radius for walk counts: distance from vertex 0 to the "
            f"truncation boundary is {near}, need at least {first}"
        )
        with pytest.raises(InsufficientRadiusError) as caught:
            return_domination_reports(g, 12, vertex_transitive=True)
        assert str(caught.value) == refusal


# ---------------------------------------------------------------------------
# Counts as int64 limbs: several limbs, and counts above 2⁶³
# ---------------------------------------------------------------------------

_SMALL_CAP = 2**16


@pytest.fixture(scope="class")
def several_limbs():
    """Limbs of at most 16 − log₂ d bits, so that a horizon past about
    (16 − log₂ d)/log₂ d steps counts in several of them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walks, "_MODULUS_CAP", _SMALL_CAP)
        yield


@pytest.mark.usefixtures("several_limbs")
class TestCountWalksSeveralLimbs(TestCountWalks):
    """The return-count checks, counting in several limbs."""


@pytest.mark.usefixtures("several_limbs")
class TestHangingTreeRecurrenceSeveralLimbs(TestHangingTreeRecurrence):
    """The reference checks on shuffled graphs under the 2¹⁶ cap: the
    return counts and the domination rows in several limbs."""


@pytest.mark.usefixtures("several_limbs")
class TestSegmentDistributionSeveralLimbs(TestSegmentDistribution):
    """The segment laws, counting in several limbs."""


@pytest.mark.usefixtures("several_limbs")
class TestOneReturningStreamSeveralLimbs(TestOneReturningStream):
    """The prefix rows, counting in several limbs."""


@pytest.mark.usefixtures("several_limbs")
class TestDominationSeveralLimbs(TestDomination):
    """The domination rows, whose largest count is read from several limbs."""


def _steady_limb(d: int, width: int, cap: int) -> int | None:
    """The largest limb a stream of degree d holds at ``width``: a limb
    starts below 2^width, and a step sums d of them, then keeps the low
    ``width`` bits and adds the carry from the limb below; None if a sum
    can pass ``cap`` first."""
    limb = (1 << width) - 1
    while d * limb <= cap:
        grown = (1 << width) - 1 + (d * limb >> width)
        if grown <= limb:
            return limb
        limb = grown
    return None


def _limb_stream(degree: int) -> walks._ArrayWalks:
    """A stream of the given even degree, for its ``lift`` and ``largest``."""
    g = random_perm_model(degree // 2, 4, 0)
    return walks._ArrayWalks(g.slots, bfs_layers(g.slots, g.root, 0), 0)


class TestLimbs:
    @given(d=st.integers(1, 60), small=st.booleans())
    def test_limbs_hold_every_sum(self, d, small):
        """At the limb width, a step's sums stay within the cap and its
        limbs within a steady bound; one bit wider, they would not."""
        cap = _SMALL_CAP if small else walks._MODULUS_CAP
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walks, "_MODULUS_CAP", cap)
            width = walks._limb_width(d)
        assert d < 1 << width
        assert _steady_limb(d, width, cap) is not None
        assert d >= 1 << width + 1 or _steady_limb(d, width + 1, cap) is None

    def test_the_small_cap_counts_in_several_limbs(self, monkeypatch):
        assert [walks._limb_width(d) for d in (1, 4, 18, 60)] == [63, 60, 58, 57]
        monkeypatch.setattr(walks, "_MODULUS_CAP", _SMALL_CAP)
        assert [walks._limb_width(d) for d in (1, 4, 18, 60)] == [16, 13, 11, 10]

    @settings(max_examples=80)
    @given(data=st.data(), horizon=st.integers(0, 12), returning=st.booleans(),
           small=st.booleans())
    def test_rows_hold_only_the_walks_that_matter(self, data, horizon, returning, small):
        """Row n holds the walks within distance n of the origin, exactly,
        and a returning stream only those within horizon − n, which can
        still come back; the sentinel holds none.  Row n has the fewest
        limbs that hold dⁿ, each within ``_steady_limb``."""
        m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 40))
        g = random_perm_model(m, n, data.draw(st.integers(0, 10**6)))
        g = reference.shuffled(g, data.draw(st.permutations(range(g.n)), label="numbering"))
        x = data.draw(st.integers(0, g.n - 1), label="origin")
        layers = bfs_layers(g.slots, x, horizon // 2 if returning else horizon)
        rows = reference.count_walks(g, x, horizon)
        dist = reference.bfs_distances(g, x)
        cap = _SMALL_CAP if small else walks._MODULUS_CAP
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(walks, "_MODULUS_CAP", cap)
            stream = walks._ArrayWalks(g.slots, layers, horizon, returning)
            steady = _steady_limb(g.degree, stream.width, cap)
            for k, counts in enumerate(stream):
                held = min(k, horizon - k) if returning else k
                assert len(counts) == -(-(g.degree**k).bit_length() // stream.width)
                assert 0 <= counts.min() and counts.max() <= steady
                *lifted, sentinel = stream.lift(counts)
                assert sentinel == 0
                assert lifted == [rows[k][v] if dist[v] <= held else 0 for v in layers[0]]

    @settings(max_examples=200)
    @given(data=st.data(), degree=st.sampled_from([2, 4, 6]), small=st.booleans())
    def test_the_largest_count_of_a_row(self, data, degree, small):
        """``largest`` is ``max(lift(row))`` for limbs below 2^{w+1}, the
        most a carry pass leaves, with ties and top limbs of 0 or 1."""
        with pytest.MonkeyPatch.context() as patch:
            if small:
                patch.setattr(walks, "_MODULUS_CAP", _SMALL_CAP)
            stream = _limb_stream(degree)
        w = stream.width
        limb = st.one_of(
            st.sampled_from([0, 1, (1 << w) - 1, 1 << w, (1 << w + 1) - 1]),
            st.integers(0, (1 << w + 1) - 1),
        )
        k = data.draw(st.integers(1, 5), label="limbs")
        entries = data.draw(st.lists(st.lists(limb, min_size=k, max_size=k), max_size=8))
        entries += data.draw(st.lists(st.sampled_from(entries), max_size=3)) if entries else []
        limbs = np.array(entries, dtype=np.int64).reshape(-1, k).T
        assert stream.largest(limbs) == max(stream.lift(limbs), default=0)

    def test_a_limb_below_the_screen_decides(self, monkeypatch):
        """The larger count screens below the smaller, as they differ only
        below the top three limbs; the slack keeps it."""
        monkeypatch.setattr(walks, "_MODULUS_CAP", _SMALL_CAP)
        stream = _limb_stream(4)
        w = stream.width
        limbs = np.array([[(1 << w) + 1, 0, 0, 1], [0, 1, 0, 1]], dtype=np.int64).T
        assert stream.lift(limbs) == [2 ** (3 * w) + 2**w + 1, 2 ** (3 * w) + 2**w]
        assert stream.largest(limbs) == 2 ** (3 * w) + 2**w + 1

    def test_one_debug_line_per_stream(self, caplog, monkeypatch):
        monkeypatch.setattr(walks, "_MODULUS_CAP", _SMALL_CAP)
        g = random_perm_model(2, 50, 0)
        with caplog.at_level(logging.DEBUG, logger="schreier"):
            return_counts(g, g.root, 20)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("walk stream")]
        assert record.getMessage() == (
            "walk stream: 20 steps, 50 positions reached, 4 limbs at most, limb width 13"
        )

    @pytest.mark.parametrize("spec", ["randperm:m=2,n=200,seed=0", "randperm:m=2,n=200,seed=1"])
    def test_return_counts_above_int64(self, spec):
        """72-bit counts at H = 40 on a 4-regular graph: two limbs."""
        g = from_spec(spec)
        rows = reference.count_walks(g, g.root, 40)
        counts = return_counts(g, g.root, 40)
        assert counts == tuple(row[g.root] for row in rows)
        assert counts[40] > 2**64

    def test_domination_rows_above_int64(self):
        """LPS(5,13), 6-regular on 2,184 vertices, at n = 30: every count
        at step 30 of the row, past 2⁶³ at the root, from one stream."""
        g = _transitive_graph("lps:p=5,q=13")
        rows = reference.count_walks(g, g.root, 30)
        report = return_domination_reports(g, 30, vertex_transitive=True)[-1]
        assert report.return_count == rows[30][g.root] > 2**63
        assert report.max_other_count == max(
            c for v, c in enumerate(rows[30]) if v != g.root
        )
        assert report.previous_return_count == rows[28][g.root]


class TestReadersBuildNoRowView:
    """The walk streams, ``walk_endpoint`` and the truncation guards read
    ``slots``: on a graph stored as the slot table alone, none of them
    stores a second table."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: lps_graph(5, 13),
            lambda: random_perm_model(2, 300, 1),
            lambda: complete_ball(tree_core(4), 6),
        ],
        ids=["lps", "randperm", "ball"],
    )
    def test_readers_search_slots(self, build):
        g = build()
        assert reference.holds_one_table(g)
        x = g.root
        return_counts(g, x, 12)
        segment_distributions(g, x, 6, 3)
        walk_endpoint(g, x, Word((0, 1, 1, 0)))
        if g.n != 300:  # the permutation model is not vertex-transitive
            return_domination_reports(g, 6, vertex_transitive=g.truncated)
            conditioned_prefix_probabilities(g, x, 8, 2, vertex_transitive=g.truncated)
        if g.truncated:
            ball(g, x, 3)
        assert reference.holds_one_table(g)
