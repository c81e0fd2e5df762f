import re
import tracemalloc
from string import ascii_lowercase
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference

from schreier import core, local
from schreier.builders import (
    complete_ball,
    cycle_graph,
    free_core,
    from_spec,
    random_perm_action,
    random_perm_model,
    restrict_to_orbit,
    stallings_core,
    tree_core,
)
from schreier.core import (
    BOUNDARY,
    CoreGraph,
    GenSet,
    GraphInvariantError,
    InsufficientRadiusError,
    PermAction,
    SchreierGraph,
    SGF1Error,
    Word,
    bfs_layers,
    boundary_layer,
    canonicalize,
    canonical_rows,
    format_word,
    is_reduced,
    parse,
    parse_word,
    reduce_word,
    serialize,
    walk_endpoint,
)
from schreier.cycles import cycle_profile
from schreier.irs import invariance_diagnostic, uniform_conjugate
from schreier.local import (
    ball,
    ball_distance,
    bs_statistics,
    fix_density,
    local_approx_check,
)
from schreier.spectral import (
    markov_matrix,
    product_return_bound,
    ramanujan_check,
    rho0,
    support_subgroup_graph,
)
from schreier.walks import (
    conditioned_prefix_probabilities,
    return_counts,
    return_domination_reports,
    segment_distributions,
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
    order = reference.orbit(act, base)
    index = {x: i for i, x in enumerate(order)}
    rows = act.slots.tolist()
    table = tuple(
        tuple(index[y] for y in rows[x]) for x in order
    )
    return SchreierGraph(gens=act.gens, next=table)


class TestGenSet:
    def test_free_rank_two(self):
        gens = GenSet.free(2)
        assert gens.labels == ("a", "A", "b", "B")
        assert gens.inv == (1, 0, 3, 2)
        assert gens.degree == 4
        assert all(gens.inv[l] != l for l in range(4))

    def test_involutions_count_once(self):
        gens = GenSet.with_involutions(pairs=("a",), involutions=("m",))
        assert gens.degree == 3
        assert gens.inv[2] == 2

    def test_inv_must_be_involution(self):
        with pytest.raises(GraphInvariantError, match="involution"):
            GenSet(("a", "b", "c"), (1, 2, 0))

    def test_duplicate_names_rejected(self):
        with pytest.raises(GraphInvariantError, match="unique"):
            GenSet(("a", "a"), (1, 0))

    @pytest.mark.parametrize("rank, names", [(2, "c"), (1, "cd")])
    def test_free_takes_one_name_per_rank(self, rank, names):
        with pytest.raises(
            GraphInvariantError, match=f"rank {rank} needs {rank} names, got {len(names)}"
        ):
            GenSet.free(rank, names=names)

    @pytest.mark.parametrize(
        "rank, names, labels",
        [(1, None, "aA"), (3, None, "aAbBcC"), (2, "xy", "xXyY")],
    )
    def test_free_pairs_each_letter_with_its_capital(self, rank, names, labels):
        pairs = tuple(i ^ 1 for i in range(2 * rank))  # 1, 0, 3, 2, …
        assert GenSet.free(rank, names) == GenSet(tuple(labels), pairs)


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
        assert g.root_depths[:-1].tolist() == [0, 1, 2, 3, 2, 1]
        order, ends = bfs_layers(g.slots, 0)
        assert (order.tolist(), ends) == ([0, 1, 5, 2, 4, 3], [1, 3, 5, 6])

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

    def test_connectivity_names_the_first_unreached_vertex(self):
        gens = GenSet.free(1)
        table = ((0, 0), (2, 2), (1, 1), (3, 3))
        with pytest.raises(GraphInvariantError, match="vertex 1 unreachable"):
            SchreierGraph(gens=gens, next=table)

    @pytest.mark.parametrize("build", [lambda: random_perm_model(2, 300, 0), lambda: cycle(7)])
    def test_one_cached_depth_array(self, build):
        # validate and bipartition read one search's depths
        g = build()
        depths = g.root_depths
        assert g.root_depths is depths and not depths.flags.writeable
        assert depths.dtype == np.int64 and depths.shape == (g.n + 1,) and depths[-1] == -1
        assert tuple(depths[:-1].tolist()) == reference.bfs_distances(g, g.root)

    def test_boundary_allows_missing_slots(self):
        gens = GenSet.free(1)
        # path 0-1-2 with a acting as +1, truncated at both ends
        table = ((1, None), (2, 0), (None, 1))
        g = SchreierGraph(
            gens=gens, next=table, root=1,
            boundary=frozenset({0, 2}), truncation_radius=1,
        )
        assert g.truncated
        assert boundary_layer(g, *bfs_layers(g.slots, 1, 1)) == 1
        assert boundary_layer(g, *bfs_layers(g.slots, 1, 0)) == 1
        assert walk_endpoint(g, 1, parse_word(gens, "a^2")) is BOUNDARY

    def test_walk_endpoint(self):
        g = cycle(5)
        assert walk_endpoint(g, 0, parse_word(g.gens, "a^7")) == 2
        assert walk_endpoint(g, 0, parse_word(g.gens, "a^-1")) == 4

    def test_walk_endpoint_refuses_a_negative_start(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError, match=r"vertex -1 is not a vertex"):
            walk_endpoint(g, -1, parse_word(g.gens, "t"))

    def test_walk_endpoint_refuses_a_start_past_the_last_vertex(self):
        g = cycle_graph(5)
        with pytest.raises(ValueError, match=r"vertex 7 is not a vertex"):
            walk_endpoint(g, 7, Word(()))


    def test_negative_target_is_not_a_missing_slot(self):
        gens = GenSet.free(1)
        table = ((1, -1), (None, 0))
        with pytest.raises(GraphInvariantError, match="edge target -1 out of range"):
            SchreierGraph(gens=gens, next=table, boundary=frozenset({0, 1}))

    @pytest.mark.parametrize("entry", [1.5, "1", 1.0, (0, 1)])
    def test_entries_that_are_not_integers_refused(self, entry):
        # numpy would read each number as the vertex 1, and refuses the table
        # with a sequence in it
        with pytest.raises(
            GraphInvariantError,
            match=re.escape(f"edge target {entry!r} at (0,a) is not an integer"),
        ):
            SchreierGraph(gens=GenSet.free(1), next=((entry, 1), (0, 0)))

    def test_slots_is_the_table_as_an_array(self):
        gens = GenSet.free(1)
        table = ((1, None), (2, 0), (None, 1))
        g = SchreierGraph(
            gens=gens, next=table, root=1,
            boundary=frozenset({0, 2}), truncation_radius=1,
        )
        assert g.slots.tolist() == [[1, -1], [2, 0], [-1, 1]]
        assert g.slots.dtype == np.int64
        assert not g.slots.flags.writeable


@st.composite
def small_graphs(draw) -> SchreierGraph:
    """A random permutation model, or a truncated ball of a regular tree."""
    if draw(st.booleans()):
        m, n = draw(st.integers(1, 2)), draw(st.integers(1, 12))
        return random_perm_model(m, n, draw(st.integers(0, 2**16)))
    return complete_ball(tree_core(draw(st.integers(2, 4))), draw(st.integers(0, 2)))


def _outcome(build):
    """What ``build()`` returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the oracle compares any failure
        return type(exc), str(exc)


def _fields(g: SchreierGraph) -> tuple:
    return type(g), g.gens, g.next, g.root, g.boundary, g.truncation_radius


class TestArrayValidateOracle:
    """``validate`` reports what the slot-by-slot loop reports."""

    @settings(max_examples=300)
    @given(small_graphs(), st.data())
    def test_matches_loop_on_defective_tables(self, g, data):
        rows = [list(row) for row in g.next]
        d = g.degree
        for _ in range(data.draw(st.integers(1, 2))):
            n = len(rows)
            kind = data.draw(st.sampled_from(
                ["ragged", "none", "negative", "outside", "pairing", "disconnected"]
            ))
            v, l = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))
            if kind == "ragged":
                if rows[v] and data.draw(st.booleans()):
                    rows[v].pop()
                else:
                    rows[v].append(data.draw(st.integers(0, n - 1)))
            elif kind == "disconnected":
                rows.append([n] * d)  # a vertex of loops, paired with itself
            elif l < len(rows[v]):
                rows[v][l] = data.draw({
                    "none": st.none(),
                    "negative": st.integers(-3, -1),
                    "outside": st.sampled_from([n, n + 1, 10**25]),
                    "pairing": st.integers(0, n - 1),
                }[kind])
        fields = dict(
            gens=g.gens, next=tuple(map(tuple, rows)), root=g.root,
            boundary=g.boundary, truncation_radius=g.truncation_radius,
        )
        loop = SchreierGraph._trusted(**fields)
        got = _outcome(lambda: _fields(SchreierGraph(**fields)))
        expected = _outcome(lambda: reference.validate(loop) or _fields(loop))
        if expected[0] is IndexError:
            # the loop read a short row through a pairing check before it
            # reached that row; the array check reports the broken pair
            assert got[0] is GraphInvariantError
            assert got[1].startswith("label-consistency violated at edge")
        else:
            assert got == expected


class TestBfsLayers:
    """``bfs_layers`` against the multi-source search of ``reference``."""

    @settings(max_examples=300)
    @given(data=st.data(), radius=st.none() | st.integers(0, 4))
    def test_layers_are_the_reference_distances(self, data, radius):
        """On shuffled permutation models, completed balls and cores: the
        order is breadth-first with slots in label order (the order
        ``canonical_rows`` numbers), layer r holds exactly the vertices at
        distance r, and a radius gives radius + 1 layers."""
        kind = data.draw(st.sampled_from(["model", "ball", "core"]), label="kind")
        if kind == "model":
            m, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 30))
            g = random_perm_model(m, n, data.draw(st.integers(0, 10**6)))
        else:
            rank = data.draw(st.integers(1, 2), label="rank")
            core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
            g = core
            if kind == "ball":
                g = complete_ball(core, data.draw(st.integers(0, 4), label="ball radius"))
        g = reference.shuffled(g, data.draw(st.permutations(range(g.n)), label="numbering"))
        x = data.draw(st.integers(0, g.n - 1), label="start")
        order, ends = bfs_layers(g.slots, x, radius)
        order = order.tolist()
        assert (order, ends) == reference.row_layers(g.next, x, radius)
        dist = reference.bfs_distances(g, x)
        if radius is None:
            assert len(ends) == max(dist) + 1
        else:
            assert len(ends) == radius + 1
        assert len(order) == ends[-1]
        for r, (begin, end) in enumerate(zip([0, *ends], ends)):
            assert sorted(order[begin:end]) == [v for v in range(g.n) if dist[v] == r]
        # breadth-first in label order: each vertex after the start is met
        # from the earliest listed vertex that has a slot to it, at that
        # vertex's first such slot, so the order sorts by (position, label)
        position = {v: i for i, v in enumerate(order)}
        met = {}
        for v in order:
            for l, w in enumerate(g.next[v]):
                if w is not None and w != x:
                    met.setdefault(w, (position[v], l))
        keys = [met[w] for w in order[1:]]
        assert keys == sorted(keys)
        assert canonical_rows(g.slots, x, radius)[0].tolist() == order

    @staticmethod
    def wide_graph(data) -> SchreierGraph:
        """A permutation model of up to 2000 vertices or a complete ball of
        radius 5–6: graphs whose layers outgrow the Python step."""
        if data.draw(st.booleans(), label="model"):
            m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2000))
            return random_perm_model(m, n, data.draw(st.integers(0, 10**6)))
        rank = data.draw(st.integers(1, 2), label="rank")
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        return complete_ball(core, data.draw(st.integers(5, 6), label="ball radius"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_wide_layers_and_radii_past_the_last(self, data):
        """Wide layers, and radii up to three times the start's
        eccentricity: the order and ends of the reference, and a radius past
        the last layer repeats the last end up to radius + 1 entries."""
        g = self.wide_graph(data)
        x = data.draw(st.integers(0, g.n - 1), label="start")
        eccentricity = max(reference.bfs_distances(g, x))
        radius = data.draw(st.none() | st.integers(0, 3 * eccentricity + 3), label="radius")
        order, ends = bfs_layers(g.slots, x, radius)
        assert (order.tolist(), ends) == reference.row_layers(g.next, x, radius)
        assert len(ends) == (eccentricity + 1 if radius is None else radius + 1)
        assert ends[eccentricity:] == [g.n] * (len(ends) - eccentricity)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), narrow=st.sampled_from(["never", "always"]))
    def test_either_step_gives_the_same_layers(self, data, narrow):
        """Every layer stepped in numpy, or every one in Python: the same
        ``(order, ends)`` as the chosen steps and as the reference."""
        kind = data.draw(st.sampled_from(["wide", "model", "core"]), label="kind")
        if kind == "wide":
            g = self.wide_graph(data)
        elif kind == "model":
            m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 40))
            g = random_perm_model(m, n, data.draw(st.integers(0, 10**6)))
        else:
            rank = data.draw(st.integers(1, 2), label="rank")
            g = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        x = data.draw(st.integers(0, g.n - 1), label="start")
        radius = data.draw(st.none() | st.integers(-1, 12), label="radius")
        chosen = bfs_layers(g.slots, x, radius)
        size = 0 if narrow == "never" else g.n * g.degree
        with mock.patch.object(core, "_NARROW", size):
            forced = bfs_layers(g.slots, x, radius)
        assert (forced[0].tolist(), forced[1]) == (chosen[0].tolist(), chosen[1])
        assert (forced[0].tolist(), forced[1]) == reference.row_layers(g.next, x, radius)

    @pytest.mark.parametrize("narrow", [0, 64])
    def test_even_cycle_meets_its_antipode_once(self, narrow):
        # both halves of C_2k reach k in the last layer, which lists it once
        g = cycle_graph(10)
        with mock.patch.object(core, "_NARROW", narrow):
            order, ends = bfs_layers(g.slots, 0, 8)
        assert order.tolist() == [0, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        assert ends == [1, 3, 5, 7, 9, 10, 10, 10, 10]

    def test_one_vertex_core_at_a_deep_radius(self):
        order, ends = bfs_layers(tree_core(4).slots, 0, 200)
        assert (order.tolist(), ends) == ([0], [1] * 201)

    @given(m=st.integers(1, 2), n=st.integers(1, 20), seed=st.integers(0, 99))
    def test_radius_minus_one_is_the_start_alone(self, m, n, seed):
        # the empty search lists x and no layer
        g = random_perm_model(m, n, seed)
        for x in range(g.n):
            order, ends = bfs_layers(g.slots, x, -1)
            assert (order.tolist(), ends) == ([x], [])

    @pytest.mark.parametrize("start", [-1, 6])
    def test_start_outside_the_graph_refused(self, start):
        g = cycle_graph(6)
        with pytest.raises(ValueError, match=rf"vertex {start} is not a vertex"):
            bfs_layers(g.slots, start)


class TestCoreGraph:
    """A core is the ``SchreierGraph`` whose undefined slots hang trees:
    its own type under equality, canonical numbering and SGF1."""

    @settings(max_examples=100)
    @given(data=st.data(), rank=st.integers(1, 3))
    def test_sgf1_reads_a_core_back(self, data, rank):
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        read = parse(serialize(core))
        if core.complete:  # no ``b`` line: the finite graph the core is
            assert read == SchreierGraph._trusted(gens=core.gens, slots=core.slots)
        else:
            assert isinstance(read, CoreGraph) and read == core
        assert return_counts(read, read.root, 12) == return_counts(core, core.root, 12)

    def test_a_core_is_not_the_plain_graph_with_its_table(self):
        gens = GenSet.free(2)
        complete = stallings_core(gens, [parse_word(gens, w) for w in ("a^2", "b^2", "ab")])
        for core in (free_core(2), stallings_core(gens, [parse_word(gens, "a")]), complete):
            plain = SchreierGraph(gens=core.gens, next=core.next, boundary=core.boundary)
            assert core != plain and plain != core
            assert np.array_equal(core.slots, plain.slots)
            assert type(canonicalize(core)) is CoreGraph and canonicalize(core) == core
            assert type(canonicalize(plain)) is SchreierGraph
            assert repr(core).startswith("CoreGraph(gens=")
            assert repr(plain).startswith("SchreierGraph(gens=")

    def test_validate_refuses_what_no_core_is(self):
        gens = GenSet.free(1)
        with pytest.raises(GraphInvariantError, match="complete core vertex 0 flagged as partial"):
            CoreGraph(gens=gens, next=((0, 0),), boundary=frozenset({0}))
        with pytest.raises(GraphInvariantError, match="missing edge slot a"):
            CoreGraph(gens=gens, next=((None, None),))
        with pytest.raises(GraphInvariantError, match="not truncations"):
            CoreGraph(
                gens=gens, next=((None, None),), boundary=frozenset({0}), truncation_radius=0
            )


_WHOLE_ONLY = "needs a whole graph; a truncation is unknown beyond its boundary"
_NO_TREES = "needs a whole graph; complete the core with an '@radius' suffix"
_NO_ROOM = "insufficient radius for .*: distance from vertex 0 to the truncation boundary is 2, "


class TestWhatEachKindAnswers:
    """The one rule for the three kinds of table: a whole graph answers
    every question; a truncation (here the 2-ball of the 4-regular tree)
    answers a question that reads only stored slots when its boundary is
    far enough, and refuses one that needs the whole graph; an incomplete
    core answers the walk counts, which follow its trees, and refuses every
    other question with the hint to complete it.  Each entry point asks
    for radius 3 around the root, one more than the truncation holds."""

    KINDS = {
        "whole": cycle_graph(6),
        "truncation": from_spec("tree:d=4,r=2"),
        "core": from_spec("fold:a,rank=2"),
    }
    # entry point -> the refusal on (whole graph, truncation, core); None answers
    ENTRY_POINTS = {
        "markov_matrix": (markov_matrix, None, _WHOLE_ONLY, _NO_TREES),
        "rho0": (rho0, None, _WHOLE_ONLY, _NO_TREES),
        "bs_statistics": (lambda g: bs_statistics(g, 1), None, _WHOLE_ONLY, _NO_TREES),
        "vertex_transitive": (lambda g: g.vertex_transitive, None, _WHOLE_ONLY, _NO_TREES),
        "ball": (lambda g: ball(g, g.root, 3), None, _NO_ROOM, _NO_TREES),
        "invariance_diagnostic": (
            lambda g: invariance_diagnostic(reference.point_mass(g), 2), None, _NO_ROOM, _NO_TREES
        ),
        "segment_distributions": (
            lambda g: segment_distributions(g, g.root, 6, 2), None, _NO_ROOM, _NO_TREES
        ),
        "conditioned_prefix_probabilities": (
            lambda g: conditioned_prefix_probabilities(g, g.root, 6, 2, True),
            None, _NO_ROOM, _NO_TREES,
        ),
        "return_counts": (lambda g: return_counts(g, g.root, 6), None, _NO_ROOM, None),
        "return_domination_reports": (
            lambda g: return_domination_reports(g, 6, True), None, _NO_ROOM, None
        ),
    }

    @pytest.mark.parametrize("kind", range(3), ids=list(KINDS))
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_answers_or_refuses_with_its_kinds_message(self, entry, kind):
        ask, *refusals = self.ENTRY_POINTS[entry]
        g, refusal = list(self.KINDS.values())[kind], refusals[kind]
        if refusal is None:
            ask(g)
        else:
            error = InsufficientRadiusError if refusal is _NO_ROOM else ValueError
            with pytest.raises(error, match=refusal) as caught:
                ask(g)
            assert caught.type is error


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
        assert canonical_rows(g.slots, 0)[0].tolist() == list(range(g.n))


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
        # a 2-cycle whose only defect is the repeated line
        text = (
            "SGF1\ngens 2\nlabel 0 a inv 1\nlabel 1 A inv 0\n"
            "vertices 2 root 0\ne 0 0 1\ne 0 0 1\ne 0 1 1\ne 1 0 0\ne 1 1 0\n"
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

    def test_parse_sets_slots(self):
        g = parse(serialize(complete_ball(tree_core(3), 2)))
        assert "slots" in g.__dict__
        assert not g.slots.flags.writeable
        assert g.slots.tolist() == [[-1 if w is None else w for w in row] for row in g.next]

    def test_vertex_count_above_edge_lines_refused(self):
        # 10^12 rows would be allocated if the header were believed
        text = (
            "SGF1\ngens 2\nlabel 0 a inv 1\nlabel 1 A inv 0\n"
            "vertices 1000000000000 root 0\ne 0 0 0\ne 0 1 0\n"
        )
        with pytest.raises(
            SGF1Error,
            match="vertices 1000000000000 needs at least 999999999999 e lines "
            "to be connected, found 2",
        ):
            parse(text)

    def test_interior_slots_above_edge_lines_refused(self):
        # 2,000 labels and 2,001 vertices would be a 2001×2000 table, and
        # only 2,000 e lines fill slots: refused before any table exists
        d = 2000
        text = "".join(
            ["SGF1\n", f"gens {d}\n"]
            + [f"label {i} x{i} inv {i}\n" for i in range(d)]
            + [f"vertices {d + 1} root 0\n"]
            + [f"e 0 {l} 1\n" for l in range(d)]
        )
        tracemalloc.start()
        try:
            with pytest.raises(
                SGF1Error,
                match=re.escape(
                    "vertices 2001 with 0 b lines needs (n - B)*d = 4002000 e lines "
                    "to fill the interior slots, found 2000"
                ),
            ):
                parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(text) + 2**20  # the table alone is 32 MB

    def test_boundary_lines_lower_the_slot_bound(self):
        # the truncated path 0 - 1 with both ends on the boundary: no
        # interior vertex, so one e line pair is enough
        text = (
            "SGF1\ngens 2\nlabel 0 a inv 1\nlabel 1 A inv 0\n"
            "vertices 2 root 0 truncated 1\ne 0 0 1\ne 1 1 0\nb 0\nb 1\n"
        )
        assert parse(text).boundary == frozenset({0, 1})
        with pytest.raises(SGF1Error, match=r"\(n - B\)\*d = 4 e lines"):
            parse(text.replace("b 0\nb 1\n", ""))

    def test_alphabet_size_read_before_allocating(self):
        # no list of 10^12 labels is made before the label lines are read
        with pytest.raises(SGF1Error, match="unexpected end of input"):
            parse("SGF1\ngens 1000000000000\n")

    def test_digits_are_ascii(self):
        text = serialize(cycle(3)).replace("e 0 0 1", "e \u0660 0 1")
        with pytest.raises(SGF1Error, match="malformed edge line"):
            parse(text)

    def test_first_offending_line_in_file_order(self):
        original = serialize(cycle(4)).splitlines()  # e lines from index 5 on
        lines = list(original)
        lines[7] = "e 1 0 9"          # out of range
        lines[9] = original[5]        # slot (0,a) again
        lines[11] = "e 3 x 0"         # malformed
        with pytest.raises(SGF1Error, match="edge line out of range: 'e 1 0 9'"):
            parse("\n".join(lines))
        lines[7] = original[7]
        with pytest.raises(SGF1Error, match=r"duplicate edge slot \(0,a\)"):
            parse("\n".join(lines))
        lines[9] = original[9]
        with pytest.raises(SGF1Error, match="malformed edge line 'e 3 x 0'"):
            parse("\n".join(lines))


_GARBAGE = st.one_of(
    st.sampled_from(
        ["x", "e", "b", "e 1", "e 1 2", "e 0 0 0 0", "b 1 2", "e -1 0 0",
         "e 0 0 +1", "b x", "e\t0 0 0", "e  0 0 0", "SGF1", "gens 2"]
    ),
    st.text(alphabet=" eb0129x-+\t", max_size=8),
)
_BREAKS = ["\r", "\v", "\f", "\x1c", "\x85", "\u2028"]


def _mutated_sgf1(data, g: SchreierGraph) -> str:
    """SGF1 text of g with up to two line-level mutations, then possibly
    CRLF endings and a missing final newline."""
    lines = serialize(g).splitlines()
    head = g.degree + 3  # magic, gens, labels, vertices
    for _ in range(data.draw(st.integers(0, 2))):
        kind = data.draw(st.sampled_from([
            "drop", "duplicate", "swap", "range", "long", "garbage",
            "vertices", "pad", "blank", "break",
        ]))
        anywhere = st.integers(0, len(lines) - 1)
        body = st.integers(min(head, len(lines) - 1), len(lines) - 1)
        i = data.draw(body | anywhere)  # half the time in the body, read in bulk
        if kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind in ("range", "long") and i >= head and lines[i][:2] in ("e ", "b "):
            fields = lines[i].split(" ")
            k = data.draw(st.integers(1, len(fields) - 1))
            if kind == "long":
                fields[k] = data.draw(st.sampled_from(["9" * 25, "0" * 24 + fields[k]]))
            else:
                bound = g.degree if k == 2 and fields[0] == "e" else g.n
                fields[k] = str(bound + data.draw(st.integers(0, 2)))
            lines[i] = " ".join(fields)
        elif kind == "garbage":
            lines.insert(i, data.draw(_GARBAGE))
        elif kind == "vertices":
            edges = sum(line.startswith("e ") for line in lines)
            n = data.draw(st.integers(0, 3 * edges + 3))
            lines[head - 1] = re.sub(r"vertices \d+", f"vertices {n}", lines[head - 1])
        elif kind == "pad":
            pad = st.text(alphabet=" \t", max_size=3)
            lines[i] = data.draw(pad) + lines[i] + data.draw(pad)
        elif kind == "blank":
            lines.insert(i, data.draw(st.sampled_from(["", " ", "\t "])))
        elif kind == "break" and i + 1 < len(lines):
            joint = data.draw(st.sampled_from(_BREAKS))
            lines[i : i + 2] = [lines[i] + joint + lines[i + 1]]
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + data.draw(st.sampled_from([end, ""]))


class TestBulkParseOracle:
    """``parse`` gives what the line-by-line parser gives: the same graph,
    or the same exception type and message.  The exempt classes are the
    two bounds ``parse`` checks before reading the body, which every
    valid file meets: a ``vertices n`` header above the number E of ``e``
    lines + 1, and (n − B)·d above E for B ``b`` lines."""

    @settings(max_examples=300)
    @given(small_graphs(), st.data())
    def test_matches_line_parser(self, g, data):
        text = _mutated_sgf1(data, g)
        got = _outcome(lambda: _fields(parse(text)))
        expected = _outcome(lambda: _fields(reference.parse(text)))
        message = got[1] if got[0] is SGF1Error else ""
        connected = re.fullmatch(
            r"vertices (\d+) needs at least \d+ e lines to be connected, found (\d+)",
            message,
        )
        filled = re.fullmatch(
            r"vertices (\d+) with (\d+) b lines needs \(n - B\)\*d = (\d+) e lines "
            r"to fill the interior slots, found (\d+)",
            message,
        )
        lines = [ln.strip() for ln in text.splitlines()]
        if connected:
            n, edges = int(connected.group(1)), int(connected.group(2))
            assert edges == sum(ln.startswith("e ") for ln in lines)
            assert n > edges + 1
            assert expected[0] is SGF1Error
        elif filled:
            n, b, slots, edges = map(int, filled.groups())
            assert edges == sum(ln.startswith("e ") for ln in lines)
            assert b == sum(ln.startswith("b ") for ln in lines)
            assert slots == (n - b) * g.degree > edges
            assert expected[0] is SGF1Error
        else:
            assert got == expected


@pytest.fixture(scope="class")
def small_blocks():
    """Blocks of about 12 characters, so that a body spans many blocks and a
    repeated slot or an offending line lies blocks after the line it follows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_BLOCK", 12)
        yield


@pytest.mark.usefixtures("small_blocks")
class TestBulkParseOracleSmallBlocks(TestBulkParseOracle):
    """The line-parser oracle, reading the body a line or two at a time."""


@st.composite
def slot_tables(draw) -> np.ndarray:
    """Any n×d table of targets in −1..n − 1, missing slots (−1) included:
    unpaired, unreachable and repeated targets as they come."""
    n, d = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(-1, n - 1), min_size=n * d, max_size=n * d))
    return np.array(cells, dtype=np.int64).reshape(n, d)


@st.composite
def stored_graphs(draw) -> SchreierGraph:
    """A truncated R-ball of a permutation model, a completed ball of a
    folded core (truncated or complete) or a folded core, renumbered by a
    random permutation half the time."""
    kind = draw(st.sampled_from(["truncated", "ball", "core"]))
    if kind == "truncated":
        m, n = draw(st.integers(1, 2)), draw(st.integers(1, 40))
        g = random_perm_model(m, n, draw(st.integers(0, 99)))
        g = local.ball(g, draw(st.integers(0, g.n - 1)), draw(st.integers(0, 3))).graph
    else:
        rank = draw(st.integers(1, 2))
        core_graph = stallings_core(GenSet.free(rank), draw(reference.folded_words(rank)))
        g = core_graph
        if kind == "ball":
            g = complete_ball(core_graph, draw(st.integers(0, 3)))
    if draw(st.booleans()):
        g = reference.shuffled(g, draw(st.permutations(range(g.n))))
    return g


class TestArrayNumberingAndWriter:
    """The array numbering and SGF1 writer against the loops of ``reference``."""

    @settings(max_examples=300)
    @given(slot_tables(), st.none() | st.integers(0, 3))
    def test_numbering_matches_the_loop_from_every_root(self, slots, radius):
        rows = [[None if w < 0 else w for w in row] for row in slots.tolist()]
        for root in range(len(slots)):
            order, renumbered = canonical_rows(slots, root, radius)
            index, expected = reference.canonical_rows(rows, root, radius)
            assert order.tolist() == list(index)
            assert renumbered.tolist() == [
                [-1 if w is None else w for w in row] for row in expected
            ]
            assert not renumbered.flags.writeable

    @settings(max_examples=200)
    @given(stored_graphs())
    def test_writer_matches_the_loop(self, g):
        text = serialize(g)
        assert text == reference.serialize(g)
        read = parse(text)
        assert np.array_equal(read.slots, g.slots)
        assert (read.root, read.boundary, read.truncation_radius) == (
            g.root, g.boundary, g.truncation_radius
        )

    def test_parse_holds_the_slot_table_not_the_text(self):
        """Reading ``randperm:m=2,n=100000,seed=0``: the peak stays near the
        checks on the n×d table, whatever the text length beyond a block,
        and what stays held afterwards is the table and its distances."""
        g = random_perm_model(2, 10**5, 0)
        text, cells = serialize(g), g.n * g.degree
        tracemalloc.start()
        try:
            read = parse(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read.n == g.n
        assert peak < len(text) + 32 * cells
        assert held < 12 * cells


class TestBlockedWriter:
    """``serialize`` writes the whole-table writer's bytes whatever the block."""

    @settings(max_examples=200)
    @given(stored_graphs(), st.integers(1, 9))
    def test_matches_the_whole_table_at_small_blocks(self, g, block):
        # a block of a few vertices puts n at block − 1, block, block + 1
        # and past two blocks within small cores and truncated balls
        with mock.patch.object(core, "_WRITE_BLOCK", block):
            text = serialize(g)
        assert text == reference.serialize_table(g) == reference.serialize(g)

    @pytest.mark.parametrize("offset", [-1, 0, 1, core._WRITE_BLOCK + 1])
    def test_matches_the_whole_table_around_the_block(self, offset):
        g = cycle_graph(core._WRITE_BLOCK + offset)
        assert serialize(g) == reference.serialize_table(g)

    def test_peak_below_three_texts(self):
        g = random_perm_model(2, 10**5, 0)
        tracemalloc.start()
        try:
            text = serialize(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text)


class TestNoTupleRows:
    """Builders, the parser and the array readers leave ``next`` unbuilt."""

    def test_readers_of_slot_graphs(self):
        g = random_perm_model(2, 3000, 0)
        assert "next" not in g.__dict__
        read = parse(serialize(g))
        assert "next" not in read.__dict__
        for h in (g, read):
            ramanujan_check(h)
            cycle_profile(h, 5)
            assert "next" not in h.__dict__
        e = uniform_conjugate(restrict_to_orbit(random_perm_action(2, 3000, 0)))
        invariance_diagnostic(e, 2)
        assert not any("next" in h.__dict__ for h in e.samples)

    def test_equality_hash_repr_and_ball_distance(self, monkeypatch):
        views = []  # every graph whose row view is built, the compared balls included
        row_view = SchreierGraph.__getattr__
        monkeypatch.setattr(
            SchreierGraph, "__getattr__", lambda g, name: views.append(g) or row_view(g, name)
        )
        g, same = random_perm_model(2, 3000, 0), random_perm_model(2, 3000, 0)
        assert g == same and hash(g) == hash(same)
        assert g != random_perm_model(2, 3000, 1)
        assert len(repr(g)) < 200
        assert ball_distance(g, same, max_radius=3).agreement_radius == 3
        ball_distance(g, random_perm_model(2, 3000, 1), max_radius=3)
        assert views == []

    def test_equality_matches_the_rows(self):
        rows = ((1, None), (2, 0), (None, 1))
        g = SchreierGraph(gens=GenSet.free(1), next=rows, boundary=frozenset({0, 2}))
        variants = ((0, {0, 2}, None), (1, {0, 2}, None), (0, {0, 1, 2}, None), (0, {0, 2}, 1))
        for root, boundary, radius in variants:
            h = SchreierGraph(
                gens=GenSet.free(1), next=rows, root=root,
                boundary=frozenset(boundary), truncation_radius=radius,
            )
            same = (g.gens, g.next, g.root, g.boundary, g.truncation_radius) == (
                h.gens, h.next, h.root, h.boundary, h.truncation_radius
            )
            assert (g == h) is same
        assert g != GenSet.free(1)

    def test_readers_of_actions(self):
        act = random_perm_action(2, 300, 0)
        sub = restrict_to_orbit(act)
        fix_density(sub, parse_word(sub.gens, "ab"))
        local_approx_check([sub], 1)
        support_subgroup_graph(sub, ["a", "A"])
        product_return_bound(sub, [["a", "A", None], ["b", "B"]])
        uniform_conjugate(sub)
        assert not hasattr(act, "perms") and not hasattr(sub, "perms")


def _defective_perms(data, perms: list[list[int]], n: int) -> list[list[int]]:
    """Up to two defects: a repeated or outside point, a wrong length, or
    a permutation that is not the inverse its label needs."""
    for _ in range(data.draw(st.integers(0, 2))):
        l = data.draw(st.integers(0, len(perms) - 1))
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        kind = data.draw(st.sampled_from(["repeat", "outside", "length", "inverse"]))
        if kind == "repeat" and max(x, y) < len(perms[l]):
            perms[l][x] = perms[l][y]
        elif kind == "outside" and x < len(perms[l]):
            perms[l][x] = data.draw(st.sampled_from([-1, n, n + 2]))
        elif kind == "length":
            perms[l] = perms[l][:-1] if data.draw(st.booleans()) else perms[l] + [x]
        else:
            perms[l] = list(data.draw(st.permutations(range(n))))
    return perms


class TestPermActionOracle:
    """The array checks of ``PermAction`` report what the loops report."""

    @given(st.data())
    def test_matches_loop_checks(self, data):
        n = data.draw(st.integers(1, 7))
        pairs, involutions = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 1))
        act = random_action(data.draw, n, pairs, involutions)
        perms = _defective_perms(data, [list(p) for p in reference.label_perms(act)], n)
        perms = tuple(map(tuple, perms))
        got = _outcome(lambda: reference.label_perms(PermAction(act.gens, perms)))
        expected = _outcome(lambda: reference.check_perm_action(act.gens, perms) or perms)
        assert got == expected

    @given(st.data())
    def test_generator_perms_match_loops(self, data):
        n = data.draw(st.integers(1, 7))
        pairs = [
            list(data.draw(st.permutations(range(n))))
            for _ in range(data.draw(st.integers(0, 2)))
        ]
        involutions = []
        for _ in range(data.draw(st.integers(0 if pairs else 1, 2))):
            order = data.draw(st.permutations(range(n)))
            p = list(range(n))
            for i in range(0, n - 1, 2):
                p[order[i]], p[order[i + 1]] = order[i + 1], order[i]
            involutions.append(p)
        for p in pairs + involutions:
            if data.draw(st.booleans()):
                p[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
        gens = GenSet.with_involutions(
            ascii_lowercase[: len(pairs)], tuple(f"m{i}" for i in range(len(involutions)))
        )

        def build_reference():
            perms = reference.generator_perms(pairs, involutions)
            reference.check_perm_action(gens, perms)
            return perms

        got = _outcome(
            lambda: reference.label_perms(PermAction.from_generator_perms(pairs, involutions))
        )
        expected = _outcome(build_reference)
        assert got == expected


class TestPermAction:
    def test_slots_is_the_table_and_its_only_form(self):
        act = PermAction(GenSet.free(1), [(1, 2, 0), (2, 0, 1)])
        assert act.slots.tolist() == [[1, 2], [2, 0], [0, 1]]
        assert not act.slots.flags.writeable
        assert not hasattr(act, "perms")
        with pytest.raises(AttributeError):
            act.slots = None

    def test_repr_names_the_size_not_the_table(self):
        act = random_perm_action(2, 10**5, 0)
        assert repr(act) == f"PermAction(gens={act.gens!r}, n=100000)"

    def test_equal_on_alphabet_and_table(self):
        act = PermAction(GenSet.free(1), ((1, 2, 0), (2, 0, 1)))
        same = PermAction.from_generator_perms([(1, 2, 0)])
        assert act == same and hash(act) == hash(same)
        assert act != PermAction.from_generator_perms([(2, 0, 1)])
        assert act != PermAction(GenSet(("c", "C"), (1, 0)), reference.label_perms(act))

    @pytest.mark.parametrize("entry", [1.5, "1", 1.0, None, (0,)])
    def test_entries_that_are_not_integers_refused(self, entry):
        with pytest.raises(
            GraphInvariantError, match=re.escape(f"label A sends point 0 to {entry!r},")
        ):
            PermAction(GenSet.free(1), ((1, 0), (entry, 0)))
        with pytest.raises(GraphInvariantError, match="not an integer"):
            PermAction.from_generator_perms([(entry, 0)])

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
        assert act.word_images(w).tolist() == [2, 0, 1]

    def test_orbit_of_transitive_action(self):
        # breadth-first in label order: a sends 0 to 1, A sends 0 to 3
        act = PermAction.from_generator_perms([(1, 2, 3, 0)])
        assert bfs_layers(act.slots, 0)[0].tolist() == [0, 1, 3, 2]
