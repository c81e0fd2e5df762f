"""Markov spectra, ρ₀, return-based ρ estimation, and operator-norm bounds."""

import dataclasses
import itertools
import logging
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference

from schreier.builders import (
    complete_ball,
    cycle_graph,
    free_core,
    from_perm_action,
    from_spec,
    k4_graph,
    klein_cayley,
    lps_graph,
    petersen_graph,
    random_perm_action,
    random_perm_model,
    s3_regular,
    stallings_core,
    tree_core,
    z6_regular,
)
from schreier.core import (
    GenSet,
    GraphInvariantError,
    InequalityViolation,
    InsufficientRadiusError,
    PermAction,
    SchreierGraph,
    Verdict,
    parse_word,
)
from schreier import builders, spectral
from schreier.spectral import (
    ProductReturnBound,
    SpectralReport,
    bipartition,
    estimate_rho_returns,
    markov_spectrum,
    product_return_bound,
    ramanujan_check,
    rho0,
    support_copies,
    support_subgroup_graph,
    tree_rho,
)
from schreier.walks import core_rho, return_counts

F2 = GenSet.free(2)


def cycle_rho0_exact(n: int) -> float:
    return max(abs(math.cos(2 * math.pi * k / n)) for k in range(1, n))


def torus(a: int, b: int):
    """Z/a × Z/b with one letter per coordinate shift."""
    right = tuple(((x // b + 1) % a) * b + x % b for x in range(a * b))
    up = tuple((x // b) * b + (x % b + 1) % b for x in range(a * b))
    return from_perm_action(PermAction.from_generator_perms([right, up], [], ["a", "b"]))


def double_cover(act: PermAction):
    """The bipartite double cover: every letter also flips a layer bit."""
    n = act.degree
    perms = tuple(
        tuple(p[x % n] + n * (x < n) for x in range(2 * n)) for p in reference.label_perms(act)
    )
    return from_perm_action(PermAction(act.gens, perms))


def assert_dense_iterative_agree(g) -> None:
    dense = reference.rho0_dense(g)
    it = rho0(g)
    assert it.converged
    assert dense.bipartite == it.bipartite
    for field in ("rho0", "rho0_strict", "rho0_nonneg"):
        assert abs(getattr(dense, field) - getattr(it, field)) < 1e-8, field


class TestMarkovSpectrum:
    def test_five_cycle_closed_form(self):
        evs = markov_spectrum(cycle_graph(5))
        expected = sorted(math.cos(2 * math.pi * k / 5) for k in range(5))
        assert np.allclose(evs, expected, atol=1e-12)

    def test_k4_three_matchings(self):
        evs = markov_spectrum(k4_graph())
        assert np.allclose(evs, [-1 / 3, -1 / 3, -1 / 3, 1.0], atol=1e-12)

    def test_rotation_subgroup_inside_s3(self):
        g = support_subgroup_graph(s3_regular(), ["c", "C"])
        assert g.n == 3
        assert np.allclose(markov_spectrum(g), [-0.5, -0.5, 1.0], atol=1e-12)

    def test_size_refusal(self):
        with pytest.raises(ValueError, match="dense threshold"):
            markov_spectrum(cycle_graph(4097))

    def test_truncation_refusal(self):
        with pytest.raises(ValueError, match="whole graph"):
            markov_spectrum(complete_ball(tree_core(4), 2))


class TestBipartition:
    def test_even_cycle(self):
        colors = bipartition(cycle_graph(6))
        assert colors is not None
        assert all(colors[i] != colors[(i + 1) % 6] for i in range(6))

    def test_odd_cycle(self):
        assert bipartition(cycle_graph(5)) is None

    def test_loop_kills_it(self):
        loop = stallings_core(F2, [parse_word(F2, "a")])
        assert bipartition(loop) is None

    def test_free_core_tree(self):
        assert bipartition(free_core(2)) is not None


class TestRho0:
    def test_five_cycle(self):
        rep = rho0(cycle_graph(5))
        assert abs(rep.rho0 - abs(math.cos(4 * math.pi / 5))) < 1e-12
        assert (rep.n, rep.d) == (5, 2)
        assert not rep.bipartite

    def test_petersen(self):
        rep = rho0(petersen_graph())
        assert abs(rep.rho0 - 2 / 3) < 1e-9
        assert abs(rep.rho0_nonneg - 1 / 3) < 1e-9

    def test_four_cycle_bipartite(self):
        rep = rho0(cycle_graph(4))
        assert rep.bipartite
        assert abs(rep.rho0 - 1.0) < 1e-12
        assert abs(rep.rho0_nonneg) < 1e-12
        assert abs(rep.rho0_strict) < 1e-12

    def test_single_vertex(self):
        core = stallings_core(F2, [parse_word(F2, w) for w in ("a", "b")])
        assert core.complete
        rep = rho0(core)
        assert rep.rho0 == 0.0

    def test_sign_vector_residual_is_in_the_bound(self, monkeypatch):
        # an improper 2-coloring of C5 leaves λ = −1 uncertified
        monkeypatch.setattr(
            spectral, "bipartition", lambda g: tuple(v % 2 for v in range(g.n))
        )
        rep = rho0(cycle_graph(5))
        assert rep.error_bound > 0.1
        assert not rep.converged

    def test_truncation_refusal(self):
        with pytest.raises(ValueError, match="unknown beyond its boundary"):
            rho0(complete_ball(tree_core(4), 3))

    @pytest.mark.parametrize("n", list(range(3, 31)))
    def test_iterative_matches_closed_form_small(self, n):
        # small cycles exhaust the Krylov space almost immediately, which
        # is exactly where the recurrence must stop on a vanishing β
        rep = rho0(cycle_graph(n))
        assert abs(rep.rho0 - cycle_rho0_exact(n)) < 1e-9
        assert rep.error_bound <= 1e-8
        assert rep.converged

    @pytest.mark.parametrize("n", [997, 1000])
    def test_iterative_matches_closed_form_large(self, n):
        rep = rho0(cycle_graph(n))
        assert abs(rep.rho0 - cycle_rho0_exact(n)) < 1e-9

    @given(seed=st.integers(min_value=0, max_value=25))
    @settings(max_examples=8, deadline=None)
    def test_dense_iterative_agreement(self, seed):
        g = random_perm_model(2, 150, seed=seed)
        dense = reference.rho0_dense(g)
        it = rho0(g)
        assert abs(dense.rho0 - it.rho0) < 1e-6
        assert dense.bipartite == it.bipartite

    @pytest.mark.parametrize(
        "build",
        [
            # bipartite, so its iterative report rests on the sign-vector symmetry
            lambda: lps_graph(5, 13),
            # on the small graphs the Krylov space runs out within a few steps
            lambda: cycle_graph(1),
            k4_graph,
            petersen_graph,
            klein_cayley,
            lambda: from_perm_action(s3_regular()),
        ],
        ids=["LPS5_13", "C1", "K4", "Petersen", "klein", "s3"],
    )
    def test_dense_iterative_agreement_named_graphs(self, build):
        assert_dense_iterative_agree(build())

    @given(
        m=st.integers(min_value=1, max_value=3),
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_dense_iterative_agreement_double_covers(self, m, n, seed):
        g = double_cover(random_perm_action(m, n, seed))
        assert bipartition(g) is not None
        assert_dense_iterative_agree(g)

    @given(
        m=st.integers(min_value=2, max_value=3),
        n=st.integers(min_value=300, max_value=1200),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=10, deadline=None)
    def test_dense_iterative_agreement_random_models(self, m, n, seed):
        # shift-invert at the small end of the range, 100+ matvec steps at
        # the large end; the measured residual must bound the distance from
        # λ_max, and from ρ₀ (which λ_min may set), to the true spectrum
        g = random_perm_model(m, n, seed)
        assume(bipartition(g) is None)
        assert_dense_iterative_agree(g)
        rep = rho0(g)
        spectrum = markov_spectrum(g)
        gap = np.min(np.abs(spectrum - rep.rho0_nonneg))
        assert gap <= rep.error_bound + 1e-12
        gap = np.min(np.abs(np.abs(spectrum[:-1]) - rep.rho0))
        assert gap <= rep.error_bound + 1e-12

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 5), (3, 3), (4, 6), (8, 8), (6, 10)])
    def test_dense_iterative_agreement_tori(self, a, b):
        assert_dense_iterative_agree(torus(a, b))

    @pytest.mark.parametrize("n", [2, 4, 6, 10, 64, 500])
    def test_dense_iterative_agreement_even_cycles(self, n):
        # at n = 2 nothing is orthogonal to both the constants and the sign
        # vector; dense reads ρ₀ 1, nonneg −1, strict 1 there
        assert_dense_iterative_agree(cycle_graph(n))

    @pytest.mark.parametrize("n", [4999, 5000, 20000])
    def test_long_cycles_converge(self, n):
        # a spectral gap of order 1/n²
        rep = rho0(cycle_graph(n))
        assert rep.converged
        assert rep.error_bound <= 1e-8
        assert abs(rep.rho0 - cycle_rho0_exact(n)) < 1e-9

    def test_report_validation(self):
        with pytest.raises(GraphInvariantError, match="escaped"):
            SpectralReport(
                d=4, n=5, rho0=1.5, rho0_nonneg=0.5, bipartite=False,
                error_bound=0.0, rho0_strict=0.5, converged=True,
            )

    def test_a_report_describes_one_solve(self):
        # every field is required, and none says how: there is one path
        names = [f.name for f in dataclasses.fields(SpectralReport)]
        assert names == [
            "d", "n", "rho0", "rho0_nonneg", "bipartite", "error_bound",
            "rho0_strict", "converged",
        ]
        assert all(
            f.default is dataclasses.MISSING for f in dataclasses.fields(SpectralReport)
        )


@pytest.fixture
def factored(monkeypatch):
    """Every LU factorization the iterative solver makes, with its matrix."""
    calls = []
    real = spectral._grounded_lu

    def spy(M, sign, order):
        lu = real(M, sign, order)
        calls.append((M, lu))
        return lu

    monkeypatch.setattr(spectral, "_grounded_lu", spy)
    return calls


def assert_within_fill_cap(factored) -> None:
    for M, lu in factored:
        nnz = (sp.identity(M.shape[0]) - M).nnz
        assert lu.L.nnz + lu.U.nnz <= spectral._SPLU_FILL_CAP * nnz


class TestSolverChoice:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: cycle_graph(2),
            lambda: cycle_graph(7),
            lambda: cycle_graph(5000),
            lambda: torus(2, 3),
            lambda: torus(7, 9),
            lambda: torus(60, 80),
            lambda: torus(5, 1000),
        ],
        ids=["C2", "C7", "C5000", "T2x3", "T7x9", "T60x80", "T5x1000"],
    )
    def test_cycles_and_tori_factor(self, factored, build):
        assert rho0(build()).converged
        assert factored
        assert_within_fill_cap(factored)

    @pytest.mark.parametrize("seed", range(3))
    def test_small_random_graphs_stay_within_fill_cap(self, factored, seed):
        assert rho0(random_perm_model(3, 200, seed)).converged
        assert_within_fill_cap(factored)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: lps_graph(5, 13),
            lambda: lps_graph(17, 13),
            lambda: random_perm_model(2, 5000, 0),
            lambda: random_perm_model(2, 5000, 1),
        ],
        ids=["LPS5_13", "LPS17_13", "randperm5000s0", "randperm5000s1"],
    )
    def test_expanders_never_factor(self, factored, build):
        assert rho0(build()).converged
        assert not factored

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_band_bound_never_skips_a_banded_graph(self, data):
        """Wherever the root's eccentricity rules banded LU out,
        ``_banded_order`` refuses too: on permutation models, cycles, tori
        and LPS graphs, at the fill cap and at smaller ones, where the
        bound comes close to the bandwidth RCM finds."""
        kind = data.draw(st.sampled_from(["model", "cycle", "torus", "lps"]), label="kind")
        if kind == "model":
            m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4000))
            g = random_perm_model(m, n, data.draw(st.integers(0, 10**6)))
        elif kind == "cycle":
            g = cycle_graph(data.draw(st.integers(2, 4000)))
        elif kind == "torus":
            g = torus(data.draw(st.integers(1, 60)), data.draw(st.integers(2, 60)))
        else:
            g = lps_graph(*data.draw(st.sampled_from([(5, 13), (17, 13), (13, 17), (5, 17)])))
        assume(g.n > 1)
        cap = data.draw(st.sampled_from([1.0, 4.0, 16.0, spectral._SPLU_FILL_CAP]), label="cap")
        with mock.patch.object(spectral, "_SPLU_FILL_CAP", cap):
            if spectral._band_too_wide(g.n, g.degree, int(g.root_depths.max())):
                assert spectral._banded_order(spectral.markov_matrix(g), g.n) is None

    @pytest.mark.parametrize(
        "build, searched",
        [
            (lambda: random_perm_model(2, 10_000, 0), False),
            (lambda: random_perm_model(2, 2000, 0), True),
            (lambda: lps_graph(17, 13), True),
            (lambda: lps_graph(5, 13), True),
            (lambda: cycle_graph(5000), True),
        ],
        ids=["randperm10000", "randperm2000", "LPS17_13", "LPS5_13", "C5000"],
    )
    def test_band_search_only_where_the_bound_allows(self, monkeypatch, build, searched):
        calls = []
        real = spectral._banded_order
        monkeypatch.setattr(
            spectral, "_banded_order", lambda M, n: calls.append(n) or real(M, n)
        )
        assert ramanujan_check(build()).report.converged
        assert bool(calls) is searched

    def test_bound_skips_the_largest_bench_model(self):
        g = random_perm_model(2, 30_000, 0)
        assert spectral._band_too_wide(g.n, g.degree, int(g.root_depths.max()))


class TestLanczosRecurrence:
    def test_replay_satisfies_the_three_term_relation(self):
        # 120 steps of a first pass, then a replay from the stored α and β
        M = spectral.markov_matrix(random_perm_model(2, 3000, 0))
        start = spectral._start_vector(M.shape[0])
        alpha, beta = [], []
        first = spectral._lanczos_vectors(M.dot, start, alpha, beta)
        last = next(itertools.islice(first, 120, None))
        m = len(alpha)
        assert m == len(beta) == 120
        replay = spectral._lanczos_vectors(M.dot, start, alpha, beta)
        V = np.column_stack(list(itertools.islice(replay, m + 1)))
        assert len(alpha) == len(beta) == m
        assert np.array_equal(V[:, m], last)
        T = np.diag(alpha) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
        R = M @ V[:, :m] - V[:, :m] @ T
        R[:, m - 1] -= beta[m - 1] * V[:, m]
        assert np.linalg.norm(R) <= 1e-12

    def test_no_stored_basis(self):
        g = random_perm_model(2, 20000, 0)
        tracemalloc.start()
        try:
            rep = rho0(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak < 60 * 8 * g.n

    @pytest.mark.parametrize(
        "build, residual_tol",
        [
            (lambda: cycle_graph(501), None),
            (lambda: lps_graph(17, 13), None),
            (lambda: random_perm_model(2, 2000, 0), None),
            (lambda: random_perm_model(2, 20000, 0), None),
            (lambda: random_perm_model(2, 1000, 0), 1e-2),
        ],
        ids=["cycle-501", "lps-17-13", "randperm-2000", "randperm-20000", "missed-residual"],
    )
    def test_reports_do_not_depend_on_the_basis_buffer(
        self, monkeypatch, build, residual_tol
    ):
        # no stored vector, 5 of them, and the default 4 MiB: shift-invert
        # on C_501, matvec on the rest, fully stored at n = 2000 and partly
        # at n = 20000; a 1e-2 tolerance makes a missed residual resume the
        # first pass after a replay.  Fewer stored vectors cost more
        # products, and the reports are equal, float for float.
        g = build()
        if residual_tol is not None:
            monkeypatch.setattr(spectral, "_RESIDUAL_TOL", residual_tol)
        lanczos, products = spectral._lanczos, []

        def counted(M, apply, *rest):
            def step(v):
                products[-1] += 1
                return apply(v)

            return lanczos(M, step, *rest)

        monkeypatch.setattr(spectral, "_lanczos", counted)
        reports = []
        for cells in (0, 5 * g.n, spectral._BASIS_CELLS):
            monkeypatch.setattr(spectral, "_BASIS_CELLS", cells)
            products.append(0)
            reports.append(rho0(g))
        assert reports[0].converged
        assert reports[0] == reports[1] == reports[2]
        assert products[0] > products[1] > products[2]

    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_perm_model(2, 2000, 0),
            lambda: random_perm_model(2, 4, 0),
            lambda: lps_graph(17, 13),
        ],
        ids=["randperm-2000", "loops-and-parallel-edges", "lps-17-13"],
    )
    def test_the_direct_product_is_the_sparse_product(self, build):
        # the kernel is private to scipy: a release that moves or changes it
        # fails here rather than changing what the solver computes
        g = build()
        M = spectral.markov_matrix(g)
        if g.n == 4:
            assert (M.diagonal() > 0).any() and (M.data == 2 / g.degree).any()
        product = spectral._csr_product(M)
        for v in np.random.default_rng(0).standard_normal((3, g.n)):
            assert np.array_equal(product(v), M @ v)

    @pytest.mark.parametrize("cells", [0, 5 * 2000, None], ids=["none", "five", "default"])
    def test_the_debug_line_counts_the_work(self, monkeypatch, caplog, cells):
        # the model is not bipartite, so both ends are solved; once the
        # first checkpoint has solved both, the next ones solve the lagging
        # end alone until it passes
        if cells is not None:
            monkeypatch.setattr(spectral, "_BASIS_CELLS", cells)
        made, products = spectral._csr_product, []

        def counted(M):
            product = made(M)

            def step(v):
                products.append(1)
                return product(v)

            return step

        monkeypatch.setattr(spectral, "_csr_product", counted)
        with caplog.at_level(logging.DEBUG, logger="schreier"):
            assert rho0(random_perm_model(2, 2000, 0)).converged
        (record,) = [r for r in caplog.records if r.getMessage().startswith("matvec Lanczos, ")]
        _, m, first, replay, solved, _, _ = record.args
        assert first == m and first + replay == len(products)
        assert replay == {0: m - 1, 5 * 2000: m - 5, None: 0}[cells]
        assert m % 20 == 0 and solved < 2 * (m // 20)

    def test_a_checkpoint_solves_the_lagging_end_first(self, caplog):
        # the rule replayed from both ends' estimates at every checkpoint of
        # the first pass: after a checkpoint that solved both ends, the one
        # with the larger estimate is solved first, and the other only if it
        # passes (here the top end lags from step 20 until it passes at 220)
        g = random_perm_model(2, 2000, 3)
        with caplog.at_level(logging.DEBUG, logger="schreier"):
            rho0(g)
        (record,) = [r for r in caplog.records if r.getMessage().startswith("matvec Lanczos, ")]
        m, solved = record.args[1], record.args[4]
        M = spectral.markov_matrix(g)
        alpha, beta = [], []
        first = spectral._lanczos_vectors(
            spectral._csr_product(M), spectral._start_vector(g.n), alpha, beta
        )
        next(itertools.islice(first, m, None))

        def estimate(j, end):
            d, e = np.array(alpha[:j]), np.array(beta[: j - 1])
            return beta[j - 1] * abs(spectral._tridiagonal_pair(d, e, end % j)[1][-1])

        expected, lagging = 0, None
        for j in range(20, m + 1, 20):
            if lagging is not None:
                expected += 1
                if not estimate(j, lagging) < spectral._RESIDUAL_TOL:
                    continue
            estimates = {end: estimate(j, end) for end in (0, -1)}
            expected += 1 if lagging is not None else 2
            lagging = max(estimates, key=estimates.get)
        assert solved == expected

    def test_the_cap_solves_every_end(self):
        # neither end has converged at 60 steps: the checkpoint at 40 solves
        # the lagging end alone, and the cap solves both from T_60
        M = spectral.markov_matrix(random_perm_model(2, 2000, 0))
        product = spectral._csr_product(M)
        lams, res = spectral._lanczos(M, product, (0, -1), None, 60)
        assert math.isnan(res)
        alpha, beta = [], []
        first = spectral._lanczos_vectors(product, spectral._start_vector(M.shape[0]), alpha, beta)
        next(itertools.islice(first, 60, None))
        d, e = np.array(alpha), np.array(beta[:59])
        assert lams == [spectral._tridiagonal_pair(d, e, k)[0] for k in (0, 59)]

    def test_missed_residual_resumes_the_first_pass(self, monkeypatch, caplog):
        # a loose stopping estimate replays too early; the residual on M
        # misses and the first pass goes on until it holds
        monkeypatch.setattr(spectral, "_RESIDUAL_TOL", 1e-2)
        g = random_perm_model(2, 1000, 0)
        with caplog.at_level(logging.DEBUG, logger="schreier"):
            rep = rho0(g)
        assert rep.converged
        assert_dense_iterative_agree(g)
        residuals = [
            record.args[-1]
            for record in caplog.records
            if record.getMessage().startswith("matvec Lanczos, ")
        ]
        assert len(residuals) >= 2
        assert residuals[0] > spectral._CONVERGED_BOUND >= residuals[-1]

    @pytest.mark.parametrize("reason", ["residual", "collapse"])
    def test_shift_invert_fallback_is_logged(self, monkeypatch, caplog, reason):
        if reason == "residual":
            monkeypatch.setattr(spectral, "_SHIFT_INVERT_STEPS", 1)
            expected = "left residual nan on M"
        else:
            zero = mock.Mock(solve=np.zeros_like)
            monkeypatch.setattr(spectral, "_grounded_lu", lambda M, sign, order: zero)
            expected = "spectrum collapsed"
        with caplog.at_level(logging.DEBUG, logger="schreier"):
            rep = rho0(cycle_graph(501))
        assert rep.converged
        assert abs(rep.rho0 - cycle_rho0_exact(501)) < 1e-9
        messages = [record.getMessage() for record in caplog.records]
        fallback = [msg for msg in messages if msg.startswith("falling back")]
        assert len(fallback) == 1 and expected in fallback[0]
        assert messages[-1].startswith("matvec Lanczos, ")
        assert "Ritz estimate" in messages[-1] and "residual on M" in messages[-1]


class TestEstimateRhoReturns:
    def test_tree_first_terms(self):
        first, second = estimate_rho_returns(free_core(2), 4)
        assert first == 0.5
        assert abs(second - (7 / 64) ** 0.25) < 1e-15

    def test_tree_deep_horizon(self):
        bounds = estimate_rho_returns(free_core(2), 400)
        assert len(bounds) == 200
        assert abs(bounds[-1] - 0.850048000323) < 1e-9
        assert all(a <= b + 1e-15 for a, b in zip(bounds, bounds[1:]))

    @pytest.mark.parametrize(
        "spec",
        [
            "free:rank=2",
            "fold:a,rank=2",
            "fold:a,b,rank=3",
            "fold:a,b,rank=4",  # the bound state above √7/4
            "fold:a,b,rank=5",  # critical: the tree value
        ],
    )
    def test_deep_bound_stays_below_the_exact_rho(self, spec):
        # ρ of each core enclosed by the root count of ``core_rho``
        # (tests/test_walks.py::TestCoreRho pins the values); the bound at
        # horizon 400 lies below it, within 0.02
        core = from_spec(spec)
        _, low, high = core_rho(core)
        bound = estimate_rho_returns(core, 400)[-1]
        assert high - 0.02 <= bound <= low

    def test_the_whole_group_bound_never_exceeds_one(self):
        # one vertex, four loops: every c_n = 4^{2n} and ρ = 1, where the
        # float r_n lands on 1.0000000000000002 at many horizons
        whole = from_spec("fold:a,b,rank=2")
        for horizon in range(2, 401, 2):
            bounds = estimate_rho_returns(whole, horizon)
            assert max(bounds) <= 1.0, horizon
            assert bounds[-1] >= 1.0 - 1e-15

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rank=st.integers(1, 3), half=st.integers(1, 120))
    def test_every_bound_is_exactly_below_the_last_root(self, data, rank, half):
        """(r·d)^H ≤ c_{H/2} in rationals for every returned r: each is at
        most the exact r_{H/2}, and so at most ρ."""
        core = stallings_core(GenSet.free(rank), data.draw(reference.folded_words(rank)))
        horizon = 2 * half
        count = return_counts(core, core.root, horizon)[-1]
        bounds = estimate_rho_returns(core, horizon)
        assert all((Fraction(r) * core.degree) ** horizon <= count for r in bounds)
        assert bounds[-1] == max(bounds)

    def test_the_exact_check_steps_down_only_by_rounding(self):
        # (r·1)² ≤ 1: one ulp above 1 steps down to 1.0; far above, the float
        # path is wrong and nothing is returned
        assert spectral._at_most_root(math.nextafter(1.0, 2.0), 1, 1, 2) == 1.0
        assert spectral._at_most_root(0.75, 1, 1, 2) == 0.75
        with pytest.raises(AssertionError, match="r_1 lies over 64 ulps above"):
            spectral._at_most_root(1.01, 1, 1, 2)

    def test_loop_graph_vs_tree(self):
        loop = stallings_core(F2, [parse_word(F2, "a")])
        lo = estimate_rho_returns(loop, 200)[-1]
        tr = estimate_rho_returns(free_core(2), 200)[-1]
        assert abs(lo - 0.843676513481) < 1e-9
        assert abs(tr - 0.838605482430) < 1e-9
        assert abs((lo - tr) - 0.005071) < 1e-5

    def test_truncated_graph_route_matches_core(self):
        core = stallings_core(F2, [parse_word(F2, "a")])
        from schreier.builders import complete_ball

        g = complete_ball(core, 10)
        via_graph = estimate_rho_returns(g, 20)
        via_core = estimate_rho_returns(core, 20)
        assert via_graph == via_core
        with pytest.raises(InsufficientRadiusError):
            estimate_rho_returns(g, 22)

    def test_covering_inequality(self):
        # a Schreier graph returns at least as often as its Cayley cover
        tree_counts = return_counts(free_core(2), 0, 24)
        for words in (["a"], ["a^2", "b"], ["aba^-1"], ["a", "b^3"]):
            core = stallings_core(F2, [parse_word(F2, w) for w in words])
            counts = return_counts(core, core.root, 24)
            assert all(c >= t for c, t in zip(counts, tree_counts))

    def test_horizon_validation(self):
        with pytest.raises(ValueError, match="even"):
            estimate_rho_returns(free_core(2), 7)
        with pytest.raises(ValueError, match="even"):
            estimate_rho_returns(free_core(2), 0)


class TestMonotonicityRecheck:
    """One exact test certifies the bound: the even return counts, c_0 = 1
    included, must be log-convex, c_k² ≤ c_{k−1}·c_{k+1}, which makes
    c_{k+1}^k ≥ c_k^{k+1} on every pair."""

    def test_gap_below_float_resolution_is_caught_exactly(self, monkeypatch):
        p2 = 2**400 + 1
        p4 = p2**2 - 1  # p4 < p2², by less than any float can see
        assert 1 * math.log(p4) - 2 * math.log(p2) == 0.0
        monkeypatch.setattr(
            spectral, "return_counts", lambda source, x, horizon: (1, 0, p2, 0, p4)
        )
        with pytest.raises(InequalityViolation, match="at 2n = 2$"):
            estimate_rho_returns(free_core(2), 4)

    def test_constant_sequence_passes(self):
        # one vertex, every label a loop: every walk returns, r_n = 1 and
        # every pair is an equality
        loops = SchreierGraph(gens=F2, table=((0, 0, 0, 0),))
        assert all(abs(r - 1.0) < 1e-12 for r in estimate_rho_returns(loops, 60))

    @given(st.integers(2, 16), st.lists(st.integers(-1, 1), min_size=2, max_size=40))
    def test_raises_exactly_on_violations(self, m, deltas):
        # c_k = m^k ± 1, at most 4^{2k} as on the tree core: every pair
        # within a unit of equality, past float resolution once m^k > 2^53
        evens = [min(m**k + delta, 16**k) for k, delta in enumerate(deltas, start=1)]
        counts = [1]
        for c in evens:
            counts += [0, c]
        c = [1, *evens]
        convexity = [k for k in range(1, len(evens)) if c[k] ** 2 > c[k - 1] * c[k + 1]]
        monotonicity = [
            k for k in range(1, len(evens)) if evens[k] ** k < evens[k - 1] ** (k + 1)
        ]
        assert convexity or not monotonicity  # the check only got stronger
        with mock.patch.object(
            spectral, "return_counts", lambda source, x, horizon: tuple(counts)
        ):
            if convexity:
                with pytest.raises(
                    InequalityViolation, match=f"at 2n = {2 * convexity[0]}$"
                ):
                    estimate_rho_returns(free_core(2), 2 * len(evens))
            else:
                estimate_rho_returns(free_core(2), 2 * len(evens))


class TestLogConvexity:
    """Genuine return counts are log-convex, c_k² ≤ c_{k−1}·c_{k+1} with
    c_0 = 1, on cores, finite graphs and the tree at every horizon."""

    @staticmethod
    def assert_log_convex(source, horizon: int) -> None:
        c = return_counts(source, source.root, horizon)[::2]
        assert c[0] == 1
        assert all(c[k] ** 2 <= c[k - 1] * c[k + 1] for k in range(1, len(c) - 1))
        estimate_rho_returns(source, horizon)

    @given(st.data(), st.integers(1, 3), st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_folded_cores(self, data, rank, half):
        words = data.draw(reference.folded_words(rank))
        self.assert_log_convex(stallings_core(GenSet.free(rank), words), 2 * half)

    @given(st.integers(1, 3), st.integers(1, 200), st.integers(0, 2**16),
           st.integers(1, 100))
    @settings(max_examples=30, deadline=None)
    def test_random_perm_graphs(self, m, n, seed, half):
        self.assert_log_convex(random_perm_model(m, n, seed), 2 * half)

    @pytest.mark.parametrize("horizon", [4, 40, 200])
    def test_lps_5_13(self, horizon):
        self.assert_log_convex(lps_graph(5, 13), horizon)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_tree_cores(self, d):
        self.assert_log_convex(tree_core(d), 200)


class TestTreeRho:
    def test_reference_values(self):
        assert tree_rho(4) == 0.8660254037844386
        assert tree_rho(3) == 0.9428090415820635
        assert tree_rho(2) == 1.0
        assert tree_rho(18) == 0.4581228472908512

    @pytest.mark.parametrize("d", list(range(3, 11)))
    def test_closed_form(self, d):
        assert abs(tree_rho(d) - 2 * math.sqrt(d - 1) / d) < 1e-12

    @pytest.mark.parametrize("d", [27, 54, 61])
    def test_closed_form_at_large_degree(self, d):
        # tree_core(d) labels its slots uniquely past 26 letters
        assert abs(tree_rho(d) - 2 * math.sqrt(d - 1) / d) < 1e-12

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            tree_rho(1)

    @pytest.mark.parametrize("d", [*range(3, 11), 18, 27])
    def test_tree_return_counts_agree(self, d):
        # the certified lower bound from exact return counts stays below the
        # closed form and close to it
        bound = estimate_rho_returns(tree_core(d), 160)[-1]
        assert bound <= tree_rho(d) + 1e-12
        assert tree_rho(d) - bound <= 0.05


HOLDS = Verdict(True, "lanczos-residual")
FAILS = Verdict(False, "lanczos-residual")


class TestRamanujan:
    def test_petersen(self):
        v = ramanujan_check(petersen_graph())
        assert v.ramanujan == v.ramanujan_strict == HOLDS
        assert v.equality == FAILS
        assert abs(v.threshold - 0.942809041582) < 1e-12

    def test_cycle_equality_case(self):
        v = ramanujan_check(cycle_graph(4))
        assert v.ramanujan == HOLDS
        assert v.equality == HOLDS
        assert v.threshold == 1.0
        # the strict reading drops the bipartite −1 and sails under
        assert v.ramanujan_strict == HOLDS

    def test_long_even_cycle_equality_case(self):
        v = ramanujan_check(cycle_graph(5000))
        assert v.ramanujan == v.ramanujan_strict == v.equality == HOLDS

    def test_lps_17_13(self):
        v = ramanujan_check(lps_graph(17, 13))
        assert v.ramanujan == v.ramanujan_strict == HOLDS
        assert abs(v.report.rho0 - 0.436158615) < 1e-6
        assert v.report.rho0 <= v.threshold + 1e-6

    def test_unconverged_solver_leaves_the_verdict_undecided(self, monkeypatch):
        # no shift-invert, and the matvec recurrence stops after one step
        monkeypatch.setattr(spectral, "_banded_order", lambda M, n: None)
        monkeypatch.setattr(spectral, "_ITERATION_CAP", 1)
        v = ramanujan_check(cycle_graph(501))
        assert not v.report.converged and math.isnan(v.report.error_bound)
        undecided = Verdict(None, "undecided")
        assert v.ramanujan == v.ramanujan_strict == v.equality == undecided

    def test_doubled_cycle_is_not_ramanujan(self):
        # Z/41 with the shift taken twice: 4-regular but spectrally a cycle
        shift = tuple((i + 1) % 41 for i in range(41))
        act = PermAction.from_generator_perms([shift, shift], [], ["a", "b"])
        v = ramanujan_check(from_perm_action(act))
        assert v.ramanujan == v.ramanujan_strict == FAILS
        assert abs(v.report.rho0 - cycle_rho0_exact(41)) < 1e-9


class TestAveragedOperators:
    """The averaged operator itself is a test oracle (``reference``); the
    package answers its questions from the support's table."""

    def test_s3_rotation_support(self):
        act = s3_regular()
        graph, index = support_copies(act, ["c", "C"])
        assert (graph.n, index) == (3, 2)
        assert abs(reference.distribution_operator_norm(act, ["c", "C"]) - 1.0) < 1e-12
        evs = np.linalg.eigvalsh(reference.averaged_operator(act, ["c", "C"]))
        assert np.allclose(evs, [-0.5, -0.5, -0.5, -0.5, 1.0, 1.0], atol=1e-12)
        assert np.allclose(evs, np.sort(np.tile(markov_spectrum(graph), index)), atol=1e-12)

    def test_spectrum_is_index_copies(self):
        act = z6_regular()
        for support in (["a", "A"], ["b", "B"], ["m"], ["a", "A", "m"]):
            sub, index = support_copies(act, support)
            assert index == act.degree // sub.n
            copies = sorted(list(markov_spectrum(sub)) * index)
            evs = np.linalg.eigvalsh(reference.averaged_operator(act, support))
            assert np.allclose(evs, copies, atol=1e-9)

    def test_multiset_support(self):
        act = s3_regular()
        single = reference.averaged_operator(act, ["c", "C"])
        doubled = reference.averaged_operator(act, ["c", "C", "c", "C"])
        assert np.allclose(single, doubled)
        sub = support_subgroup_graph(act, ["c", "C", "c", "C"])
        assert sub.degree == 4
        assert sub.n == 3
        assert support_copies(act, ["c", "C", "c", "C"]) == (sub, 2)

    def test_identity_entries(self):
        act = z6_regular()
        lazy = reference.averaged_operator(act, ["e", "a", "A", None])
        evs = np.linalg.eigvalsh(lazy)
        # (I + P + P⁻¹ + I)/4 = (I + cos-spectrum)/2 shifted: top is 1
        assert abs(evs[-1] - 1.0) < 1e-12
        assert product_return_bound(act, [["e", "a", "A", None]]).norms == (1.0,)
        sub, index = support_copies(act, ["e", "a", "A", None])
        assert np.allclose(evs, sorted(list(markov_spectrum(sub)) * index), atol=1e-12)

    def test_asymmetric_support_rejected(self):
        for check in (support_copies, lambda act, s: product_return_bound(act, [s])):
            with pytest.raises(ValueError, match="not symmetric"):
                check(s3_regular(), ["c"])

    def test_empty_support_rejected(self):
        for check in (support_copies, lambda act, s: product_return_bound(act, [s])):
            with pytest.raises(ValueError, match="empty"):
                check(s3_regular(), [])


class TestProductReturnBound:
    def test_lazy_coin(self):
        act = PermAction.from_generator_perms([], [(1, 0)], involution_names=["t"])
        rep = product_return_bound(act, [["e", "t"], ["e", "t"]])
        assert rep.probability == Fraction(1, 2)
        assert rep.norms == (1.0, 1.0)

    def test_deterministic_involution_squared(self):
        act = s3_regular()
        rep = product_return_bound(act, [["t01"], ["t01"]])
        assert rep.probability == 1
        assert rep.bound == pytest.approx(1.0)

    def test_two_transpositions(self):
        rep = product_return_bound(s3_regular(), [["t01", "t02"], ["t01", "t02"]])
        assert rep.probability == Fraction(1, 2)
        assert all(abs(x - 1.0) < 1e-12 for x in rep.norms)

    @pytest.mark.parametrize("base", [-1, 6, 7])
    def test_base_outside_the_points_refused(self, base):
        message = rf"point {base} is not a point of the action \(0\.\.5\)"
        with pytest.raises(ValueError, match=message):
            product_return_bound(s3_regular(), [["c", "C"]], base)

    def test_violation_guard(self):
        with pytest.raises(InequalityViolation, match="exceeds the norm"):
            ProductReturnBound(degree=2, probability=Fraction(1), norms=(0.5,))

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        steps=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_supports_never_violate(self, seed, steps):
        import random

        rng = random.Random(seed)
        act = z6_regular()
        pool = [["a", "A"], ["b", "B"], ["m"], ["e", "m"], ["a", "A", "m"]]
        supports = [rng.choice(pool) for _ in range(steps)]
        rep = product_return_bound(act, supports)
        assert 0 <= rep.probability <= 1

    def test_exact_convolution_against_brute_force(self):
        act = s3_regular()
        supports = [["t01", "t02"], ["c", "C"]]
        rep = product_return_bound(act, supports)
        hits = 0
        total = 0
        for s1 in supports[0]:
            for s2 in supports[1]:
                g1 = act.slots[:, act.gens.index(s1)]
                g2 = act.slots[:, act.gens.index(s2)]
                total += 1
                if g2[g1[0]] == 0:
                    hits += 1
        assert rep.probability == Fraction(hits, total)


def _outcome(f, *args):
    """What ``f(*args)`` returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (ValueError, KeyError, GraphInvariantError) as exc:
        return type(exc), str(exc)


class TestSupportAction:
    """The support paths read one support action; the former paths, one per
    reader, are the oracles."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_subgroup_graph_matches_the_pairing_search(self, data):
        act = data.draw(reference.support_actions())
        support = data.draw(reference.supports(act.gens, defects=True))
        base = data.draw(st.integers(0, act.degree - 1))
        got = _outcome(support_subgroup_graph, act, support, base)
        want = _outcome(reference.support_subgroup_graph, act, support, base)
        assert got == want  # graphs: equal alphabets and slot tables

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_return_bound_equals_the_fraction_convolution(self, data):
        act = data.draw(reference.support_actions())
        supports = data.draw(
            st.lists(reference.supports(act.gens, defects=True), min_size=0, max_size=3)
        )
        base = data.draw(st.integers(0, act.degree - 1))
        got = _outcome(product_return_bound, act, supports, base)
        want = _outcome(reference.product_return_bound, act, supports, base)
        if isinstance(want, ProductReturnBound):
            # the norms are exact 1s against the oracle's dense eigensolve,
            # which test_every_norm_is_one compares
            assert (got.degree, got.probability) == (want.degree, want.probability)
            assert type(got.probability) is Fraction
        else:
            assert got == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_norm_is_one(self, data):
        # symmetric and doubly stochastic: the bound of modifiedrw is 1
        act = data.draw(reference.support_actions())
        support = data.draw(reference.supports(act.gens))
        dense = reference.distribution_operator_norm(act, support)
        assert abs(dense - 1.0) <= 1e-12
        norms = product_return_bound(act, [support, support]).norms
        assert norms == (1.0, 1.0)
        assert max(abs(x - dense) for x in norms) <= 1e-12


@st.composite
def regular_actions(draw) -> PermAction:
    """The regular action of the group that one to three random
    permutations of 1-5 points generate: a label pair for each, or an
    involution for one that squares to the identity."""
    k = draw(st.integers(1, 5))
    perms = st.lists(st.permutations(range(k)), min_size=1, max_size=3)
    elements = [tuple(p) for p in draw(perms)]
    square = [builders._compose(p, p) == tuple(range(k)) for p in elements]
    return builders.regular_action(
        [p for p, sq in zip(elements, square) if not sq],
        [p for p, sq in zip(elements, square) if sq],
    )


class TestSupportCopies:
    """``support_copies`` decides from the support's table that the dense
    averaged operator is index copies of the subgroup graph's."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_regular_actions_are_copies(self, data):
        act = data.draw(regular_actions())
        support = data.draw(reference.supports(act.gens))
        graph, index = support_copies(act, support)
        assert graph == support_subgroup_graph(act, support)
        assert graph.n * index == act.degree
        evs = np.linalg.eigvalsh(reference.averaged_operator(act, support))
        assert np.allclose(evs, np.sort(np.tile(markov_spectrum(graph), index)), atol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_copies_agree_with_the_dense_spectrum(self, data):
        act = data.draw(reference.support_actions())
        support = data.draw(reference.supports(act.gens))
        got = _outcome(support_copies, act, support)
        if isinstance(got[0], SchreierGraph):
            graph, index = got
            evs = np.linalg.eigvalsh(reference.averaged_operator(act, support))
            tiled = np.sort(np.tile(markov_spectrum(graph), index))
            assert np.allclose(evs, tiled, atol=1e-9)
        else:
            assert got[0] is ValueError and "needs a regular action" in got[1]

    def test_same_size_orbits_that_are_not_copies_refused(self):
        # the last orbit's root has the base root's row; m fixes 5 and 7
        # there, while it moves every point of the first orbit
        with pytest.raises(ValueError, match="needs a regular action"):
            support_copies(reference.orbits_apart(copies=False), ["a", "A", "m"])
        graph, index = support_copies(reference.orbits_apart(copies=True), ["a", "A", "m"])
        assert (graph.n, index) == (4, 2)
