"""Acceptance gate: twelve numbered desk-scale criteria, one test each.

Every test prints a single ``ACCEPTANCE NN (...): PASS``/``FAIL`` line
through the conftest hook.  Tolerances and time caps are pinned in the
asserts; randomized criteria fix their seeds, so the whole gate is
deterministic.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import reference

from schreier.builders import (
    _quaternion_solutions,
    complete_ball,
    cycle_graph,
    free_core,
    from_spec,
    lps_graph,
    random_perm_action,
    restrict_to_orbit,
    tree_core,
)
from schreier.core import GenSet, Word
from schreier.cycles import cycle_counts, girth
from schreier.experiments import alon_boppana, kesten_amenable
from schreier.irs import invariance_diagnostic, uniform_conjugate
from schreier.local import local_approx_check
from schreier.spectral import (
    averaged_operator,
    distribution_operator_norm,
    markov_spectrum,
    product_return_bound,
    ramanujan_check,
    rho0,
    support_subgroup_graph,
    tree_rho,
)
from schreier.walks import (
    conditioned_prefix_probabilities,
    return_counts,
    return_domination_reports,
    segment_distributions,
)

TREE4 = 3**0.5 / 2  # spectral radius of the 4-regular tree, 0.86602540...


def test_01_exact_cycle_and_petersen_spectra():
    started = time.perf_counter()
    for n in range(3, 1001):
        computed = rho0(cycle_graph(n)).rho0
        oracle = max(abs(math.cos(2 * math.pi * k / n)) for k in range(1, n))
        assert abs(computed - oracle) <= 1e-9, f"C_{n}: {computed} vs {oracle}"
    petersen = rho0(from_spec("petersen")).rho0
    assert abs(petersen - 2 / 3) <= 1e-9
    assert time.perf_counter() - started < 10.0


def test_02_return_exponent_convergence():
    started = time.perf_counter()
    counts = return_counts(free_core(2), 0, 400)
    # r_n = (p_{2n})^{1/2n} nondecreasing, in exact integer arithmetic:
    # r_n <= r_{n+1}  <=>  c_{2n}^{n+1} <= c_{2n+2}^{n}.
    for n in range(1, 100):
        assert counts[2 * n] ** (n + 1) <= counts[2 * n + 2] ** n, f"r_{n} > r_{n + 1}"
    # every r_n stays below the tree value sqrt(3)/2 = (2 sqrt 3)/4,
    # i.e. c_{2n} <= 12^n exactly.
    for n in range(1, 201):
        assert counts[2 * n] <= 12**n
    r200 = math.exp(math.log(counts[400]) / 400) / 4
    assert 0.84 <= r200 <= 0.86603
    assert abs(r200 - 0.850048000323) <= 1e-9
    assert abs(tree_rho(4) - TREE4) <= 1e-12
    assert time.perf_counter() - started < 60.0


def test_03_return_count_domination():
    evens = list(range(2, 13, 2))
    for m in range(3, 21):
        reports = return_domination_reports(cycle_graph(m), 12)
        assert [report.n for report in reports] == evens
        for report in reports:
            assert report.return_count > 0
    for spec in ("s3", "klein"):
        reports = return_domination_reports(from_spec(spec), 12)
        assert [report.n for report in reports] == evens
    ball = complete_ball(free_core(2), 12)
    on_balls = return_domination_reports(ball, 12, vertex_transitive=True)
    on_trees = return_domination_reports(tree_core(4), 12, vertex_transitive=True)
    assert [report.n for report in on_balls] == [report.n for report in on_trees] == evens
    for on_ball, on_tree in zip(on_balls, on_trees):
        assert on_ball.return_count == on_tree.return_count
        assert on_ball.max_other_count == on_tree.max_other_count


def test_04_shift_invariance_and_prefix_floor():
    for n in range(1, 9):
        radius = max(1, (n + 1) // 2)
        ball = complete_ball(free_core(2), radius)
        total, laws = segment_distributions(ball, ball.root, n, min(3, n))
        words = reference.returning_words(ball, ball.root, n)
        assert total == len(words)
        if n % 2:
            assert total == 0
            continue
        for k, by_shift in laws.items():
            law = {s: Fraction(c, total) for s, c in by_shift[0].items()}
            assert law == reference.segment_distribution(words, n, 0, k)
            for t in range(1, n):
                assert by_shift[t] == by_shift[0]
        _, rows = conditioned_prefix_probabilities(
            ball, ball.root, n, min(3, (n - 1) // 2), vertex_transitive=True
        )
        probabilities = dict(rows)
        for k in range(1, min(3, (n - 1) // 2) + 1):
            floor = Fraction(1, 4 ** (2 * k))
            for letters in product(range(4), repeat=k):
                p = probabilities[Word(letters)]
                assert p >= floor, f"n={n} prefix {letters}: {p} < {floor}"


def test_05_conditioned_prefix_floor():
    g = complete_ball(free_core(2), 6)
    for n in (4, 6):
        _, rows = conditioned_prefix_probabilities(g, g.root, n, 2, vertex_transitive=True)
        probabilities = dict(rows)
        for l in (1, 2):
            floor = Fraction(1, 4 ** (2 * l))
            for letters in product(range(4), repeat=l):
                p = probabilities[Word(letters)]
                assert p >= floor, f"n={n} prefix {letters}: {p} < {floor}"


def _random_symmetric_support(gens: GenSet, rng: random.Random) -> list[str | None]:
    support: list[str | None] = []
    for l in range(gens.degree):
        partner = gens.inv[l]
        if partner < l:
            continue
        count = rng.randrange(3)
        if partner == l:
            support += [gens.labels[l]] * count
        else:
            support += [gens.labels[l], gens.labels[partner]] * count
    support += [None] * rng.randrange(3)
    if not support:
        support.append(None)
    rng.shuffle(support)
    return support


SUBGROUP_SUPPORTS = {
    "regular:s3": (["c", "C"], ["t01"], ["c", "C", "t01", "t02", "t12"]),
    "regular:z6": (["m"], ["b", "B"], ["a", "A"]),
}


def test_06_support_product_bound_and_subgroup_spectrum():
    from schreier.builders import action_from_spec

    for spec, subgroup_supports in SUBGROUP_SUPPORTS.items():
        act = action_from_spec(spec)
        rng = random.Random(2026)
        for _ in range(20):
            supports = [
                _random_symmetric_support(act.gens, rng)
                for _ in range(rng.randrange(1, 4))
            ]
            bound = product_return_bound(act, supports)
            assert float(bound.probability) <= bound.bound + 1e-9
        for support in subgroup_supports:
            norm = distribution_operator_norm(act, support)
            subgraph = support_subgroup_graph(act, support)
            assert act.degree % subgraph.n == 0
            index = act.degree // subgraph.n
            sub = np.asarray(markov_spectrum(subgraph))
            full = np.sort(np.linalg.eigvalsh(averaged_operator(act, support)))
            expected = np.sort(np.tile(sub, index))
            assert float(np.max(np.abs(full - expected))) <= 1e-9
            assert abs(norm - max(abs(sub[0]), abs(sub[-1]))) <= 1e-9


def test_07_local_approximation_bounds():
    rng = random.Random(2026)
    for seed in range(1, 51):
        n = rng.randrange(50, 1001)
        act = restrict_to_orbit(random_perm_action(2, n, seed=seed))
        for radius in (1, 2, 3):
            (report,) = local_approx_check([act], radius)
            assert report.words_complete
            ceiling = 1 - report.tree_ball_probability
            assert all(d <= ceiling for _, d in report.densities)
            assert report.tree_ball_probability >= 1 - report.density_sum


def test_08_amenable_direction_spectral_agreement():
    started = time.perf_counter()
    report = kesten_amenable(horizon=200)
    assert abs(report["schreier_estimate"] - 0.843676513481) <= 1e-9
    assert abs(report["cayley_estimate"] - 0.838605482430) <= 1e-9
    assert report["gap"] <= 0.02
    assert report["schreier_estimate"] < 0.86603
    assert report["cayley_estimate"] < 0.86603
    assert time.perf_counter() - started < 120.0


def test_09_conjugation_invariance_of_stabilizer_ensembles():
    for seed in range(1, 21):
        n = 20 + (seed * 7) % 40
        act = restrict_to_orbit(random_perm_action(2, n, seed=seed))
        ensemble = uniform_conjugate(act)
        for radius in (1, 2, 3):
            diag = invariance_diagnostic(ensemble, radius)
            assert diag.max_tv == 0
            for name, tv in diag.per_generator:
                assert tv == Fraction(0), f"seed {seed} R={radius} move {name}"


def _hamilton(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _trace_census(g):
    """(c1, c2, c3, c4) of a simple d-regular graph from tr(A^3) = 6 c3 and
    tr(A^4) = 8 c4 + n d (2d - 1), on the dense adjacency matrix.  Entries of
    A^2 are at most d and the traces at most n d^4 < 2^53, so float64 is exact."""
    n, d = g.n, g.degree
    A = np.zeros((n, n))
    for v, row in enumerate(g.next):
        for w in row:
            A[v, w] += 1
    assert A.max() == 1 and not A.diagonal().any(), "graph is not simple"
    A2 = A @ A
    tr3 = int((A2 * A).sum())
    tr4_cycles = int((A2 * A2).sum()) - n * d * (2 * d - 1)
    assert tr3 % 6 == 0 and tr4_cycles % 8 == 0
    return (0, 0, tr3 // 6, tr4_cycles // 8)


def test_10_ramanujan_certification():
    # LPS(17, 13) is certified Ramanujan.  Its girth is 3, not large: the
    # LPS girth bound 2 log_p q is 1.81 for p = 17 > q = 13, and (1 - 4i)^3 =
    # -47 + 52i with 52 = 4 * 13, so the six generators from (1, ±4, 0, 0),
    # (1, 0, ±4, 0), (1, 0, 0, ±4) are scalar when cubed: order 3 in PSL(2, 13).
    started = time.perf_counter()
    g = lps_graph(17, 13)
    verdict = ramanujan_check(g)
    assert verdict.report.rho0 <= 2 * math.sqrt(17) / 18 + 1e-6
    assert verdict.ramanujan
    quats = _quaternion_solutions(17)
    scalar_cube = [
        all(c % 13 == 0 for c in _hamilton(x, _hamilton(x, x))[1:]) for x in quats
    ]
    order_three = [
        all(g.next[g.next[g.next[v][l]][l]][l] == v for v in range(g.n))
        for l in range(g.degree)
    ]
    assert order_three == scalar_cube
    assert [l for l in range(g.degree) if order_three[l]] == list(range(6))
    census = _trace_census(g)
    # three inverse label pairs of order 3 give n/3 triangles each
    assert census[2] >= g.n
    got_girth = girth(g)
    counts = cycle_counts(g, 4)
    assert got_girth == 3, f"girth is {got_girth}"
    assert counts == census, f"census {counts} != trace census {census}"

    # PGL(2, 13) with p = 5: bipartite, and LPS guarantee girth at least
    # 4 log_p q - log_p 4 = 5.51 there.
    h = lps_graph(5, 13)
    h_verdict = ramanujan_check(h)
    assert h_verdict.ramanujan_strict
    h_girth = girth(h)
    h_counts = cycle_counts(h, 4)
    assert time.perf_counter() - started < 300.0
    assert h_girth >= 4 * math.log(13, 5) - math.log(4, 5), f"girth is {h_girth}"
    assert h_girth >= 5, f"girth is {h_girth}"
    assert h_counts[2] == 0, f"c_3 = {h_counts[2]}"
    assert h_counts[3] == 0, f"c_4 = {h_counts[3]}"


@pytest.fixture(scope="module")
def perm_model_sweep():
    return alon_boppana(sizes=(100, 1000, 10000), seeds=(1, 2, 3, 4, 5), lmax=5)


def test_11_essentially_large_girth_trend(perm_model_sweep):
    by_size = {row["size"]: row for row in perm_model_sweep["summary"]}
    assert abs(by_size[10000]["rho0_median"] - TREE4) <= 0.05
    for length in (3, 4, 5):
        medians = [by_size[n]["density_medians"][length - 1] for n in (100, 1000, 10000)]
        assert medians[0] >= medians[1] >= medians[2], f"L={length}: {medians}"
        assert medians[0] >= 5 * medians[2], f"L={length} dropped less than 5x"


def test_12_alon_boppana_floor(perm_model_sweep):
    by_size = {row["size"]: row for row in perm_model_sweep["summary"]}
    assert by_size[10000]["rho0_min"] >= 0.81
