"""Named experiment recipes, each returning a report dict of exact
``Fraction``s and unrounded floats.

These are the desk-scale versions of the phenomena the library is built
around: spectral-radius agreement between a Cayley graph and the
Schreier graph of an amenable subgroup, its failure scale for a
nonamenable subgroup, the strict inequality for finite-index actions,
the asymptotic lower bound for ρ₀ along random regular sequences, and
Ramanujan verification next to short-cycle densities.  Reports embed
the exact configuration that produced them.  A return-count estimate is
the best of ``estimate_rho_returns``'s certified lower bounds, its last.
Each verdict in a report is a ``Verdict``, its answer with the
certificate that says how it was reached; a sweep over seeds counts its
verdicts per size (certified, refuted, neither) and judges no statistic
of them.  The CLI's walk (``cli.plain``) writes each verdict as its
boolean and lists it in the document's ``verdicts`` block; it writes each
float to 12 significant digits and each ``Fraction`` as its numerator and
denominator.
"""

from __future__ import annotations

import statistics
from fractions import Fraction

from schreier.builders import (
    free_core,
    lps_graph,
    random_perm_action,
    random_perm_model,
    restrict_to_orbit,
    stallings_core,
)
from schreier.core import GenSet, Verdict, parse_word
from schreier.cycles import cycle_counts
from schreier.irs import invariance_diagnostic, uniform_conjugate
from schreier.spectral import estimate_rho_returns, ramanujan_check, tree_rho

__all__ = [
    "kesten_amenable",
    "kesten_finite_irs",
    "nonamenable_subgroup_counterexample",
    "alon_boppana",
    "ramanujan_girth",
    "EXPERIMENTS",
]


def _matched_horizon(rank: int, words: list[str], horizon: int) -> tuple[dict, float, float]:
    """Return-count estimates at one horizon on the core of the subgroup the
    words generate in the rank-``rank`` free group and on its Cayley graph:
    the ``schreier_*``, ``cayley_*`` and ``gap`` report fields, then the
    two estimates."""
    gens = GenSet.free(rank)
    folded = stallings_core(gens, [parse_word(gens, w) for w in words])
    schreier = estimate_rho_returns(folded, horizon)[-1]
    cayley = estimate_rho_returns(free_core(rank), horizon)[-1]
    fields = {
        "schreier_estimate": schreier,
        "cayley_estimate": cayley,
        "gap": abs(schreier - cayley),
    }
    return fields, schreier, cayley


def kesten_amenable(horizon: int = 200) -> dict:
    """Spectral-radius estimates for the coset graph of the cyclic subgroup
    generated by one free letter of the rank-2 free group, against the
    Cayley graph itself, at matched horizons.

    The subgroup is infinite cyclic, hence amenable, so the two spectral
    radii agree in the limit; at any finite horizon both estimates are
    certified lower bounds and the report carries their gap.
    """
    fields, schreier, cayley = _matched_horizon(2, ["a"], horizon)
    return {
        "experiment": "kesten-amenable",
        "config": {"horizon": horizon, "subgroup": "one free letter of rank 2"},
        **fields,
        "limit_value": tree_rho(4),
        "both_below_limit": Verdict(
            schreier < tree_rho(4) and cayley < tree_rho(4), "heuristic"
        ),
    }


def kesten_finite_irs(n: int = 20, seed: int = 3, radius: int = 2) -> dict:
    """The uniform-conjugate ensemble of a finite transitive action is
    conjugation-invariant, and its Schreier graphs keep eigenvalue 1, so the
    walk does not decay: spectral radius 1, strictly above the free-group
    Cayley estimate.  The strict-inequality direction at finite index.  The
    radius is 1 by theorem, not solved for: M fixes 𝟙 and ‖M‖ ≤ 1."""
    act = restrict_to_orbit(random_perm_action(2, n, seed))
    ensemble = uniform_conjugate(act)
    diag = invariance_diagnostic(ensemble, radius)
    return {
        "experiment": "kesten-finite-irs",
        "config": {"n": n, "seed": seed, "radius": radius},
        "orbit_size": act.degree,
        "invariance_max_tv": diag.max_tv,
        "schreier_spectral_radius": 1.0,
        "cayley_spectral_radius": tree_rho(4),
        "strict_inequality": Verdict(True, "theorem"),
    }


def nonamenable_subgroup_counterexample(
    horizon: int = 300, tolerance: float = 0.02, rank: int = 5
) -> dict:
    """The subgroup spanned by the first two letters of a free group is
    itself free of rank 2 — as nonamenable as it gets — yet for rank ≥ 5
    its coset graph keeps the full Cayley spectral radius 2√(2r−1)/(2r):
    the four loops at the root are too weak a defect to push an eigenvalue
    out of the band.  Matched-horizon estimates for both graphs.

    Below rank 5 the defect does create a bound state (rank 4 has spectral
    radius exactly 2/3 > √7/4, from the root's first-return generating
    function), and the report flags it: the certified Schreier bound then
    climbs past the Cayley limit value.
    """
    if rank < 3:
        raise ValueError("the subgroup uses the first two of at least three letters")
    fields, schreier, cayley = _matched_horizon(rank, ["a", "b"], horizon)
    limit = tree_rho(2 * rank)
    return {
        "experiment": "nonamenable-subgroup-counterexample",
        "config": {"horizon": horizon, "tolerance": tolerance, "rank": rank},
        **fields,
        "limit_value": limit,
        "estimates_within_tolerance": Verdict(
            abs(schreier - cayley) <= tolerance, "heuristic"
        ),
        "bound_state_detected": Verdict(schreier > limit + 1e-12, "heuristic"),
    }


def _sweep(
    sizes: tuple[int, ...], seeds: tuple[int, ...], lmax: int
) -> tuple[dict, list[Verdict]]:
    """``alon_boppana``'s report, and the Ramanujan verdict of each of its
    runs, from the one solve that gave the run its ρ₀."""
    for flag, values in (("--sizes", sizes), ("--seeds", seeds)):
        if not values:
            raise ValueError(f"{flag} is empty, which leaves nothing to measure")
    runs = []
    verdicts = []
    for size in sizes:
        for seed in seeds:
            g = random_perm_model(2, size, seed)
            check = ramanujan_check(g)
            verdicts.append(check.ramanujan)
            counts = cycle_counts(g, lmax)
            runs.append(
                {
                    "size": size,
                    "seed": seed,
                    "n": g.n,
                    "rho0": check.report.rho0,
                    "cycle_counts": list(counts),
                    "cycle_densities": [c / g.n for c in counts],
                }
            )
    summary = []
    for size in sizes:
        rows = [r for r in runs if r["size"] == size]
        summary.append(
            {
                "size": size,
                "rho0_median": statistics.median([r["rho0"] for r in rows]),
                "rho0_min": min(r["rho0"] for r in rows),
                "density_medians": [
                    statistics.median([r["cycle_densities"][i] for r in rows])
                    for i in range(lmax)
                ],
            }
        )
    return {
        "experiment": "alon-boppana",
        "config": {"sizes": list(sizes), "seeds": list(seeds), "lmax": lmax},
        "tree_value": tree_rho(4),
        "runs": runs,
        "summary": summary,
    }, verdicts


def alon_boppana(
    sizes: tuple[int, ...] = (100, 1000, 10_000),
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    lmax: int = 5,
) -> dict:
    """ρ₀ of 4-regular random Schreier graphs against the tree value, with
    short-cycle densities alongside: the spectral floor rises toward
    2√3/4 while the cycle densities fall off like 1/n.  A sweep with no
    sizes or no seeds measures nothing, and is refused."""
    return _sweep(sizes, seeds, lmax)[0]


def ramanujan_girth(
    sizes: tuple[int, ...] = (100, 1000, 10_000),
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    lmax: int = 5,
) -> dict:
    """Ramanujan verdicts and cycle densities side by side: the random
    4-regular sequence, plus the 18-regular arithmetic graph on 1092
    vertices (Ramanujan with margin, but with three triangles through
    every vertex at these parameters).

    Each size counts its seeds' verdicts: ``certified`` true under a
    certificate that proves it (a ``lanczos-residual`` true proves
    nothing), ``refuted`` false, and ``neither``, undecided or unproved."""
    base, verdicts = _sweep(sizes, seeds, lmax)
    random_rows = []
    for row in base["summary"]:
        found = [v for run, v in zip(base["runs"], verdicts) if run["size"] == row["size"]]
        certified = sum(v.value is True and v.certificate != "lanczos-residual" for v in found)
        refuted = sum(v.value is False for v in found)
        random_rows.append(
            {
                "size": row["size"],
                "rho0_median": row["rho0_median"],
                "threshold": tree_rho(4),
                "certified": certified,
                "refuted": refuted,
                "neither": len(found) - certified - refuted,
                "density_medians": row["density_medians"],
            }
        )
    lps = lps_graph(17, 13)
    verdict = ramanujan_check(lps)
    lps_counts = cycle_counts(lps, lmax)
    return {
        "experiment": "ramanujan-girth",
        "config": base["config"] | {"lps": {"p": 17, "q": 13}},
        "random_model": random_rows,
        "lps": {
            "n": lps.n,
            "degree": lps.gens.degree,
            "rho0": verdict.report.rho0,
            "threshold": verdict.threshold,
            "verdict": verdict.ramanujan,
            "cycle_counts": list(lps_counts),
            "cycle_densities": [Fraction(c, lps.n) for c in lps_counts],
        },
    }


EXPERIMENTS = {
    "kesten-amenable": kesten_amenable,
    "kesten-finite-irs": kesten_finite_irs,
    "nonamenable-subgroup-counterexample": nonamenable_subgroup_counterexample,
    "alon-boppana": alon_boppana,
    "ramanujan-girth": ramanujan_girth,
}
