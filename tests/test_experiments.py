"""Structural checks of the experiment recipes on small instances.

The full-scale behavior (convergence windows, density decay) is pinned
by the acceptance tests; here we only verify that each recipe produces
a well-formed, JSON-serializable report and that the cheap invariants
hold at toy sizes.
"""

from __future__ import annotations

import json
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from schreier import spectral, walks
from schreier.cli import plain
from schreier.core import Verdict
from schreier.experiments import (
    EXPERIMENTS,
    alon_boppana,
    kesten_amenable,
    kesten_finite_irs,
    nonamenable_subgroup_counterexample,
    ramanujan_girth,
)


def test_registry_names():
    assert sorted(EXPERIMENTS) == [
        "alon-boppana",
        "kesten-amenable",
        "kesten-finite-irs",
        "nonamenable-subgroup-counterexample",
        "ramanujan-girth",
    ]


def test_kesten_finite_irs_small():
    report = kesten_finite_irs(n=12, seed=3, radius=2)
    written = plain(report, "report")[0]
    json.dumps(written, allow_nan=False)
    assert report["invariance_max_tv"] == Fraction(0)
    assert written["invariance_max_tv"] == {"num": 0, "den": 1}
    assert report["schreier_spectral_radius"] == 1.0
    assert report["strict_inequality"] == Verdict(True, "theorem")


def test_kesten_finite_irs_solves_no_spectrum(monkeypatch):
    # the radius is 1 by theorem: the constants are fixed and ‖M‖ ≤ 1
    def refuse(*args, **kwargs):
        raise AssertionError("kesten-finite-irs ran a dense eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    report = kesten_finite_irs(n=40, seed=5, radius=2)
    assert report["schreier_spectral_radius"] == 1.0


def test_kesten_amenable_short_horizon():
    report = kesten_amenable(horizon=60)
    json.dumps(plain(report, "report")[0], allow_nan=False)
    assert report["rho_equal"] == Verdict(True, "exact")
    assert report["schreier_rho"] == report["cayley_rho"]
    low, high = report["schreier_rho"]
    assert (2 * low) ** 2 <= 3 <= (2 * high) ** 2 and high - low <= 1e-15
    assert report["limit_value"] == pytest.approx(3**0.5 / 2, abs=1e-12)
    assert 0 < report["gap"] < 0.05
    assert report["schreier_estimate"] > report["cayley_estimate"]


def test_nonamenable_requires_enough_letters():
    with pytest.raises(ValueError):
        nonamenable_subgroup_counterexample(rank=2)


def test_nonamenable_rank_4_shows_the_bound_state():
    report = nonamenable_subgroup_counterexample(horizon=200, rank=4)
    json.dumps(plain(report, "report")[0], allow_nan=False)
    assert report["limit_value"] == pytest.approx(7**0.5 / 4, abs=1e-12)
    assert report["bound_state_detected"] == Verdict(True, "exact")
    assert report["estimates_within_tolerance"] == Verdict(False, "exact")
    low, high = report["schreier_rho"]
    assert low <= Fraction(2, 3) <= high and high - low <= 1e-15
    assert report["cayley_rho"][1] < low  # strictly above the tree's √7/4


def test_nonamenable_rank_5_is_critical_on_both_graphs():
    # the bench's job: no bound state, and both ρ exactly 3/5
    report = nonamenable_subgroup_counterexample(horizon=60)
    assert report["config"] == {"horizon": 60, "tolerance": 0.02, "rank": 5}
    assert report["bound_state_detected"] == Verdict(False, "exact")
    assert report["estimates_within_tolerance"] == Verdict(True, "exact")
    assert report["schreier_rho"] == report["cayley_rho"] == [Fraction(3, 5)] * 2
    assert plain(report, "report")[0]["schreier_rho"] == [{"num": 3, "den": 5}] * 2


@pytest.mark.parametrize(
    "recipe",
    [lambda: kesten_amenable(horizon=20), lambda: nonamenable_subgroup_counterexample(20)],
    ids=["kesten-amenable", "nonamenable-subgroup-counterexample"],
)
def test_each_core_solves_its_return_series_once(monkeypatch, recipe):
    # estimate_rho_returns and core_rho both read the subgroup's core and
    # the tree's: one series and one Berlekamp–Massey each, two cores
    calls = {"_return_series": 0, "_berlekamp_massey": 0}
    for name in calls:
        def counted(*args, _real=getattr(walks, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(walks, name, counted)
    recipe()
    assert calls == {"_return_series": 2, "_berlekamp_massey": 2}


def test_alon_boppana_toy_sweep():
    report = alon_boppana(sizes=(100,), seeds=(1, 2), lmax=4)
    json.dumps(report)
    assert len(report["runs"]) == 2
    (summary,) = report["summary"]
    assert summary["size"] == 100
    assert 0 < summary["rho0_median"] < 1
    assert len(summary["density_medians"]) == 4


def test_ramanujan_girth_counts_the_verdicts_of_its_solves(monkeypatch):
    # one solve per (size, seed), whose report gives the run its ρ₀ and
    # whose verdict is counted, and one for the LPS graph
    solved = []
    real = spectral.rho0
    monkeypatch.setattr(spectral, "rho0", lambda g: solved.append(g.n) or real(g))
    report = ramanujan_girth(sizes=(100, 200), seeds=(1, 2, 3), lmax=3)
    json.dumps(plain(report, "report")[0], allow_nan=False)
    assert solved == [100] * 3 + [200] * 3 + [1092]
    for row in report["random_model"]:
        assert row["certified"] + row["refuted"] + row["neither"] == 3
        assert row["certified"] == 0  # a lanczos-residual true proves nothing


@pytest.mark.parametrize("sizes, seeds, flag", [((), (1,), "--sizes"), ((100,), (), "--seeds")])
def test_alon_boppana_refuses_an_empty_sweep(sizes, seeds, flag):
    with pytest.raises(ValueError, match=f"^{flag} is empty"):
        alon_boppana(sizes=sizes, seeds=seeds)


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


def test_run_experiments_script_quick(tmp_path):
    script = SCRIPT
    proc = subprocess.run(
        [sys.executable, str(script), "--quick", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        f"{name}.json" for name in sorted(EXPERIMENTS)
    ]
    for name in EXPERIMENTS:
        text = (tmp_path / f"{name}.json").read_text()
        doc = json.loads(text, parse_constant=_refuse_constant)
        assert doc["command"] == "experiment"
        assert doc["result"]["experiment"] == name
        assert f"{name}: " in proc.stderr


def test_run_experiments_script_refuses_nan(tmp_path, monkeypatch, capsys):
    script = runpy.run_path(str(SCRIPT))
    monkeypatch.setitem(script["EXPERIMENTS"], "kesten-amenable", lambda: {"value": float("nan")})
    monkeypatch.setattr(
        sys, "argv", ["run_experiments.py", "kesten-amenable", "--out-dir", str(tmp_path)]
    )
    assert script["main"]() == 1
    assert "error: result.value is nan, which JSON cannot represent\n" in capsys.readouterr().err
    assert not (tmp_path / "kesten-amenable.json").exists()
