"""Structural checks of the experiment recipes on small instances.

The full-scale behavior (convergence windows, density decay) is pinned
by the acceptance tests; here we only verify that each recipe produces
a well-formed, JSON-serializable report and that the cheap invariants
hold at toy sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from schreier.experiments import (
    EXPERIMENTS,
    alon_boppana,
    kesten_amenable,
    kesten_finite_irs,
    nonamenable_subgroup_counterexample,
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
    json.dumps(report)
    assert report["invariance_max_tv"] == {"num": 0, "den": 1}
    assert report["schreier_spectral_radius"] == pytest.approx(1.0, abs=1e-9)
    assert report["strict_inequality"] is True


def test_kesten_amenable_short_horizon():
    report = kesten_amenable(horizon=60)
    json.dumps(report)
    assert report["both_below_limit"] is True
    assert report["limit_value"] == pytest.approx(3**0.5 / 2, abs=1e-12)
    assert 0 < report["gap"] < 0.05
    assert report["schreier_estimate"] > report["cayley_estimate"]


def test_nonamenable_requires_enough_letters():
    with pytest.raises(ValueError):
        nonamenable_subgroup_counterexample(rank=2)


def test_nonamenable_rank_4_shows_the_bound_state():
    report = nonamenable_subgroup_counterexample(horizon=200, rank=4)
    json.dumps(report)
    assert report["limit_value"] == pytest.approx(7**0.5 / 4, abs=1e-12)
    assert report["bound_state_detected"] is True
    assert report["estimates_within_tolerance"] is False


def test_alon_boppana_toy_sweep():
    report = alon_boppana(sizes=(100,), seeds=(1, 2), lmax=4)
    json.dumps(report)
    assert len(report["runs"]) == 2
    (summary,) = report["summary"]
    assert summary["size"] == 100
    assert 0 < summary["rho0_median"] < 1
    assert len(summary["density_medians"]) == 4


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def test_run_experiments_script_quick(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
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
        report = json.loads(text, parse_constant=_refuse_constant)
        assert report["experiment"] == name
        assert report["elapsed_seconds"] >= 0
