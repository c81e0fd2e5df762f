"""The ``verdicts`` block: every verdict a document prints, by its dotted
path in ``result``, with the certificate that says how it was reached.

The documents are those of every seed-0 bench job whose command prints a
verdict (read from ``bench/jobs.py``), every lemma check and every recipe
at small sizes.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from schreier import spectral
from schreier.cli import run
from schreier.core import CERTIFICATES, Verdict
from schreier.experiments import EXPERIMENTS

BENCH = Path(__file__).resolve().parent.parent / "bench"
VERDICT_COMMANDS = ("ramanujan", "lemma-check", "experiment")

# the certificate of each verdict, by command (and check or recipe) and
# its path in ``result``, list indices read as *
LANCZOS = "lanczos-residual"
EXPECTED = {
    "ramanujan": {"verdict": LANCZOS, "strict": LANCZOS, "equality": LANCZOS},
    "lemma-check different": {"holds": "exact"},
    "lemma-check returningvsrw": {"holds": "exact"},
    "lemma-check triv1": {"holds": "exact"},
    "lemma-check triv2": {"identical": "exact"},
    "lemma-check modifiedrw": {"holds": "theorem"},
    "lemma-check subgroupnorm": {"copies_verified": "exact"},
    "lemma-check lekv": {"holds": "exact"},
    "experiment alon-boppana": {},
    "experiment kesten-amenable": {"rho_equal": "exact"},
    "experiment kesten-finite-irs": {"strict_inequality": "theorem"},
    "experiment nonamenable-subgroup-counterexample": {
        "bound_state_detected": "exact",
        "estimates_within_tolerance": "exact",
    },
    "experiment ramanujan-girth": {"lps.verdict": LANCZOS},
}

LEMMA_CHECKS = [
    ["different", "--graph", "cycle:8", "--n", "6"],
    ["returningvsrw", "--graph", "cycle:8", "--n", "6"],
    ["triv1", "--group", "F2", "--n", "6"],
    ["triv2", "--group", "F2", "--n", "6"],
    ["modifiedrw", "--action", "regular:s3", "--random", "2"],
    ["subgroupnorm", "--action", "regular:s3", "--support", "c,C"],
    ["lekv", "--action", "randperm:m=2,n=40,seed=1", "--radius", "1"],
]
RECIPES = {
    "alon-boppana": ["--sizes", "100", "--seeds", "1,2", "--lmax", "4"],
    "kesten-amenable": ["--horizon", "60"],
    "kesten-finite-irs": ["--n", "12"],
    "nonamenable-subgroup-counterexample": ["--horizon", "80"],
    "ramanujan-girth": ["--sizes", "100", "--seeds", "1,2", "--lmax", "4"],
}


def _bench_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", BENCH / "jobs.py")
    jobs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return jobs


def _document(capsys, argv: list[str]) -> dict:
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def _kind(argv) -> str:
    return " ".join(argv[:1] if argv[0] == "ramanujan" else argv[:2])


def _at(result, path: str):
    for key in path.split("."):
        result = result[int(key)] if isinstance(result, list) else result[key]
    return result


def _shape(path: str) -> str:
    return re.sub(r"\.\d+\.", ".*.", path)


def _check(doc: dict, kind: str) -> dict[str, dict]:
    """The document's verdicts, checked against ``EXPECTED`` and against
    the booleans at their paths in ``result``."""
    verdicts = doc.get("verdicts", {})
    assert ("verdicts" in doc) == bool(EXPECTED[kind])
    for path, entry in verdicts.items():
        assert entry.keys() == {"value", "certificate"}
        assert entry["certificate"] in CERTIFICATES
        assert entry["value"] is _at(doc["result"], path)
        assert isinstance(entry["value"], bool) or entry["certificate"] == "undecided"
    assert {_shape(path): e["certificate"] for path, e in verdicts.items()} == EXPECTED[kind]
    return verdicts


def _jobs_with_verdicts(tmp_path):
    """The seed-0 bench jobs whose command prints a verdict, with the
    ``build`` jobs that write the files they read, resolved in ``tmp_path``."""
    jobs = _bench_jobs()
    jobs.prepare_work(tmp_path)
    mixes = [job for workload in jobs.WORKLOADS for job in jobs.mix(workload, 0)]
    wanted = [job for job in mixes if job.argv[0] in VERDICT_COMMANDS]
    read = " ".join(arg for job in wanted for arg in job.argv)
    builds = [job for job in mixes if job.argv[0] == "build" and job.argv[-1] in read]
    return [(job, job.resolve(tmp_path)) for job in builds + wanted]


def test_the_vocabulary_is_closed():
    assert CERTIFICATES == ("exact", "theorem", LANCZOS, "undecided")


@pytest.mark.parametrize(
    "value, certificate",
    [
        (True, "proved"),
        (None, "exact"),
        (False, "undecided"),
        (np.bool_(True), "exact"),
        (1, "exact"),
    ],
)
def test_a_verdict_refuses_what_it_cannot_be(value, certificate):
    with pytest.raises(ValueError):
        Verdict(value, certificate)


def test_an_undecided_verdict_is_none():
    assert Verdict(None, "undecided").value is None


def test_bench_jobs_list_their_verdicts(capsys, tmp_path):
    seen = {}
    for job, argv in _jobs_with_verdicts(tmp_path):
        if job.argv[0] == "build" or job.stderr_has:
            assert run(argv) == (1 if job.stderr_has else 0)
            capsys.readouterr()
            continue
        doc = _document(capsys, argv)
        seen[job.key] = _check(doc, _kind(job.argv))
        if job.argv[0] == "ramanujan":
            assert doc["result"]["converged"] is True
    kinds = {_kind(key.split()) for key in seen}
    assert kinds == {
        "ramanujan", "lemma-check lekv", "lemma-check different", "lemma-check triv1",
        "lemma-check triv2", "experiment kesten-finite-irs",
        "experiment nonamenable-subgroup-counterexample",
    }
    assert len(seen) >= 15


def test_every_check_and_recipe_lists_its_verdicts(capsys):
    certificates: dict[str, set] = {}
    for argv in [["lemma-check", *check] for check in LEMMA_CHECKS] + [
        ["experiment", name, *flags] for name, flags in RECIPES.items()
    ]:
        for path, entry in _check(_document(capsys, argv), _kind(argv)).items():
            certificates.setdefault(entry["certificate"], set()).add(
                f"{argv[1]}: {_shape(path)}"
            )
    assert sorted(RECIPES) == sorted(EXPERIMENTS)
    assert "heuristic" not in certificates
    assert {
        "kesten-amenable: rho_equal",
        "nonamenable-subgroup-counterexample: bound_state_detected",
        "nonamenable-subgroup-counterexample: estimates_within_tolerance",
    } <= certificates["exact"]
    assert certificates["theorem"] == {
        "kesten-finite-irs: strict_inequality",
        "modifiedrw: holds",
    }
    assert certificates.keys() == {"exact", "theorem", LANCZOS}


def test_an_unconverged_solve_is_undecided(capsys, monkeypatch):
    # no shift-invert, and the matvec recurrence stops after one step
    monkeypatch.setattr(spectral, "_banded_order", lambda M, n: None)
    monkeypatch.setattr(spectral, "_ITERATION_CAP", 1)
    undecided = {"value": None, "certificate": "undecided"}
    doc = _document(capsys, ["ramanujan", "--graph", "cycle:501"])
    result = doc["result"]
    assert result["converged"] is False and result["error_bound"] is None
    assert result["verdict"] is result["strict"] is result["equality"] is None
    assert doc["verdicts"] == {"verdict": undecided, "strict": undecided, "equality": undecided}
    argv = ["experiment", "ramanujan-girth", "--sizes", "100", "--seeds", "1", "--lmax", "3"]
    doc = _document(capsys, argv)
    assert doc["result"]["lps"]["verdict"] is None
    (row,) = doc["result"]["random_model"]
    assert (row["certified"], row["refuted"], row["neither"]) == (0, 0, 1)
    assert doc["verdicts"] == {"lps.verdict": undecided}
