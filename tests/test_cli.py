"""End-to-end checks of the command-line interface via ``run``.

Subcommands are exercised in-process (fast, same interpreter); one test
goes through the installed console script to pin the entry point.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import gc
import inspect
import io
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from schreier import builders, cli, spectral, walks
from schreier.cli import _build_parser, plain, run
from schreier.core import GenSet, Verdict, format_word, parse, serialize
from schreier.experiments import EXPERIMENTS
from schreier.walks import return_counts


def _json_out(capsys, argv: list[str], expect: int = 0) -> dict:
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect, captured.err
    return json.loads(captured.out)


def _subparser(*path: str) -> argparse.ArgumentParser:
    """The parser of a nested subcommand, e.g. ("experiment", "alon-boppana")."""
    return _branch(cli._PARSER, *path)


def _branch(parser: argparse.ArgumentParser, *path: str) -> argparse.ArgumentParser:
    """The parser that ``path`` leads to from ``parser``."""
    for name in path:
        parser = _choices(parser)[name]
    return parser


def _choices(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """The subcommands attached under ``parser``, by name."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


class TestBuild:
    def test_cycle_round_trips_through_sgf1(self, capsys):
        assert run(["build", "cycle:6"]) == 0
        text = capsys.readouterr().out
        g = parse(text)
        assert g.n == 6 and g.root == 0

    def test_completed_core(self, capsys):
        assert run(["build", "fold:a,rank=2@3"]) == 0
        g = parse(capsys.readouterr().out)
        assert g.degree == 4

    @pytest.mark.parametrize("spec", ["fold:a,rank=2", "free:rank=2"])
    def test_core_round_trips_through_a_file(self, capsys, tmp_path, spec):
        # build writes a core's 'b' lines without a 'truncated' mark; read
        # back, the file is the same core, at any horizon and at any '@R'
        path = tmp_path / "core.sgf"
        assert run(["build", spec, "--out", str(path)]) == 0
        capsys.readouterr()
        argv = ["rho-estimate", "--horizon", "20", "--graph"]
        from_file = _json_out(capsys, [*argv, f"file:{path}"])["result"]
        assert from_file == _json_out(capsys, [*argv, spec])["result"]
        argv = ["walks", "--horizon", "6", "--graph"]
        from_file = _json_out(capsys, [*argv, f"file:{path}@3"])["result"]
        assert from_file == _json_out(capsys, [*argv, f"{spec}@3"])["result"]

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "k4.sgf"
        assert run(["build", "k4", "--out", str(target)]) == 0
        assert target.read_text() == capsys.readouterr().out

    def test_unwritable_out_prints_nothing(self, capsys, tmp_path):
        assert run(["build", "k4", "--out", str(tmp_path / "no-dir" / "k4.sgf")]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_output_is_written_in_slices(self, tmp_path, monkeypatch):
        text = "0123456789abcde\n" * 10**6  # 16 MB
        target = tmp_path / "out.txt"
        with open(target.with_suffix(".stdout"), "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            tracemalloc.start()
            try:
                cli._write_out(text, str(target))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < len(text) / 4  # no whole encoded copy on either stream
        assert target.read_text() == target.with_suffix(".stdout").read_text() == text

    def test_bad_spec_exits_1(self, capsys):
        assert run(["build", "bogus:1"]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, entry",
        [
            ("tree:d=4,r=2,r=3", "'r=3'"),
            ("randperm:m=2,n=10,seed=1,seed=2", "'seed=2'"),
            ("lps:p=5,q=13,q=17", "'q=17'"),
            ("free:rank=2,rank=3", "'rank=3'"),
        ],
        ids=["tree", "randperm", "lps", "free"],
    )
    def test_repeated_spec_key_exits_1(self, capsys, spec, entry):
        assert run(["build", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: repeated") and entry in err

    def test_fold_words_without_a_letter_exit_1(self, capsys):
        assert run(["build", "fold:1,2^3"]) == 1
        err = capsys.readouterr().err
        assert err == "error: no fold spec word names a generator: 1, 2^3\n"


class TestJsonEnvelope:
    def test_schema_command_config_result(self, capsys):
        doc = _json_out(capsys, ["ramanujan", "--graph", "petersen"])
        assert doc["schema"] == 1
        assert doc["command"] == "ramanujan"
        assert doc["config"]["graph"] == "petersen"
        assert "threads" not in doc["config"]
        result = doc["result"]
        assert result["rho0"] == pytest.approx(2 / 3, abs=1e-9)
        assert result["threshold"] == pytest.approx(2 * (2**0.5) / 3, abs=1e-9)
        assert result["verdict"] is True

    def test_threads_flag_rejected(self, capsys):
        assert run(["--threads", "4", "cycles", "--graph", "k4"]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_non_finite_result_is_an_error(self, capsys, tmp_path, monkeypatch):
        real = cli.ramanujan_check

        def nan_bound(g):
            verdict = real(g)
            report = dataclasses.replace(verdict.report, error_bound=float("nan"))
            return dataclasses.replace(verdict, report=report)

        monkeypatch.setattr(cli, "ramanujan_check", nan_bound)
        target = tmp_path / "out.json"
        assert run(["ramanujan", "--graph", "cycle:8", "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: result.error_bound is nan, which JSON cannot represent\n"
        )
        assert not target.exists()

    def test_plain_writes_fractions_and_floats(self):
        value = {
            "negative": Fraction(-3, 4),
            "integral": Fraction(6, 3),
            "float": 2 / 3,
            "numpy": np.float64(1) / 3,
            "norm": np.float64(0.9999999999999998),  # a float, but not exactly one
            "sum": 0.1 + 0.2,
            "flag": True,
            "count": 3,
            "none": None,
            "nested": ((Fraction(1, 2), 1e-20 / 3), ()),
        }
        written, verdicts = plain(value, "result")
        assert verdicts == {}
        assert json.dumps(written) == (
            '{"negative": {"num": -3, "den": 4}, "integral": {"num": 2, "den": 1}, '
            '"float": 0.666666666667, "numpy": 0.333333333333, "norm": 1.0, "sum": 0.3, '
            '"flag": true, "count": 3, "none": null, '
            '"nested": [[{"num": 1, "den": 2}, 3.33333333333e-21], []]}'
        )
        assert type(written["numpy"]) is type(written["norm"]) is float

    @pytest.mark.parametrize("bad", [float("nan"), -math.inf, np.float64("inf")])
    def test_plain_refuses_non_finite_floats(self, bad):
        with pytest.raises(ValueError) as caught:
            plain({"rows": [Fraction(1, 3), bad]}, "result")
        assert str(caught.value) == f"result.rows.1 is {bad}, which JSON cannot represent"

    def test_out_writes_the_same_document(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        doc = _json_out(
            capsys, ["cycles", "--graph", "petersen", "--out", str(target)]
        )
        assert json.loads(target.read_text()) == doc

    @pytest.mark.parametrize(
        "argv",
        [
            ["ramanujan", "--graph", "petersen"],
            ["lemma-check", "triv2", "--group", "F2", "--n", "6"],
            ["irs-sample", "--action", "randperm:m=2,n=50,seed=3", "--exact", "--radius", "2"],
            ["bs-stats", "--graph", "randperm:m=2,n=60,seed=1", "--radius", "2"],
            ["rho-estimate", "--graph", "fold:a,rank=2", "--horizon", "20"],
        ],
    )
    def test_a_document_is_one_compact_line(self, capsys, tmp_path, argv):
        """The C encoder's default separators, one line, and ``--out``
        holds the same bytes as stdout."""
        target = tmp_path / "out.json"
        assert run([*argv, "--out", str(target)]) == 0
        out = capsys.readouterr().out
        line, end = out.split("\n")
        assert end == ""
        assert line == json.dumps(json.loads(line))
        assert target.read_text() == out

    def test_a_verdict_in_a_list_element_is_listed_by_its_dotted_key(self):
        value = {"rows": [1, [], {"holds": Verdict(True, "exact")}], "n": 3}
        written, verdicts = plain(value, "result")
        assert written == {"rows": [1, [], {"holds": True}], "n": 3}
        assert verdicts == {"rows.2.holds": {"value": True, "certificate": "exact"}}

    def test_a_nan_in_a_dict_in_a_list_names_its_full_path(self):
        with pytest.raises(ValueError) as caught:
            plain({"rows": [{"ratio": 0.5}, {"n": 2, "ratio": math.nan}]}, "result")
        assert str(caught.value) == "result.rows.1.ratio is nan, which JSON cannot represent"


class TestAnalysis:
    def test_ramanujan_long_cycle_is_certified(self, capsys):
        result = _json_out(capsys, ["ramanujan", "--graph", "cycle:5000"])["result"]
        assert result.keys() == {
            "n", "degree", "rho0", "threshold", "verdict", "strict", "equality",
            "error_bound", "converged",
        }
        assert result["converged"] is True
        assert result["rho0"] == 1.0 and result["threshold"] == 1.0
        assert result["verdict"] and result["strict"] and result["equality"]

    def test_spectrum_even_cycle_is_bipartite(self, capsys):
        result = _json_out(capsys, ["spectrum", "--graph", "cycle:6"])["result"]
        assert result["bipartite"] is True
        evs = result["eigenvalues"]
        assert evs == sorted(evs)
        assert evs[0] == pytest.approx(-1) and evs[-1] == pytest.approx(1)

    def test_rho_estimate_loop_core(self, capsys):
        result = _json_out(
            capsys,
            ["rho-estimate", "--graph", "fold:a,rank=2", "--horizon", "200"],
        )["result"]
        assert result["certified_lower_bound"] == pytest.approx(
            0.843676513481, abs=1e-12
        )
        assert result.keys() == {"horizon", "certified_lower_bound", "bipartite"}
        assert result["bipartite"] is False

    def test_walk_counts_on_tree_ball(self, capsys):
        result = _json_out(
            capsys, ["walks", "--graph", "tree:d=4,r=6", "--horizon", "6"]
        )["result"]
        assert result["return_counts"] == [1, 0, 4, 0, 28, 0, 232]

    def test_bs_stats_vertex_transitive_single_class(self, capsys):
        result = _json_out(
            capsys, ["bs-stats", "--graph", "petersen", "--radius", "2"]
        )["result"]
        assert result["class_count"] == 1
        assert result["classes"][0]["frequency"] == {"num": 1, "den": 1}

    def test_ball_distance_between_cycles(self, capsys):
        result = _json_out(capsys, ["ball-distance", "cycle:12", "cycle:16"])[
            "result"
        ]
        assert result == {
            "value": {"num": 1, "den": 5},
            "agreement_radius": 5,
            "exact": True,
        }

    def test_ball_distance_capped_by_truncation(self, capsys):
        result = _json_out(
            capsys,
            ["ball-distance", "free:rank=1@8", "free:rank=1@12", "--max-radius", "8"],
        )["result"]
        assert result["exact"] is False
        assert result["agreement_radius"] == 8

    def test_mismatched_alphabets_exit_1(self, capsys):
        assert run(["ball-distance", "cycle:12", "free:rank=1@4"]) == 1
        assert "alphabet" in capsys.readouterr().err

    def test_fix_density(self, capsys):
        result = _json_out(
            capsys,
            [
                "fix-density",
                "--action",
                "randperm:m=2,n=40,seed=2",
                "--word",
                "aBA",
            ],
        )["result"]
        frac = result["density"]
        assert result["points"] == 40
        assert 40 % frac["den"] == 0
        assert result["value"] == pytest.approx(frac["num"] / frac["den"])

    def test_cycles_petersen(self, capsys):
        result = _json_out(
            capsys, ["cycles", "--graph", "petersen", "--lmax", "8"]
        )["result"]
        assert result["girth"] == 5
        assert result["counts"] == [0, 0, 0, 0, 12, 10, 0, 15]
        assert result["method"] == "sweep"

    def test_cycles_forest_girth_is_null(self, capsys):
        result = _json_out(
            capsys, ["cycles", "--graph", "tree:d=4,r=3", "--lmax", "4"]
        )["result"]
        assert result["girth"] is None
        assert result["counts"] == [0, 0, 0, 0]
        assert result["method"] == "sweep"

    @pytest.mark.parametrize("lmax", ["0", "-2", "13"])
    def test_cycles_names_the_lmax_range(self, capsys, lmax):
        assert run(["cycles", "--graph", "k4", "--lmax", lmax]) == 1
        err = capsys.readouterr().err
        assert f"lmax = {lmax} is outside 1..12: cycle lengths are supported up to 12" in err

    def test_cycles_transitive_graph_from_the_root(self, capsys):
        result = _json_out(capsys, ["cycles", "--graph", "cycle:8", "--lmax", "8"])["result"]
        assert result["girth"] == 8
        assert result["counts"] == [0] * 7 + [1]
        assert result["method"] == "transitive-sweep"


class TestLemmaChecks:
    def test_different_on_graph(self, capsys):
        result = _json_out(
            capsys, ["lemma-check", "different", "--graph", "cycle:8", "--n", "8"]
        )["result"]
        assert result["holds"] is True
        assert [row["n"] for row in result["rows"]] == [2, 4, 6, 8]
        for row in result["rows"]:
            assert row["max_other_count"] <= row["return_count"]

    def test_different_via_tree_rings(self, capsys):
        result = _json_out(
            capsys, ["lemma-check", "different", "--tree-degree", "4", "--n", "12"]
        )["result"]
        assert result["source"] == "4-regular tree"
        assert len(result["rows"]) == 6

    @pytest.mark.parametrize(
        "degree, counts",
        [
            (4, [(4, 1), (28, 10), (232, 97), (2092, 958)]),
            (27, [(27, 1), (1431, 79), (94095, 6215), (6903495, 505831)]),
            (60, [(60, 1), (7140, 178), (1058520, 31625), (175463700, 5820646)]),
        ],
    )
    def test_different_via_tree_rings_at_any_degree(self, capsys, degree, counts):
        argv = ["lemma-check", "different", "--tree-degree", str(degree), "--n", "8"]
        rows = _json_out(capsys, argv)["result"]["rows"]
        assert [(r["return_count"], r["max_other_count"]) for r in rows] == counts

    def test_walks_on_a_large_degree_tree(self, capsys):
        argv = ["walks", "--graph", "tree:d=60,r=1", "--horizon", "2"]
        assert _json_out(capsys, argv)["result"]["return_counts"] == [1, 0, 60]

    def test_different_needs_a_source(self, capsys):
        assert run(["lemma-check", "different", "--n", "4"]) == 1

    def test_returningvsrw(self, capsys):
        result = _json_out(
            capsys,
            [
                "lemma-check",
                "returningvsrw",
                "--graph",
                "tree:d=4,r=4",
                "--n",
                "4",
                "--assume-transitive",
            ],
        )["result"]
        assert len(result["rows"]) == 4 + 16
        for row in result["rows"]:
            p = row["probability"]
            b = row["bound"]
            assert p["num"] * b["den"] >= b["num"] * p["den"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["returningvsrw", "--graph", "cycle:12", "--n", "6", "--prefix-length", "2"],
            ["different", "--graph", "cycle:12", "--n", "12"],
        ],
        ids=["returningvsrw", "different"],
    )
    def test_transitivity_is_checked_once(self, capsys, transitivity_decisions, argv):
        assert _json_out(capsys, ["lemma-check", *argv])["result"]["holds"] is True
        assert len(transitivity_decisions) == 1

    def test_triv1(self, capsys):
        result = _json_out(
            capsys, ["lemma-check", "triv1", "--group", "F2", "--n", "8"]
        )["result"]
        assert result["prefix_length_max"] == 3
        assert len(result["rows"]) == 4 + 16 + 64

    def test_triv1_above_the_enumeration_guard(self, capsys):
        # 4^12 words: the returning stream needs no word list
        result = _json_out(
            capsys, ["lemma-check", "triv1", "--group", "F2", "--n", "12"]
        )["result"]
        assert result["word_count"] == 195352
        assert len(result["rows"]) == 4 + 16 + 64

    def test_triv2_spec_example(self, capsys):
        result = _json_out(
            capsys, ["lemma-check", "triv2", "--group", "F2", "--n", "6"]
        )["result"]
        assert result["identical"] is True
        assert result["word_count"] == 232
        assert result["shifts_checked"] == 5

    @pytest.mark.parametrize(
        "rank, n, word_count, classes",
        [(2, 12, 195352, {"1": 4, "2": 16, "3": 64}),
         (3, 10, 197796, {"1": 6, "2": 36, "3": 216})],
    )
    def test_triv2_past_the_word_list(self, capsys, rank, n, word_count, classes):
        # d^n words far exceed what the returning-word list once held
        result = _json_out(
            capsys, ["lemma-check", "triv2", "--group", f"F{rank}", "--n", str(n)]
        )["result"]
        assert result["word_count"] == word_count
        assert word_count == return_counts(builders.free_core(rank), 0, n)[n]
        assert result["segment_classes"] == classes
        assert result["identical"] is True

    @pytest.mark.parametrize(
        "argv, refusal",
        [
            (["--group", "F2", "--n", "5"], "returning-word checks concern even n >= 2"),
            (["--group", "F2", "--n", "4", "--k", "0"],
             "--k 0 leaves nothing to check; it must be at least 1"),
            (["--group", "F0", "--n", "4"], "rank must be positive"),
        ],
        ids=["odd-n", "k0", "F0"],
    )
    def test_triv2_refusals_keep_their_text(self, capsys, argv, refusal):
        assert run(["lemma-check", "triv2", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {refusal}\n")

    def test_triv2_recheck_fires(self, capsys, monkeypatch):
        # a segment law that differs at shift 1 stands in for a broken DP
        real = cli.segment_distributions

        def skewed(*args):
            total, laws = real(*args)
            shifted = {word: count + 1 for word, count in laws[1][1].items()}
            return total, {**laws, 1: (laws[1][0], shifted, *laws[1][2:])}

        monkeypatch.setattr(cli, "segment_distributions", skewed)
        assert run(["lemma-check", "triv2", "--group", "F2", "--n", "4"]) == 2
        assert capsys.readouterr() == (
            "", "inequality violated: segment distribution at cyclic shift 1 differs (k=1)\n"
        )

    def test_triv_checks_reject_odd_length(self, capsys):
        assert run(["lemma-check", "triv2", "--group", "F2", "--n", "5"]) == 1

    def test_returningvsrw_rejects_odd_length(self, capsys):
        # C₇ is transitive, but the floor holds at even n only
        argv = ["lemma-check", "returningvsrw", "--graph", "cycle:7", "--n"]
        for n in ("7", "-2"):
            assert run([*argv, n]) == 1
            assert capsys.readouterr().err == (
                f"error: conditioned prefix checks concern even n >= 0, not n = {n}\n"
            )
        assert run([*argv, "0"]) == 1
        assert capsys.readouterr().err == "error: need n >= twice the prefix length\n"

    def test_modifiedrw_random(self, capsys):
        result = _json_out(
            capsys,
            [
                "lemma-check",
                "modifiedrw",
                "--action",
                "regular:s3",
                "--random",
                "6",
                "--seed",
                "7",
            ],
        )["result"]
        assert len(result["sequences"]) == 6
        for row in result["sequences"]:
            p = row["probability"]
            assert p["num"] / p["den"] <= row["bound"] + 1e-9

    def test_modifiedrw_explicit_supports(self, capsys):
        result = _json_out(
            capsys,
            [
                "lemma-check",
                "modifiedrw",
                "--action",
                "regular:z6",
                "--supports",
                "a,A;b,B,e",
            ],
        )["result"]
        assert result["sequences"][0]["supports"] == [["a", "A"], ["b", "B", "e"]]

    def test_subgroupnorm_cyclic_subgroup_of_s3(self, capsys):
        result = _json_out(
            capsys,
            [
                "lemma-check",
                "subgroupnorm",
                "--action",
                "regular:s3",
                "--support",
                "c,C",
            ],
        )["result"]
        assert result["subgroup_order"] == 3
        assert result["index"] == 2
        assert result["copies_verified"] is True

    def test_subgroupnorm_rejects_unknown_label(self, capsys):
        code = run(
            ["lemma-check", "subgroupnorm", "--action", "regular:s3", "--support", "x"]
        )
        assert code == 1
        assert "no label named" in capsys.readouterr().err

    def test_subgroupnorm_refuses_orbits_of_other_sizes(self, capsys):
        argv = ["lemma-check", "subgroupnorm", "--action", "randperm:m=2,n=24,seed=5"]
        assert run(argv + ["--support", "a,A"]) == 1
        assert "needs a regular action" in capsys.readouterr().err

    def test_subgroupnorm_refuses_same_size_orbits_that_are_not_copies(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "action_from_spec", lambda text: reference.orbits_apart(False))
        argv = ["lemma-check", "subgroupnorm", "--action", "cyclic:8", "--support", "a,A,m"]
        assert run(argv) == 1
        assert "needs a regular action" in capsys.readouterr().err

    def test_subgroupnorm_on_one_point_orbits(self, capsys):
        result = _json_out(
            capsys,
            ["lemma-check", "subgroupnorm", "--action", "cyclic:100000", "--support", "e"],
        )["result"]
        assert (result["subgroup_order"], result["index"]) == (1, 100000)
        assert result["operator_norm"] == 1.0 and result["max_deviation"] == 0.0

    def test_subgroupnorm_refuses_a_large_orbit_before_building_it(
        self, capsys, monkeypatch
    ):
        def unbuilt(*args, **kwargs):
            raise AssertionError("the orbit graph was built")

        monkeypatch.setattr(spectral, "from_perm_action", unbuilt)
        argv = ["lemma-check", "subgroupnorm", "--action", "cyclic:100000", "--support", "t,T"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: n = 100000 exceeds the dense threshold 4096; "
            "rho0() computes extreme eigenvalues iteratively\n"
        )

    def test_modifiedrw_above_the_dense_threshold(self, capsys):
        result = _json_out(
            capsys,
            [
                "lemma-check", "modifiedrw", "--action", "randperm:m=2,n=5000,seed=0",
                "--supports", "a,A;b,B,e",
            ],
        )["result"]
        assert result["sequences"][0]["norms"] == [1.0, 1.0]

    def test_lekv(self, capsys):
        result = _json_out(
            capsys,
            [
                "lemma-check",
                "lekv",
                "--action",
                "randperm:m=2,n=30,seed=4",
                "--restrict",
                "--radius",
                "2",
            ],
        )["result"]
        row = result["rows"][0]
        assert row["words_complete"] is True
        p = row["tree_ball_probability"]
        assert 0 <= p["num"] <= p["den"]

    @pytest.mark.parametrize(
        "actions, words",
        [
            (["cyclic:5", "randperm:m=2,n=10,seed=0"], "tt"),
            (["randperm:m=2,n=10,seed=0", "cyclic:5"], "ab"),
        ],
        ids=["cyclic-first", "randperm-first"],
    )
    def test_lekv_words_need_one_alphabet(self, capsys, actions, words):
        argv = ["lemma-check", "lekv", "--words", words]
        for spec in actions:
            argv += ["--action", spec]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "alphabets" in captured.err

    def test_violated_assumption_exits_2(self, capsys):
        code = run(
            [
                "lemma-check",
                "different",
                "--graph",
                "randperm:m=2,n=7,seed=3",
                "--n",
                "6",
                "--assume-transitive",
            ]
        )
        assert code == 2
        assert "inequality violated" in capsys.readouterr().err


class TestIrsSample:
    def test_exact_ensemble_is_invariant(self, capsys):
        result = _json_out(
            capsys,
            [
                "irs-sample",
                "--action",
                "randperm:m=2,n=25,seed=9",
                "--exact",
                "--radius",
                "2",
            ],
        )["result"]
        assert result["kind"] == "exact"
        assert result["invariance"]["max_tv"] == {"num": 0, "den": 1}
        assert result["invariance"]["confidence_radius"] is None
        total = sum(
            row["weight"]["num"] / row["weight"]["den"]
            for row in result["ball_classes"]
        )
        assert total == pytest.approx(1)

    def test_sampled_ensemble_reports_confidence(self, capsys):
        result = _json_out(
            capsys,
            [
                "irs-sample",
                "--action",
                "randperm:m=2,n=25,seed=9",
                "--count",
                "200",
                "--seed",
                "5",
            ],
        )["result"]
        assert result["kind"] == "sampled"
        assert result["provenance"]["sample_count"] == 200
        assert 0 < result["invariance"]["confidence_radius"] < 1

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--count", "10"]])
    def test_exact_rejects_sampling_flags(self, capsys, flag):
        argv = ["irs-sample", "--action", "randperm:m=2,n=12,seed=9", "--exact"]
        assert run(argv + flag) == 1
        assert "--exact" in capsys.readouterr().err

    def test_config_echoes_what_the_ensemble_used(self, capsys):
        argv = ["irs-sample", "--action", "randperm:m=2,n=12,seed=9", "--radius", "1"]
        exact = _json_out(capsys, argv + ["--exact"])["config"]
        assert "count" not in exact and "seed" not in exact
        sampled = _json_out(capsys, argv)["config"]
        assert sampled["count"] == 1000 and sampled["seed"] == 0


class TestConfigFile:
    def test_flags_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph = petersen\n# comment\nlmax = 7\n")
        doc = _json_out(capsys, ["cycles", "--config", str(cfg)])
        assert doc["config"]["config-file"] == str(cfg)
        assert doc["config"]["lmax"] == 7
        assert doc["result"]["counts"] == [0, 0, 0, 0, 12, 10, 0]

    def test_explicit_flag_wins(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph = petersen\nlmax = 7\n")
        doc = _json_out(capsys, ["cycles", "--config", str(cfg), "--lmax", "5"])
        assert doc["config"]["lmax"] == 5

    def test_malformed_line_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph petersen\n")
        assert run(["cycles", "--config", str(cfg)]) == 1

    def test_missing_file_exits_1(self, capsys, tmp_path):
        assert run(["cycles", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_joined_spelling_reads_the_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizon = 4\n")
        joined = _json_out(capsys, ["walks", "--graph=cycle:6", f"--config={cfg}"])
        spaced = _json_out(capsys, ["walks", "--graph=cycle:6", "--config", str(cfg)])
        assert joined == spaced
        assert joined["config"]["horizon"] == 4

    @pytest.mark.parametrize("argv", [["--config"], ["--config="]])
    def test_config_without_a_path_exits_1(self, capsys, argv):
        assert run(["cycles", "--graph", "cycle:5", *argv]) == 1
        assert "--config needs a file path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, explicit, key",
        [
            ("graph = cycle:8", ["--tree-degree", "4"], "tree-degree"),
            ("tree-degree = 4", ["--graph", "cycle:8"], "graph"),
        ],
        ids=["file-graph", "file-tree-degree"],
    )
    def test_explicit_flag_wins_across_an_exclusive_pair(
        self, capsys, tmp_path, line, explicit, key
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        argv = ["lemma-check", "different", "--config", str(cfg), "--n", "4"]
        config = _json_out(capsys, argv + explicit)["config"]
        assert {"graph", "tree-degree"} & set(config) == {key}

    def test_flags_have_no_prefix_spellings(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph = cycle:8\n")
        argv = ["lemma-check", "different", "--config", str(cfg), "--n", "4"]
        assert run(argv + ["--tree", "4"]) == 1
        assert "unrecognized arguments: --tree 4" in capsys.readouterr().err
        assert run(["lemma-check", "different", "--tree", "4", "--n", "4"]) == 1
        config = _json_out(capsys, argv + ["--tree-degree", "4"])["config"]
        assert config["tree-degree"] == 4 and "graph" not in config

    def test_file_only_source(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph = cycle:8\n")
        argv = ["lemma-check", "different", "--config", str(cfg), "--n", "4"]
        doc = _json_out(capsys, argv)
        assert doc["config"]["graph"] == "cycle:8"
        assert doc["result"]["source"] == "cycle:8"

    def test_explicit_repeatable_flag_replaces_the_file_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("action = cyclic:3\n")
        argv = ["lemma-check", "lekv", "--config", str(cfg), "--radius", "1"]
        assert _json_out(capsys, argv)["config"]["action"] == ["cyclic:3"]
        explicit = _json_out(capsys, argv + ["--action", "cyclic:5"])["config"]
        assert explicit["action"] == ["cyclic:5"]


class TestExperimentCommand:
    def test_kesten_finite_irs(self, capsys):
        doc = _json_out(
            capsys,
            ["experiment", "kesten-finite-irs", "--n", "12", "--seed", "3"],
        )
        assert doc["config"]["name"] == "kesten-finite-irs"
        result = doc["result"]
        assert result["invariance_max_tv"] == {"num": 0, "den": 1}
        assert result["strict_inequality"] is True

    def test_unknown_experiment_exits_1(self, capsys):
        assert run(["experiment", "no-such-recipe"]) == 1


# A valid argv for every lemma check and recipe, with a flag of the same
# command that this check or recipe does not read.
UNREAD_FLAGS = [
    (["lemma-check", "different", "--graph", "cycle:8", "--n", "4"], ["--k", "3"]),
    (
        ["lemma-check", "returningvsrw", "--graph", "cycle:8", "--n", "4"],
        ["--seed", "1"],
    ),
    (["lemma-check", "triv1", "--group", "F2", "--n", "4"], ["--radius", "2"]),
    (["lemma-check", "triv2", "--group", "F2", "--n", "4"], ["--prefix-length", "2"]),
    (
        ["lemma-check", "modifiedrw", "--action", "regular:s3", "--random", "2"],
        ["--restrict"],
    ),
    (
        ["lemma-check", "subgroupnorm", "--action", "regular:s3", "--support", "c,C"],
        ["--n", "4"],
    ),
    (
        ["lemma-check", "lekv", "--action", "randperm:m=2,n=12,seed=4", "--restrict"],
        ["--group", "F2"],
    ),
    (["experiment", "kesten-amenable", "--horizon", "10"], ["--lmax", "3"]),
    (["experiment", "kesten-finite-irs", "--n", "12"], ["--horizon", "5"]),
    (
        ["experiment", "nonamenable-subgroup-counterexample", "--horizon", "10"],
        ["--seed", "1"],
    ),
    (
        ["experiment", "alon-boppana", "--sizes", "20", "--seeds", "1"],
        ["--radius", "2"],
    ),
    (["experiment", "ramanujan-girth", "--sizes", "20", "--seeds", "1"], ["--n", "5"]),
]


class TestDeclaredFlags:
    @pytest.mark.parametrize(
        "argv, unread", UNREAD_FLAGS, ids=[argv[1] for argv, _ in UNREAD_FLAGS]
    )
    def test_unread_flag_is_a_usage_error(self, capsys, argv, unread):
        cli._PARSER.parse_args(argv)
        assert run(argv + unread) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (
                ["different", "--graph", "cycle:8", "--n", "4"],
                {"check", "graph", "n", "assume-transitive"},
            ),
            (
                ["different", "--tree-degree", "4", "--n", "4"],
                {"check", "tree-degree", "n"},
            ),
            (
                ["modifiedrw", "--action", "regular:z6", "--supports", "a,A"],
                {"check", "action", "supports"},
            ),
            (
                ["modifiedrw", "--action", "regular:z6", "--random", "2"],
                {"check", "action", "random", "seed"},
            ),
        ],
    )
    def test_config_holds_only_the_flags_read(self, capsys, argv, keys):
        doc = _json_out(capsys, ["lemma-check", *argv])
        assert set(doc["config"]) == keys

    @pytest.mark.parametrize(
        "argv",
        [
            ["different", "--tree-degree", "4", "--n", "4", "--assume-transitive"],
            ["modifiedrw", "--action", "regular:z6", "--supports", "e", "--seed", "1"],
        ],
        ids=["different", "modifiedrw"],
    )
    def test_flag_of_the_branch_not_taken_is_refused(self, capsys, argv):
        assert run(["lemma-check", *argv]) == 1
        refused = [a for a in argv if a.startswith("--")][-1]
        assert refused in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["different", "--graph", "cycle:6", "--n", "1"], "--n"),
            (["triv1", "--group", "F2", "--n", "2"], "--n"),
            (["triv2", "--group", "F2", "--n", "4", "--k", "0"], "--k"),
            (["returningvsrw", "--graph", "cycle:6", "--n", "4", "--prefix-length", "0"],
             "--prefix-length"),
            (["modifiedrw", "--action", "cyclic:5", "--random", "0"], "--random"),
            (["lekv", "--action", "cyclic:5", "--words", ","], "--words"),
        ],
        ids=["different", "triv1", "triv2", "returningvsrw", "modifiedrw", "lekv"],
    )
    def test_request_that_checks_nothing_is_refused(self, capsys, argv, flag):
        assert run(["lemma-check", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and flag in captured.err

    def test_different_takes_one_source(self, capsys):
        argv = ["lemma-check", "different", "--graph", "cycle:8", "--n", "4"]
        assert run(argv + ["--tree-degree", "4"]) == 1
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_recipe_flags_are_its_parameters(self, name):
        params = inspect.signature(EXPERIMENTS[name]).parameters
        expected = {"--" + key.replace("_", "-") for key in params} | {"--out"}
        assert _flags(_subparser("experiment", name)) == expected

    def test_recipe_config_echoes_defaults(self, capsys):
        doc = _json_out(capsys, ["experiment", "kesten-finite-irs", "--n", "12"])
        assert doc["config"] == {
            "name": "kesten-finite-irs",
            "n": 12,
            "seed": 3,
            "radius": 2,
        }

    def test_malformed_integer_list_exits_1(self, capsys):
        assert run(["experiment", "alon-boppana", "--sizes", "10,x"]) == 1
        assert "expected comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("recipe", ["alon-boppana", "ramanujan-girth"])
    @pytest.mark.parametrize("flag", ["--sizes", "--seeds"])
    def test_empty_sweep_exits_1(self, capsys, recipe, flag):
        # a sweep with no sizes or no seeds measures nothing
        assert run(["experiment", recipe, flag, ""]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {flag} is empty, which leaves nothing to measure\n")

    @pytest.mark.parametrize("recipe", ["alon-boppana", "ramanujan-girth"])
    @pytest.mark.parametrize("flag, values", [("--sizes", "100,100"), ("--seeds", "1,2,1")])
    def test_repeated_sweep_value_exits_1(self, capsys, recipe, flag, values):
        # each row counts every run of its size: a repeat would count twice
        assert run(["experiment", recipe, flag, values]) == 1
        out, err = capsys.readouterr()
        repeated = values.split(",")[0]
        refusal = f"error: {flag} repeats {repeated}, which would count its runs twice\n"
        assert (out, err) == ("", refusal)


# every path below the root: each command, and each check and recipe
PATHS = [
    *((command,) for command in _choices(cli._PARSER)),
    *(("lemma-check", name) for name in cli._CHECKS),
    *(("experiment", name) for name in EXPERIMENTS),
]


class TestOneParser:
    @pytest.mark.parametrize("path", PATHS, ids=" ".join)
    def test_branch_prints_the_whole_tree_help(self, path):
        code, out, err = _quiet_run([*path, "--help"])
        assert (code, err) == (0, "")
        assert out == _branch(_build_parser(), *path).format_help()

    def test_run_never_builds_a_parser(self, capsys):
        argvs = [
            ["walks", "--graph", "cycle:10", "--horizon", "6"],
            ["lemma-check", "different", "--graph", "cycle:8", "--n", "4"],
            ["experiment", "kesten-amenable", "--horizon", "10"],
        ]
        built = AssertionError("a parser was built")
        with mock.patch.object(cli, "_build_parser", side_effect=built):
            for argv in argvs:
                assert run(argv) == 0, capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["walks", "--graph", "cycle:10", "--horizon", "6"],
            ["lemma-check", "different", "--graph", "cycle:8", "--n", "4"],
            ["lemma-check", "triv2", "--group", "F2", "--n", "6"],
            ["spectrum"],
            ["walks", "--help"],
            ["build", "--help"],
        ],
        ids=["walks", "different", "triv2", "usage-error", "help", "raw-help"],
    )
    def test_run_leaves_no_argparse_garbage(self, capsys, argv):
        """No run leaves argparse's objects, a formatter and its section
        tree, or ``plain``'s walk in a cycle: the formatter drops its tree
        once its usage or help text is out, and the walk is a module
        function.  (The closures of the stdlib JSON encoder are left.)"""
        run(argv)  # warm every lazy import and memo first
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run(argv)
            gc.collect()
            left = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert [obj for obj in left if type(obj).__module__ == "argparse"] == []
        formatters = (argparse.HelpFormatter, argparse.HelpFormatter._Section)
        assert [obj for obj in left if isinstance(obj, formatters)] == []
        assert [
            obj for obj in left
            if inspect.isfunction(obj) and obj.__module__ == cli.__name__
        ] == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["cycles", "--graph", "file:/nonexistent.sgf"],
            ["ramanujan", "--graph", "file:/nonexistent.sgf"],
            ["walks", "--graph", "cycle:0", "--horizon", "2"],
        ],
        ids=["cycles", "ramanujan", "walks"],
    )
    def test_failed_run_leaves_no_garbage(self, capsys, argv):
        """The error line keeps the message, not the exception, whose
        traceback would hold ``run``'s frame in a cycle."""
        assert run(argv) == 1  # warm every lazy import and memo first
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run(argv) == 1
            gc.collect()
            left = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []
        assert capsys.readouterr().err.startswith("error: ")

    def test_no_state_leaks_through_the_shared_parser(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("graph = cycle:6\nlmax = 5\n")
        argvs = [
            ["walks", "--graph", "cycle:10", "--horizon", "6"],
            ["spectrum"],
            ["lemma-check", "different", "--graph", "cycle:8", "--tree-degree", "4",
             "--n", "4"],
            ["cycles", "--config", str(cfg)],
            ["lemma-check", "modifiedrw", "--action", "regular:z6", "--supports", "e",
             "--seed", "1"],
            ["lemma-check", "--help"],
        ]
        forward = [_quiet_run(argv) for argv in argvs]
        backward = [_quiet_run(argv) for argv in reversed(argvs)][::-1]
        assert forward == backward
        assert [code for code, _, _ in forward] == [0, 1, 1, 0, 1, 0]

    def test_unknown_command_lists_every_command(self, capsys):
        assert run(["wlks"]) == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'wlks'" in err
        listed = err.split("choose from", 1)[1]
        assert all(command in listed for command in _choices(cli._PARSER))


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["nosuchcmd"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["spectrum"]) == 1

    def test_ramanujan_has_no_method_flag(self, capsys):
        assert run(["ramanujan", "--graph", "cycle:8", "--method", "dense"]) == 1
        assert "unrecognized arguments: --method dense" in capsys.readouterr().err

    def test_core_spec_where_a_graph_is_needed(self, capsys):
        assert run(["spectrum", "--graph", "fold:a,rank=2"]) == 1
        assert "@radius" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["walks", "--graph", "cycle:5", "--horizon", "3", "--vertex", "9"],
            ["walks", "--graph", "cycle:5", "--horizon", "3", "--vertex", "-1"],
            ["ball-distance", "cycle:6", "cycle:7", "--max-radius", "0"],
            ["ball-distance", "cycle:6", "cycle:7", "--max-radius", "-3"],
            ["fix-density", "--action", "cyclic:0", "--word", "t"],
            ["irs-sample", "--action", "cyclic:-3", "--exact"],
            ["lemma-check", "lekv", "--action", "cyclic:0"],
            ["lemma-check", "subgroupnorm", "--action", "cyclic:0", "--support", "t,T"],
        ],
        ids=[
            "vertex-past-end", "vertex-negative", "max-radius-0", "max-radius-negative",
            "fix-density-no-points", "irs-no-points", "lekv-no-points",
            "subgroupnorm-no-points",
        ],
    )
    def test_out_of_range_input_is_an_error_line(self, capsys, argv):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def _quiet_run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=2)
def _built(text: str) -> tuple:
    return builders.from_spec(text), None


def _through_the_ball(argv: list[str]) -> tuple[int, str, str]:
    """``_quiet_run`` with every ball spec built first: ``complete_ball``,
    then the path of a whole graph."""
    with mock.patch.object(cli, "parse_spec", _built):
        return _quiet_run(argv)


class TestRootQuestionsFromTheCore:
    """``walks`` at the root and ``rho-estimate`` on ``@R`` and ``tree:``
    specs read the core's counts, the ball's guard by arithmetic and the
    ball's bipartiteness from a depth-R search: the same bytes, refusals
    and exit codes as on the materialized ball."""

    @staticmethod
    def _assert_same_as_the_ball(spec: str, radius: int) -> None:
        for horizon in range(2 * radius + 3):
            for command in ("walks", "rho-estimate"):
                argv = [command, "--graph", spec, "--horizon", str(horizon)]
                assert _quiet_run(argv) == _through_the_ball(argv), argv

    @given(data=st.data(), rank=st.integers(1, 3), radius=st.integers(0, 5))
    def test_folded_cores_match_their_balls(self, data, rank, radius):
        words = data.draw(reference.folded_words(rank), label="words")
        gens = GenSet.free(rank)
        spelled = ",".join(format_word(gens, w) for w in words)
        self._assert_same_as_the_ball(f"fold:{spelled},rank={rank}@{radius}", radius)

    @given(degree=st.integers(2, 6), radius=st.integers(0, 5))
    def test_tree_balls_match(self, degree, radius):
        self._assert_same_as_the_ball(f"tree:d={degree},r={radius}", radius)

    @pytest.mark.parametrize(
        "spec, radius",
        [
            ("fold:aaaaa,rank=2@1", 1),  # the odd cycle lies beyond radius 1
            ("fold:aaaaa,rank=2@2", 2),
            # index 3 in F2, eccentricity 1: a boundary at 0, none beyond
            ("fold:aaa,b,abA,aabAA,rank=2@0", 0),
            ("fold:aaa,b,abA,aabAA,rank=2@1", 1),
            ("fold:aaa,b,abA,aabAA,rank=2@4", 4),
            # index 2, complete and bipartite: a and b both swap the two cosets
            ("fold:aa,ab,aB,rank=2@0", 0),
            ("fold:aa,ab,aB,rank=2@3", 3),
        ],
    )
    def test_chosen_cores_match_their_balls(self, spec, radius):
        self._assert_same_as_the_ball(spec, radius)

    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_a_degree_one_core_hangs_single_leaves(self, tmp_path, radius):
        # one involution, left undefined: the tree it hangs is one leaf, so
        # the ball has no boundary from radius 1 on
        path = tmp_path / "leaf.sgf"
        path.write_text("SGF1\ngens 1\nlabel 0 m inv 0\nvertices 1 root 0\nb 0\n")
        self._assert_same_as_the_ball(f"file:{path}@{radius}", radius)

    def test_a_ball_can_be_bipartite_where_its_core_is_not(self, capsys):
        argv = ["rho-estimate", "--horizon", "2", "--graph"]
        assert _json_out(capsys, [*argv, "fold:aaaaa,rank=2@1"])["result"]["bipartite"]
        assert not _json_out(capsys, [*argv, "fold:aaaaa,rank=2"])["result"]["bipartite"]

    @pytest.mark.parametrize("spec", ["fold:a,rank=2@-1", "tree:d=4,r=-1"])
    @pytest.mark.parametrize("command", ["walks", "rho-estimate"])
    def test_negative_radius_is_refused(self, spec, command):
        argv = [command, "--graph", spec, "--horizon", "2"]
        assert _quiet_run(argv) == (1, "", "error: radius must be nonnegative\n")

    def test_refusal_names_the_radius(self):
        argv = ["walks", "--graph", "tree:d=4,r=2", "--horizon", "5"]
        assert _quiet_run(argv) == (
            1, "", "error: insufficient radius for return counts: distance from "
            "vertex 0 to the truncation boundary is 2, need at least 3\n",
        )

    def test_root_questions_never_build_the_ball(self, capsys, monkeypatch):
        class Built(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Built

        monkeypatch.setattr(builders, "complete_ball", refuse)
        for spec in ("fold:a,rank=2@3", "tree:d=4,r=3"):
            for command in ("walks", "rho-estimate"):
                _json_out(capsys, [command, "--graph", spec, "--horizon", "6"])
            for argv in (
                ["walks", "--graph", spec, "--horizon", "6", "--vertex", "0"],
                ["bs-stats", "--graph", spec, "--radius", "1"],
                ["build", spec],
            ):
                with pytest.raises(Built):
                    run(argv)

    def test_a_ball_over_the_vertex_cap_answers_at_the_root(self, capsys, monkeypatch):
        spec = "tree:d=4,r=14"  # 2,391,485 vertices, over complete_ball's 2,000,000
        argv = ["walks", "--graph", spec, "--horizon", "2"]
        assert _json_out(capsys, argv)["result"]["return_counts"] == [1, 0, 4]
        argv = ["rho-estimate", "--graph", spec, "--horizon", "2"]
        assert _json_out(capsys, argv)["result"]["certified_lower_bound"] == 0.5
        # the paths that build the ball keep the cap's refusal (shown at a
        # lower cap, where the ball is cheap)
        monkeypatch.setattr(builders, "MAX_VERTICES", 1000)
        argv = ["walks", "--graph", "tree:d=4,r=6", "--horizon", "2", "--vertex", "0"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: ball of radius 6 exceeds max_vertices=1000\n"
        )

    def test_radius_takes_the_ball_of_any_graph_but_a_truncation(self, capsys, tmp_path):
        """A complete core read back from its file (a plain graph) answers
        ``@R`` as its spec does, a cycle as its materialized ball, and a
        truncation is refused."""
        spec, path = "fold:a^2,b^2,ab,rank=2", tmp_path / "cc.sgf"
        assert run(["build", spec, "--out", str(path)]) == 0
        capsys.readouterr()
        for command in ("walks", "rho-estimate"):
            argv = [command, "--horizon", "4", "--graph"]
            assert (
                _json_out(capsys, [*argv, f"file:{path}@2"])["result"]
                == _json_out(capsys, [*argv, f"{spec}@2"])["result"]
            )
        self._assert_same_as_the_ball(f"file:{path}@2", 2)
        self._assert_same_as_the_ball("cycle:10@3", 3)
        counts = _json_out(capsys, ["walks", "--graph", "cycle:10@3", "--horizon", "4"])
        ball = builders.complete_ball(builders.cycle_graph(10), 3)
        assert counts["result"]["return_counts"] == list(return_counts(ball, 0, 4))
        path.write_text(serialize(builders.from_spec("tree:d=4,r=3")))
        refusal = (
            "error: '@radius' takes the ball of a core or a whole graph; "
            "this spec names a truncation\n"
        )
        for truncation in (f"file:{path}@2", "tree:d=4,r=3@2"):
            assert _quiet_run(["walks", "--graph", truncation, "--horizon", "4"]) == (
                1, "", refusal
            )

    def test_walks_on_a_bare_core(self, capsys):
        argv = ["walks", "--horizon", "4", "--graph"]
        bare = _json_out(capsys, [*argv, "free:rank=2"])["result"]
        assert bare["return_counts"] == [1, 0, 4, 0, 28]
        assert bare == _json_out(capsys, [*argv, "free:rank=2@2"])["result"]
        # --vertex names a core vertex, walked with its trees
        core = builders.from_spec("fold:ab,rank=2")
        for v in range(core.n):
            counts = _json_out(capsys, [*argv, "fold:ab,rank=2", "--vertex", str(v)])
            assert counts["result"]["return_counts"] == list(return_counts(core, v, 4))


    def test_root_questions_build_no_row_view(self, capsys, monkeypatch):
        """The guard, the bipartite check and the walk stream search the
        core's slot table, and ``--vertex`` the ball's: no ``next`` view."""
        built = []

        def recording(build):
            def wrapper(spec):
                result = build(spec)
                built.append(result[0] if isinstance(result, tuple) else result)
                return result
            return wrapper

        monkeypatch.setattr(cli, "parse_spec", recording(cli.parse_spec))
        monkeypatch.setattr(cli, "from_spec", recording(cli.from_spec))
        for spec in ("fold:ab,aaB,rank=2@4", "tree:d=4,r=4"):
            for command in ("walks", "rho-estimate"):
                _json_out(capsys, [command, "--graph", spec, "--horizon", "8"])
            _json_out(capsys, ["walks", "--graph", spec, "--horizon", "6", "--vertex", "1"])
        assert len(built) == 6
        for source in built:
            g = getattr(source, "graph", source)  # a core's table, or the ball
            assert "slots" in g.__dict__ and "next" not in g.__dict__


class TestWhatEachKindAnswers:
    """``core.stored_layers`` refuses an incomplete core where a question
    reads only stored slots, and the walk counts follow its trees."""

    def test_segment_laws_refuse_the_core_and_domination_takes_it(self, capsys):
        core, ball = builders.from_spec("fold:a,rank=2"), builders.from_spec("fold:a,rank=2@2")
        assert walks.segment_distributions(ball, ball.root, 4, 1)[0] == 50
        with pytest.raises(ValueError, match="complete the core with an '@radius' suffix"):
            walks.segment_distributions(core, core.root, 4, 1)
        argv = ["lemma-check", "different", "--n", "6"]
        tree = _json_out(capsys, [*argv, "--tree-degree", "4"])["result"]["rows"]
        asserted = [*argv, "--graph", "free:rank=2", "--assume-transitive"]
        assert _json_out(capsys, asserted)["result"]["rows"] == tree
        assert _quiet_run([*argv, "--graph", "free:rank=2"]) == (
            1, "", "error: the vertex-transitivity check needs a whole graph; a core's "
            "hanging trees are not searched: pass vertex_transitive=True "
            "(--assume-transitive on the CLI) if the full graph is transitive\n",
        )

    def test_prefix_rows_refuse_the_core_before_asking_for_transitivity(self):
        # the core is refused on the first run, not after --assume-transitive
        for flags in ([], ["--assume-transitive"]):
            argv = ["lemma-check", "returningvsrw", "--graph", "free:rank=2", "--n", "6"]
            assert _quiet_run([*argv, *flags]) == (
                1, "", "error: conditioned prefix rows needs a whole graph; "
                "complete the core with an '@radius' suffix\n",
            )

    def test_an_unchecked_truncation_names_the_flag_that_asserts_it(self, capsys, tmp_path):
        path = tmp_path / "ball.sgf"
        assert run(["build", "fold:a,rank=2@4", "--out", str(path)]) == 0
        capsys.readouterr()
        argv = ["lemma-check", "different", "--graph", f"file:{path}", "--n", "6"]
        assert _quiet_run(argv) == (
            1, "", "error: the vertex-transitivity check needs a whole graph; a truncation "
            "is unknown beyond its boundary: pass vertex_transitive=True "
            "(--assume-transitive on the CLI) if the full graph is transitive\n",
        )
        rows = _json_out(capsys, [*argv[:-2], "--n", "4", "--assume-transitive"])["result"]["rows"]
        assert rows


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "schreier.cli", "build", "cycle:4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("SGF1")

