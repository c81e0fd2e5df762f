"""Smoke tests of ``scripts/mutants.py``, which runs each mutant of a list
against the tests that must kill it.  The full list is not run here."""

import hashlib
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"
KILLER = "tests/test_verdicts.py::test_a_verdict_refuses_what_it_cannot_be"
LIST = f"""\
# one mutant that a test kills, one edit of a comment that none can
name: drop the undecided check
file: src/schreier/core.py
old:         expected = type(None) if self.certificate == "undecided" else bool
new:         expected = type(self.value)
kills: {KILLER}

name: reword a comment
file: src/schreier/core.py
old: # How a verdict is reached: by an integer or rational re-check that raises
new: # How a verdict is reached: by an integer or a rational re-check that raises
kills: {KILLER}
"""


def _sources() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _mutants(list_file: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(list_file)],
        capture_output=True, text=True, timeout=300,
    )


def test_a_killed_mutant_and_a_survivor(tmp_path):
    list_file = tmp_path / "mutants.txt"
    list_file.write_text(LIST)
    before = _sources()
    proc = _mutants(list_file)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("killed ") and lines[0].endswith("  drop the undecided check")
    assert lines[1].startswith("survived ") and lines[1].endswith("  reword a comment")
    assert lines[2] == "2 mutants, 1 killed, 1 survived, 0 could not run"
    assert _sources() == before


def test_an_old_text_must_occur_once(tmp_path):
    list_file = tmp_path / "mutants.txt"
    list_file.write_text(LIST.replace("re-check that raises", "re-check that fails"))
    proc = _mutants(list_file)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: reword a comment: the old text occurs 0 times in "
        "src/schreier/core.py, not once\n"
    )


def test_a_key_given_twice_is_refused():
    parse_list = runpy.run_path(str(SCRIPT))["parse_list"]
    twice = LIST.replace("new:         expected", "old:         expected", 1)
    with pytest.raises(ValueError, match="^line 5: a second old in one entry$"):
        parse_list(twice)


def test_the_committed_list_parses():
    namespace = runpy.run_path(str(SCRIPT))
    mutants = namespace["parse_list"]((ROOT / "scripts" / "mutants.txt").read_text())
    namespace["check_list"](mutants, ROOT)
    assert len(mutants) >= 15
