"""Smoke tests of ``scripts/same_outputs.py``, which compares the CLI
output of two source trees job by job."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "same_outputs.py"
ARGVS = """\
build cycle:5 --out {work}/c5.sgf
lemma-check subgroupnorm --action regular:s3 --support c,C  # a comment
lemma-check modifiedrw --action regular:z6 --supports "a,b;a"
"""


def _compare(old: Path, new: Path, *argv_files: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new), "--seeds", "", *map(str, argv_files)],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_against_itself(tmp_path):
    argv_file = tmp_path / "jobs.argv"
    argv_file.write_text(ARGVS)
    proc = _compare(ROOT / "src", ROOT / "src", argv_file)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "3 jobs, 0 differ"


def test_a_tree_that_prints_otherwise(tmp_path):
    argv_file = tmp_path / "jobs.argv"
    argv_file.write_text(ARGVS)
    fake = tmp_path / "fake" / "schreier"
    fake.mkdir(parents=True)
    (fake / "__init__.py").write_text("")
    (fake / "cli.py").write_text("def run(argv):\n    print(argv[0])\n    return 0\n")
    proc = _compare(ROOT / "src", fake.parent, argv_file)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "3 jobs, 3 differ"
    assert "differs in stdout, --out file (exit 0 -> 0): build cycle:5" in lines[2]
    assert "(exit 1 -> 0): lemma-check modifiedrw" in lines[4]


def test_two_files_in_one_pair_of_interpreters(tmp_path):
    """Both files' jobs run in one interpreter per tree, the second file's
    after the first's; a job listed in both runs once."""
    first, second = tmp_path / "first.argv", tmp_path / "second.argv"
    first.write_text(ARGVS)
    second.write_text("fix-density --action cyclic:6 --word t^3\n" + ARGVS.splitlines()[0] + "\n")
    proc = _compare(ROOT / "src", ROOT / "src", first, second)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()  # one runner line per tree, then the tally
    assert len(lines) == 3 and all(": 4 jobs in " in line for line in lines[:2])
    assert lines[-1] == "4 jobs, 0 differ"
