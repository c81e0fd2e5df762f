"""Run the mutants of a list and report each one that no test kills.

    python scripts/mutants.py [LIST]

LIST (default ``scripts/mutants.txt``) holds one entry per mutant,
separated by blank lines; ``#`` starts a comment line.  An entry's lines
are ``key: text``, the text being everything after the first ``": "``:

    name: walks: drop the domination check
    file: src/schreier/walks.py
    old:         if self.max_other_count > self.return_count:
    new:         if False:
    kills: tests/test_walks.py::TestDomination::test_violation_guard_fires

``kills`` may repeat, one pytest node id each; the other keys are given
once.  ``old`` must occur exactly once in ``file``, or the list is refused
before any mutant runs.

Each mutant runs in one temporary copy of the checkout's ``src/``,
``tests/``, ``scripts/``, ``bench/`` and ``pyproject.toml``: the mutated
file is written there, pytest runs the entry's node ids (stopping at the
first failure) and the file is put back.  The copy is needed because both
``pyproject.toml`` and ``tests/conftest.py`` put their own ``src/`` first
on the import path.  Every listed test must first pass on the unmutated
copy, so that no kill is a test that fails anyway.  A mutant is killed
when one of its tests fails.  The checkout itself is only read.  The exit
status is 1 if a mutant survives, 2 if the list is refused or a test
cannot run or fails unmutated.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "bench", "pyproject.toml")
KEYS = ("name", "file", "old", "new", "kills")


@dataclass
class Mutant:
    name: str = ""
    file: str = ""
    old: str = ""
    new: str = ""
    kills: list[str] = field(default_factory=list)


def parse_list(text: str) -> list[Mutant]:
    """The entries of a mutant list, in order."""
    mutants, current = [], None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            current = None
            continue
        if line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if key not in KEYS or not sep:
            raise ValueError(f"line {number}: expected one of {', '.join(KEYS)}, got {line!r}")
        value = value[1:] if value.startswith(" ") else value
        if current is None:
            current = Mutant()
            mutants.append(current)
        if key == "kills":
            current.kills.append(value)
        elif getattr(current, key):
            raise ValueError(f"line {number}: a second {key} in one entry")
        else:
            setattr(current, key, value)
    for m in mutants:
        if not (m.name and m.file and m.old and m.kills):
            raise ValueError(f"mutant {m.name or m.old!r} needs a name, file, old text and kills")
    return mutants


def check_list(mutants: list[Mutant], root: Path) -> None:
    """Refuse a name used twice, a file outside ``src/`` and an old text
    that does not occur exactly once in its file."""
    names = [m.name for m in mutants]
    for m in mutants:
        if names.count(m.name) > 1:
            raise ValueError(f"mutant name {m.name!r} is used twice")
        if Path(m.file).parts[:1] != ("src",):
            raise ValueError(f"{m.name}: {m.file} is not under src/")
        found = (root / m.file).read_text().count(m.old)
        if found != 1:
            raise ValueError(f"{m.name}: the old text occurs {found} times in {m.file}, not once")


def pytest(node_ids: list[str], copy: Path, env: dict) -> int:
    """pytest's exit status on ``node_ids`` in the copy: 0 passed, 1 failed."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *node_ids],
        cwd=copy, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode not in (0, 1):
        print(proc.stdout[-2000:] + proc.stderr[-2000:], file=sys.stderr)
    return proc.returncode


def run_mutant(m: Mutant, copy: Path, env: dict) -> tuple[str, float]:
    """killed, survived or error (pytest could not run the node ids)."""
    path = copy / m.file
    original = path.read_text()
    path.write_text(original.replace(m.old, m.new, 1))
    start = time.perf_counter()
    try:
        code = pytest(m.kills, copy, env)
    finally:
        path.write_text(original)
    return {0: "survived", 1: "killed"}.get(code, "error"), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("list", nargs="?", default=str(ROOT / "scripts" / "mutants.txt"))
    args = parser.parse_args(argv)
    try:
        mutants = parse_list(Path(args.list).read_text())
        check_list(mutants, ROOT)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # no bytecode: a mutant of the same size, written in the same second,
    # would otherwise run the bytecode of the file it replaced
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    outcomes = []
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        ignore = shutil.ignore_patterns(
            "__pycache__", ".hypothesis", ".pytest_cache", ".out", ".work"
        )
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        unmutated = pytest(list(dict.fromkeys(k for m in mutants for k in m.kills)), copy, env)
        if unmutated:
            print("error: the listed tests do not all pass unmutated", file=sys.stderr)
            return 2
        for m in mutants:
            outcome, seconds = run_mutant(m, copy, env)
            outcomes.append(outcome)
            print(f"{outcome:8} {seconds:5.1f} s  {m.name}", flush=True)
    survived, errors = outcomes.count("survived"), outcomes.count("error")
    print(f"{len(outcomes)} mutants, {outcomes.count('killed')} killed, "
          f"{survived} survived, {errors} could not run")
    return 2 if errors else 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
