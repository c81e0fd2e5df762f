"""Compare what two source trees print for the same CLI jobs.

    python scripts/same_outputs.py OLD_SRC NEW_SRC [--seeds 0,1,2,3] [ARGV_FILE ...]

OLD_SRC and NEW_SRC are directories that hold the ``schreier`` package
(the ``src/`` of two checkouts).  The jobs are every bench job of both
workloads at the given instance seeds, as ``bench/jobs.py`` of this
checkout defines them (``--seeds ''`` for none), then one job per line of
each ARGV_FILE in turn: the CLI arguments, shell-quoted, ``{work}`` for
the scratch directory and ``#`` for a comment.  A job that repeats, in
one file or across files, runs once.

Each tree runs every job in one fresh interpreter, in-process through
``schreier.cli.run`` with the memo caches emptied first, as the benchmark
does, and one BLAS thread.  A job whose exit code, stdout, stderr or
``--out`` file differs between the trees is printed, with the scratch
directory read as ``{work}``; the exit status is 1 if any job differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import jobs  # noqa: E402

# runs in the tree's interpreter: reads [bench dir, work dir, argvs] on
# stdin and prints the package it imported and one row per job
_RUNNER = r"""
import hashlib, json, sys
from pathlib import Path

bench, work, argvs = json.loads(sys.stdin.read())
sys.path.insert(0, bench)
import jobs
import schreier
from schreier.cli import run

work = Path(work)
jobs.prepare_work(work)
caches = jobs.program_caches()


def digest(text):
    return hashlib.sha256(text.replace(str(work), "{work}").encode()).hexdigest()


rows = []
for argv in argvs:
    job = jobs.Job(tuple(argv))
    code, out, err, _ = jobs.execute(run, job, work, caches)
    row = {"exit code": code, "stdout": digest(out), "stderr": digest(err)}
    if "--out" in argv:
        path = Path(job.resolve(work)[argv.index("--out") + 1])
        row["--out file"] = digest(path.read_text()) if path.exists() else None
    rows.append(row)
print(json.dumps({"package": schreier.__file__, "rows": rows}))
"""


def job_argvs(seeds: list[int], argv_files: list[str]) -> list[tuple[str, ...]]:
    """The bench jobs of every workload at each seed, then the files'
    lines, each distinct argv once, in first-occurrence order."""
    argvs = [
        job.argv for seed in seeds for workload in jobs.WORKLOADS
        for job in jobs.mix(workload, seed)
    ]
    for argv_file in argv_files:
        lines = Path(argv_file).read_text().splitlines()
        argvs += [tuple(tokens) for line in lines if (tokens := shlex.split(line, comments=True))]
    return list(dict.fromkeys(argvs))


def run_tree(src: str, argvs: list[tuple[str, ...]], work: Path) -> list[dict]:
    """One row per job from a fresh interpreter that imports ``src``."""
    src_dir = Path(src).resolve()
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    env.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _RUNNER],
        input=json.dumps([str(BENCH), str(work), argvs]),
        capture_output=True, text=True, env=env, cwd=work, check=False,
    )
    if proc.returncode:
        raise SystemExit(f"the runner failed on {src}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    if not Path(doc["package"]).resolve().is_relative_to(src_dir):
        raise SystemExit(f"{src} does not hold the schreier package: {doc['package']} ran")
    print(f"{src}: {len(argvs)} jobs in {time.perf_counter() - start:.1f} s")
    return doc["rows"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--seeds", default="0,1,2,3",
                        help="comma-separated instance seeds of the bench jobs ('' for none)")
    parser.add_argument("argv_files", nargs="*", metavar="argv_file",
                        help="one CLI job per line")
    args = parser.parse_intermixed_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    argvs = job_argvs(seeds, args.argv_files)
    with tempfile.TemporaryDirectory() as scratch:
        old = run_tree(args.old_src, argvs, Path(scratch) / "old")
        new = run_tree(args.new_src, argvs, Path(scratch) / "new")
    differ = 0
    for job, a, b in zip(argvs, old, new):
        fields = [key for key in a if a[key] != b[key]]
        if fields:
            differ += 1
            codes = f"exit {a['exit code']} -> {b['exit code']}"
            print(f"differs in {', '.join(fields)} ({codes}): {shlex.join(job)}")
    print(f"{len(argvs)} jobs, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
