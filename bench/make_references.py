"""Record the reference output of every job any workload seed can produce.

Run from the repository root at the commit whose outputs are trusted:

    python3 bench/make_references.py [workload ...]

Jobs listed in ``jobs.ANALYTIC`` take their analytic reference instead,
because the program is known to be wrong on them.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import jobs  # noqa: E402
from schreier.cli import run as cli_run  # noqa: E402


def main(names: list[str]) -> None:
    caches = jobs.program_caches()
    work = BENCH / ".work" / "references"
    jobs.prepare_work(work)
    try:
        for workload in names or list(jobs.WORKLOADS):
            refs: dict[str, dict] = {}
            for seed in range(jobs.SEED_POOL):
                for job in jobs.mix(workload, seed):
                    if job.key in refs:
                        continue
                    if job.key in jobs.ANALYTIC:
                        refs[job.key] = jobs.ANALYTIC[job.key]
                        continue
                    code, out, _, wall = jobs.execute(cli_run, job, work, caches)
                    refs[job.key] = jobs.reference_entry(job, code, out, work)
                    print(f"{workload} {wall:7.3f}s exit {code} {job.key}", file=sys.stderr)
            path = jobs.references_path(workload)
            path.parent.mkdir(exist_ok=True)
            lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(refs.items())]
            path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
