"""Closed-loop benchmark of the schreier CLI: one workload per run.

    python3 bench/run.py --workload certify --seed 0 --seconds 20 --trace 0

Run from the repository root (the program is imported from ``src/``).
The process is a single client that runs the workload's job mix through
``schreier.cli.run`` in-process, one job at a time, for whole rounds.  The
last stdout line is the result object; the line before it is a report with
provenance, raw timings and any failed jobs.  ``--trace 0`` gives the
end-to-end metrics, with wall times scaled to the reference host speed by
``calibrate.Probe``; ``--trace 1`` alternates untraced and traced rounds
and gives the per-layer metrics plus the tracing overhead.  See
``bench/README.md``.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set before numpy loads.  One BLAS thread: on a small shared machine a
# second thread spin-waits whenever a neighbour holds the other core, which
# made dense and Lanczos job times swing far more than single-threaded ones.
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10
# at least this many jobs per run, so the tail job sits above the median
MIN_JOBS = 2 * TAIL_BEYOND + 1

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import jobs  # noqa: E402


def measure_setup(probe: calibrate.Probe) -> float:
    """Median wall time of a fresh interpreter importing schreier.cli, with
    the bytecode cache warm.  The host-speed probe runs before each one."""
    compileall.compile_dir(SRC / "schreier", quiet=1)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", "import schreier.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, rounds: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
        "nproc": NPROC,
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "instance_seeds": [
            (args.seed * rounds + r) % jobs.SEED_POOL for r in range(rounds)
        ],
    }


def quantile(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted average of
    all order statistics.  The job mix has gaps between job kinds, and a
    single order statistic jumped across them from run to run."""
    import numpy
    from scipy.special import betainc

    n = len(ordered)
    cdf = betainc(p * (n + 1), (1 - p) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.diff(cdf) @ numpy.asarray(ordered))


def job_metrics(times: list[float], passed: int) -> dict:
    ordered = sorted(times)
    # the highest percentile that leaves ten jobs beyond it
    tail = max(len(ordered) - TAIL_BEYOND, 1) / len(ordered)
    return {
        "job_p50_s": quantile(ordered, 0.5),
        "job_tail_s": quantile(ordered, tail),
        "tail_percentile": 100.0 * tail,
        "jobs_per_s": passed / sum(ordered),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "schreier" / "cli.py").is_file():
        print(f"error: no schreier sources under {SRC}", file=sys.stderr)
        return 2

    round_s = jobs.WORKLOADS[args.workload][1]
    first = jobs.mix(args.workload, 0)
    per_round = len(first)
    once = sum(job.once_per_run for job in first)
    rounds = math.ceil(args.seconds / round_s)
    while rounds * (per_round - once) + once < MIN_JOBS:
        rounds += 1
    # the round in which a once_per_run job last runs
    last_once = 1 if args.trace else 0
    # Each round draws its own instances, so a run averages over several and
    # its figures depend less on one seed's graphs.  Seeds s and s+1 share
    # none while rounds * (s+2) <= SEED_POOL.
    mixes = [jobs.mix(args.workload, args.seed * rounds + r) for r in range(rounds)]
    probe = None if args.trace else calibrate.Probe()
    setup_s = None if args.trace else measure_setup(probe)

    sys.path.insert(0, str(SRC))
    from schreier.cli import run as cli_run

    import tracing

    caches = jobs.program_caches()
    tracer = tracing.Tracer() if args.trace else None
    refs = jobs.load_references(args.workload)
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    jobs.prepare_work(work)
    times = {False: [], True: []}
    job_times = [[] for _ in range(per_round)]
    passed = {False: 0, True: 0}
    failures = []
    try:
        for r in range(rounds):
            traced = bool(args.trace) and r % 2 == 1
            run = tracer.wrap(cli_run, "cli") if traced else cli_run
            if traced:
                tracer.install()
            try:
                for i, job in enumerate(mixes[r]):
                    if job.once_per_run and r > last_once:
                        continue
                    code, out, err, wall = jobs.execute(run, job, work, caches)
                    if traced:
                        tracer.output_bytes += len(out)
                    times[traced].append(wall)
                    if not traced:
                        job_times[i].append(wall)
                    if probe is not None:
                        probe.sample()
                    reason = jobs.check(job, refs[job.key], code, out, err, work)
                    if reason is None:
                        passed[traced] += 1
                    else:
                        failures.append((r, job, reason, err.strip().splitlines()[-1:]))
            finally:
                if traced:
                    tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(times[False]) + len(times[True])
    untraced = job_metrics(times[False], passed[False])
    report = {
        "provenance": provenance(args, rounds),
        "jobs_per_round": per_round,
        # median over the untraced rounds, labelled with the first round's job
        "job_median_s": {
            job.key: statistics.median(t) for job, t in zip(mixes[0], job_times)
        },
        "failures": [
            {"round": r, "job": job.key, "reason": reason, "stderr": tail,
             "known_defect": job.known_defect}
            for r, job, reason, tail in failures
        ],
    }
    if args.trace:
        traced_rounds = rounds // 2
        metrics = tracer.layer_metrics(traced_rounds)
        traced_rate = job_metrics(times[True], passed[True])["jobs_per_s"]
        metrics["trace.jobs_per_s"] = traced_rate
        metrics["trace.untraced_jobs_per_s"] = untraced["jobs_per_s"]
        metrics["trace.overhead"] = untraced["jobs_per_s"] / traced_rate - 1.0
        spans_file = BENCH / ".out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        report["spans"] = str(spans_file.relative_to(ROOT))
        units = dict(tracing.PER_LAYER)
    else:
        report["job_tail_s"] = (
            f"p{untraced['tail_percentile']:.1f} of {len(times[False])} jobs"
        )
        scale = probe.scale()
        report["host_probe"] = {
            "median_s": probe.median_s(),
            "reference_s": calibrate.REFERENCE_S,
            "samples": len(probe.samples),
            "scale": scale,
        }
        report["raw"] = {
            "setup_s": setup_s,
            "job_p50_s": untraced["job_p50_s"],
            "job_tail_s": untraced["job_tail_s"],
            "jobs_per_s": untraced["jobs_per_s"],
        }
        metrics = {
            "setup_s": setup_s * scale,
            "job_p50_s": untraced["job_p50_s"] * scale,
            "job_tail_s": untraced["job_tail_s"] * scale,
            "jobs_per_s": untraced["jobs_per_s"] / scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_share": passed[False] / len(times[False]),
        }
        units = dict(END_TO_END)
    print(json.dumps(report))
    print(
        json.dumps(
            {
                # only the documented defect may fail; anything else is wrong
                "correct": all(job.known_defect for _, job, _, _ in failures),
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


END_TO_END = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("pass_share", "share"),
]


if __name__ == "__main__":
    sys.exit(main())
