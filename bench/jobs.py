"""Workload job mixes and the correctness gate behind every job.

A job is one CLI invocation (argv for ``schreier.cli.run``).  ``{work}``
in an argument stands for the run's scratch directory.  An instance seed
s draws its random instances from the graph seeds 2s' and 2s'+1 with
s' = s mod SEED_POOL, so the references in ``references/`` cover every
instance any seed can produce and every run is checked.  ``run.py`` gives
round r of a run with workload seed S the instance seed S * rounds + r.
Workload seed 0 is the default seed and seed 1 the held-out one: their
instances are disjoint.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SEED_POOL = 16
FLOAT_TOL = 1e-9

# Result keys that say how an answer was computed rather than what it is;
# the ROADMAP allows each of them to change or disappear.
IGNORED_KEYS = frozenset(
    {
        "method",
        "error_bound",
        "extrapolated",
        "schreier_extrapolated",
        "cayley_extrapolated",
        "worker_count",
    }
)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    # text the error message must contain, for jobs that must exit non-zero
    stderr_has: str | None = None
    # why this job fails at the parent commit, for the one documented defect
    known_defect: str | None = None
    # run in the first round only (and the first traced round): for a job
    # with no random instance, which later rounds would only repeat
    once_per_run: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    def resolve(self, work: Path) -> list[str]:
        return [a.replace("{work}", str(work)) for a in self.argv]


def _job(*argv: str, **kw) -> Job:
    return Job(tuple(argv), **kw)


def _rp(n: int, seed: int) -> str:
    return f"randperm:m=2,n={n},seed={seed}"


CYCLE_5000_DEFECT = (
    "the iterative solver does not converge on cycle:5000 and prints "
    '"error_bound": NaN with verdict false (ROADMAP item 3)'
)


def certify(a: int, b: int) -> list[Job]:
    """Ramanujan / Alon-Boppana sweep: spectral and cycles do the work."""
    return [
        _job("ramanujan", "--graph", _rp(2000, a)),
        _job("ramanujan", "--graph", _rp(2000, b)),
        _job("ramanujan", "--graph", _rp(10000, a)),
        _job("ramanujan", "--graph", _rp(10000, b)),
        _job("ramanujan", "--graph", "lps:p=17,q=13"),
        _job("ramanujan", "--graph", "lps:p=5,q=13"),
        # about 11 s, half a certify round, on a host where the driver's
        # runs must fit in 3420 s
        _job(
            "ramanujan", "--graph", "cycle:5000",
            known_defect=CYCLE_5000_DEFECT, once_per_run=True,
        ),
        _job("cycles", "--lmax", "5", "--graph", _rp(10000, a)),
        _job("cycles", "--lmax", "5", "--graph", "lps:p=5,q=13"),
        # write-beside-read pair: build writes SGF1, file: parses it back
        _job("build", _rp(30000, a), "--out", f"{{work}}/rp30000-{a}.sgf"),
        _job("build", _rp(100000, a), "--out", f"{{work}}/rp100000-{a}.sgf"),
        _job("ramanujan", "--graph", f"file:{{work}}/rp30000-{a}.sgf"),
        _job("cycles", "--lmax", "5", "--graph", f"file:{{work}}/rp100000-{a}.sgf"),
        # trust boundary: parse must reject both files
        _job("cycles", "--graph", "file:{work}/malformed.sgf", stderr_has="error:"),
        _job(
            "ramanujan", "--graph", "file:{work}/label-violation.sgf",
            stderr_has="label-consistency",
        ),
    ]


def ensembles(a: int, b: int) -> list[Job]:
    """IRS and ball statistics: local, irs and graph construction do the work."""
    return [
        _job("irs-sample", "--exact", "--action", _rp(200, a), "--radius", "2"),
        _job("irs-sample", "--exact", "--action", _rp(300, a), "--radius", "2"),
        _job("irs-sample", "--exact", "--action", _rp(300, a), "--radius", "3"),
        _job(
            "irs-sample", "--action", _rp(2000, a), "--count", "200",
            "--seed", str(b), "--radius", "2",
        ),
        _job("bs-stats", "--graph", _rp(1000, a), "--radius", "3"),
        _job("bs-stats", "--graph", "lps:p=5,q=13", "--radius", "2"),
        _job("ball-distance", _rp(1000, a), _rp(1000, b)),
        _job("lemma-check", "lekv", "--action", _rp(1000, b)),
        _job("experiment", "kesten-finite-irs", "--n", "200", "--seed", str(a)),
    ]


def returns(a: int, b: int) -> list[Job]:
    """Exact walk DPs: walks, complete_ball and return-count estimates."""
    return [
        _job("rho-estimate", "--graph", "fold:a,rank=2", "--horizon", "300"),
        _job("rho-estimate", "--graph", "fold:a,b,rank=4", "--horizon", "300"),
        _job("rho-estimate", "--graph", "fold:ab,rank=3", "--horizon", "400"),
        _job("rho-estimate", "--graph", "free:rank=2", "--horizon", "400"),
        _job("rho-estimate", "--graph", "fold:a,rank=2@11", "--horizon", "22"),
        _job("walks", "--graph", "tree:d=4,r=11", "--horizon", "22"),
        _job("walks", "--graph", "lps:p=17,q=13", "--horizon", "100"),
        _job("walks", "--graph", _rp(10000, a), "--horizon", "40"),
        _job("lemma-check", "different", "--tree-degree", "4", "--n", "40"),
        _job("lemma-check", "different", "--graph", "cycle:200", "--n", "40"),
        _job("lemma-check", "triv1", "--group", "F2", "--n", "8"),
        _job("lemma-check", "triv2", "--group", "F2", "--n", "6"),
        _job("experiment", "nonamenable-subgroup-counterexample"),
    ]


def ensembles_returns(a: int, b: int) -> list[Job]:
    """The ensembles jobs, then the returns jobs, in one round.  One workload
    rather than two: the driver's 4 + 22 x workloads runs of three workloads
    took about 3300 s of the 3420 s allowed on a slow host."""
    return ensembles(a, b) + returns(a, b)


# name -> (mix builder, wall seconds of one round at the commit that defined
# the benchmark, on a 2-vCPU x86-64 VM); rounds per run derive from the latter
WORKLOADS = {
    "certify": (certify, 22.0),
    "ensembles-returns": (ensembles_returns, 16.0),
}


def mix(workload: str, seed: int) -> list[Job]:
    s = seed % SEED_POOL
    return WORKLOADS[workload][0](2 * s, 2 * s + 1)


# References that are not the parent's output because the parent is wrong:
# the cycle is 2-regular and bipartite, so rho0 = 1 = rho(T_2) exactly.
ANALYTIC = {
    "ramanujan --graph cycle:5000": {
        "code": 0,
        "result": {
            "n": 5000,
            "degree": 2,
            "rho0": 1.0,
            "threshold": 1.0,
            "verdict": True,
            "strict": True,
            "equality": True,
        },
    }
}

MALFORMED_SGF1 = "SGF1\ngens 2\nlabel 0 t inv 1\nthis is not an SGF1 line\n"

# a 3-cycle whose last T-edge points back to 0 instead of 1
LABEL_VIOLATION_SGF1 = """SGF1
gens 2
label 0 t inv 1
label 1 T inv 0
vertices 3 root 0
e 0 0 1
e 1 0 2
e 2 0 0
e 0 1 2
e 1 1 0
e 2 1 0
"""


def prepare_work(work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    (work / "malformed.sgf").write_text(MALFORMED_SGF1)
    (work / "label-violation.sgf").write_text(LABEL_VIOLATION_SGF1)


def program_caches() -> list:
    """Every memo cache in the loaded schreier modules."""
    caches = {
        id(obj): obj
        for name, mod in list(sys.modules.items())
        if name == "schreier" or name.startswith("schreier.")
        for obj in vars(mod).values()
        if hasattr(obj, "cache_clear")
    }
    return list(caches.values())


def execute(cli_run, job: Job, work: Path, caches) -> tuple[int, str, str, float]:
    """Run one job in-process: exit code, stdout, stderr and wall seconds.

    The program's memo caches are emptied first, so each job starts as
    cold as a separate CLI invocation would (imports aside).
    """
    for cache in caches:
        cache.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_run(job.resolve(work))
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), wall


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _fraction(entry: dict) -> Fraction:
    return Fraction(entry["num"], entry["den"])


def normalize(value):
    """Drop how-fields and turn ball-class lists into their multiset of
    frequencies, since digest strings may change but not what they mean."""
    if isinstance(value, dict):
        return {k: normalize(v) for k, v in value.items() if k not in IGNORED_KEYS}
    if isinstance(value, list):
        if value and all(isinstance(x, dict) and "digest" in x for x in value):
            weights = [
                next(v for k, v in x.items() if k != "digest") for x in value
            ]
            return [
                [f["num"], f["den"]] for f in sorted(weights, key=_fraction)
            ]
        return [normalize(v) for v in value]
    return value


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def agree(ref, cur, tol: float) -> bool:
    """Exact equality, except floats within tol plus FLOAT_TOL (relative).
    Keys the reference lacks are ignored, so new report fields pass."""
    if isinstance(ref, dict):
        return isinstance(cur, dict) and all(
            k in cur and agree(v, cur[k], tol) for k, v in ref.items()
        )
    if isinstance(ref, list):
        return (
            isinstance(cur, list)
            and len(ref) == len(cur)
            and all(agree(a, b, tol) for a, b in zip(ref, cur))
        )
    if isinstance(ref, float) or isinstance(cur, float):
        return (
            _is_number(ref)
            and _is_number(cur)
            and abs(ref - cur) <= tol + FLOAT_TOL * max(1.0, abs(ref))
        )
    return type(ref) is type(cur) and ref == cur


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def reference_entry(job: Job, code: int, stdout: str, work: Path) -> dict:
    """What the references record for one job's output."""
    stdout = stdout.replace(str(work), "{work}")
    entry: dict = {"code": code}
    if code != 0:
        return entry
    if job.argv[0] == "build":
        entry["sha256"] = sha256(stdout)
        return entry
    result = strict_json(stdout)["result"]
    bound = result.get("error_bound") if isinstance(result, dict) else None
    if _is_number(bound):
        entry["error_bound"] = bound
    entry["result"] = normalize(result)
    return entry


def check(job: Job, ref: dict, code: int, stdout: str, stderr: str, work: Path) -> str | None:
    """None when the job's output matches its reference, else the reason."""
    if code != ref["code"]:
        return f"exit code {code}, expected {ref['code']}"
    if code != 0:
        if stdout:
            return "printed output although it failed"
        if job.stderr_has and job.stderr_has not in stderr:
            return f"error message lacks {job.stderr_has!r}"
        return None
    text = stdout.replace(str(work), "{work}")
    if "sha256" in ref:
        if sha256(text) != ref["sha256"]:
            return "SGF1 output differs from the reference"
        out = Path(job.resolve(work)[job.argv.index("--out") + 1])
        if out.read_text() != stdout:
            return "--out file differs from the printed SGF1"
        return None
    try:
        doc = strict_json(text)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    if doc.get("command") != job.argv[0]:
        return f"command field {doc.get('command')!r}"
    result = doc.get("result")
    bound = result.get("error_bound") if isinstance(result, dict) else None
    tol = ref.get("error_bound", 0.0) + (bound if _is_number(bound) else 0.0)
    if not agree(ref["result"], normalize(result), tol):
        return "result differs from the reference"
    return None


def references_path(workload: str) -> Path:
    return Path(__file__).resolve().parent / "references" / f"{workload}.json"


def load_references(workload: str) -> dict[str, dict]:
    return json.loads(references_path(workload).read_text())
