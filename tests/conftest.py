import os
import re
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

# one BLAS thread, as bench/run.py pins it, set before anything imports
# numpy: a spinning BLAS thread pool makes the timed acceptance caps depend
# on what else runs on the machine; the CLI subprocesses inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# test_walks reruns whole test classes under a smaller modulus cap by
# subclassing them, so one @given test has an executor per class
settings.register_profile(
    "exact", deadline=None, suppress_health_check=[HealthCheck.differing_executors]
)
settings.load_profile("exact")

# pyproject's `pythonpath` reaches this process only; the CLI subprocesses
# the tests start find the package through the environment
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


@pytest.fixture
def transitivity_decisions(monkeypatch):
    """The graphs whose ``vertex_transitive`` is computed while the test
    runs, one entry per computation: the cached property's function is
    wrapped in a new cached property under the same name."""
    from schreier.core import SchreierGraph

    decide, decided = SchreierGraph.vertex_transitive.func, []

    def counted(g):
        decided.append(g)
        return decide(g)

    counting = cached_property(counted)
    counting.__set_name__(SchreierGraph, "vertex_transitive")
    monkeypatch.setattr(SchreierGraph, "vertex_transitive", counting)
    return decided


_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_(\d{2})_(\w+)")


def pytest_runtest_logreport(report):
    """One visible verdict line per acceptance criterion."""
    if report.when != "call":
        return
    m = _ACCEPTANCE.search(report.nodeid)
    if m is None:
        return
    verdict = "PASS" if report.passed else "FAIL"
    name = m.group(2).replace("_", " ")
    print(f"\nACCEPTANCE {m.group(1)} ({name}): {verdict}", flush=True)
