"""What importing the package loads: no scipy until a solver runs, and every
memo cache visible to the scan that empties them between benchmark jobs.

Each check runs in a fresh interpreter, since this one has long since
imported everything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

_SCIPY_LOADED = (
    "import sys; print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
)


def _fresh(code: str) -> str:
    """The stdout of ``code`` run in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["schreier.cli", "schreier", "schreier.cycles"])
def test_import_loads_no_scipy(module):
    assert _fresh(f"import {module}; {_SCIPY_LOADED}") == "False"


def test_a_solver_loads_scipy():
    code = (
        "import schreier; rho0 = schreier.rho0; "
        "rho0(schreier.cycle_graph(6)); " + _SCIPY_LOADED
    )
    assert _fresh(code) == "True"


def test_the_cli_import_shows_every_memo_cache():
    """``bench/jobs.program_caches`` scans the modules loaded once the CLI
    is imported; a module loaded later would keep its caches warm across
    jobs."""
    code = f"""
import importlib, json, pkgutil, sys
sys.path.insert(0, {str(BENCH)!r})
import jobs
import schreier.cli

def names():
    return sorted(f"{{c.__module__}}.{{c.__qualname__}}" for c in jobs.program_caches())

after_cli = names()
for info in pkgutil.iter_modules(schreier.__path__):
    importlib.import_module(f"schreier.{{info.name}}")
print(json.dumps([after_cli, names()]))
"""
    after_cli, after_all = json.loads(_fresh(code))
    assert after_cli == after_all
