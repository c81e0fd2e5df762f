#!/usr/bin/env python3
"""Run the packaged experiment recipes through ``schreier experiment``.

By default every recipe runs with its paper-scale defaults; that takes a
few minutes (the Alon–Boppana sweep builds graphs on 10^4 vertices five
times).  Pass recipe names to run a subset, or --quick for a cut-down
sweep that finishes in seconds but proves nothing beyond plumbing.

Each recipe prints the CLI's document, and with --out-dir writes it to
NAME.json too; its wall time goes to stderr.  The first recipe that
fails stops the run with the CLI's exit status.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from schreier.cli import run
from schreier.experiments import EXPERIMENTS

QUICK_OVERRIDES = {
    "kesten-amenable": ["--horizon", "60"],
    "kesten-finite-irs": ["--n", "12"],
    "nonamenable-subgroup-counterexample": ["--horizon", "80"],
    "alon-boppana": ["--sizes", "100,400", "--seeds", "1,2"],
    "ramanujan-girth": ["--sizes", "100,400", "--seeds", "1,2"],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "names",
        nargs="*",
        choices=[*sorted(EXPERIMENTS), []],
        help="recipes to run (default: all)",
    )
    parser.add_argument("--quick", action="store_true", help="small-instance dry run")
    parser.add_argument("--out-dir", type=Path, help="write one JSON file per recipe")
    args = parser.parse_args()

    if args.out_dir:
        args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in args.names or sorted(EXPERIMENTS):
        flags = QUICK_OVERRIDES.get(name, []) if args.quick else []
        out = ["--out", str(args.out_dir / f"{name}.json")] if args.out_dir else []
        started = time.perf_counter()
        code = run(["experiment", name, *flags, *out])
        print(f"{name}: {time.perf_counter() - started:.1f}s", file=sys.stderr)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
