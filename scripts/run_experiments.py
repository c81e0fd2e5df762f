#!/usr/bin/env python3
"""Run the packaged experiment recipes and collect their JSON reports.

By default every recipe runs with its paper-scale defaults; that takes a
few minutes (the Alon–Boppana sweep builds graphs on 10^4 vertices five
times).  Pass recipe names to run a subset, or --quick for a cut-down
sweep that finishes in seconds but proves nothing beyond plumbing.

Each report is written as the CLI writes a result: every verdict as its
boolean, listed with its certificate in a ``verdicts`` block, and a NaN
or infinity refused.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from schreier.cli import plain
from schreier.experiments import EXPERIMENTS

QUICK_OVERRIDES = {
    "kesten-amenable": {"horizon": 60},
    "kesten-finite-irs": {"n": 12},
    "nonamenable-subgroup-counterexample": {"horizon": 80},
    "alon-boppana": {"sizes": (100, 400), "seeds": (1, 2)},
    "ramanujan-girth": {"sizes": (100, 400), "seeds": (1, 2)},
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

    names = args.names or sorted(EXPERIMENTS)
    if args.out_dir:
        args.out_dir.mkdir(parents=True, exist_ok=True)

    for name in names:
        kwargs = QUICK_OVERRIDES.get(name, {}) if args.quick else {}
        started = time.perf_counter()
        report = EXPERIMENTS[name](**kwargs)
        elapsed = time.perf_counter() - started
        report["elapsed_seconds"] = round(elapsed, 3)
        report, verdicts = plain(report, "report")
        if verdicts:
            report["verdicts"] = verdicts
        text = json.dumps(report, indent=2)
        if args.out_dir:
            path = args.out_dir / f"{name}.json"
            path.write_text(text + "\n")
            print(f"{name}: {elapsed:.1f}s -> {path}", file=sys.stderr)
        else:
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
