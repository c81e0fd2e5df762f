"""Spans around the calls into each schreier layer, recorded from outside.

``Tracer`` rebinds every public function of the layer modules (and
``SchreierGraph.validate``) to a timing wrapper, in every ``schreier.*``
namespace that holds it, since modules import each other's functions by
name.  Spans stay in memory as (name, start, end, parent, cover_end,
counts); a span's self time is its duration minus what its children
cover.  Counts are taken after the span ends, and the time they take is
charged to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("core", "builders", "walks", "spectral", "local", "irs", "cycles")


def _max_bits(rows) -> int:
    return max((max(row).bit_length() for row in rows if row), default=0)


def _rho0_counts(args, kwargs, report) -> dict:
    unconverged = not report.converged or not math.isfinite(report.error_bound)
    return {"path": report.method, "unconverged": int(unconverged)}


def _copies(args, kwargs, ensemble) -> dict:
    return {
        "copies": len(ensemble.samples),
        "copied_vertices": sum(g.n for g in ensemble.samples),
    }


# span name -> counts from (args, kwargs, result)
COUNTERS = {
    "core.validate": lambda a, k, r: {"vertices": len(a[0].next)},
    "core.bfs_distances": lambda a, k, r: {"vertices": len(r)},
    "core.serialize": lambda a, k, r: {"bytes": len(r)},
    "core.parse": lambda a, k, r: {"bytes": len(a[0])},
    "builders.random_perm_model": lambda a, k, r: {"vertices": r.n},
    "builders.from_perm_action": lambda a, k, r: {"vertices": r.n},
    "builders.complete_ball": lambda a, k, r: {"vertices": r.n},
    "builders.lps_graph": lambda a, k, r: {"vertices": r.n},
    "builders.stallings_core": lambda a, k, r: {"vertices": r.n},
    "walks.count_walks": lambda a, k, r: {
        "cells": r.graph.n * (r.horizon + 1),
        "max_count_bits": _max_bits(r.rows),
    },
    "walks.core_return_counts": lambda a, k, r: {"max_count_bits": _max_bits([r])},
    "spectral.rho0": _rho0_counts,
    "local.ball": lambda a, k, r: {"vertices_kept": r.graph.n},
    "irs.uniform_conjugate": _copies,
    "irs.stabilizer_sample": _copies,
    "cycles.cycle_counts": lambda a, k, r: {"vertices": a[0].n},
}

# per-layer metrics, per traced round: (name, unit)
PER_LAYER = [
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("core.validate.calls", "count"),
    ("core.validate.vertices", "count"),
    ("core.validate.self_s", "s"),
    ("core.bfs_distances.calls", "count"),
    ("core.bfs_distances.vertices", "count"),
    ("core.bfs_distances.self_s", "s"),
    ("core.canonicalize.calls", "count"),
    ("core.canonicalize.self_s", "s"),
    ("core.serialize.bytes", "bytes"),
    ("core.serialize.self_s", "s"),
    ("core.parse.bytes", "bytes"),
    ("core.parse.self_s", "s"),
    *(
        (f"builders.{fn}.{field}", unit)
        for fn in (
            "random_perm_model", "from_perm_action", "complete_ball",
            "lps_graph", "stallings_core",
        )
        for field, unit in (("calls", "count"), ("vertices", "count"), ("self_s", "s"))
    ),
    ("walks.count_walks.calls", "count"),
    ("walks.count_walks.cells", "count"),
    ("walks.count_walks.self_s", "s"),
    ("walks.core_return_counts.self_s", "s"),
    ("walks.returning_words.self_s", "s"),
    ("walks.max_count_bits", "bits"),
    ("spectral.rho0.dense.calls", "count"),
    ("spectral.rho0.dense.self_s", "s"),
    ("spectral.rho0.iterative.calls", "count"),
    ("spectral.rho0.iterative.self_s", "s"),
    ("spectral.rho0.unconverged", "count"),
    ("spectral.markov_spectrum.self_s", "s"),
    ("spectral.estimate_rho_returns.self_s", "s"),
    ("spectral.tree_rho.self_s", "s"),
    ("local.ball.calls", "count"),
    ("local.ball.vertices_scanned", "count"),
    ("local.ball.vertices_kept", "count"),
    ("local.ball.useful_ratio", "ratio"),
    ("local.ball.self_s", "s"),
    ("local.bs_statistics.self_s", "s"),
    ("local.is_vertex_transitive.self_s", "s"),
    ("irs.uniform_conjugate.self_s", "s"),
    ("irs.stabilizer_sample.self_s", "s"),
    ("irs.graph_copies", "count"),
    ("irs.copied_vertices", "count"),
    ("irs.invariance_diagnostic.self_s", "s"),
    ("cycles.cycle_counts.self_s", "s"),
    ("cycles.cycle_counts.vertices", "count"),
    ("cycles.girth.self_s", "s"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("trace.jobs_per_s", "1/s"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.overhead", "share"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._gc_start = 0.0
        self.gc_s = 0.0
        self.gc_collections = 0
        self.output_bytes = 0
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"schreier.{layer}"]
            names = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for name in names:
                fn = getattr(mod, name)
                if (
                    callable(fn)
                    and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__
                ):
                    wrappers[id(fn)] = (fn, self.wrap(fn, f"{layer}.{name}"))
        self._patches = []
        for modname, mod in list(sys.modules.items()):
            if modname == "schreier" or modname.startswith("schreier."):
                for attr, value in vars(mod).items():
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((mod, attr, value, hit[1]))
        graph = sys.modules["schreier.core"].SchreierGraph
        self._patches.append(
            (graph, "validate", graph.validate, self.wrap(graph.validate, "core.validate"))
        )

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                counts = counter(args, kwargs, result) if ok and counter else {}
                spans[index] = (name, start, end, parent, clock(), counts)

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, _, counts in self.spans:
                fh.write(json.dumps([name, start, end, parent, counts]) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals over the recorded spans, per traced round."""
        spans = self.spans
        covered = [0.0] * len(spans)
        child_bfs = [0] * len(spans)
        for name, start, _, parent, cover_end, counts in spans:
            if parent >= 0:
                covered[parent] += cover_end - start
                if name == "core.bfs_distances":
                    child_bfs[parent] += counts.get("vertices", 0)
        agg: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        max_bits = 0
        for i, (name, start, end, _, _, counts) in enumerate(spans):
            if name == "spectral.rho0":
                counts = dict(counts)
                name = f"{name}.{counts.pop('path', 'failed')}"
                agg["spectral.rho0"]["unconverged"] += counts.pop("unconverged", 0)
            if name == "local.ball":
                kept = counts.get("vertices_kept", 0)
                agg[name]["vertices_scanned"] += max(kept, child_bfs[i])
            row = agg[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - covered[i]
            for key, value in counts.items():
                if key == "max_count_bits":
                    max_bits = max(max_bits, value)
                else:
                    row[key] += value
        ball = agg["local.ball"]
        irs = [agg["irs.uniform_conjugate"], agg["irs.stabilizer_sample"]]
        special = {
            "walks.max_count_bits": max_bits,
            "local.ball.useful_ratio": ball["vertices_kept"] / ball["vertices_scanned"]
            if ball["vertices_scanned"]
            else 0.0,
            "irs.graph_copies": sum(r["copies"] for r in irs) / rounds,
            "irs.copied_vertices": sum(r["copied_vertices"] for r in irs) / rounds,
            "runtime.gc_s": self.gc_s / rounds,
            "runtime.gc_collections": self.gc_collections / rounds,
            "cli.output_bytes": self.output_bytes / rounds,
        }
        metrics = {}
        for metric, _ in PER_LAYER:
            if metric in special:
                metrics[metric] = special[metric]
            elif not metric.startswith("trace."):
                span, _, field = metric.rpartition(".")
                metrics[metric] = agg[span][field] / rounds
        return metrics
