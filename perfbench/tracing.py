"""Spans around every call into hullsketch's public functions.

`Tracer.install` wraps each public function of the layer modules and
rebinds the wrapper in every hullsketch namespace that holds the original
(`cli`, `compression` and `metrics` import names with ``from .x import y``).
A span is ``[name, start, end, parent, op, counters]``: `parent` indexes
the enclosing span of the same process (-1 at top level) and `op` labels
the operation the call belongs to.  Spans stay in memory until `dump`.

`layer_metrics` turns the spans of one workload iteration into the
per-layer metrics.  A layer's self time is its spans' time minus the time
their child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("cli", "io", "datagen", "directions", "sketch", "compression", "geometry", "metrics")
CLI_STAGES = ("gen", "sketch", "compress", "error", "bench")
IO_READS = ("io.read_matrix", "io.read_points", "io.read_halfspaces", "io.read_directions")
IO_WRITES = ("io.write_matrix", "io.write_points", "io.write_halfspaces", "io.write_directions")
MB = 1e6

# Every per-layer metric the traced run prints: (name, unit, better).
PER_LAYER = [
    *[(f"cli.{s}_s", "s", "lower") for s in CLI_STAGES],
    ("cli.self_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    *[(f"cli.peak_rss_mb.{s}", "MB", "lower") for s in CLI_STAGES],
    ("io.read_s", "s", "lower"),
    ("io.read_calls", "count", "lower"),
    ("io.read_mb", "MB", "lower"),
    ("io.read_mb_per_s", "MB/s", "higher"),
    ("io.write_s", "s", "lower"),
    ("io.write_mb", "MB", "lower"),
    ("io.write_mb_per_s", "MB/s", "higher"),
    ("io.self_s", "s", "lower"),
    ("datagen.generate_s", "s", "lower"),
    ("datagen.self_s", "s", "lower"),
    ("directions.sample_s", "s", "lower"),
    ("directions.self_s", "s", "lower"),
    ("sketch.build_s", "s", "lower"),
    ("sketch.build_calls", "count", "lower"),
    ("sketch.pairs", "count", "lower"),
    ("sketch.pairs_per_s", "1/s", "higher"),
    ("sketch.dense_gflop", "GFLOP", "lower"),
    ("sketch.build_s.cube", "s", "lower"),
    ("sketch.build_s.sphere", "s", "lower"),
    ("sketch.found", "count", "higher"),
    ("sketch.threshold_s", "s", "lower"),
    ("sketch.outer_hull_s", "s", "lower"),
    ("sketch.self_s", "s", "lower"),
    ("compression.vertex_s", "s", "lower"),
    ("compression.vertex_in", "count", "lower"),
    ("compression.vertex_out", "count", "lower"),
    ("compression.bundle_s", "s", "lower"),
    ("compression.hyperplane_s", "s", "lower"),
    ("compression.hyperplane_out", "count", "lower"),
    ("compression.hyperplane_inner_sketches", "count", "lower"),
    ("compression.self_s", "s", "lower"),
    ("geometry.project_calls", "count", "lower"),
    ("geometry.project_s", "s", "lower"),
    ("geometry.project_iterations", "count", "lower"),
    ("geometry.extreme_s", "s", "lower"),
    ("geometry.extreme_in", "count", "lower"),
    ("geometry.extreme_out", "count", "higher"),
    ("geometry.extreme_useful_ratio", "ratio", "higher"),
    ("geometry.self_s", "s", "lower"),
    ("metrics.inner_error_s", "s", "lower"),
    ("metrics.outer_error_s", "s", "lower"),
    ("metrics.lp_calls", "count", "lower"),
    ("metrics.lp_s", "s", "lower"),
    ("metrics.lp_rows", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def now() -> float:
    """Monotonic seconds, comparable between the processes of one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# Work counters taken from a call's arguments and result.
COUNTERS = {
    **{name: _file_bytes for name in IO_READS + IO_WRITES},
    "sketch.build_sketch": lambda a, k, r: {
        "pairs": len(r.cloud) * len(r.dirs),
        "flop": 2 * len(r.cloud) * len(r.dirs) * r.cloud.dim,
        "found": int((r.counts > 0).sum()),
    },
    "compression.vertex_compress": lambda a, k, r: {
        "in": len(_arg(a, k, 0, "inner")),
        "out": len(r[0]),
    },
    "compression.hyperplane_compress": lambda a, k, r: {"out": len(r)},
    "geometry.project_onto_hull": lambda a, k, r: {"iterations": r.iterations},
    "geometry.exact_extreme_points": lambda a, k, r: {
        "in": len(_arg(a, k, 0, "cloud")),
        "out": len(r),
    },
    "metrics.support_under_constraints": lambda a, k, r: {"rows": len(_arg(a, k, 0, "outer"))},
}


class Tracer:
    def __init__(self, op: str = ""):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                self._stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        package = importlib.import_module("hullsketch")
        modules = {layer: importlib.import_module(f"hullsketch.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key in [k for k, v in vars(ns).items() if v is fn]:
                        setattr(ns, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, *_) in enumerate(spans)]


def layer_metrics(processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one iteration.

    Each entry of ``processes`` describes one traced process: its ``spans``,
    and for a CLI stage its ``stage`` name, launcher-measured ``wall_s``
    and ``peak_rss_mb``.
    """
    m: dict[str, float] = {f"cli.{s}_s": 0.0 for s in CLI_STAGES}
    m.update({f"cli.peak_rss_mb.{s}": 0.0 for s in CLI_STAGES})
    m.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    m["cli.startup_s"] = 0.0
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    inner_sketches = 0
    build_by_shape = {"cube": 0.0, "sphere": 0.0}

    for proc in processes:
        spans = proc["spans"]
        for (name, start, end, parent, op, counters), own in zip(spans, _self_times(spans)):
            m[f"{name.split('.')[0]}.self_s"] += own
            # A nested span of the same function or I/O direction is already
            # inside its parent's time.
            nested = parent >= 0 and (
                spans[parent][0] == name
                or (name in IO_READS and spans[parent][0] in IO_READS)
                or (name in IO_WRITES and spans[parent][0] in IO_WRITES)
            )
            if nested:
                continue
            totals[name] = totals.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            for key, value in (counters or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            if name == "sketch.build_sketch":
                for shape in build_by_shape:
                    if shape in op:
                        build_by_shape[shape] += end - start
                if parent >= 0 and spans[parent][0] == "compression.hyperplane_compress":
                    inner_sketches += 1
            if name == "compression.hyperplane_compress":
                inner_sketches -= 1  # its final re-sketch of the cloud is not an inner one
        stage = proc.get("stage")
        if stage is not None:
            m[f"cli.{stage}_s"] += proc["wall_s"]
            key = f"cli.peak_rss_mb.{stage}"
            m[key] = max(m[key], proc["peak_rss_mb"])
            main = sum(end - start for name, start, end, parent, *_ in spans if parent < 0)
            m["cli.startup_s"] += proc["wall_s"] - main

    def total(*names):
        return sum(totals.get(n, 0.0) for n in names)

    def count(key):
        return counts.get(key, 0)

    read_s, write_s = total(*IO_READS), total(*IO_WRITES)
    read_mb = sum(count(f"{n}.bytes") for n in IO_READS) / MB
    write_mb = sum(count(f"{n}.bytes") for n in IO_WRITES) / MB
    build_s = total("sketch.build_sketch")
    pairs = count("sketch.build_sketch.pairs")
    extreme_in = count("geometry.exact_extreme_points.in")
    m.update(
        {
            "io.read_s": read_s,
            "io.read_calls": sum(calls.get(n, 0) for n in IO_READS),
            "io.read_mb": read_mb,
            "io.read_mb_per_s": read_mb / read_s if read_s else 0.0,
            "io.write_s": write_s,
            "io.write_mb": write_mb,
            "io.write_mb_per_s": write_mb / write_s if write_s else 0.0,
            "datagen.generate_s": total("datagen.generate"),
            "directions.sample_s": total("directions.sample_uniform"),
            "sketch.build_s": build_s,
            "sketch.build_calls": calls.get("sketch.build_sketch", 0),
            "sketch.pairs": pairs,
            "sketch.pairs_per_s": pairs / build_s if build_s else 0.0,
            "sketch.dense_gflop": count("sketch.build_sketch.flop") / 1e9,
            "sketch.build_s.cube": build_by_shape["cube"],
            "sketch.build_s.sphere": build_by_shape["sphere"],
            "sketch.found": count("sketch.build_sketch.found"),
            "sketch.threshold_s": total("sketch.threshold_filter"),
            "sketch.outer_hull_s": total("sketch.outer_hull"),
            "compression.vertex_s": total("compression.vertex_compress"),
            "compression.vertex_in": count("compression.vertex_compress.in"),
            "compression.vertex_out": count("compression.vertex_compress.out"),
            "compression.bundle_s": total("compression.direction_bundle"),
            "compression.hyperplane_s": total("compression.hyperplane_compress"),
            "compression.hyperplane_out": count("compression.hyperplane_compress.out"),
            "compression.hyperplane_inner_sketches": inner_sketches,
            "geometry.project_calls": calls.get("geometry.project_onto_hull", 0),
            "geometry.project_s": total("geometry.project_onto_hull"),
            "geometry.project_iterations": count("geometry.project_onto_hull.iterations"),
            "geometry.extreme_s": total("geometry.exact_extreme_points"),
            "geometry.extreme_in": extreme_in,
            "geometry.extreme_out": count("geometry.exact_extreme_points.out"),
            "geometry.extreme_useful_ratio": (
                count("geometry.exact_extreme_points.out") / extreme_in if extreme_in else 0.0
            ),
            "metrics.inner_error_s": total("metrics.inner_error"),
            "metrics.outer_error_s": total("metrics.outer_error"),
            "metrics.lp_calls": calls.get("metrics.support_under_constraints", 0),
            "metrics.lp_s": total("metrics.support_under_constraints"),
            "metrics.lp_rows": count("metrics.support_under_constraints.rows"),
        }
    )
    return m
