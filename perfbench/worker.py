"""Processes the benchmark launches besides plain ``python3 -m hullsketch``.

    worker.py setup OUT                      import the program, report provenance
    worker.py cli SPANS OP -- ARGS...        one CLI stage with tracing on
    worker.py million3d OUT SPANS|- JSON     the million3d library calls

`setup` and `million3d` write one JSON object to OUT, whose `ready` is the
monotonic time at which set-up ended, so the launcher can compute set-up
time from its spawn time.  `cli` exits with the stage's exit code and
writes its spans to SPANS.
"""
from __future__ import annotations

import json
import resource
import sys

from tracing import Tracer, now


def _write(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy actually loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _runtime() -> dict:
    import numpy
    import scipy

    import hullsketch

    return {
        "origin": hullsketch.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(out) -> None:
    import hullsketch.cli  # noqa: F401  (the import is the set-up being timed)

    ready = now()
    _write(out, {"ready": ready, "runtime": _runtime()})


def cli(spans_path, op, argv) -> int:
    tracer = Tracer(op)
    tracer.install()
    from hullsketch import cli as hs_cli

    code = hs_cli.main(argv)
    tracer.dump(spans_path)
    return code


def million3d(out, spans_path, spec) -> None:
    """Sketch, threshold and outer hull of a cube and a sphere cloud.

    Set-up generates both clouds and direction sets in memory, and is all
    that runs when ``spec["setup_only"]``.  Every later library call is one
    operation.  Peak RSS is read before the checks run, so the checks'
    memory does not count.
    """
    tracer = None
    if spans_path != "-":
        tracer = Tracer("setup")
        tracer.install()
    import numpy as np

    import hullsketch as hs

    n, m = spec["points"], spec["dirs"]
    inputs = {
        shape: (
            hs.generate(hs.ShapeSpec(kind=shape, dim=3, count=n, seed=spec[f"{shape}_seed"])),
            hs.sample_uniform(m, 3, spec[f"{shape}_dirs_seed"]),
        )
        for shape in ("cube", "sphere")
    }
    ready = now()
    if spec["setup_only"]:
        _write(out, {"ready": ready, "runtime": _runtime()})
        return

    ops, results = [], {}
    for shape, (cloud, dirs) in inputs.items():
        sketch = inner = outer = None
        for call in ("build_sketch", "threshold_filter", "outer_hull"):
            label = f"{shape}.{call}"
            if tracer is not None:
                tracer.op = label
            start = now()
            try:
                if call == "build_sketch":
                    sketch = hs.build_sketch(cloud, dirs)
                elif call == "threshold_filter":
                    inner = hs.threshold_filter(sketch, 0.0)
                else:
                    outer = hs.outer_hull(sketch, cloud, dirs)
            except Exception as exc:  # a failed operation is counted, not fatal
                ops.append({"op": label, "start": start, "end": now(), "fails": [repr(exc)]})
                break
            ops.append({"op": label, "start": start, "end": now(), "fails": []})
        results[shape] = (cloud, dirs, sketch, inner, outer)
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.dump(spans_path)

    import checks

    rng = np.random.default_rng(spec["check_seed"])
    by_label = {op["op"]: op for op in ops}
    for shape, (cloud, dirs, sketch, inner, outer) in results.items():
        if outer is None:
            continue
        pts, found = cloud.points, int((sketch.counts > 0).sum())
        sketch_fails = by_label[f"{shape}.build_sketch"]["fails"]
        sketch_fails += checks.check_counts(sketch.assignment, sketch.counts, m)
        sketch_fails += checks.check_winners(
            pts, outer.normals, outer.offsets, sketch.assignment, rng
        )
        if shape == "cube" and not 30 <= found <= 120:
            sketch_fails.append(f"cube found {found} points, outside [30, 120]")
        if shape == "sphere" and found < 0.95 * m:
            sketch_fails.append(f"sphere found {found} points, below 0.95 of {m}")
        by_label[f"{shape}.threshold_filter"]["fails"] += checks.check_kept(
            inner.kept_indices, inner.curvatures, sketch.counts, m, 0.0
        )
        by_label[f"{shape}.outer_hull"]["fails"] += checks.check_constraints(
            pts, outer.normals, outer.offsets, rng
        )
    _write(
        out,
        {
            "ready": ready,
            "ops": ops,
            "peak_rss_mb": peak_rss_mb,
            "found": {s: int((r[2].counts > 0).sum()) for s, r in results.items() if r[2] is not None},
        },
    )


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2])
    elif mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3], sys.argv[5:]))
    elif mode == "million3d":
        million3d(sys.argv[2], sys.argv[3], json.loads(sys.argv[4]))
    else:
        sys.exit(f"unknown mode {mode!r}")
