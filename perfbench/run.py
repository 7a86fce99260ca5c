#!/usr/bin/env python3
"""hullsketch benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload pipeline5d --seed 1 --seconds 32 --trace 0

Run it from the root of a checkout; it runs the program from ``src/``.  An
untraced run (``--trace 0``) cycles through three seed-derived input instances
for about ``--seconds`` and at least one iteration, measures set-up at least five
times (inside iterations that set up, else on its own), and prints the
end-to-end metrics: times summed over the workload's operations from each
operation's median over the iterations, the median set-up, and the largest
peak RSS of any process.  A traced run (``--trace 1``) alternates an untraced
and a traced iteration of the first instance and prints the per-layer metrics;
``trace.overhead_s`` is the difference of their walls.  ``--workload all``
runs every workload in turn.  The last line printed is the result object;
the lines before it give every metric by name with its unit, then a JSON
line with provenance, per-iteration values and failures.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

INSTANCES = 3  # distinct seed-derived inputs an untraced run cycles through
SETUPS = 5  # set-ups measured per run, in iterations that set up or on their own
# Leave this much of the 180 s a run may take for the last checks and exit.
RUN_LIMIT_S = 165.0

# name -> unit of the end-to-end metrics BENCHMARK.json gates on.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "hull_s": "s",
    "peak_rss_mb": "MB",
}
# Printed for information: the program's own error report, and the failed
# share of operations (0 when all is well, so it cannot be a gated metric).
REPORT_UNITS = {
    "inner_error": "data_units",
    "outer_error": "data_units",
    "found_cube": "count",
    "found_sphere": "count",
    "ops_failed_frac": "ratio",
}


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _median(values) -> float:
    finite = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(finite) if finite else math.nan


def _op_medians_sum(iterations, labels=None) -> float:
    """Sum over operations of each operation's median wall time.

    A burst of load from elsewhere on the host slows one operation of one
    iteration; the per-operation median drops it where a median of whole
    iterations, of which a run has only a few, would not.
    """
    done = [it for it in iterations if math.isfinite(it.wall_s)]
    if not done:
        return math.nan
    labels = labels or list(done[0].stages)
    return sum(statistics.median(it.stages[label] for it in done) for label in labels)


def _metric_lines(metrics: dict) -> list[str]:
    return [f"{name} {m['value']:.9g} {m['unit']}" for name, m in metrics.items()]


def run_workload(workload, launcher, args) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the lines before it."""
    from tracing import PER_LAYER, layer_metrics, now
    from workloads import BenchError

    instances = [workload.instance(args.seed, i) for i in range(INSTANCES)]
    setup_s, runtime = workload.setup(launcher, instances[0])
    setups = [setup_s]
    origin = Path(runtime["origin"]).resolve().parent
    if origin != (launcher.root / "src" / "hullsketch").resolve():
        raise BenchError(f"hullsketch was imported from {origin}, not from this checkout")

    plain, traced, spent = [], [], []
    start = now()
    while True:
        began = now()
        if args.trace:
            plain.append(workload.iterate(launcher, instances[0], traced=False))
            traced.append(workload.iterate(launcher, instances[0], traced=True))
        else:
            plain.append(workload.iterate(launcher, instances[len(plain) % INSTANCES], False))
        spent.append(now() - began)
        failed = any(fails for it in plain + traced for _, fails in it.ops)
        late = launcher.deadline is not None and now() + max(spent) > launcher.deadline
        # Stop when another iteration would end more than half of one past
        # --seconds, so that a slow host does not lengthen the run.
        full = now() + statistics.median(spent) / 2 - start >= args.seconds
        if failed or late or full:
            break

    setups += [it.setup_s for it in plain if it.setup_s is not None]
    while len(setups) < SETUPS:
        setups.append(workload.setup(launcher, instances[len(setups) % INSTANCES])[0])

    ops = [(label, fails) for it in plain + traced for label, fails in it.ops]
    attempted = len(ops)
    failures = [f"{label}: {msg}" for label, fails in ops for msg in fails]
    failed = sum(1 for _, fails in ops if fails)
    first = plain[:INSTANCES]
    e2e = {
        "wall_s": _op_medians_sum(plain),
        "setup_s": statistics.median(setups),
        "hull_s": _op_medians_sum(plain, workload.hull_ops),
        "peak_rss_mb": max(it.peak_rss_mb for it in plain),
    }
    report = {key: _median(it.report.get(key) for it in first) for key in REPORT_UNITS}
    report["ops_failed_frac"] = failed / max(attempted, 1)

    shown = {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()}
    shown.update(
        {n: {"value": v, "unit": REPORT_UNITS[n]} for n, v in report.items() if math.isfinite(v)}
    )
    if args.trace:
        layers = [layer_metrics(it.processes) for it in traced]
        per_layer = {n: _median(m.get(n) for m in layers) for n, _, _ in PER_LAYER}
        per_layer["trace.overhead_s"] = _op_medians_sum(traced) - e2e["wall_s"]
        units = {n: u for n, u, _ in PER_LAYER}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in per_layer.items()}
        lines = _metric_lines(metrics)
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in e2e.items()}
        lines = _metric_lines(shown)

    root = launcher.root
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": {
            "git_sha": _git_sha(root),
            "src_sha256": _src_sha256(root),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            **runtime,
            "seed": args.seed,
            "size": args.size,
            "inputs": workload.size,
            "instances": INSTANCES,
            "iterations": len(plain),
            "traced_iterations": len(traced),
        },
        "metrics": shown,
        "setup_s": setups,
        "per_iteration": [
            {"wall_s": it.wall_s, "hull_s": it.hull_s, "peak_rss_mb": it.peak_rss_mb,
             "stages": it.stages, **it.report}
            for it in plain
        ],
        "failures": failures,
    }
    lines = [
        f"# workload {workload.name} seed {args.seed} size {args.size} trace {args.trace}",
        *lines,
        json.dumps(detail),
    ]
    result = {
        "correct": failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            n: {"value": m["value"] if math.isfinite(m["value"]) else 0.0, "unit": m["unit"]}
            for n, m in metrics.items()
        },
    }
    return result, lines


def set_environment(root: Path) -> None:
    """Environment for this process and every process it starts.

    Call before numpy is first imported.  BLAS gets one thread: with two on
    this 2-CPU class of machine, back-to-back sphere sketches took 6.4-10.3 s
    against 11.2-12.4 s with one, and the benchmark needs steady figures.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A private directory under ``.perfbench_tmp``, removed on exit."""
    workdir = root / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pipeline5d", "million3d", "desk3d", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("toy", "bench", "full"), default="bench",
                        help="input sizes; BENCHMARK.json runs 'bench'")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hullsketch" / "__init__.py").is_file():
        print("error: src/hullsketch not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    set_environment(root)
    # On SIGTERM, unwind so the process being waited on is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    from tracing import now
    from workloads import WORKLOADS, BenchError, Launcher

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        with scratch_dir(root) as workdir:
            for name in names:
                deadline = None if args.size == "full" else now() + RUN_LIMIT_S
                launcher = Launcher(root, workdir, sys.executable, deadline)
                result, lines = run_workload(WORKLOADS[name](args.size), launcher, args)
                print("\n".join(lines))
                print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
