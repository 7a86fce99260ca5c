#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (about three minutes).

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It checks BENCHMARK.json against the
benchmark contract and against the metrics the code prints; runs every
workload untraced and traced at toy size and asserts that every metric is
printed with its unit and that every layer a workload exercises shows up in
its trace; and shows that the output checks are live: corrupted winners,
kept sets, halfspaces and error curves must fail them.  Exits non-zero on
the first failed assertion.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SEED = 5
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
# Report lines each workload prints besides the gated metrics.
REPORTED = {
    "pipeline5d": ("inner_error", "ops_failed_frac"),
    "million3d": ("found_cube", "found_sphere", "ops_failed_frac"),
    "desk3d": ("inner_error", "outer_error", "ops_failed_frac"),
}
# Per-layer metrics that must be positive on a workload's traced toy run.
EXERCISED = {
    "pipeline5d": ("cli.gen_s", "cli.startup_s", "io.read_calls", "io.write_mb",
                   "sketch.pairs", "compression.vertex_in", "geometry.extreme_in",
                   "geometry.project_iterations", "metrics.inner_error_s"),
    "million3d": ("datagen.generate_s", "directions.sample_s", "sketch.build_s.cube",
                  "sketch.build_s.sphere", "sketch.found", "sketch.outer_hull_s"),
    "desk3d": ("cli.bench_s", "compression.hyperplane_inner_sketches",
               "compression.hyperplane_out", "metrics.lp_calls", "metrics.lp_rows",
               "metrics.outer_error_s", "geometry.project_calls"),
}


def check_manifest() -> dict:
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert len(json.dumps(spec)) <= 64 * 1024
    return spec


def run_toy(workload: str, trace: int) -> tuple[dict, dict]:
    """Run one workload at toy size; return the result and the printed units."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[-2]
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith(("#", "{")):
            float(parts[1])
            printed[parts[0]] = parts[2]
    return result, printed


def check_runs(spec: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in REPORTED:
        result, printed = run_toy(workload, 0)
        assert {n: m["unit"] for n, m in result["metrics"].items()} == e2e
        for name, unit in e2e.items():
            assert printed.get(name) == unit, (workload, name)
        for name in REPORTED[workload]:
            assert name in printed, (workload, name)
        assert all(m["value"] > 0 for m in result["metrics"].values()), result

        result, printed = run_toy(workload, 1)
        assert {n: m["unit"] for n, m in result["metrics"].items()} == per_layer
        assert all(printed.get(n) == u for n, u in per_layer.items()), workload
        for name in EXERCISED[workload]:
            assert result["metrics"][name]["value"] > 0, (workload, name)
        print(f"selftest: {workload} prints every metric with its unit")


def check_live() -> None:
    """Corrupted outputs must fail the checks that guard them."""
    import numpy as np

    import checks
    import hullsketch as hs
    from workloads import Desk3d, Iteration, Launcher, Pipeline5d

    with run.scratch_dir(ROOT) as workdir:
        launcher = Launcher(ROOT, workdir, sys.executable)

        def recheck(workload, inst, it):
            fresh = Iteration(ops=[(label, []) for label, _ in it.ops])
            workload.check(fresh, workdir, inst)
            return {label: fails for label, fails in fresh.ops}

        def corrupted(path, edit):
            original = path.read_text()
            edit(path)
            try:
                return recheck(workload, inst, it)
            finally:
                path.write_text(original)

        workload = Pipeline5d("toy")
        inst = workload.instance(SEED, 0)
        it = workload.iterate(launcher, inst, traced=False)
        assert not any(fails for _, fails in it.ops), it.ops
        points = np.loadtxt(workdir / "points.csv", delimiter=",")
        sketch = json.loads((workdir / "s_sketch.json").read_text())

        def move_winners(path):
            # Every fifth direction gets a wrong winner; counts still tally.
            counts, assignment = list(sketch["counts"]), list(sketch["assignment"])
            for j in range(0, len(assignment), 5):
                counts[assignment[j]] -= 1
                assignment[j] = (assignment[j] + 1) % len(counts)
                counts[assignment[j]] += 1
            path.write_text(json.dumps({**sketch, "counts": counts, "assignment": assignment}))

        fails = corrupted(workdir / "s_sketch.json", move_winners)
        assert any("winners" in f for f in fails["sketch"]), fails

        def swap_kept(path):
            verts = np.loadtxt(path, delimiter=",", ndmin=2)
            loser = np.flatnonzero(np.asarray(sketch["counts"]) == 0)[0]
            verts[0, :5] = points[loser]
            np.savetxt(path, verts, delimiter=",", fmt="%.17g")

        fails = corrupted(workdir / "c_vertices.csv", swap_kept)
        assert any("winners" in f for f in fails["compress"]), fails

        workload = Desk3d("toy")
        inst = workload.instance(SEED, 0)
        it = workload.iterate(launcher, inst, traced=False)
        assert not any(fails for _, fails in it.ops), it.ops

        def lower_offset(path):
            half = np.loadtxt(path, delimiter=",", ndmin=2)
            half[0, 3] -= 1e-3
            np.savetxt(path, half, delimiter=",", fmt="%.17g")

        fails = corrupted(workdir / "h_halfspaces.csv", lower_offset)
        assert len(fails["compress"]) == 2, fails  # wrong offset, violated constraint

        def raise_error(path):
            lines = path.read_text().splitlines()
            fields = lines[-1].split(",")
            fields[3] = "1e9"
            path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")

        fails = corrupted(workdir / "bench_cube.csv", raise_error)
        assert fails["bench-cube"] == ["inner-error column increases"], fails

    # million3d checks its own outputs in its worker, with the same functions.
    cloud = hs.generate(hs.ShapeSpec(kind="cube", dim=3, count=20_000, seed=SEED))
    dirs = hs.sample_uniform(1_000, 3, SEED)
    sketch = hs.build_sketch(cloud, dirs)
    inner = hs.threshold_filter(sketch, 0.0)
    outer = hs.outer_hull(sketch, cloud, dirs)
    rng = np.random.default_rng(SEED)
    args = (cloud.points, outer.normals, outer.offsets)
    assert not checks.check_winners(*args, sketch.assignment, rng)
    assert not checks.check_kept(inner.kept_indices, inner.curvatures, sketch.counts, 1000, 0.0)
    assert not checks.check_constraints(*args, rng)
    wrong = sketch.assignment.copy()
    wrong[:] = np.flatnonzero(sketch.counts == 0)[0]
    assert checks.check_winners(*args, wrong, rng)
    assert checks.check_counts(wrong, sketch.counts, 1000)
    kept = inner.kept_indices.copy()
    kept[0] = np.flatnonzero(sketch.counts == 0)[0]
    assert checks.check_kept(kept, inner.curvatures, sketch.counts, 1000, 0.0)
    print("selftest: corrupted winners, kept sets, halfspaces and curves fail the checks")


def main() -> int:
    if not (ROOT / "src" / "hullsketch" / "__init__.py").is_file():
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2
    run.set_environment(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    spec = check_manifest()
    print("selftest: BENCHMARK.json matches the contract and the code")
    check_live()
    check_runs(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
