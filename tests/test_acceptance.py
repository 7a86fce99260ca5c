"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here and nowhere else.

Run with ``pytest tests/test_acceptance.py -v``; the module takes a few
minutes (two million-point sketches plus a million-point five-dimensional
pipeline are exercised for real).
"""
import json
import math
import time

import numpy as np

from hullsketch import (
    BoundQuery,
    PointCloud,
    ShapeSpec,
    aleksandrov_bound,
    build_sketch,
    direction_count_bound,
    directions_for_inner_error,
    exact_extreme_points,
    generate,
    hausdorff,
    outer_hull,
    sample_uniform,
    threshold_filter,
    vertex_compress,
)
from hullsketch.cli import main

from oracles import normal_cone_curvature_3d, polygon_vertex_curvatures

SQUARE = PointCloud([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])

# Pinned numerical slacks: projection certificates are 1e-9-accurate and the
# LP support solves are good to ~1e-7; "exact" monotonicity is asserted to
# those widths, never statistically.
PROJECTION_SLACK = 1e-9
LP_SLACK = 1e-7


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_curvature_consistency_square():
    t0 = time.perf_counter()
    sketch = build_sketch(SQUARE, sample_uniform(100_000, 2, seed=12345))
    estimates = sketch.curvatures()
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(estimates >= 0.24) and np.all(estimates <= 0.26)) and elapsed < 2.0
    _report(
        1,
        "square corner curvature estimates in [0.24, 0.26] at 1e5 directions",
        ok,
        f"estimates={np.round(estimates, 4).tolist()}, {elapsed:.2f}s",
    )


def test_criterion_02_chebyshev_bound_empirical():
    m, eps, trials = 1000, 0.05, 500
    bound = 0.25 * 0.75 / (m * eps * eps)  # 0.075
    violations = 0
    samples = 0
    for t in range(trials):
        kd = build_sketch(SQUARE, sample_uniform(m, 2, seed=20_000 + t)).curvatures()
        violations += int(np.sum(np.abs(kd - 0.25) > eps))
        samples += 4
    freq = violations / samples
    _report(
        2,
        "empirical curvature deviation frequency within the variance bound",
        freq <= bound,
        f"freq={freq:.5f} <= bound={bound}",
    )


def test_criterion_03_direction_count_finds_all_corners():
    n_dirs = direction_count_bound(0.25, 0.05)
    assert n_dirs == 16
    trials = 2000
    missing = sum(
        bool((build_sketch(SQUARE, sample_uniform(n_dirs, 2, seed=40_000 + t)).counts == 0).any())
        for t in range(trials)
    )
    frac = missing / trials
    _report(
        3,
        "fraction of 16-direction runs missing a corner within 0.06",
        frac <= 0.06,
        f"frac={frac:.4f} (theory ~0.04)",
    )


def test_criterion_04_sandwich_invariant_all_families():
    checked = 0
    worst_violation = 0.0
    seed = 0
    for kind in ("simplex", "cube", "ball", "sphere", "cone-cap"):
        for dim in (2, 3, 5):
            for rep in (0, 1, 2, 3):
                seed += 1
                cloud = generate(ShapeSpec(kind=kind, dim=dim, count=400, seed=seed))
                dirs = sample_uniform(300, dim, seed=seed + 10_000)
                sketch = build_sketch(cloud, dirs)
                inner = threshold_filter(sketch, 0.0)
                if not set(inner.kept_indices.tolist()) <= set(range(len(cloud))):
                    _report(4, "sandwich invariant", False, f"{kind} d={dim}")
                hull = outer_hull(sketch, cloud, dirs)
                margins = cloud.points @ hull.normals.T - hull.offsets
                worst_violation = max(worst_violation, float(margins.max()))
                checked += 1
    ok = checked >= 50 and worst_violation <= 1e-9
    _report(
        4,
        "kept points are cloud points; all cloud points satisfy all constraints",
        ok,
        f"{checked} clouds, worst constraint violation {worst_violation:.2e}",
    )


def _bench(out, shape: str, transform_path=None) -> list[dict]:
    argv = [
        "bench", "--schedule", "50,100,200,400,700,1000", "--out", str(out),
        "--seed", "900", "--shape", shape, "--dims", "3", "--points", "10000",
        "--gen-seed", "901", "--probes", "200",
    ]
    if transform_path is not None:
        argv += ["--transform", transform_path]
    assert main(argv) == 0
    # %.17g round-trips every double, and loadtxt reads "inf"
    columns = ("n_dirs", "n_found", "n_kept", "inner_error", "outer_error")
    return [dict(zip(columns, row)) for row in np.loadtxt(out, delimiter=",", usecols=range(5))]


def test_criterion_05_bench_error_curves_non_increasing(tmp_path):
    transform = tmp_path / "map.csv"
    np.savetxt(
        transform,
        np.array([[1.5, 0.4, 0.0], [0.0, 0.9, 0.25], [0.2, 0.0, 0.7]]),
        delimiter=",",
    )
    ok = True
    details = []
    for shape, tf in (("cube", None), ("sphere", None), ("simplex", str(transform))):
        rows = _bench(tmp_path / f"bench_{shape}.csv", shape, tf)
        inner = [r["inner_error"] for r in rows]
        outer = [r["outer_error"] for r in rows]
        mono_inner = all(b <= a + PROJECTION_SLACK for a, b in zip(inner, inner[1:]))
        mono_outer = all(b <= a + LP_SLACK for a, b in zip(outer, outer[1:]))
        ok = ok and mono_inner and mono_outer
        if shape == "sphere":
            # on a sphere surface nearly every direction finds a fresh point
            ok = ok and all(r["n_found"] >= 0.9 * r["n_dirs"] for r in rows)
        details.append(f"{shape}: inner {inner[0]:.3f}->{inner[-1]:.3f}, outer {outer[0]:.3f}->{outer[-1]:.3f}")
    _report(
        5,
        "nested-schedule inner/outer error columns non-increasing on all shapes",
        ok,
        "; ".join(details),
    )


def test_criterion_06_vertex_compression_hausdorff_under_beta():
    rng = np.random.default_rng(606)
    worst_margin = -math.inf
    runs = 0
    for trial in range(100):
        dim = int(rng.choice([2, 3]))
        n = int(rng.integers(30, 120))
        cloud = PointCloud(rng.standard_normal((n, dim)))
        dirs = sample_uniform(250, dim, seed=3000 + trial)
        sketch = build_sketch(cloud, dirs)
        inner = threshold_filter(sketch, 0.0)
        beta = float(rng.uniform(0.05, 0.6))
        compressed, _ = vertex_compress(inner, cloud, beta)
        dist = hausdorff(
            PointCloud(inner.select(cloud)), PointCloud(compressed.select(cloud))
        )
        worst_margin = max(worst_margin, dist - beta)
        runs += 1
        if dist >= beta:
            break
    _report(
        6,
        "hausdorff(before, after) < beta in every randomized compression run",
        runs == 100 and worst_margin < 0,
        f"worst dist-beta = {worst_margin:.3e}",
    )


def _drop_low_curvature(points: np.ndarray, curvatures: dict[int, float], budget: float):
    order = sorted(curvatures, key=curvatures.get)
    dropped, omega = [], 0.0
    for i in order:
        if omega + curvatures[i] > budget:
            break
        omega += curvatures[i]
        dropped.append(i)
    keep = [i for i in range(len(points)) if i not in dropped]
    return keep, omega, len(dropped)


def test_criterion_07_aleksandrov_bound_holds():
    rng = np.random.default_rng(707)
    worst = -math.inf
    runs = 0
    for trial in range(50):  # 2-d polygons on a circle: exact exterior angles
        k = int(rng.integers(21, 40))
        ang = np.sort(rng.random(k) * 2 * math.pi)
        pts = np.column_stack([np.cos(ang), np.sin(ang)]) * float(rng.uniform(0.5, 3.0))
        pts -= pts.mean(axis=0)
        r = float(np.linalg.norm(pts, axis=1).max())
        keep, omega, n_drop = _drop_low_curvature(pts, polygon_vertex_curvatures(pts), 0.05)
        dist = hausdorff(PointCloud(pts), PointCloud(pts[keep]))
        worst = max(worst, dist - aleksandrov_bound(r, 2, omega))
        runs += 1
    for trial in range(50):  # 3-d polytopes on a sphere: solid-angle oracle
        k = 25
        pts = rng.standard_normal((k, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= float(rng.uniform(0.5, 2.0))
        pts -= pts.mean(axis=0)
        r = float(np.linalg.norm(pts, axis=1).max())
        curv = {
            i: normal_cone_curvature_3d(pts[i], np.delete(pts, i, axis=0))
            for i in range(k)
        }
        assert abs(sum(curv.values()) - 1.0) < 1e-6  # oracle self-check
        keep, omega, n_drop = _drop_low_curvature(pts, curv, 0.05)
        dist = hausdorff(PointCloud(pts), PointCloud(pts[keep]))
        worst = max(worst, dist - aleksandrov_bound(r, 3, omega))
        runs += 1
    _report(
        7,
        "measured hausdorff after low-curvature deletion within the deletion bound",
        runs == 100 and worst <= PROJECTION_SLACK,
        f"worst dist-bound = {worst:.3e} over {runs} polytopes",
    )


def test_criterion_08_sketch_matches_oracle_extremes_2d():
    trials = 100
    subset_ok = 0
    equal = 0
    for t in range(trials):
        rng = np.random.default_rng(5000 + t)
        ang = rng.random(200) * 2 * np.pi
        rad = np.sqrt(rng.random(200))
        cloud = PointCloud(np.column_stack([rad * np.cos(ang), rad * np.sin(ang)]))
        found = set(
            np.flatnonzero(build_sketch(cloud, sample_uniform(100_000, 2, 9000 + t)).counts > 0).tolist()
        )
        oracle = set(exact_extreme_points(cloud).tolist())
        subset_ok += found <= oracle
        equal += found == oracle
    _report(
        8,
        "found set is a subset of oracle extremes always, equal in >= 95% of trials",
        subset_ok == trials and equal >= 95,
        f"subset {subset_ok}/100, equal {equal}/100",
    )


def test_criterion_09_million_point_cube_and_sphere():
    t0 = time.perf_counter()
    cube = generate(ShapeSpec(kind="cube", dim=3, count=1_000_000, seed=101))
    cube_found = int(np.count_nonzero(build_sketch(cube, sample_uniform(1000, 3, 202)).counts))
    t_cube = time.perf_counter() - t0

    t0 = time.perf_counter()
    sphere = generate(ShapeSpec(kind="sphere", dim=3, count=1_000_000, seed=103))
    sphere_found = int(np.count_nonzero(build_sketch(sphere, sample_uniform(1000, 3, 202)).counts))
    t_sphere = time.perf_counter() - t0

    ok = 30 <= cube_found <= 120 and sphere_found >= 950 and t_cube < 60 and t_sphere < 60
    _report(
        9,
        "million-point cube finds tens of vertices, sphere finds nearly all, each < 60 s",
        ok,
        f"cube {cube_found} in {t_cube:.0f}s, sphere {sphere_found} in {t_sphere:.0f}s",
    )


def test_criterion_10_direction_count_tables():
    worst_case = {3: 10, 4: 11, 5: 13, 6: 15, 7: 17}
    single = {3: 5, 4: 7, 5: 9, 6: 11, 7: 13}
    ok = True
    got_wc, got_sp = {}, {}
    for n in worst_case:
        q = BoundQuery(n=n, r=1.0, p=0.05, eps=0.1, x_count=10_000)
        got_wc[n] = directions_for_inner_error(q, "worst-case")
        got_sp[n] = directions_for_inner_error(q, "single-point")
        ok = ok and abs(math.log10(got_wc[n]) - worst_case[n]) <= 1.0
        ok = ok and abs(math.log10(got_sp[n]) - single[n]) <= 1.0
    _report(
        10,
        "direction-count tables reproduced to within one order of magnitude",
        ok,
        f"worst-case exponents {[round(math.log10(v), 1) for v in got_wc.values()]}, "
        f"single-point {[round(math.log10(v), 1) for v in got_sp.values()]}",
    )


def test_criterion_11_five_dimensional_pipeline(tmp_path):
    t0 = time.perf_counter()
    points_path = tmp_path / "loads.csv"
    assert main([
        "gen", "--shape", "simplex", "--dims", "5", "--points", "1000000",
        "--seed", "11", "--out", str(points_path),
    ]) == 0
    assert main([
        "sketch", "--in", str(points_path), "--dirs", "70000", "--alpha", "0",
        "--seed", "22", "--out-prefix", str(tmp_path / "p"), "--save-sketch",
    ]) == 0
    assert main([
        "compress", "--in", str(points_path), "--sketch-json", str(tmp_path / "p_sketch.json"),
        "--alpha", "0", "--beta", "0.25", "--seed", "22",
        "--out-prefix", str(tmp_path / "c"),
    ]) == 0
    assert main([
        "error", "--in", str(points_path), "--inner", str(tmp_path / "c_vertices.csv"),
        "--halfspaces", str(tmp_path / "p_halfspaces.csv"), "--out", str(tmp_path / "report.json"),
        "--seed", "22", "--probes", "0", "--oracle-cap", "10000",
    ]) == 0
    elapsed = time.perf_counter() - t0

    summary = json.loads((tmp_path / "c_summary.json").read_text())
    report = json.loads((tmp_path / "report.json").read_text())
    n_kept = summary["n_kept"]
    inner = report["inner_error"]
    ok = (
        elapsed < 600.0
        and n_kept <= 50
        and math.isfinite(inner)
        and inner >= 0
        and report["reference"] == "oracle-subsample"
        and report["n_dirs_used"] == 70_000
    )
    _report(
        11,
        "5-d million-point pipeline: < 10 min, <= 50 kept, finite inner error",
        ok,
        f"{elapsed:.0f}s, kept {n_kept}, inner error {inner:.4f} "
        f"vs {report['reference_vertices']}-vertex oracle subsample",
    )
