import json

import numpy as np
import pytest

from hullsketch import (
    ConvergenceError,
    EmptyOuterHullError,
    NoConstraintsSurvivedError,
    PointCloud,
    UnboundedOuterHullError,
    exact_extreme_points,
)
from hullsketch.cli import SUBSAMPLE_SEED_OFFSET, CliValidationError, build_parser, main
from hullsketch.geometry import NumericalError
from hullsketch.metrics import LinearProgramError, reference_hull
from hullsketch.io import read_matrix, write_matrix

from oracles import monotone_chain_indices


def run(argv):
    return main(argv)


def bench_csv(path, *argv):
    """Run ``bench`` into ``path`` and read its rows back; ``%.17g`` round-trips every double."""
    assert run(["bench", "--out", str(path), *argv]) == 0
    rows = []
    for line in path.read_text().splitlines()[1:]:
        n_dirs, n_found, n_kept, inner, outer, method = line.split(",")
        rows.append({
            "n_dirs": int(n_dirs), "n_found": int(n_found), "n_kept": int(n_kept),
            "inner_error": float(inner), "outer_error": float(outer), "method": method,
        })
    return rows


def gen_simplex(tmp_path, n=200, seed=17, dims=2):
    path = tmp_path / "pts.csv"
    assert run([
        "gen", "--shape", "simplex", "--dims", str(dims), "--points", str(n),
        "--seed", str(seed), "--out", str(path),
    ]) == 0
    return path


def test_gen_writes_points(tmp_path):
    path = gen_simplex(tmp_path, n=100)
    pts = read_matrix(path)
    assert pts.shape == (100, 2)
    assert np.all(pts >= 0) and np.all(pts.sum(axis=1) <= 1 + 1e-12)


def test_sketch_outputs_and_oracle_subset(tmp_path):
    pts_path = gen_simplex(tmp_path, n=200, seed=17)
    prefix = tmp_path / "run"
    code = run([
        "sketch", "--in", str(pts_path), "--dirs", "500", "--alpha", "0",
        "--seed", "3", "--out-prefix", str(prefix),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "run_summary.json").read_text())
    assert summary["n_found"] >= 3
    assert summary["seed"] == 3
    assert summary["version"]
    assert "runtime_ms" in summary
    assert summary["counters"]["score_pairs"] == 200 * 500
    assert 0 < summary["counters"]["scores_formed"] <= 200 * 500
    inner = read_matrix(tmp_path / "run_inner.csv")
    assert inner.shape[1] == 3  # x, y, curvature estimate
    assert summary["n_kept"] == inner.shape[0]
    # every kept point is one of the oracle extremes
    pts = read_matrix(pts_path)
    oracle = {tuple(np.round(pts[i], 12)) for i in exact_extreme_points(PointCloud(pts))}
    kept = {tuple(np.round(row[:2], 12)) for row in inner}
    assert kept <= oracle
    hs = read_matrix(tmp_path / "run_halfspaces.csv")
    assert hs.shape == (500, 3)
    margins = pts @ hs[:, :2].T - hs[:, 2]
    assert margins.max() <= 1e-9


def test_sketch_alpha_one_warns(tmp_path, capsys):
    pts_path = gen_simplex(tmp_path)
    prefix = tmp_path / "warn"
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "100", "--alpha", "1",
        "--seed", "0", "--out-prefix", str(prefix),
    ]) == 0
    summary = json.loads((tmp_path / "warn_summary.json").read_text())
    assert summary["n_kept"] == 0
    assert "warning" in summary
    assert "kept no points" in capsys.readouterr().err


def test_compress_beta_zero_matches_sketch_output(tmp_path):
    pts_path = gen_simplex(tmp_path, n=150, seed=5)
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "300", "--alpha", "0",
        "--seed", "9", "--out-prefix", str(tmp_path / "s"),
    ]) == 0
    assert run([
        "compress", "--in", str(pts_path), "--dirs", "300", "--alpha", "0",
        "--seed", "9", "--beta", "0", "--out-prefix", str(tmp_path / "c"),
    ]) == 0
    assert (tmp_path / "c_vertices.csv").read_bytes() == (tmp_path / "s_inner.csv").read_bytes()
    clusters = json.loads((tmp_path / "c_clusters.json").read_text())
    for rep, members in clusters["members"].items():
        assert members == [int(rep)]


def saved_sketch(tmp_path):
    pts_path = gen_simplex(tmp_path, n=80, seed=13)
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "40", "--seed", "4",
        "--out-prefix", str(tmp_path / "s"), "--save-sketch",
    ]) == 0
    return pts_path, json.loads((tmp_path / "s_sketch.json").read_text())


def compress_with(tmp_path, pts_path, payload):
    bad = tmp_path / "bad_sketch.json"
    bad.write_text(json.dumps(payload))
    return run([
        "compress", "--in", str(pts_path), "--sketch-json", str(bad),
        "--out-prefix", str(tmp_path / "c"),
    ])


def test_compress_rejects_sketch_json_without_a_key(tmp_path, capsys):
    pts_path, payload = saved_sketch(tmp_path)
    del payload["assignment"]
    assert compress_with(tmp_path, pts_path, payload) == 1
    assert "lacks assignment" in capsys.readouterr().err


def test_compress_rejects_sketch_json_of_another_direction_method(tmp_path, capsys):
    pts_path, payload = saved_sketch(tmp_path)
    payload["dirs_method"] = "halton"
    assert compress_with(tmp_path, pts_path, payload) == 1
    assert "dirs_method" in capsys.readouterr().err


def test_compress_rejects_sketch_json_assignment_out_of_range(tmp_path, capsys):
    pts_path, payload = saved_sketch(tmp_path)
    for bad in (payload["n_points"], -1):
        payload["assignment"][0] = bad
        assert compress_with(tmp_path, pts_path, payload) == 1
        assert "outside [0, 80)" in capsys.readouterr().err


@pytest.mark.parametrize("n_dirs", [0, -1, 41, 10**12])
def test_compress_rejects_sketch_json_n_dirs_before_sampling(tmp_path, capsys, n_dirs):
    pts_path, payload = saved_sketch(tmp_path)
    payload["n_dirs"] = n_dirs
    assert compress_with(tmp_path, pts_path, payload) == 1
    assert capsys.readouterr().err.endswith(
        "bad_sketch.json: n_dirs must be >= 1 and equal len(assignment)\n"
    )


def moved_win(payload):
    """Counts with one win moved to a point that won nothing: they still sum
    to n_dirs, but no longer tally the assignment."""
    counts = payload["counts"]
    loser = counts.index(0)
    counts[payload["assignment"][0]] -= 1
    counts[loser] += 1
    return counts


@pytest.mark.parametrize("key, bad", [
    ("n_dirs", "40"),
    ("n_dirs", 40.0),
    ("dim", True),
    ("n_points", 80.0),
    ("dirs_seed", 2.7),
    ("assignment", lambda p: [p["assignment"][0] + 0.5, *p["assignment"][1:]]),
    ("assignment", lambda p: [False, *p["assignment"][1:]]),
    ("assignment", "0,1"),
    ("counts", lambda p: [float(c) for c in p["counts"]]),
    ("counts", moved_win),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_compress_rejects_sketch_json_field_of_wrong_type_or_value(tmp_path, capsys, key, bad):
    pts_path, payload = saved_sketch(tmp_path)
    payload[key] = bad(payload) if callable(bad) else bad
    assert compress_with(tmp_path, pts_path, payload) == 1
    err = capsys.readouterr().err
    message = "counts do not tally" if bad is moved_win else f"{key} must be JSON integers"
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_compress_ratios_match_hand_counts(tmp_path):
    pts_path = gen_simplex(tmp_path, n=120, seed=21)
    assert run([
        "compress", "--in", str(pts_path), "--dirs", "400", "--alpha", "0",
        "--seed", "2", "--beta", "0.05", "--out-prefix", str(tmp_path / "r"),
    ]) == 0
    ratios = json.loads((tmp_path / "r_ratios.json").read_text())
    pts = read_matrix(pts_path)
    true_count = len(monotone_chain_indices(pts))
    assert ratios["true_vertices"] == true_count
    kept = read_matrix(tmp_path / "r_vertices.csv").shape[0]
    assert ratios["found_vertices"] == kept
    assert ratios["vertex_ratio"] == pytest.approx(kept / true_count)


def test_compress_hyperplanes_writes_constraints(tmp_path):
    pts_path = gen_simplex(tmp_path, n=1500, seed=31)
    assert run([
        "compress", "--in", str(pts_path), "--dirs", "800", "--alpha", "0",
        "--seed", "4", "--beta", "0.2", "--hyperplanes",
        "--out-prefix", str(tmp_path / "h"),
    ]) == 0
    hs = read_matrix(tmp_path / "h_halfspaces.csv")
    assert 3 <= hs.shape[0] < 100
    pts = read_matrix(pts_path)
    assert (pts @ hs[:, :2].T - hs[:, 2]).max() <= 1e-9


def test_error_command_reports(tmp_path):
    pts_path = gen_simplex(tmp_path, n=150, seed=41)
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "200", "--alpha", "0",
        "--seed", "11", "--out-prefix", str(tmp_path / "e"), "--save-sketch",
    ]) == 0
    out = tmp_path / "report.json"
    assert run([
        "error", "--in", str(pts_path), "--inner", str(tmp_path / "e_inner.csv"),
        "--halfspaces", str(tmp_path / "e_halfspaces.csv"), "--out", str(out),
        "--seed", "11", "--sketch-json", str(tmp_path / "e_sketch.json"),
    ]) == 0
    report = json.loads(out.read_text())
    assert report["n_found"] == json.loads((tmp_path / "e_summary.json").read_text())["n_found"] > 0
    assert report["inner_error"] >= 0
    assert report["outer_error"] >= 0
    assert report["outer_method"] == "exact-2d"
    assert report["n_dirs_used"] == 200
    assert report["reference"] == "oracle"


def test_bounds_json(tmp_path, capsys):
    assert run([
        "bounds", "--n", "3", "--eps", "0.1", "--p", "0.05", "--x-count", "10000",
        "--omega", "0.25", "--k", "0.25", "--m", "1000", "--theta", "1.0",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    # chebyshev evaluated at the shared eps=0.1: 0.25*0.75/(1000*0.01)
    assert payload["chebyshev"] == pytest.approx(0.01875)
    assert payload["direction_count"] == 16
    assert "aleksandrov" in payload
    assert "cap_lower_bound" in payload
    assert payload["directions_worst_case"] >= payload["directions_single_point"]


def test_bounds_sweep_csv(tmp_path):
    out = tmp_path / "curves.csv"
    assert run(["bounds", "--sweep", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#")
    assert any(line.startswith("aleksandrov") for line in lines[1:])
    assert any(line.startswith("direction-count") for line in lines[1:])


@pytest.mark.parametrize("flags, named", [
    (["--sweep", "--omega", "0.3"], "drop --omega"),
    (["--sweep", "--omega", "0.3", "--k", "0.2", "--m", "10", "--theta", "1"],
     "drop --omega, --k, --m, --theta"),
    (["--k", "0.2"], "--k and --m together"),
    (["--m", "10"], "--k and --m together"),
    (["--omega", "0.25", "--k", "0.2"], "--k and --m together"),
    (["--sweep", "--n", "7"], "drop --n"),
    (["--sweep", "--eps", "0.3"], "drop --eps"),
    (["--sweep", "--x-count", "50"], "drop --x-count"),
])
def test_bounds_rejects_flags_it_would_ignore(tmp_path, capsys, flags, named):
    """--sweep writes fixed curves and the Chebyshev bound needs both --k and
    --m, so a flag that would change nothing is refused, not silently ignored."""
    out = tmp_path / "bounds.out"
    assert run(["bounds", *flags, "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


OVERFLOW = "numerical failure: the direction count exceeds the largest double"


@pytest.mark.parametrize("flags, code, line", [
    # C underflows to 0, or to a subnormal: the count exceeds the largest double
    (["--n", "200", "--eps", "0.001", "--x-count", "10"], 2, OVERFLOW),
    (["--n", "3", "--eps", "1e-160", "--x-count", "10"], 2, OVERFLOW),
    (["--n", "3", "--eps", "1e-154", "--x-count", "10"], 2, OVERFLOW),
    (["--r", "inf", "--omega", "0.25"], 1, "error: r must be finite"),
    (["--eps", "inf"], 1, "error: error target eps must be finite"),
    (["--r", "nan"], 1, "error: radius r must be finite"),
    (["--eps", "nan"], 1, "error: error target eps must be finite"),
    (["--k", "0.25", "--m", "10", "--eps", "nan"], 1, "error: eps must be finite"),
    (["--sweep", "--r", "inf"], 1, "error: r must be finite"),
], ids=["n200-zero-c", "eps1e-160-zero-c", "eps1e-154-subnormal-c", "r-inf-omega", "eps-inf",
        "r-nan", "eps-nan", "chebyshev-eps-nan", "sweep-r-inf"])
def test_bounds_out_of_range_exits_with_one_line_and_no_file(tmp_path, capsys, flags, code, line):
    out = tmp_path / "bounds.out"
    assert run(["bounds", *flags, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == line + "\n" and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_bench_schedule_must_increase(tmp_path):
    pts_path = gen_simplex(tmp_path, n=100)
    code = run([
        "bench", "--in", str(pts_path), "--schedule", "100,50", "--seed", "1",
        "--out", str(tmp_path / "b.csv"),
    ])
    assert code == 1


@pytest.mark.parametrize("flags, named", [
    (["--shape", "sphere"], "--shape"),
    (["--transform", "shear.csv"], "--transform"),
    (["--gen-seed", "5"], "--gen-seed"),
    (["--shape", "sphere", "--transform", "shear.csv", "--gen-seed", "5"],
     "--shape, --transform, --gen-seed"),
    (["--dims", "7", "--points", "5"], "bench --in takes its cloud from the file; drop --dims, --points"),
])
def test_bench_rejects_generator_flags_with_in(tmp_path, capsys, flags, named):
    """The cloud comes from --in, so flags that shape a generated cloud are refused,
    not silently ignored."""
    pts_path = gen_simplex(tmp_path, n=100)
    out = tmp_path / "b.csv"
    assert run([
        "bench", "--in", str(pts_path), "--schedule", "20", "--out", str(out), *flags,
    ]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_bench_single_entry_matches_sketch_metrics(tmp_path):
    pts_path = gen_simplex(tmp_path, n=150, seed=51)
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "120", "--alpha", "0",
        "--seed", "6", "--out-prefix", str(tmp_path / "sk"),
    ]) == 0
    summary = json.loads((tmp_path / "sk_summary.json").read_text())
    rows = bench_csv(
        tmp_path / "b.csv",
        "--schedule", "120", "--seed", "6", "--in", str(pts_path), "--oracle-cap", "2000",
    )
    assert len(rows) == 1
    assert rows[0]["n_dirs"] == 120
    assert rows[0]["n_found"] == summary["n_found"]
    assert rows[0]["n_kept"] == summary["n_kept"]


def test_bench_nested_prefix_reproduces_standalone_rows(tmp_path):
    pts_path = gen_simplex(tmp_path, n=200, seed=61)
    common = ("--in", str(pts_path), "--seed", "8", "--oracle-cap", "2000")
    nested = bench_csv(tmp_path / "nested.csv", "--schedule", "40,90,160", *common)
    for m, row in zip((40, 90, 160), nested):
        alone = bench_csv(tmp_path / f"alone{m}.csv", "--schedule", str(m), *common)[0]
        assert alone == row


def test_bench_csv_columns(tmp_path):
    pts_path = gen_simplex(tmp_path, n=120, seed=71)
    out = tmp_path / "bench.csv"
    assert run([
        "bench", "--in", str(pts_path), "--schedule", "30,60", "--seed", "2",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# n_dirs,n_found,n_kept,inner_error,outer_error,method"
    first = lines[1].split(",")
    assert int(first[0]) == 30
    assert first[5] == "exact-2d"


def test_commands_deterministic_given_seed(tmp_path):
    pts_path = gen_simplex(tmp_path, n=120, seed=91)
    for prefix in ("d1", "d2"):
        assert run([
            "sketch", "--in", str(pts_path), "--dirs", "150", "--alpha", "0.001",
            "--seed", "13", "--out-prefix", str(tmp_path / prefix),
        ]) == 0
    assert (tmp_path / "d1_inner.csv").read_bytes() == (tmp_path / "d2_inner.csv").read_bytes()
    assert (tmp_path / "d1_halfspaces.csv").read_bytes() == (tmp_path / "d2_halfspaces.csv").read_bytes()


def test_exit_code_validation_error(tmp_path):
    assert run(["sketch", "--in", "missing.csv", "--dirs", "10",
                "--out-prefix", str(tmp_path / "x")]) == 1
    assert run(["gen", "--shape", "blob", "--dims", "2", "--points", "5",
                "--out", str(tmp_path / "y.csv")]) == 1
    pts_path = gen_simplex(tmp_path)
    assert run(["sketch", "--in", str(pts_path), "--dirs", "10", "--alpha", "7",
                "--out-prefix", str(tmp_path / "z")]) == 1


def test_exit_code_numerical_failure(tmp_path):
    pts_path = gen_simplex(tmp_path, n=50, seed=81)
    # two halfplanes cannot bound the plane: exact 2-d error must report failure
    hs = tmp_path / "open.csv"
    hs.write_text("1,0,5\n0,1,5\n")
    inner = tmp_path / "inner.csv"
    inner.write_text("0.1,0.1,1.0\n0.2,0.1,0.5\n0.1,0.2,0.5\n")
    code = run([
        "error", "--in", str(pts_path), "--inner", str(inner),
        "--halfspaces", str(hs), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_empty_halfspace_set_exits_two_without_traceback(tmp_path, capsys):
    pts_path = gen_simplex(tmp_path, n=50, seed=82, dims=3)
    # x <= -1 and x >= 1 have no common point
    hs = tmp_path / "empty.csv"
    hs.write_text("1,0,0,-1\n-1,0,0,-1\n0,1,0,1\n0,-1,0,1\n0,0,1,1\n0,0,-1,1\n")
    inner = tmp_path / "inner.csv"
    inner.write_text("0.1,0.1,0.1,1.0\n")
    assert run([
        "error", "--in", str(pts_path), "--inner", str(inner),
        "--halfspaces", str(hs), "--probes", "5", "--out", str(tmp_path / "r.json"),
    ]) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: outer hull is empty\n"


def test_error_beyond_the_largest_double_exits_two(tmp_path, capsys):
    # cube corners at +-2**1023: the unit frame keeps the projections finite,
    # but a missed corner lies 2**1024 * sqrt(2) from the kept edge
    corners = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
    pts, inner, hs = tmp_path / "pts.csv", tmp_path / "inner.csv", tmp_path / "box.csv"
    write_matrix(pts, np.ldexp(corners, 1023))
    write_matrix(inner, np.column_stack([np.ldexp(corners[:2], 1023), [0.5, 0.5]]))
    box = np.vstack([np.eye(3), -np.eye(3)])
    write_matrix(hs, np.column_stack([box, np.full(6, 2.0**1023)]))
    out = tmp_path / "r.json"
    assert run([
        "error", "--in", str(pts), "--inner", str(inner), "--halfspaces", str(hs),
        "--probes", "0", "--out", str(out),
    ]) == 2
    assert capsys.readouterr().err == "numerical failure: math range error\n"
    assert not out.exists()


@pytest.mark.parametrize("rows, message", [
    ("1,0,0\n-1,0,0\n0,1,1\n0,-1,1\n", "outer hull has no interior"),  # the segment x = 0, |y| <= 1
    ("1,0,-1\n-1,0,-1\n0,1,1\n0,-1,1\n", "outer hull is empty"),  # x <= -1 and x >= 1
], ids=["flat", "empty"])
def test_2d_outer_hull_without_interior_exits_two(tmp_path, capsys, rows, message):
    # the simplex's centroid (1/3, 1/3) is outside both sets, so the Chebyshev LP decides
    pts_path = gen_simplex(tmp_path, n=50, seed=83)
    hs = tmp_path / "flat.csv"
    hs.write_text(rows)
    inner = tmp_path / "inner.csv"
    inner.write_text("0.1,0.1,1.0\n0.2,0.1,0.5\n0.1,0.2,0.5\n")
    out = tmp_path / "r.json"
    assert run([
        "error", "--in", str(pts_path), "--inner", str(inner), "--halfspaces", str(hs), "--out", str(out),
    ]) == 2
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists()


def stopped_lp(*args, **kwargs):
    from scipy.optimize import OptimizeResult

    return OptimizeResult(status=4, success=False, message="numerical difficulties", x=None, fun=None)


@pytest.mark.parametrize("dims, what", [(4, "support"), (2, "Chebyshev centre")])
def test_lp_failure_exits_two_without_traceback(tmp_path, capsys, monkeypatch, dims, what):
    pts_path = gen_simplex(tmp_path, n=60, seed=84, dims=dims)
    if dims == 2:  # the centroid (1/3, 1/3) is outside x <= 0, so the Chebyshev LP runs
        hs = tmp_path / "hs.csv"
        hs.write_text("1,0,0\n-1,0,1\n0,1,1\n0,-1,1\n")
    else:  # in 4-d every probe solves a support LP
        assert run([
            "sketch", "--in", str(pts_path), "--dirs", "100", "--out-prefix", str(tmp_path / "s"),
        ]) == 0
        hs = tmp_path / "s_halfspaces.csv"
    inner = tmp_path / "inner.csv"
    write_matrix(inner, read_matrix(pts_path)[:3])
    monkeypatch.setattr("scipy.optimize.linprog", stopped_lp)
    out = tmp_path / "r.json"
    assert run([
        "error", "--in", str(pts_path), "--inner", str(inner), "--halfspaces", str(hs),
        "--probes", "5", "--out", str(out),
    ]) == 2
    assert capsys.readouterr().err == f"numerical failure: {what} LP failed: numerical difficulties\n"
    assert not out.exists()


@pytest.mark.parametrize("cls", [
    ConvergenceError, EmptyOuterHullError, LinearProgramError, NoConstraintsSurvivedError,
    UnboundedOuterHullError,
])
def test_numerical_failures_share_one_family(cls):
    # main exits 2 on NumericalError, so a failure class outside it would escape as a traceback
    assert issubclass(cls, NumericalError)


def test_convergence_failure_exits_two_without_traceback(tmp_path, capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise ConvergenceError("projection did not converge in 10 iterations (gap=1.000e-03)")

    pts_path = gen_simplex(tmp_path, n=60, seed=85, dims=3)
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "50", "--out-prefix", str(tmp_path / "s"),
    ]) == 0
    monkeypatch.setattr("hullsketch.geometry.project_onto_hull", stalled)
    out = tmp_path / "r.json"
    assert run([
        "error", "--in", str(pts_path), "--inner", str(tmp_path / "s_inner.csv"),
        "--halfspaces", str(tmp_path / "s_halfspaces.csv"), "--probes", "0", "--out", str(out),
    ]) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: projection did not converge in 10 iterations (gap=1.000e-03)\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["sketch", "--dirs", "0", "--out-prefix", "x"], "argument --dirs: dirs must be >= 1"),
    (["sketch", "--dirs", "x", "--out-prefix", "x"], "argument --dirs: invalid int value: 'x'"),
    (["compress", "--dirs", "0", "--out-prefix", "x"], "argument --dirs: dirs must be >= 1"),
    # a saved sketch brings its own directions, so --dirs with it is refused, after its range
    (["compress", "--sketch-json", "s.json", "--dirs", "5", "--out-prefix", "x"],
     "argument --dirs: not allowed with argument --sketch-json"),
    (["compress", "--sketch-json", "s.json", "--dirs", "0", "--out-prefix", "x"],
     "argument --dirs: dirs must be >= 1"),
    (["compress", "--alpha", "2", "--out-prefix", "x"], "argument --alpha: alpha must lie in [0, 1]"),
    (["compress", "--oracle-cap", "0", "--out-prefix", "x"],
     "argument --oracle-cap: oracle-cap must be >= 1"),
    (["error", "--inner", "i.csv", "--halfspaces", "h.csv", "--probes", "-5", "--out", "r.json"],
     "argument --probes: probes must be >= 0"),
    (["bench", "--alpha", "2", "--schedule", "10", "--out", "b.csv"],
     "argument --alpha: alpha must lie in [0, 1]"),
    (["bench", "--probes", "-1", "--schedule", "10", "--out", "b.csv"],
     "argument --probes: probes must be >= 0"),
    (["bench", "--schedule", "", "--out", "b.csv"], "argument --schedule: schedule must be nonempty"),
    (["bench", "--schedule", "0,5", "--out", "b.csv"],
     "argument --schedule: schedule entries must be >= 1"),
    (["bench", "--schedule", "5,x", "--out", "b.csv"],
     "argument --schedule: bad schedule '5,x': invalid literal for int() with base 10: 'x'"),
    # every derived seed would be negative or not, depending on its offset: refuse them all
    (["sketch", "--dirs", "5", "--seed", "-1", "--out-prefix", "x"],
     "argument --seed: seed must be >= 0"),
    (["compress", "--sketch-json", "s.json", "--seed", "-1", "--out-prefix", "x"],
     "argument --seed: seed must be >= 0"),
    (["error", "--inner", "i.csv", "--halfspaces", "h.csv", "--seed", "-7", "--probes", "0",
      "--out", "r.json"], "argument --seed: seed must be >= 0"),
    (["bench", "--seed", "-1", "--schedule", "10", "--out", "b.csv"],
     "argument --seed: seed must be >= 0"),
    (["bench", "--gen-seed", "-1", "--schedule", "10", "--out", "b.csv"],
     "argument --gen-seed: gen-seed must be >= 0"),
    # the parser names the flag, where ShapeSpec's message would not
    (["bench", "--dims", "1", "--schedule", "10", "--out", "b.csv"],
     "argument --dims: dims must be >= 2"),
    (["bench", "--points", "0", "--schedule", "10", "--out", "b.csv"],
     "argument --points: points must be >= 1"),
], ids=["sketch-dirs", "sketch-dirs-text", "compress-dirs", "compress-dirs-with-sketch",
        "compress-dirs-range-first", "compress-alpha", "compress-oracle-cap",
        "error-probes", "bench-alpha", "bench-probes", "bench-schedule-empty", "bench-schedule-entry",
        "bench-schedule-text", "sketch-seed", "compress-seed", "error-seed", "bench-seed",
        "bench-gen-seed", "bench-dims", "bench-points"])
def test_flag_ranges_are_checked_before_any_file_is_read(tmp_path, capsys, argv, message):
    # --in names no file, so a range error that is reported was caught by the parser
    assert run([argv[0], "--in", str(tmp_path / "missing.csv"), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_gen_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "pts.csv"
    assert run(["gen", "--shape", "cube", "--dims", "3", "--points", "10", "--seed", "-1",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: argument --seed: seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--dims", "0", "dims must be >= 2"),
    ("--points", "0", "points must be >= 1"),
])
def test_gen_checks_dims_and_points_in_the_parser(tmp_path, capsys, flag, value, message):
    out = tmp_path / "pts.csv"
    # the last --dims or --points given is the one parsed
    argv = ["gen", "--shape", "cube", "--dims", "3", "--points", "10", "--out", str(out), flag, value]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: argument {flag}: {message}\n"
    assert not out.exists()


def test_bench_rejects_negative_probes_in_the_plane(tmp_path, capsys):
    # a 2-d outer error is exact and draws no probes, yet a negative count is still refused
    pts_path = gen_simplex(tmp_path, n=60, seed=86)
    out = tmp_path / "b.csv"
    assert run(["bench", "--in", str(pts_path), "--schedule", "10", "--probes", "-1",
                "--out", str(out)]) == 1
    assert "probes must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(CliValidationError, match="probes must be >= 0"):
        build_parser().parse_args(["bench", "--in", str(pts_path), "--schedule", "10",
                                   "--probes", "-1", "--out", "unused.csv"])


def test_bench_keeps_its_curve_past_an_unbounded_row(tmp_path):
    # six directions leave this cube's outer hull open: that row's outer error is
    # infinite, as the inner column is for a row that kept nothing, and the run goes on
    common = ["--shape", "cube", "--dims", "3", "--points", "2000", "--probes", "20", "--seed", "2"]
    curve, alone = tmp_path / "curve.csv", tmp_path / "alone.csv"
    assert run(["bench", "--schedule", "6,50", *common, "--out", str(curve)]) == 0
    assert run(["bench", "--schedule", "50", *common, "--out", str(alone)]) == 0
    rows = curve.read_text().splitlines()[1:]
    assert rows[0].split(",")[4:] == ["inf", "support-gap-estimate"]
    assert rows[1] == alone.read_text().splitlines()[1]


@pytest.mark.parametrize("argv", [
    ["gen", "--shape", "cube", "--dims", "3", "--points", "10", "--out", "{dir}"],
    ["sketch", "--in", "{dir}", "--dirs", "10", "--out-prefix", "{dir}/x"],
    ["bench", "--in", "{pts}", "--schedule", "10", "--out", "{dir}"],
])
def test_os_error_exits_one_without_traceback(tmp_path, capsys, argv):
    pts_path = gen_simplex(tmp_path)
    argv = [a.format(dir=tmp_path, pts=pts_path) for a in argv]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("message", ["", "Unable to allocate 36.5 GiB for an array"])
def test_memory_error_exits_two_without_traceback(tmp_path, capsys, monkeypatch, message):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("hullsketch.compression._angular_components", exhausted)
    pts_path = gen_simplex(tmp_path)
    assert run([
        "compress", "--in", str(pts_path), "--dirs", "100", "--alpha", "0", "--beta", "0",
        "--hyperplanes", "--out-prefix", str(tmp_path / "m"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory")
    assert message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("beta", ["nan", "inf", "-1"])
def test_compress_rejects_beta_not_finite_and_nonnegative(tmp_path, capsys, beta):
    pts_path = gen_simplex(tmp_path)
    assert run([
        "compress", "--in", str(pts_path), "--beta", beta, "--out-prefix", str(tmp_path / "c"),
    ]) == 1
    assert "beta must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "c_clusters.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--variant", "gamma-threshold", "--gamma", "nan"], "finite positive gamma"),
    (["--variant", "gamma-threshold", "--gamma", "0"], "finite positive gamma"),
    (["--inner-beta", "-1"], "inner_beta must be finite and nonnegative"),
    (["--inner-beta", "nan"], "inner_beta must be finite and nonnegative"),
    (["--inner-alpha", "-1"], "inner_alpha must lie in [0, 1]"),
    (["--inner-alpha", "nan"], "inner_alpha must lie in [0, 1]"),
])
def test_compress_rejects_out_of_range_hyperplane_flags(tmp_path, capsys, flags, message):
    pts_path = gen_simplex(tmp_path)
    assert run([
        "compress", "--in", str(pts_path), "--dirs", "100", "--hyperplanes", *flags,
        "--out-prefix", str(tmp_path / "c"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "c_clusters.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--hyperplanes", "--gamma", "0.5"], "compress --variant recursive does not read --gamma"),
    (["--hyperplanes", "--variant", "gamma-threshold", "--gamma", "0.5", "--inner-alpha", "0.2"],
     "compress --variant gamma-threshold does not read --inner-alpha"),
    (["--hyperplanes", "--variant", "gamma-threshold", "--gamma", "0.5", "--inner-beta", "0"],
     "compress --variant gamma-threshold does not read --inner-beta"),
    (["--gamma", "0.5"], "compress without --hyperplanes does not read --gamma"),
    (["--inner-alpha", "0.2"], "compress without --hyperplanes does not read --inner-alpha"),
    (["--inner-beta", "0.1"], "compress without --hyperplanes does not read --inner-beta"),
    (["--merge-angle", "0.1"], "compress without --hyperplanes does not read --merge-angle"),
    (["--variant", "recursive", "--merge-angle", "0.1"],
     "compress without --hyperplanes does not read --variant, --merge-angle"),
])
def test_compress_refuses_hyperplane_flags_it_does_not_read(tmp_path, capsys, flags, message):
    # checked before the point file is read: this one does not exist
    assert run([
        "compress", "--in", str(tmp_path / "absent.csv"), "--dirs", "100", *flags,
        "--out-prefix", str(tmp_path / "c"),
    ]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, code, message", [
    (["--inner-beta", "-1"], 1, "inner_beta must be finite and nonnegative"),
    (["--variant", "gamma-threshold", "--gamma", "1e-300"], 2, "no constraints survived"),
])
def test_failed_compress_writes_no_output(tmp_path, capsys, flags, code, message):
    pts_path = tmp_path / "pts.csv"
    assert run(["gen", "--shape", "cube", "--dims", "3", "--points", "100",
                "--out", str(pts_path)]) == 0
    assert run([
        "compress", "--in", str(pts_path), "--dirs", "100", "--hyperplanes", *flags,
        "--out-prefix", str(tmp_path / "c"),
    ]) == code
    assert message in capsys.readouterr().err
    assert list(tmp_path.glob("c_*")) == []


def test_error_rejects_negative_probes(tmp_path, capsys):
    pts_path = gen_simplex(tmp_path, n=60, seed=43, dims=3)
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "50", "--out-prefix", str(tmp_path / "e"),
    ]) == 0
    assert run([
        "error", "--in", str(pts_path), "--inner", str(tmp_path / "e_inner.csv"),
        "--halfspaces", str(tmp_path / "e_halfspaces.csv"), "--probes", "-5",
        "--out", str(tmp_path / "r.json"),
    ]) == 1
    assert "probes must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_error_rejects_oracle_cap_below_one(tmp_path, capsys, cap):
    pts_path = gen_simplex(tmp_path, n=60, seed=43)
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "50", "--out-prefix", str(tmp_path / "e"),
    ]) == 0
    assert run([
        "error", "--in", str(pts_path), "--inner", str(tmp_path / "e_inner.csv"),
        "--halfspaces", str(tmp_path / "e_halfspaces.csv"), "--oracle-cap", cap,
        "--out", str(tmp_path / "r.json"),
    ]) == 1
    assert "oracle-cap must be >= 1" in capsys.readouterr().err
    # compress and bench reject the same cap rather than skip the oracle
    assert run([
        "compress", "--in", str(pts_path), "--dirs", "50", "--oracle-cap", cap,
        "--out-prefix", str(tmp_path / "c"),
    ]) == 1
    assert "oracle-cap must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "c_ratios.json").exists()
    assert run([
        "bench", "--in", str(pts_path), "--schedule", "10,20", "--oracle-cap", cap,
        "--out", str(tmp_path / "b.csv"),
    ]) == 1
    assert "oracle-cap must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("cap", ["200", "5000"])
@pytest.mark.parametrize(
    "shape,dims,seed", [("cube", 2, 7), ("cube", 3, 8), ("simplex", 3, 9), ("simplex", 4, 10)]
)
def test_bench_outer_error_equals_error_command(tmp_path, shape, dims, seed, cap):
    # sketch -> error and bench take the same directions, probes and reference
    # hull (the oracle's, on the cloud or on the same seeded subsample of it),
    # so their rows must agree exactly on both sides of the oracle cap.
    pts_path = tmp_path / "pts.csv"
    assert run([
        "gen", "--shape", shape, "--dims", str(dims), "--points", "3000",
        "--seed", str(seed), "--out", str(pts_path),
    ]) == 0
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "200", "--seed", str(seed),
        "--out-prefix", str(tmp_path / "s"),
    ]) == 0
    out = tmp_path / "report.json"
    assert run([
        "error", "--in", str(pts_path), "--inner", str(tmp_path / "s_inner.csv"),
        "--halfspaces", str(tmp_path / "s_halfspaces.csv"), "--probes", "30",
        "--seed", str(seed), "--oracle-cap", cap, "--out", str(out),
    ]) == 0
    rows = bench_csv(
        tmp_path / "bench.csv", "--in", str(pts_path), "--schedule", "200", "--probes", "30",
        "--seed", str(seed), "--oracle-cap", cap,
    )
    report = json.loads(out.read_text())
    assert report["reference"] == ("oracle" if cap == "5000" else "oracle-subsample")
    assert rows[0]["method"] == report["outer_method"]
    assert report["outer_method"] == ("exact-2d" if dims == 2 else "support-gap-estimate")
    assert report["n_probes"] == (0 if dims == 2 else 30)  # the plane needs no probes
    cloud = PointCloud(read_matrix(pts_path))
    assert reference_hull(cloud, int(cap), seed + SUBSAMPLE_SEED_OFFSET)[1] == report["reference"]
    assert rows[0]["inner_error"] == report["inner_error"]
    assert rows[0]["outer_error"] == report["outer_error"]


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("column, value", [(-1, "inf"), (-1, "-inf"), (-1, "nan"), (0, "nan")])
def test_error_rejects_non_finite_halfspaces(tmp_path, capsys, dims, column, value):
    # An infinite offset once gave an outer error of 1e5 with exit 0, a NaN
    # one "outer hull is empty" (2-d) or a solver's message (3-d).
    pts_path = tmp_path / "pts.csv"
    assert run([
        "gen", "--shape", "ball", "--dims", str(dims), "--points", "300",
        "--seed", "1", "--out", str(pts_path),
    ]) == 0
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "100", "--seed", "2",
        "--out-prefix", str(tmp_path / "s"),
    ]) == 0
    halfspaces = read_matrix(tmp_path / "s_halfspaces.csv")
    halfspaces[0, column] = float(value)
    write_matrix(tmp_path / "bad.csv", halfspaces)
    out = tmp_path / "report.json"
    assert run([
        "error", "--in", str(pts_path), "--inner", str(tmp_path / "s_inner.csv"),
        "--halfspaces", str(tmp_path / "bad.csv"), "--probes", "10", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == "error: halfspace normals and offsets must be finite\n"
    assert not out.exists()


@pytest.mark.parametrize("dims", [2, 3])
def test_error_scales_with_the_cloud(tmp_path, dims):
    # The projection and 2-d feasibility tolerances are relative to the
    # reference's extent; with absolute ones a 2-d cube at 1e-9 read an outer
    # error / s of 91.5 against 0.058, and at 1e-6 the projection did not converge.
    pts_path = tmp_path / "pts.csv"
    assert run([
        "gen", "--shape", "cube", "--dims", str(dims), "--points", "2000",
        "--seed", "12", "--out", str(pts_path),
    ]) == 0
    assert run([
        "sketch", "--in", str(pts_path), "--dirs", "40", "--seed", "13",
        "--out-prefix", str(tmp_path / "s"),
    ]) == 0
    points = read_matrix(pts_path)
    inner = read_matrix(tmp_path / "s_inner.csv")[:, :dims]
    halfspaces = read_matrix(tmp_path / "s_halfspaces.csv")

    def report(scale):
        paths = [tmp_path / f"{name}_{scale:g}.csv" for name in ("pts", "inner", "hs")]
        write_matrix(paths[0], scale * points)
        write_matrix(paths[1], scale * inner)
        write_matrix(paths[2], np.column_stack([halfspaces[:, :dims], scale * halfspaces[:, dims]]))
        out = tmp_path / f"report_{scale:g}.json"
        assert run([
            "error", "--in", str(paths[0]), "--inner", str(paths[1]),
            "--halfspaces", str(paths[2]), "--probes", "20", "--seed", "14",
            "--out", str(out),
        ]) == 0, scale
        return json.loads(out.read_text())

    unit = report(1.0)
    assert unit["inner_error"] > 1e-3 and unit["outer_error"] > 1e-3
    for scale in (1e-9, 1e-6, 1e6, 1e9):
        got = report(scale)
        for key in ("inner_error", "outer_error"):
            assert got[key] / scale == pytest.approx(unit[key], rel=1e-9), (scale, key)


@pytest.mark.parametrize("dims,scale", [(2, 1e-9), (3, 1e-6), (5, 1e-3)])
def test_gen_accepts_small_nonsingular_transform(tmp_path, dims, scale):
    tf = tmp_path / "map.csv"
    write_matrix(tf, scale * np.eye(dims))
    out = tmp_path / "pts.csv"
    assert run([
        "gen", "--shape", "cube", "--dims", str(dims), "--points", "50",
        "--transform", str(tf), "--out", str(out),
    ]) == 0
    assert np.abs(read_matrix(out)).max() <= scale


def test_gen_rejects_rank_deficient_transform(tmp_path, capsys):
    tf = tmp_path / "map.csv"
    write_matrix(tf, np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]))
    assert run([
        "gen", "--shape", "cube", "--dims", "3", "--points", "50",
        "--transform", str(tf), "--out", str(tmp_path / "pts.csv"),
    ]) == 1
    assert "nonsingular" in capsys.readouterr().err


def test_gen_applies_the_shift_column_of_a_transform(tmp_path):
    # a (dims, dims + 1) file is the linear part followed by the shift
    linear, shift = np.array([[2.0, 0.5], [0.0, 1.0]]), np.array([3.0, -1.0])
    tf, plain, moved = tmp_path / "map.csv", tmp_path / "plain.csv", tmp_path / "moved.csv"
    write_matrix(tf, np.column_stack([linear, shift]))
    common = ["gen", "--shape", "cube", "--dims", "2", "--points", "40", "--seed", "3"]
    assert run([*common, "--out", str(plain)]) == 0
    assert run([*common, "--transform", str(tf), "--out", str(moved)]) == 0
    np.testing.assert_allclose(read_matrix(moved), read_matrix(plain) @ linear.T + shift, rtol=1e-15)


def test_bounds_writes_its_json_to_out(tmp_path, capsys):
    argv = ["bounds", "--n", "3", "--omega", "0.25", "--k", "0.25", "--m", "1000"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "bounds.json"
    assert run([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


@pytest.mark.parametrize("argv, message", [
    (["gen", "--shape", "cube", "--dims", "3", "--points", "10", "--transform", "{short_map}",
      "--out", "{dir}/g.csv"], "{short_map}: transform file must be (3, 3) or (3, 4), got (2, 4)"),
    (["compress", "--in", "{pts}", "--sketch-json", "{not_json}", "--out-prefix", "{dir}/c"],
     "{not_json}: Expecting value: line 1 column 1 (char 0)"),
    (["error", "--in", "{pts}", "--inner", "{inner}", "--halfspaces", "{box}", "--probes", "5",
      "--sketch-json", "{not_json}", "--out", "{dir}/r.json"],
     "{not_json}: Expecting value: line 1 column 1 (char 0)"),
    (["error", "--in", "{pts}", "--inner", "{wide}", "--halfspaces", "{box}", "--probes", "5",
      "--out", "{dir}/r.json"], "{wide}: expected 3 or 4 columns, got 5"),
    (["error", "--in", "{pts}", "--inner", "{inner}", "--halfspaces", "{square}", "--probes", "5",
      "--out", "{dir}/r.json"], "halfspace dimension does not match the points"),
    (["bounds", "--sweep"], "--sweep needs --out for the CSV"),
    (["bench", "--schedule", "10", "--out", "{dir}/b.csv"], "bench needs --in or --shape"),
    (["bench", "--in", "{pts}", "--schedule", "10", "--probes", "0", "--out", "{dir}/b.csv"],
     "bench needs probes >= 1 in dimension >= 3"),
], ids=["gen-transform-shape", "compress-sketch-not-json", "error-sketch-not-json",
        "error-inner-columns", "error-halfspace-dim", "bounds-sweep-no-out", "bench-no-cloud",
        "bench-3d-no-probes"])
def test_malformed_input_exits_one_with_one_line_and_no_file(tmp_path, capsys, argv, message):
    files = {
        "short_map": np.ones((2, 4)),
        "wide": np.ones((3, 5)),
        "inner": np.eye(3),
        "box": np.column_stack([np.vstack([np.eye(3), -np.eye(3)]), np.ones(6)]),
        "square": np.column_stack([np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)]),
    }
    paths = {name: str(tmp_path / f"{name}.csv") for name in files}
    for name, data in files.items():
        write_matrix(paths[name], data)
    paths["pts"] = str(gen_simplex(tmp_path, n=40, seed=88, dims=3))
    paths["not_json"] = str(tmp_path / "not_json.json")
    (tmp_path / "not_json.json").write_text("not json\n")
    before = sorted(tmp_path.iterdir())
    assert run([a.format(dir=tmp_path, **paths) for a in argv]) == 1
    assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
    assert sorted(tmp_path.iterdir()) == before


def test_error_reads_the_sketch_before_the_oracle(tmp_path, capsys, monkeypatch):
    def no_oracle(*args):
        raise AssertionError("the reference hull was computed before the sketch was read")

    monkeypatch.setattr("hullsketch.cli.reference_hull", no_oracle)
    pts = gen_simplex(tmp_path, n=40, seed=88, dims=3)
    run(["sketch", "--in", str(pts), "--dirs", "50", "--out-prefix", str(tmp_path / "s")])
    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    assert run([
        "error", "--in", str(pts), "--inner", str(tmp_path / "s_inner.csv"),
        "--halfspaces", str(tmp_path / "s_halfspaces.csv"), "--sketch-json", str(bad),
        "--out", str(tmp_path / "r.json"),
    ]) == 1
    assert capsys.readouterr().err == f"error: {bad}: Expecting value: line 1 column 1 (char 0)\n"
