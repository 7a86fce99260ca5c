import json

import numpy as np
import pytest

from hullsketch import PointCloud, exact_extreme_points
from hullsketch.cli import bench_rows, build_parser, main
from hullsketch.io import read_matrix, write_matrix

from oracles import monotone_chain_indices


def run(argv):
    return main(argv)


def bench_args(*argv):
    return build_parser().parse_args(["bench", "--out", "unused.csv", *argv])


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
        "--seed", "11", "--out-prefix", str(tmp_path / "e"),
    ]) == 0
    out = tmp_path / "report.json"
    assert run([
        "error", "--in", str(pts_path), "--inner", str(tmp_path / "e_inner.csv"),
        "--halfspaces", str(tmp_path / "e_halfspaces.csv"), "--out", str(out),
        "--seed", "11",
    ]) == 0
    report = json.loads(out.read_text())
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
    rows = bench_rows(bench_args(
        "--schedule", "120", "--seed", "6", "--in", str(pts_path), "--oracle-cap", "2000",
    ))
    assert len(rows) == 1
    assert rows[0]["n_dirs"] == 120
    assert rows[0]["n_found"] == summary["n_found"]
    assert rows[0]["n_kept"] == summary["n_kept"]


def test_bench_nested_prefix_reproduces_standalone_rows(tmp_path):
    pts_path = gen_simplex(tmp_path, n=200, seed=61)
    common = ("--in", str(pts_path), "--seed", "8", "--oracle-cap", "2000")
    nested = bench_rows(bench_args("--schedule", "40,90,160", *common))
    for m, row in zip((40, 90, 160), nested):
        alone = bench_rows(bench_args("--schedule", str(m), *common))[0]
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
    rows = bench_rows(bench_args(
        "--in", str(pts_path), "--schedule", "200", "--probes", "30",
        "--seed", str(seed), "--oracle-cap", cap,
    ))
    report = json.loads(out.read_text())
    assert report["reference"] == ("oracle" if cap == "5000" else "oracle-subsample")
    assert rows[0]["method"] == report["outer_method"]
    assert rows[0]["reference"] == report["reference"]
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
