"""Command-line surface: gen, sketch, compress, error, bounds, bench.

Every command is deterministic given its inputs and seed; JSON summaries
embed the seed, the parameters, and the package version.  Exit codes:
0 success, 1 validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    BoundQuery,
    aleksandrov_bound,
    cap_lower_bound,
    chebyshev_bound,
    direction_count_bound,
    directions_for_inner_error,
)
from .compression import NoConstraintsSurvivedError, hyperplane_compress, vertex_compress
from .datagen import SHAPE_KINDS, ShapeSpec, generate
from .directions import sample_uniform
from .geometry import (
    ConvergenceError,
    PointCloud,
    VertexPolytope,
    exact_extreme_points,
)
from .io import read_halfspaces, read_matrix, write_halfspaces, write_matrix
from .metrics import (
    EmptyOuterHullError,
    UnboundedOuterHullError,
    inner_error,
    outer_error,
    probe_support,
)
from .sketch import CurvatureSketch, OuterHull, build_sketch, outer_hull, threshold_filter

__all__ = ["build_parser", "bench_rows", "main", "entrypoint"]

# Derived-seed offsets so each random stage has its own stream.
FILTER_SEED_OFFSET = 1
PROBE_SEED_OFFSET = 2
SUBSAMPLE_SEED_OFFSET = 4

DEFAULT_ORACLE_CAP = 2000


class CliValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# helpers


def _load_transform(path: str | None, dims: int):
    """Affine map file: dims rows, dims+1 columns (linear part | shift)."""
    if path is None:
        return None, None
    data = read_matrix(path)
    if data.shape == (dims, dims + 1):
        return data[:, :dims], data[:, dims]
    if data.shape == (dims, dims):
        return data, None
    raise CliValidationError(
        f"transform file must be ({dims}, {dims}) or ({dims}, {dims + 1}), got {data.shape}"
    )


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _summary_base(seed: int, params: dict) -> dict:
    return {"seed": seed, "version": __version__, "params": params}


def _inner_csv(path: str, coords: np.ndarray, curvatures: np.ndarray) -> None:
    write_matrix(path, np.hstack([coords, curvatures[:, None]]))


def _read_inner_csv(path: str, dim: int) -> np.ndarray:
    data = read_matrix(path)
    if data.shape[1] == dim + 1:  # kept points + curvature column
        return data[:, :dim]
    if data.shape[1] == dim:
        return data
    raise CliValidationError(
        f"{path}: expected {dim} or {dim + 1} columns, got {data.shape[1]}"
    )


def _check_oracle_cap(args) -> None:
    # A cap below 1 would silently skip the oracle rather than run it.
    if args.oracle_cap < 1:
        raise CliValidationError("oracle-cap must be >= 1")


def _reference(cloud: PointCloud, seed: int, oracle_cap: int) -> tuple[VertexPolytope, str]:
    """Reference vertex set for inner error, and its tag: the oracle's
    extreme points of the cloud, or above ``oracle_cap`` points of a seeded
    ``oracle_cap``-point subsample."""
    if len(cloud) <= oracle_cap:
        return VertexPolytope(cloud.points[exact_extreme_points(cloud)]), "oracle"
    rng = np.random.Generator(np.random.PCG64(seed + SUBSAMPLE_SEED_OFFSET))
    sub = cloud.points[np.sort(rng.choice(len(cloud), size=oracle_cap, replace=False))]
    return VertexPolytope(sub[exact_extreme_points(PointCloud(sub))]), "oracle-subsample"


def _probes(args, dim: int):
    """The outer error's probe directions; None in the plane, where it is exact."""
    return None if dim == 2 else sample_uniform(args.probes, dim, args.seed + PROBE_SEED_OFFSET)


# ---------------------------------------------------------------------------
# commands
#
# Each command takes the parsed argparse namespace; the parser is the only
# place that holds a flag's default.


def _generate(args, seed: int) -> PointCloud:
    """Synthetic cloud from --shape/--dims/--points/--transform."""
    matrix, shift = _load_transform(args.transform, args.dims)
    return generate(
        ShapeSpec(
            kind=args.shape,
            dim=args.dims,
            count=args.points,
            seed=seed,
            transform=matrix,
            shift=shift,
        )
    )


def cmd_gen(args) -> None:
    write_matrix(args.out, _generate(args, args.seed).points)


def cmd_sketch(args) -> None:
    if not 0.0 <= args.alpha <= 1.0:
        raise CliValidationError("alpha must lie in [0, 1]")
    if args.dirs < 1:
        raise CliValidationError("dirs must be >= 1")
    t0 = time.perf_counter()
    cloud = PointCloud(read_matrix(args.points_path))
    dirs = sample_uniform(args.dirs, cloud.dim, args.seed)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, args.alpha, args.mode, args.seed + FILTER_SEED_OFFSET)
    outer = outer_hull(sketch, cloud, dirs)
    runtime_ms = 1000.0 * (time.perf_counter() - t0)

    n_found = int(np.count_nonzero(sketch.counts))
    _inner_csv(f"{args.out_prefix}_inner.csv", inner.select(cloud), inner.curvatures)
    write_halfspaces(f"{args.out_prefix}_halfspaces.csv", outer.normals, outer.offsets)
    summary = _summary_base(
        args.seed,
        {"dirs": args.dirs, "alpha": args.alpha, "mode": args.mode, "in": args.points_path},
    )
    summary.update(
        {
            "n_found": n_found,
            "n_kept": len(inner),
            "runtime_ms": runtime_ms,
            "counters": {
                "scores_formed": sketch.scores_formed,
                "score_pairs": len(cloud) * len(dirs),
            },
        }
    )
    if len(inner) == 0:
        summary["warning"] = "threshold kept no points (every curvature <= alpha)"
        print(summary["warning"], file=sys.stderr)
    if args.save_sketch:
        _write_json(f"{args.out_prefix}_sketch.json", sketch.to_dict())
    _write_json(f"{args.out_prefix}_summary.json", summary)


def _sketch_from_json(path: str, cloud: PointCloud) -> CurvatureSketch:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return CurvatureSketch.from_dict(payload, cloud)
    except ValueError as exc:
        raise CliValidationError(f"{path}: {exc}") from None


def cmd_compress(args) -> None:
    if not 0.0 <= args.beta < math.inf:  # a NaN or infinite beta would corrupt the JSON
        raise CliValidationError("beta must be finite and nonnegative")
    _check_oracle_cap(args)
    t0 = time.perf_counter()
    cloud = PointCloud(read_matrix(args.points_path))
    if args.sketch_json is not None:
        sketch = _sketch_from_json(args.sketch_json, cloud)
    else:
        dirs = sample_uniform(args.dirs, cloud.dim, args.seed)
        sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, args.alpha, args.mode, args.seed + FILTER_SEED_OFFSET)
    compressed, clusters = vertex_compress(inner, cloud, args.beta, args.order)
    hull = None
    if args.hyperplanes:
        hull = hyperplane_compress(
            sketch,
            clusters,
            inner_alpha=args.inner_alpha,
            inner_beta=args.inner_beta,
            merge_angle=args.merge_angle,
            variant=args.variant,
            gamma=args.gamma,
            seed=args.seed,
        )
    n_planes_out = None if hull is None else len(hull)
    ratios_payload: dict = {
        "found_vertices": len(compressed),
        "true_vertices": None,
        "vertex_ratio": None,
        "found_planes": n_planes_out,
        "true_planes": None,
        "plane_ratio": None,
    }
    if len(cloud) <= args.oracle_cap:
        true_v = int(exact_extreme_points(cloud).size)
        ratios_payload["true_vertices"] = true_v
        ratios_payload["vertex_ratio"] = len(compressed) / true_v
        # In the plane the facet count of a polygon equals its vertex count.
        if cloud.dim == 2 and n_planes_out is not None:
            ratios_payload["true_planes"] = true_v
            ratios_payload["plane_ratio"] = n_planes_out / true_v

    # Every computation that can fail is done: write the outputs.
    _inner_csv(
        f"{args.out_prefix}_vertices.csv", compressed.select(cloud), compressed.curvatures
    )
    cluster_payload = {
        "representatives": clusters.representatives.tolist(),
        "members": {str(k): v.tolist() for k, v in clusters.members.items()},
        "beta": args.beta,
        "order": args.order,
    }
    if hull is not None:
        write_halfspaces(f"{args.out_prefix}_halfspaces.csv", hull.normals, hull.offsets)
        cluster_payload["n_halfspaces"] = n_planes_out
    _write_json(f"{args.out_prefix}_clusters.json", cluster_payload)
    _write_json(f"{args.out_prefix}_ratios.json", ratios_payload)

    summary = _summary_base(
        args.seed,
        {
            "beta": args.beta,
            "alpha": args.alpha,
            "order": args.order,
            "hyperplanes": args.hyperplanes,
            "in": args.points_path,
        },
    )
    summary.update(
        {
            "n_found": int(np.count_nonzero(sketch.counts)),
            "n_kept_threshold": len(inner),
            "n_kept": len(compressed),
            "runtime_ms": 1000.0 * (time.perf_counter() - t0),
        }
    )
    _write_json(f"{args.out_prefix}_summary.json", summary)


def cmd_error(args) -> None:
    _check_oracle_cap(args)
    if args.probes < 0:
        raise CliValidationError("probes must be >= 0")
    cloud = PointCloud(read_matrix(args.points_path))
    kept = _read_inner_csv(args.inner, cloud.dim)
    normals, offsets = read_halfspaces(args.halfspaces)
    if normals.shape[1] != cloud.dim:
        raise CliValidationError("halfspace dimension does not match the points")
    outer = OuterHull(normals=normals, offsets=offsets)

    reference, reference_tag = _reference(cloud, args.seed, args.oracle_cap)
    inner_val = inner_error(reference, VertexPolytope(kept))

    outer_val, outer_method, n_probes = None, None, 0
    if args.probes > 0 or cloud.dim == 2:
        result = outer_error(outer, VertexPolytope(cloud.points), _probes(args, cloud.dim))
        outer_val, outer_method, n_probes = result.value, result.method, result.n_probes

    n_found = -1
    if args.sketch_json is not None:
        n_found = int(np.count_nonzero(_sketch_from_json(args.sketch_json, cloud).counts))

    _write_json(args.out, {
        "inner_error": inner_val,
        "outer_error": outer_val,
        "outer_method": outer_method,
        "n_probes": n_probes,
        "n_dirs_used": len(offsets),
        "n_found": n_found,
        "n_kept": kept.shape[0],
        "reference": reference_tag,
        "reference_vertices": len(reference),
    })


def cmd_bounds(args) -> None:
    names = ("n", "eps", "x_count", "omega", "k", "m", "theta")
    given = [f"--{f.replace('_', '-')}" for f in names if getattr(args, f) is not None]
    if args.sweep and given:
        raise CliValidationError(f"bounds --sweep writes fixed curves; drop {', '.join(given)}")
    # --n, --eps and --x-count parse to None so that --sweep can refuse them
    args.n = 3 if args.n is None else args.n
    args.eps = 0.1 if args.eps is None else args.eps
    args.x_count = 1 if args.x_count is None else args.x_count
    if (args.k is None) != (args.m is None):
        raise CliValidationError("bounds needs --k and --m together for the Chebyshev bound")
    if args.sweep:
        if args.out is None:
            raise CliValidationError("--sweep needs --out for the CSV")
        rows = []
        omegas = np.linspace(0.002, 0.5, 250)
        for n in (2, 3, 4, 5):
            for w in omegas:
                rows.append(("aleksandrov", n, w, aleksandrov_bound(args.r, n, w)))
        for w in omegas:
            rows.append(("direction-count", 0, w, direction_count_bound(w, args.p)))
        with open(args.out, "w") as fh:
            fh.write("# curve,n,omega,value\n")
            for curve, n, w, v in rows:
                fh.write(f"{curve},{n},{w:.17g},{v:.17g}\n")
        return

    out: dict = {"params": {"n": args.n, "r": args.r, "p": args.p, "eps": args.eps, "x_count": args.x_count}}
    if args.k is not None:
        out["chebyshev"] = chebyshev_bound(args.k, args.m, args.eps)
    if args.omega is not None:
        out["direction_count"] = direction_count_bound(args.omega, args.p)
        out["aleksandrov"] = aleksandrov_bound(args.r, args.n, args.omega)
    if args.theta is not None:
        out["cap_lower_bound"] = cap_lower_bound(args.theta, args.n)
    query = BoundQuery(n=args.n, r=args.r, p=args.p, eps=args.eps, x_count=args.x_count)
    out["directions_worst_case"] = directions_for_inner_error(query, "worst-case")
    out["directions_single_point"] = directions_for_inner_error(query, "single-point")
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def bench_rows(args) -> list[dict]:
    """Run the direction-count schedule and return one metrics row per entry.

    ``args`` is the namespace ``build_parser()`` parses for ``bench``.  The
    schedule shares a single nested direction sample: the run at M uses
    the first M directions of the longest run, so found sets grow and the
    outer constraint sets are nested, making the error columns non-increasing
    sequences rather than statistical trends.  Each row's errors are the
    ones ``error`` reports for the sketch at M: the same reference hull,
    probes and calls.
    """
    _check_oracle_cap(args)
    schedule = args.schedule
    if len(schedule) == 0:
        raise CliValidationError("schedule must be nonempty")
    if any(m < 1 for m in schedule):
        raise CliValidationError("schedule entries must be >= 1")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise CliValidationError("schedule must be strictly increasing")
    if args.points_path is not None:
        given = [f for f in ("shape", "transform", "gen_seed") if getattr(args, f) is not None]
        if given:
            flags = ", ".join("--" + f.replace("_", "-") for f in given)
            raise CliValidationError(f"bench --in takes its cloud from the file; drop {flags}")
        cloud = PointCloud(read_matrix(args.points_path))
    elif args.shape is not None:
        cloud = _generate(args, args.gen_seed if args.gen_seed is not None else args.seed)
    else:
        raise CliValidationError("bench needs --in or --shape")
    if cloud.dim >= 3 and args.probes < 1:
        raise CliValidationError("bench needs probes >= 1 in dimension >= 3")
    dirs = sample_uniform(schedule[-1], cloud.dim, args.seed)
    full = build_sketch(cloud, dirs)
    reference, reference_tag = _reference(cloud, args.seed, args.oracle_cap)
    hull = VertexPolytope(cloud.points)
    probes = _probes(args, cloud.dim)
    h_true = None if probes is None else probe_support(hull, probes)

    rows = []
    for m in schedule:
        prefix_dirs = dirs.prefix(m)
        sketch_m = CurvatureSketch(cloud, prefix_dirs, full.assignment[:m])
        inner_m = threshold_filter(
            sketch_m, args.alpha, args.mode, args.seed + FILTER_SEED_OFFSET
        )
        inner_val = math.inf
        if len(inner_m) > 0:
            inner_val = inner_error(reference, VertexPolytope(inner_m.select(cloud)))
        outer = outer_error(
            outer_hull(sketch_m, cloud, prefix_dirs), hull, probes, h_true=h_true
        )
        rows.append(
            {
                "n_dirs": m,
                "n_found": int(np.count_nonzero(sketch_m.counts)),
                "n_kept": len(inner_m),
                "inner_error": inner_val,
                "outer_error": outer.value,
                "method": outer.method,
                "reference": reference_tag,
            }
        )
    return rows


def cmd_bench(args) -> None:
    rows = bench_rows(args)
    with open(args.out, "w") as fh:
        fh.write("# n_dirs,n_found,n_kept,inner_error,outer_error,method\n")
        for r in rows:
            fh.write(
                f"{r['n_dirs']},{r['n_found']},{r['n_kept']},"
                f"{r['inner_error']:.17g},{r['outer_error']:.17g},{r['method']}\n"
            )


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 via CliValidationError, not SystemExit(2)
        raise CliValidationError(message)


class _Ignored(argparse.Action):
    """A retired flag: takes its value, notes on stderr that it has no effect."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"note: {option_string} is ignored", file=sys.stderr)


def _parse_schedule(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise CliValidationError(f"bad schedule {text!r}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hullsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic point cloud CSV")
    p.add_argument("--shape", required=True, choices=SHAPE_KINDS)
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--transform", default=None, help="CSV with the affine map")
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("sketch", help="curvature sketch: inner hull + halfspaces")
    p.add_argument("--in", dest="points_path", required=True)
    p.add_argument("--dirs", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--mode", choices=("hard", "proportional"), default="hard")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--save-sketch", action="store_true")
    p.set_defaults(run=cmd_sketch)

    p = sub.add_parser("compress", help="vertex and hyperplane compression")
    p.add_argument("--in", dest="points_path", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dirs", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--mode", choices=("hard", "proportional"), default="hard")
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--order", choices=("decreasing", "paper-increasing"), default="decreasing")
    p.add_argument("--sketch-json", default=None)
    p.add_argument("--hyperplanes", action="store_true")
    p.add_argument("--inner-alpha", type=float, default=0.1)
    p.add_argument("--inner-beta", type=float, default=0.0)
    p.add_argument("--merge-angle", type=float, default=math.pi / 36)
    p.add_argument("--variant", choices=("recursive", "gamma-threshold"), default="recursive")
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(run=cmd_compress)

    p = sub.add_parser("error", help="inner/outer error report")
    p.add_argument("--in", dest="points_path", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--halfspaces", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p.add_argument("--sketch-json", default=None)
    p.set_defaults(run=cmd_error)

    p = sub.add_parser("bounds", help="evaluate the probabilistic/geometric bounds")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--x-count", type=int, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--k", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--sweep", action="store_true")
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("bench", help="error-vs-directions curves over a schedule")
    p.add_argument("--schedule", required=True, type=_parse_schedule)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="points_path", default=None)
    p.add_argument("--shape", choices=SHAPE_KINDS, default=None)
    p.add_argument("--dims", type=int, default=3)
    p.add_argument("--points", type=int, default=10000)
    p.add_argument("--gen-seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--mode", choices=("hard", "proportional"), default="hard")
    p.add_argument("--probes", type=int, default=200)
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    # retired and ignored; it parses while perfbench's desk3d workload still passes it
    p.add_argument("--ref-dirs", action=_Ignored, default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    p.add_argument("--transform", default=None)
    p.set_defaults(run=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.run(args)
    except (OSError, ValueError) as exc:  # ValueError covers CliValidationError, CsvFormatError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        ConvergenceError,
        EmptyOuterHullError,
        UnboundedOuterHullError,
        NoConstraintsSurvivedError,
        FloatingPointError,
        OverflowError,  # a distance beyond the largest double
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        detail = f" ({exc})" if str(exc) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:  # console-script hook
    sys.exit(main())
