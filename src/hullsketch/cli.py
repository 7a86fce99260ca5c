"""Command-line surface: gen, sketch, compress, error, bounds, bench.

Every command is deterministic given its inputs and seed; JSON summaries
embed the seed, the parameters, and the package version.  Exit codes:
0 success, 1 validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__, io
from .bounds import (
    BoundQuery,
    aleksandrov_bound,
    cap_lower_bound,
    chebyshev_bound,
    direction_count_bound,
    directions_for_inner_error,
)
from .compression import HYPERPLANE_VARIANTS, VERTEX_ORDERS, hyperplane_compress, vertex_compress
from .datagen import SHAPE_KINDS, ShapeSpec, generate
from .directions import sample_uniform
from .geometry import NumericalError, PointCloud, exact_extreme_points
from .metrics import accuracy_curve, inner_error, outer_error, reference_hull
from .sketch import THRESHOLD_MODES, CurvatureSketch, OuterHull, build_sketch, outer_hull, threshold_filter

__all__ = ["build_parser", "main", "entrypoint"]

# Derived-seed offsets so each random stage has its own stream.
FILTER_SEED_OFFSET = 1
PROBE_SEED_OFFSET = 2
SUBSAMPLE_SEED_OFFSET = 4

# --oracle-cap is at least 1: a smaller cap would silently skip the oracle.
DEFAULT_ORACLE_CAP = 2000


class CliValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# helpers


def _summary_base(seed: int, params: dict) -> dict:
    return {"seed": seed, "version": __version__, "params": params}


def _probes(args, dim: int):
    """The outer error's probe directions; None in the plane, where it is exact."""
    return None if dim == 2 else sample_uniform(args.probes, dim, args.seed + PROBE_SEED_OFFSET)


def _outer_method(dim: int) -> str:
    """The outer error's label in reports: exact in the plane, estimated from probes above."""
    return "exact-2d" if dim == 2 else "support-gap-estimate"


# ---------------------------------------------------------------------------
# commands
#
# Each command takes the parsed argparse namespace; the parser is the only
# place that holds a flag's default.


def _generate(args, seed: int) -> PointCloud:
    """Synthetic cloud from --shape/--dims/--points/--transform."""
    matrix, shift = (None, None) if args.transform is None else io.read_transform(args.transform, args.dims)
    spec = ShapeSpec(args.shape, args.dims, args.points, seed, transform=matrix, shift=shift)
    return generate(spec)


def cmd_gen(args) -> None:
    io.write_matrix(args.out, _generate(args, args.seed).points)


def cmd_sketch(args) -> None:
    t0 = time.perf_counter()
    cloud = PointCloud(io.read_matrix(args.points_path))
    dirs = sample_uniform(args.dirs, cloud.dim, args.seed)
    sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, args.alpha, args.mode, args.seed + FILTER_SEED_OFFSET)
    outer = outer_hull(sketch, cloud, dirs)
    runtime_ms = 1000.0 * (time.perf_counter() - t0)

    n_found = int(np.count_nonzero(sketch.counts))
    io.write_inner(f"{args.out_prefix}_inner.csv", inner.select(cloud), inner.curvatures)
    io.write_halfspaces(f"{args.out_prefix}_halfspaces.csv", outer.normals, outer.offsets)
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
        io.write_json(f"{args.out_prefix}_sketch.json", sketch.to_dict())
    io.write_json(f"{args.out_prefix}_summary.json", summary)


def _sketch_from_json(path: str, cloud: PointCloud) -> CurvatureSketch:
    payload = io.read_json(path)
    try:
        return CurvatureSketch.from_dict(payload, cloud)
    except ValueError as exc:
        raise CliValidationError(f"{path}: {exc}") from None


# The hyperplane flags each variant reads.  They parse to None, so that a
# flag the run would not read can be refused, and only the given ones reach
# hyperplane_compress, which holds their defaults.
_VARIANT_FLAGS = {
    "recursive": ("variant", "inner_alpha", "inner_beta", "merge_angle"),
    "gamma-threshold": ("variant", "gamma", "merge_angle"),
}


def cmd_compress(args) -> None:
    t0 = time.perf_counter()
    names = ("variant", "inner_alpha", "inner_beta", "merge_angle", "gamma")
    given = {f: getattr(args, f) for f in names if getattr(args, f) is not None}
    variant = given.get("variant", HYPERPLANE_VARIANTS[0])
    unread = [f for f in given if not args.hyperplanes or f not in _VARIANT_FLAGS[variant]]
    if unread:
        flags = ", ".join("--" + f.replace("_", "-") for f in unread)
        where = f"--variant {variant}" if args.hyperplanes else "without --hyperplanes"
        raise CliValidationError(f"compress {where} does not read {flags}")
    cloud = PointCloud(io.read_matrix(args.points_path))
    if args.sketch_json is not None:
        sketch = _sketch_from_json(args.sketch_json, cloud)
    else:
        dirs = sample_uniform(args.dirs, cloud.dim, args.seed)
        sketch = build_sketch(cloud, dirs)
    inner = threshold_filter(sketch, args.alpha, args.mode, args.seed + FILTER_SEED_OFFSET)
    compressed, clusters = vertex_compress(inner, cloud, args.beta, args.order)
    hull = None
    if args.hyperplanes:
        hull = hyperplane_compress(sketch, clusters, seed=args.seed, **given)
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
    io.write_inner(f"{args.out_prefix}_vertices.csv", compressed.select(cloud), compressed.curvatures)
    cluster_payload = {
        "representatives": clusters.representatives.tolist(),
        "members": {str(k): v.tolist() for k, v in clusters.members.items()},
        "beta": args.beta,
        "order": args.order,
    }
    if hull is not None:
        io.write_halfspaces(f"{args.out_prefix}_halfspaces.csv", hull.normals, hull.offsets)
        cluster_payload["n_halfspaces"] = n_planes_out
    io.write_json(f"{args.out_prefix}_clusters.json", cluster_payload)
    io.write_json(f"{args.out_prefix}_ratios.json", ratios_payload)

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
    io.write_json(f"{args.out_prefix}_summary.json", summary)


def cmd_error(args) -> None:
    cloud = PointCloud(io.read_matrix(args.points_path))
    kept = io.read_inner(args.inner, cloud.dim)
    normals, offsets = io.read_halfspaces(args.halfspaces)
    if normals.shape[1] != cloud.dim:
        raise CliValidationError("halfspace dimension does not match the points")
    outer = OuterHull(normals=normals, offsets=offsets)

    reference, reference_tag = reference_hull(cloud, args.oracle_cap, args.seed + SUBSAMPLE_SEED_OFFSET)
    inner_val = inner_error(reference, PointCloud(kept))

    outer_val, outer_method = None, None
    if args.probes > 0 or cloud.dim == 2:
        outer_val = outer_error(outer, cloud, _probes(args, cloud.dim))
        outer_method = _outer_method(cloud.dim)

    n_found = -1
    if args.sketch_json is not None:
        n_found = int(np.count_nonzero(_sketch_from_json(args.sketch_json, cloud).counts))

    io.write_json(args.out, {
        "inner_error": inner_val,
        "outer_error": outer_val,
        "outer_method": outer_method,
        "n_probes": 0 if cloud.dim == 2 else args.probes,
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
        io.write_rows(args.out, ("curve", "n", "omega", "value"), rows)
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
    io.write_json(args.out or None, out)  # an empty --out prints, as no --out does


def cmd_bench(args) -> None:
    """Errors along a schedule that shares one nested direction sample: the
    run at M uses the first M directions of the longest run.  Each row's
    errors are the ones ``error`` reports for the sketch at M."""
    if args.points_path is not None:
        given = [f for f in ("shape", "transform", "gen_seed", "dims", "points") if getattr(args, f) is not None]
        if given:
            flags = ", ".join("--" + f.replace("_", "-") for f in given)
            raise CliValidationError(f"bench --in takes its cloud from the file; drop {flags}")
        cloud = PointCloud(io.read_matrix(args.points_path))
    elif args.shape is not None:  # --dims and --points parse to None so that --in can refuse them
        args.dims = 3 if args.dims is None else args.dims
        args.points = 10000 if args.points is None else args.points
        cloud = _generate(args, args.gen_seed if args.gen_seed is not None else args.seed)
    else:
        raise CliValidationError("bench needs --in or --shape")
    if cloud.dim >= 3 and args.probes < 1:
        raise CliValidationError("bench needs probes >= 1 in dimension >= 3")
    sketch = build_sketch(cloud, sample_uniform(args.schedule[-1], cloud.dim, args.seed))
    reference, _ = reference_hull(cloud, args.oracle_cap, args.seed + SUBSAMPLE_SEED_OFFSET)
    rows = accuracy_curve(
        sketch, args.schedule, reference, _probes(args, cloud.dim),
        alpha=args.alpha, mode=args.mode, filter_seed=args.seed + FILTER_SEED_OFFSET,
    )
    columns, method = ("n_dirs", "n_found", "n_kept", "inner_error", "outer_error"), _outer_method(cloud.dim)
    io.write_rows(args.out, (*columns, "method"), [[r[c] for c in columns] + [method] for r in rows])


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 via CliValidationError, not SystemExit(2)
        raise CliValidationError(message)


class _Ignored(argparse.Action):
    """A retired flag: takes its value, notes on stderr that it has no effect."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"note: {option_string} is ignored", file=sys.stderr)


def _ranged(convert, name: str, low, high=math.inf):
    """Flag type: ``convert(text)`` in [low, high]; argparse prefixes the flag to the message."""

    def check(text: str):
        value = convert(text)
        if not low <= value <= high:
            bound = f"be >= {low}" if high == math.inf else f"lie in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{name} must {bound}")
        return value

    check.__name__ = convert.__name__  # bad text still reads "invalid int value"
    return check


def _parse_schedule(text: str) -> list[int]:
    try:
        schedule = [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad schedule {text!r}: {exc}") from None
    if len(schedule) == 0:
        raise argparse.ArgumentTypeError("schedule must be nonempty")
    if any(m < 1 for m in schedule):
        raise argparse.ArgumentTypeError("schedule entries must be >= 1")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise argparse.ArgumentTypeError("schedule must be strictly increasing")
    return schedule


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hullsketch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic point cloud CSV")
    p.add_argument("--shape", required=True, choices=SHAPE_KINDS)
    p.add_argument("--dims", type=_ranged(int, "dims", 2), required=True)
    p.add_argument("--points", type=_ranged(int, "points", 1), required=True)
    p.add_argument("--seed", type=_ranged(int, "seed", 0), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--transform", default=None, help="CSV with the affine map")
    p.set_defaults(run=cmd_gen)

    p = sub.add_parser("sketch", help="curvature sketch: inner hull + halfspaces")
    p.add_argument("--in", dest="points_path", required=True)
    p.add_argument("--dirs", type=_ranged(int, "dirs", 1), required=True)
    p.add_argument("--alpha", type=_ranged(float, "alpha", 0, 1), default=0.0)
    p.add_argument("--mode", choices=THRESHOLD_MODES, default=THRESHOLD_MODES[0])
    p.add_argument("--seed", type=_ranged(int, "seed", 0), default=0)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--save-sketch", action="store_true")
    p.set_defaults(run=cmd_sketch)

    p = sub.add_parser("compress", help="vertex and hyperplane compression")
    p.add_argument("--in", dest="points_path", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--seed", type=_ranged(int, "seed", 0), default=0)
    source = p.add_mutually_exclusive_group()  # a saved sketch brings its own directions
    source.add_argument("--dirs", type=_ranged(int, "dirs", 1), default=1000)
    source.add_argument("--sketch-json", default=None)
    p.add_argument("--alpha", type=_ranged(float, "alpha", 0, 1), default=0.0)
    p.add_argument("--mode", choices=THRESHOLD_MODES, default=THRESHOLD_MODES[0])
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--order", choices=VERTEX_ORDERS, default=VERTEX_ORDERS[0])
    p.add_argument("--hyperplanes", action="store_true")
    p.add_argument("--inner-alpha", type=float, default=None)
    p.add_argument("--inner-beta", type=float, default=None)
    p.add_argument("--merge-angle", type=float, default=None)
    p.add_argument("--variant", choices=HYPERPLANE_VARIANTS, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--oracle-cap", type=_ranged(int, "oracle-cap", 1), default=DEFAULT_ORACLE_CAP)
    p.set_defaults(run=cmd_compress)

    p = sub.add_parser("error", help="inner/outer error report")
    p.add_argument("--in", dest="points_path", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--halfspaces", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_ranged(int, "seed", 0), default=0)
    p.add_argument("--probes", type=_ranged(int, "probes", 0), default=200)
    p.add_argument("--oracle-cap", type=_ranged(int, "oracle-cap", 1), default=DEFAULT_ORACLE_CAP)
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
    p.add_argument("--seed", type=_ranged(int, "seed", 0), default=0)
    p.add_argument("--in", dest="points_path", default=None)
    p.add_argument("--shape", choices=SHAPE_KINDS, default=None)
    p.add_argument("--dims", type=_ranged(int, "dims", 2), default=None)
    p.add_argument("--points", type=_ranged(int, "points", 1), default=None)
    p.add_argument("--gen-seed", type=_ranged(int, "gen-seed", 0), default=None)
    p.add_argument("--alpha", type=_ranged(float, "alpha", 0, 1), default=0.0)
    p.add_argument("--mode", choices=THRESHOLD_MODES, default=THRESHOLD_MODES[0])
    p.add_argument("--probes", type=_ranged(int, "probes", 0), default=200)
    p.add_argument("--oracle-cap", type=_ranged(int, "oracle-cap", 1), default=DEFAULT_ORACLE_CAP)
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
    # NumericalError is the library's family; OverflowError, a distance beyond the largest double
    except (NumericalError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        detail = f" ({exc})" if str(exc) else ""
        print(f"numerical failure: out of memory{detail}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:  # console-script hook
    sys.exit(main())
