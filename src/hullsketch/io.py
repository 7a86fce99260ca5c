"""Every file the CLI reads or writes.

CSV: point matrices; halfspaces (normal columns, then the offset), read as
an ``OuterHull``; kept points (point columns, then the curvature, which
``read_inner`` also takes absent); affine maps (dim rows of dim columns, or
dim + 1 with the shift); and labelled tables (``write_rows``: a ``# header``
line, then mixed fields).  JSON: summaries, clusters, ratios, error and
bound reports, and the sketch: its winners and the seed its directions are
sampled again from, which ``read_sketch`` reads as a ``CurvatureSketch``.

Grammar: comma-separated decimal floats, optional comment/header lines
starting with ``#``, LF or CRLF endings.  Floats are written at
``FLOAT_FORMAT``, 17 significant digits, so a write/read round trip is
bitwise exact.  A path ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma`` is
written and read compressed, as ``np.savetxt``/``np.loadtxt`` do.
"""
from __future__ import annotations

import bz2
import gzip
import json
import lzma
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from .directions import sample_uniform
from .geometry import PointCloud
from .sketch import CurvatureSketch, OuterHull

__all__ = [
    "CsvFormatError",
    "read_matrix",
    "write_matrix",
    "read_halfspaces",
    "write_halfspaces",
]

FLOAT_FORMAT = "%.17g"

GAUSSIAN_UNIFORM = "gaussian-uniform"

# Rows formatted per write: the text of one block is the only buffer.
WRITE_BLOCK_ROWS = 8192

# The suffixes np.loadtxt decompresses, so read_matrix reads what this writes.
_OPENERS = {".gz": gzip.open, ".bz2": bz2.open, ".xz": lzma.open, ".lzma": lzma.open}


class CsvFormatError(ValueError):
    """Malformed CSV input; the message pinpoints the offending line."""


def _scan_for_error(path: Path) -> None:
    """Re-parse line by line to locate the defect behind a fast-path failure."""
    width = None
    with _OPENERS.get(path.suffix, open)(path, "rt", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            fields = [f.strip() for f in stripped.split(",")]
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
                )
            for col, field in enumerate(fields, start=1):
                try:
                    float(field)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: line {lineno}, field {col}: not a number: {field!r}"
                    ) from None
    raise CsvFormatError(f"{path}: no data rows found")


def read_matrix(path) -> np.ndarray:
    """Read a CSV of floats into a 2-d array, with located parse errors."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty-input chatter
            data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2, dtype=np.float64)
    except ValueError:
        _scan_for_error(path)  # always raises with a precise location
        raise  # pragma: no cover
    if data.size == 0:
        raise CsvFormatError(f"{path}: no data rows found")
    return data


def write_matrix(path, data) -> None:
    """Write a 2-d float array as CSV, ``FLOAT_FORMAT`` per field.

    Each block of ``WRITE_BLOCK_ROWS`` rows is formatted by one ``%`` on a
    repeated row template.  The bytes equal those of
    ``np.savetxt(path, data, delimiter=",", fmt=FLOAT_FORMAT)``, which
    formats and writes one row at a time.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    row = ",".join([FLOAT_FORMAT] * data.shape[1]) + "\n"
    with _OPENERS.get(Path(path).suffix, open)(path, "wt") as fh:
        for r0 in range(0, data.shape[0], WRITE_BLOCK_ROWS):
            block = data[r0 : r0 + WRITE_BLOCK_ROWS]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def write_halfspaces(path, hull: OuterHull) -> None:
    """Halfspace CSV: dim normal columns followed by one offset column."""
    write_matrix(path, np.column_stack([hull.normals, hull.offsets]))


def read_halfspaces(path, dim: int) -> OuterHull:
    """The halfspaces of a ``dim``-d cloud, checked by :class:`OuterHull`."""
    data = read_matrix(path)
    if data.shape[1] < 2:
        raise CsvFormatError(f"{path}: halfspace rows need at least 2 columns")
    if data.shape[1] != dim + 1:
        raise ValueError("halfspace dimension does not match the points")
    return OuterHull(normals=data[:, :-1], offsets=data[:, -1])


def write_inner(path, points, curvatures) -> None:
    write_matrix(path, np.hstack([points, curvatures[:, None]]))


def read_inner(path, dim: int) -> np.ndarray:
    """Kept points of a ``dim``-d cloud, with or without the curvature column."""
    data = read_matrix(path)
    if data.shape[1] == dim + 1:
        return data[:, :dim]
    if data.shape[1] == dim:
        return data
    raise CsvFormatError(f"{path}: expected {dim} or {dim + 1} columns, got {data.shape[1]}")


def read_transform(path, dim: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Affine map: (linear part, shift), the shift None for a square file."""
    data = read_matrix(path)
    if data.shape == (dim, dim + 1):
        return data[:, :dim], data[:, dim]
    if data.shape == (dim, dim):
        return data, None
    shapes = f"({dim}, {dim}) or ({dim}, {dim + 1})"
    raise CsvFormatError(f"{path}: transform file must be {shapes}, got {data.shape}")


def write_json(path, payload) -> None:
    """Indent 2, sorted keys, one final newline; to standard output when ``path`` is None."""
    with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sketch(path, sketch: CurvatureSketch) -> None:
    """The sketch's winners and its directions' seed; :func:`read_sketch` reads it back."""
    dirs = sketch.dirs
    if not np.array_equal(sample_uniform(len(dirs), dirs.dim, dirs.seed).directions, dirs.directions):
        raise ValueError("the sketch's directions are not sample_uniform's for their seed")
    write_json(path, {
        "dim": sketch.cloud.dim,
        "n_points": len(sketch.cloud),
        "n_dirs": len(dirs),
        "counts": sketch.counts.tolist(),
        "assignment": sketch.assignment.tolist(),
        "dirs_seed": dirs.seed,
        "dirs_method": GAUSSIAN_UNIFORM,
    })


def read_sketch(path, cloud: PointCloud) -> CurvatureSketch:
    """The sketch of ``cloud`` that :func:`write_sketch` saved, directions
    sampled again from ``dirs_seed``.  Raises ``ValueError``, prefixed with
    the path, on a file that is not JSON, missing or non-integer fields,
    another cloud or method, or counts that do not tally."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        keys = ("dim", "n_points", "n_dirs", "counts", "assignment", "dirs_seed", "dirs_method")
        missing = [k for k in keys if not isinstance(payload, dict) or k not in payload]
        if missing:
            raise ValueError(f"sketch lacks {', '.join(missing)}")
        # JSON integers only: `type(v) is int` refuses bools and floats such as 50.0
        bad = [k for k in ("dim", "n_points", "n_dirs", "dirs_seed") if type(payload[k]) is not int]
        bad += [
            k for k in ("assignment", "counts")
            if type(payload[k]) is not list or not set(map(type, payload[k])) <= {int}
        ]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be JSON integers")
        if payload["n_points"] != len(cloud) or payload["dim"] != cloud.dim:
            raise ValueError("sketch does not match the point file")
        # checked before sampling, so a corrupt n_dirs cannot allocate n_dirs x dim
        if payload["n_dirs"] < 1 or len(payload["assignment"]) != payload["n_dirs"]:
            raise ValueError("n_dirs must be >= 1 and equal len(assignment)")
        if payload["dirs_method"] != GAUSSIAN_UNIFORM:
            raise ValueError(f"dirs_method is not {GAUSSIAN_UNIFORM!r}")
        dirs = sample_uniform(payload["n_dirs"], payload["dim"], payload["dirs_seed"])
        assignment = payload["assignment"]
        if assignment and not 0 <= min(assignment) <= max(assignment) < len(cloud):
            raise ValueError(f"assignment indexes outside [0, {len(cloud)})")
        sketch = CurvatureSketch(cloud, dirs, np.asarray(assignment, dtype=np.int64))
        if not np.array_equal(sketch.counts, payload["counts"]):
            raise ValueError("counts do not tally the assignment")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return sketch


def write_rows(path, header, rows) -> None:
    """A ``# header`` line, then a line per row: floats at ``FLOAT_FORMAT``, others as ``str``."""
    with open(path, "w") as fh:
        fh.write(f"# {','.join(header)}\n")
        for row in rows:
            fh.write(",".join(FLOAT_FORMAT % v if isinstance(v, float) else str(v) for v in row) + "\n")
