"""Every file the CLI reads or writes.

CSV: point matrices; halfspaces (normal columns, then the offset); kept
points (point columns, then the curvature, which ``read_inner`` also takes
absent); affine maps (dim rows of dim columns, or dim + 1 with the shift);
and labelled tables (``write_rows``: a ``# header`` line, then mixed fields).
JSON: summaries, the sketch, clusters, ratios, error and bound reports.

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

__all__ = [
    "CsvFormatError",
    "read_matrix",
    "write_matrix",
    "read_halfspaces",
    "write_halfspaces",
]

FLOAT_FORMAT = "%.17g"

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


def write_halfspaces(path, normals, offsets) -> None:
    """Halfspace CSV: dim normal columns followed by one offset column."""
    normals = np.atleast_2d(np.asarray(normals, dtype=np.float64))
    offsets = np.asarray(offsets, dtype=np.float64).reshape(-1, 1)
    if normals.shape[0] != offsets.shape[0]:
        raise ValueError("normals and offsets must have matching row counts")
    write_matrix(path, np.hstack([normals, offsets]))


def read_halfspaces(path) -> tuple[np.ndarray, np.ndarray]:
    data = read_matrix(path)
    if data.shape[1] < 2:
        raise CsvFormatError(f"{path}: halfspace rows need at least 2 columns")
    return data[:, :-1], data[:, -1]


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
    raise CsvFormatError(f"transform file must be ({dim}, {dim}) or ({dim}, {dim + 1}), got {data.shape}")


def write_json(path, payload) -> None:
    """Indent 2, sorted keys, one final newline; to standard output when ``path`` is None."""
    with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_rows(path, header, rows) -> None:
    """A ``# header`` line, then a line per row: floats at ``FLOAT_FORMAT``, others as ``str``."""
    with open(path, "w") as fh:
        fh.write(f"# {','.join(header)}\n")
        for row in rows:
            fh.write(",".join(FLOAT_FORMAT % v if isinstance(v, float) else str(v) for v in row) + "\n")
