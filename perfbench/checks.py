"""Output checks shared by every workload.

Each check takes the program's outputs as arrays and returns a list of
failure messages; an empty list means the output passed.  The tolerances
are the acceptance suite's and must not be loosened.  Sampling uses the
benchmark's own generator, never the program's, so a defect in the
program's sampling cannot hide itself.
"""
from __future__ import annotations

import numpy as np

WINNER_RTOL = 1e-12  # recorded winner score vs. direct max, times the data scale
CONSTRAINT_TOL = 1e-9  # cloud point vs. outer-hull constraint
PROJECTION_SLACK = 1e-9  # inner-error monotonicity along a nested schedule
LP_SLACK = 1e-7  # outer-error monotonicity along a nested schedule
WINNER_SAMPLE = 256
CLOUD_SAMPLE = 10_000
_BLOCK_ENTRIES = 1 << 20  # doubles per blocked product (8 MB)


def support_values(points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """``max(points @ d)`` for every row ``d`` of ``dirs``, memory-blocked."""
    out = np.full(len(dirs), -np.inf)
    step = max(1, _BLOCK_ENTRIES // len(dirs))
    for i in range(0, len(points), step):
        np.maximum(out, (dirs @ points[i : i + step].T).max(axis=1), out=out)
    return out


def check_counts(assignment: np.ndarray, counts: np.ndarray, n_dirs: int) -> list[str]:
    """Win counts sum to the direction count and tally the assignment."""
    fails = []
    if assignment.shape != (n_dirs,):
        fails.append(f"assignment has {assignment.size} entries, expected {n_dirs}")
    elif assignment.min() < 0 or assignment.max() >= len(counts):
        fails.append("assignment indexes outside the cloud")
    elif not np.array_equal(np.bincount(assignment, minlength=len(counts)), counts):
        fails.append("counts do not tally the assignment")
    if int(counts.sum()) != n_dirs:
        fails.append(f"counts sum to {int(counts.sum())}, expected {n_dirs}")
    return fails


def check_winners(
    points: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    assignment: np.ndarray | None,
    rng: np.random.Generator,
) -> list[str]:
    """Sampled directions: the recorded winner's score and the halfspace
    offset both equal a direct ``points @ d`` maximum within 1e-12 * scale."""
    pick = np.sort(rng.choice(len(normals), size=min(WINNER_SAMPLE, len(normals)), replace=False))
    dirs = normals[pick]
    direct = support_values(points, dirs)
    tol = WINNER_RTOL * max(float(np.sqrt(np.einsum("ij,ij->i", points, points).max())), 1e-300)
    fails = []
    bad = np.abs(offsets[pick] - direct) > tol
    if bad.any():
        fails.append(f"{int(bad.sum())} of {pick.size} halfspace offsets miss the direct support value")
    if assignment is not None:
        scores = np.einsum("ij,ij->i", points[assignment[pick]], dirs)
        bad = np.abs(scores - direct) > tol
        if bad.any():
            fails.append(f"{int(bad.sum())} of {pick.size} recorded winners are not maximisers")
    return fails


def check_constraints(
    points: np.ndarray, normals: np.ndarray, offsets: np.ndarray, rng: np.random.Generator
) -> list[str]:
    """Every point of a 10k sample satisfies every outer-hull constraint."""
    if len(points) > CLOUD_SAMPLE:
        points = points[rng.choice(len(points), size=CLOUD_SAMPLE, replace=False)]
    step = max(1, _BLOCK_ENTRIES // len(points))
    worst = -np.inf
    for j in range(0, len(normals), step):
        margins = points @ normals[j : j + step].T - offsets[j : j + step]
        worst = max(worst, float(margins.max()))
    if worst > CONSTRAINT_TOL:
        return [f"a sampled cloud point violates an outer-hull constraint by {worst:.3e}"]
    return []


def row_indices(points: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row in ``points`` (exact match, smallest index), or -1."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(np.ascontiguousarray(points)):
        first.setdefault(row.tobytes(), i)
    return np.array(
        [first.get(row.tobytes(), -1) for row in np.ascontiguousarray(rows)], dtype=np.int64
    )


def check_kept(
    kept: np.ndarray, curvatures: np.ndarray, counts: np.ndarray, n_dirs: int, alpha: float
) -> list[str]:
    """The threshold output keeps exactly the points whose win share exceeds
    ``alpha``, each with curvature ``counts / n_dirs``."""
    expected = np.flatnonzero(counts / float(n_dirs) > alpha)
    if not np.array_equal(np.sort(kept), expected):
        return [f"kept set of {kept.size} differs from the {expected.size} points above alpha"]
    if not np.array_equal(curvatures, counts[kept] / float(n_dirs)):
        return ["kept curvatures differ from counts / directions"]
    return []


def check_subset(kept: np.ndarray, allowed: np.ndarray | None = None) -> list[str]:
    """Compressed vertices are cloud points, and members of ``allowed``."""
    if (kept < 0).any():
        return [f"{int((kept < 0).sum())} compressed vertices are not cloud points"]
    if allowed is not None and not np.isin(kept, allowed).all():
        return ["a compressed vertex is not among the sketch's winners"]
    return []


def check_bench_rows(rows: np.ndarray, schedule: list[int], min_found_share: float) -> list[str]:
    """Error curves of a nested schedule are non-increasing within the
    projection and LP slacks; found counts grow with the direction count."""
    if rows.shape[0] != len(schedule) or not np.array_equal(rows[:, 0], schedule):
        return ["bench rows do not follow the schedule"]
    n_dirs, n_found, inner, outer = rows[:, 0], rows[:, 1], rows[:, 3], rows[:, 4]
    fails = []
    if not np.all(np.isfinite(inner)) or not np.all(np.isfinite(outer)):
        fails.append("bench errors are not finite")
    if np.any(inner[1:] > inner[:-1] + PROJECTION_SLACK):
        fails.append("inner-error column increases")
    if np.any(outer[1:] > outer[:-1] + LP_SLACK):
        fails.append("outer-error column increases")
    if np.any(np.diff(n_found) < 0):
        fails.append("found count decreases along the schedule")
    if np.any(n_found < min_found_share * n_dirs):
        fails.append(f"found count below {min_found_share} of the direction count")
    return fails
