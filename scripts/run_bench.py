#!/usr/bin/env python3
"""Error-vs-directions curves for cube, sphere, and a sheared simplex.

Writes one CSV per shape (columns: n_dirs, n_found, n_kept, inner_error,
outer_error, method), suitable for plotting the accuracy trend as the
direction budget grows.
"""
import argparse
import tempfile
from pathlib import Path

import numpy as np

from hullsketch.cli import main

SHEAR = np.array([[1.5, 0.4, 0.0], [0.0, 0.9, 0.25], [0.2, 0.0, 0.7]])


def run(out_dir: Path, points: int, seed: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    schedule = "50,100,200,400,700,1000"
    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        np.savetxt(fh.name, SHEAR, delimiter=",")
        shear_path = fh.name
    jobs = [
        ("cube", []),
        ("sphere", []),
        ("simplex", ["--transform", shear_path]),
    ]
    for shape, extra in jobs:
        out = out_dir / f"bench_{shape}.csv"
        code = main([
            "bench", "--shape", shape, "--dims", "3", "--points", str(points),
            "--schedule", schedule, "--seed", str(seed), "--gen-seed", str(seed + 1),
            "--out", str(out), *extra,
        ])
        if code != 0:
            raise SystemExit(code)
        print(f"{shape}: wrote {out}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("bench_out"))
    parser.add_argument("--points", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=900)
    args = parser.parse_args()
    run(args.out_dir, args.points, args.seed)
