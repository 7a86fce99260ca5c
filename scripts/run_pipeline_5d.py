#!/usr/bin/env python3
"""Large-scale data-reduction pipeline: a million 5-d points down to a few
dozen representative extreme points.

Generates the cloud, sketches it with 70k directions, compresses the kept
vertices by radius clustering, and reports the inner error against an
oracle-verified 10k subsample.  Took 43 s on a 2-CPU Intel Xeon VM.
"""
import argparse
import json
import time
from pathlib import Path

from hullsketch.cli import main


def run(work: Path, points: int, dirs: int, beta: float, seed: int) -> None:
    work.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    steps = [
        ["gen", "--shape", "simplex", "--dims", "5", "--points", str(points),
         "--seed", str(seed), "--out", str(work / "points.csv")],
        ["sketch", "--in", str(work / "points.csv"), "--dirs", str(dirs),
         "--alpha", "0", "--seed", str(seed + 11), "--out-prefix", str(work / "sketch"),
         "--save-sketch"],
        ["compress", "--in", str(work / "points.csv"),
         "--sketch-json", str(work / "sketch_sketch.json"),
         "--alpha", "0", "--beta", str(beta), "--seed", str(seed + 11),
         "--out-prefix", str(work / "compressed")],
        ["error", "--in", str(work / "points.csv"),
         "--inner", str(work / "compressed_vertices.csv"),
         "--halfspaces", str(work / "sketch_halfspaces.csv"),
         "--out", str(work / "report.json"),
         "--seed", str(seed + 11), "--probes", "0", "--oracle-cap", "10000"],
    ]
    for argv in steps:
        print("->", " ".join(argv[:2]))
        code = main(argv)
        if code != 0:
            raise SystemExit(code)
    summary = json.loads((work / "compressed_summary.json").read_text())
    report = json.loads((work / "report.json").read_text())
    print(json.dumps({
        "elapsed_s": round(time.perf_counter() - t0, 1),
        "n_found": summary["n_found"],
        "n_kept": summary["n_kept"],
        "inner_error": report["inner_error"],
        "reference": report["reference"],
    }, indent=2))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", type=Path, default=Path("pipeline_out"))
    parser.add_argument("--points", type=int, default=1_000_000)
    parser.add_argument("--dirs", type=int, default=70_000)
    parser.add_argument("--beta", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    run(args.work_dir, args.points, args.dirs, args.beta, args.seed)
