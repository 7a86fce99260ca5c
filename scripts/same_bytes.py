#!/usr/bin/env python3
"""Run one fixed matrix of 34 CLI commands on two source trees and list every
output file that differs.

    python scripts/same_bytes.py BASE_TREE CHANGE_TREE OUT_DIR [--size toy]

Each tree runs ``python -m hullsketch`` with ``PYTHONPATH=<tree>/src``, one
process per command, in its own directory ``OUT_DIR/base`` or
``OUT_DIR/change``.  Paths are relative to that directory, so the ``in``
paths the summaries record agree.  Each command's exit code, stderr and
stdout are kept as ``<case>.exit``, ``<case>.stderr`` and ``<case>.stdout``
next to its outputs.  A JSON file that holds a key named in ``MASKED`` is
compared as parsed values without those keys; every other file, JSON
included, is compared byte for byte.  Exits 1 when any file differs or
exists on one side only.

The matrix covers ``gen``, ``sketch --save-sketch``, ``compress
--sketch-json`` and both ``--hyperplanes`` variants (the recursive one also
with ``--inner-beta 0.1 --order paper-increasing``), ``error --probes 0``
and ``--probes 100``, ``bench`` with an ``inf`` row on both sides of
``--oracle-cap`` and once without ``--gen-seed``, ``bounds`` to ``--out``,
to stdout and ``--sweep``, and the documented exit-1 and exit-2 cases, on
pipeline5d-shaped and desk3d-shaped inputs, a 2-d ball, a 4-d simplex and a
3-d cube cut through its centroid.

Compare two trees on one machine, not against stored digests: BLAS rounds
some products differently on different CPUs.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

# Fields that change from run to run; the only JSON keys not compared.
MASKED = ("runtime_ms", "counters")

SIZES = {
    # under 20 s for two trees on 2 CPUs; the clouds stay above the default
    # --oracle-cap of 2,000 where the benchmark's are
    "toy": {"p5": 2_500, "p5_dirs": 200, "d3": 2_500, "d3_dirs": 300, "cube": 2_500,
            "ball": 500, "cap": 300, "s4": 200},
    # the benchmark's pipeline5d and desk3d shapes
    "bench": {"p5": 100_000, "p5_dirs": 5_000, "d3": 100_000, "d3_dirs": 5_000,
              "cube": 10_000, "ball": 3_000, "cap": 1_000, "s4": 2_000},
}

SHEAR = "1.5,0.4,0.0\n0.0,0.9,0.25\n0.2,0.0,0.7\n"

# every bound the report can hold
BOUNDS = ["bounds", "--n", "5", "--eps", "0.1", "--p", "0.05", "--x-count", "10000",
          "--omega", "0.25", "--k", "0.25", "--m", "1000", "--theta", "0.3"]


def _write(name: str, text: str):
    def step(cwd: Path) -> None:
        (cwd / name).write_text(text)
    return step


def _cut_cube(cwd: Path) -> None:
    """The unit cube's six faces and x <= the cloud's centroid x, which puts
    that centroid on a face; and the same cube cut by x <= -2, which is
    empty."""
    xs = [float(line.split(",")[0]) for line in (cwd / "c3.csv").read_text().splitlines()
          if line and not line.startswith("#")]
    faces = ["1,0,0,1", "0,1,0,1", "0,0,1,1", "-1,0,0,1", "0,-1,0,1", "0,0,-1,1"]
    cut = [*faces, f"1,0,0,{math.fsum(xs) / len(xs)!r}"]
    (cwd / "cut_halfspaces.csv").write_text("\n".join(cut) + "\n")
    (cwd / "empty_halfspaces.csv").write_text("\n".join([*faces, "1,0,0,-2"]) + "\n")


def matrix(s: dict) -> list[tuple[str, list[str] | Callable[[Path], None]]]:
    """(case, hullsketch argv or a step that writes inputs), in run order."""
    p5, d3 = ["--in", "p5.csv"], ["--in", "d3.csv"]
    b2, s4, c3 = ["--in", "b2.csv"], ["--in", "s4.csv"], ["--in", "c3.csv"]
    return [
        ("shear", _write("shear.csv", SHEAR)),
        ("unbounded", _write("unbounded_halfspaces.csv", "1,0,1\n0,1,1\n")),
        # pipeline5d-shaped: gen -> sketch -> compress --sketch-json -> error --probes 0
        ("gen-p5", ["gen", "--shape", "simplex", "--dims", "5", "--points", str(s["p5"]),
                    "--seed", "11", "--out", "p5.csv"]),
        ("sketch-p5", ["sketch", *p5, "--dirs", str(s["p5_dirs"]), "--alpha", "0",
                       "--seed", "12", "--out-prefix", "p5s", "--save-sketch"]),
        ("compress-p5", ["compress", *p5, "--sketch-json", "p5s_sketch.json", "--alpha", "0",
                         "--beta", "0.25", "--seed", "12", "--out-prefix", "p5c"]),
        ("error-p5", ["error", *p5, "--inner", "p5c_vertices.csv",
                      "--halfspaces", "p5s_halfspaces.csv", "--probes", "0",
                      "--oracle-cap", str(s["cap"]), "--seed", "12", "--out", "p5r.json"]),
        # desk3d-shaped: both hyperplane variants, the recursive one also with a nested
        # vertex compression walked lowest curvature first, error --probes 100, a bench
        # with an inf row
        ("gen-d3", ["gen", "--shape", "simplex", "--dims", "3", "--points", str(s["d3"]),
                    "--seed", "21", "--transform", "shear.csv", "--out", "d3.csv"]),
        ("compress-d3", ["compress", *d3, "--hyperplanes", "--dirs", str(s["d3_dirs"]),
                         "--beta", "0.05", "--seed", "22", "--out-prefix", "d3h"]),
        ("compress-d3-gamma", ["compress", *d3, "--hyperplanes", "--variant",
                               "gamma-threshold", "--gamma", "0.05", "--dirs",
                               str(s["d3_dirs"]), "--beta", "0.05", "--seed", "22",
                               "--out-prefix", "d3g"]),
        ("compress-d3-nested", ["compress", *d3, "--hyperplanes", "--inner-beta", "0.1",
                                "--order", "paper-increasing", "--dirs", str(s["d3_dirs"]),
                                "--beta", "0.05", "--seed", "22", "--out-prefix", "d3n"]),
        ("error-d3", ["error", *d3, "--inner", "d3h_vertices.csv",
                      "--halfspaces", "d3h_halfspaces.csv", "--probes", "100",
                      "--seed", "22", "--out", "d3r.json"]),
        ("bench-cube", ["bench", "--shape", "cube", "--dims", "3", "--points", str(s["cube"]),
                        "--schedule", "3,50,200,400", "--seed", "23", "--gen-seed", "24",
                        "--ref-dirs", "1600", "--probes", "25", "--out", "bench_cube.csv"]),
        # without --gen-seed the cloud and the directions share --seed's stream
        ("bench-cube-default-gen", ["bench", "--shape", "cube", "--dims", "3", "--points",
                                    str(s["cube"]), "--schedule", "3,50,200", "--seed", "25",
                                    "--probes", "25", "--out", "bench_cube_default.csv"]),
        # 2-d ball: an exact outer error, and a bench above the oracle cap
        ("gen-b2", ["gen", "--shape", "ball", "--dims", "2", "--points", str(s["ball"]),
                    "--seed", "31", "--out", "b2.csv"]),
        ("sketch-b2", ["sketch", *b2, "--dirs", "300", "--seed", "32", "--out-prefix", "b2s"]),
        ("error-b2", ["error", *b2, "--inner", "b2s_inner.csv",
                      "--halfspaces", "b2s_halfspaces.csv", "--seed", "32", "--out", "b2r.json"]),
        ("bench-b2", ["bench", *b2, "--schedule", "2,20,100", "--seed", "32",
                      "--oracle-cap", str(s["cap"]), "--out", "bench_b2.csv"]),
        # 4-d simplex: support LPs, and a proportional threshold
        ("gen-s4", ["gen", "--shape", "simplex", "--dims", "4", "--points", str(s["s4"]),
                    "--seed", "41", "--out", "s4.csv"]),
        ("sketch-s4", ["sketch", *s4, "--dirs", "300", "--seed", "42", "--out-prefix", "s4s"]),
        ("error-s4", ["error", *s4, "--inner", "s4s_inner.csv",
                      "--halfspaces", "s4s_halfspaces.csv", "--probes", "10",
                      "--seed", "42", "--out", "s4r.json"]),
        ("bench-s4", ["bench", *s4, "--schedule", "50,150", "--alpha", "0.01",
                      "--mode", "proportional", "--probes", "10", "--seed", "42",
                      "--out", "bench_s4.csv"]),
        # the 3-d cube cut through its centroid: the Chebyshev-centre retry
        ("gen-c3", ["gen", "--shape", "cube", "--dims", "3", "--points", "100",
                    "--seed", "1", "--out", "c3.csv"]),
        ("sketch-c3", ["sketch", *c3, "--dirs", "200", "--seed", "2", "--out-prefix", "c3s",
                       "--save-sketch"]),
        ("compress-c3", ["compress", *c3, "--sketch-json", "c3s_sketch.json", "--beta", "0.1",
                         "--seed", "2", "--hyperplanes", "--out-prefix", "c3c"]),
        ("cut", _cut_cube),
        ("error-c3-cut", ["error", *c3, "--inner", "c3s_inner.csv",
                          "--halfspaces", "cut_halfspaces.csv", "--probes", "20",
                          "--sketch-json", "c3s_sketch.json", "--out", "c3r.json"]),
        # bounds: one report to a file and to stdout, and the sweep's table
        ("bounds-out", [*BOUNDS, "--out", "bounds.json"]),
        ("bounds-stdout", BOUNDS),
        ("bounds-sweep", ["bounds", "--sweep", "--r", "2", "--p", "0.01", "--out", "sweep.csv"]),
        # exit 1: validation
        ("x1-dirs-with-sketch", ["compress", *c3, "--sketch-json", "c3s_sketch.json",
                                 "--dirs", "5", "--out-prefix", "x1a"]),
        ("x1-other-cloud-sketch", ["compress", *d3, "--sketch-json", "c3s_sketch.json",
                                   "--out-prefix", "x1f"]),
        ("x1-unread-flag", ["compress", *c3, "--gamma", "0.1", "--out-prefix", "x1b"]),
        ("x1-in-with-shape", ["bench", *c3, "--shape", "cube", "--schedule", "10",
                              "--out", "x1c.csv"]),
        ("x1-missing-file", ["sketch", "--in", "missing.csv", "--dirs", "10",
                             "--out-prefix", "x1d"]),
        ("x1-range", ["error", *c3, "--inner", "c3s_inner.csv", "--halfspaces",
                      "c3s_halfspaces.csv", "--probes", "-1", "--out", "x1e.json"]),
        # exit 2: numerical
        ("x2-no-interior", ["error", *c3, "--inner", "c3s_inner.csv",
                            "--halfspaces", "empty_halfspaces.csv", "--probes", "20",
                            "--out", "x2a.json"]),
        ("x2-unbounded", ["error", *b2, "--inner", "b2s_inner.csv",
                          "--halfspaces", "unbounded_halfspaces.csv", "--out", "x2b.json"]),
    ]


def run_side(tree: Path, cwd: Path, steps) -> None:
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    for case, step in steps:
        if callable(step):
            step(cwd)
            continue
        done = subprocess.run([sys.executable, "-m", "hullsketch", *step], cwd=cwd, env=env,
                              capture_output=True, text=True)
        (cwd / f"{case}.exit").write_text(f"{done.returncode}\n")
        (cwd / f"{case}.stderr").write_text(done.stderr)
        (cwd / f"{case}.stdout").write_text(done.stdout)


def _masked(value):
    if isinstance(value, dict):
        return {k: _masked(v) for k, v in value.items() if k not in MASKED}
    if isinstance(value, list):
        return [_masked(v) for v in value]
    return value


def _holds_masked(value) -> bool:
    if isinstance(value, dict):
        return any(k in MASKED or _holds_masked(v) for k, v in value.items())
    return isinstance(value, list) and any(_holds_masked(v) for v in value)


def _content(path: Path):
    if path.suffix == ".json":
        value = json.loads(path.read_text())
        if _holds_masked(value):
            return _masked(value)
    return path.read_bytes()


def compare(base: Path, change: Path) -> list[str]:
    """Each file name that differs between the two directories, or exists in one only."""
    names = sorted({p.name for p in base.iterdir()} | {p.name for p in change.iterdir()})
    differ = []
    for name in names:
        a, b = base / name, change / name
        if not (a.exists() and b.exists()):
            differ.append(f"{name} (only in {'base' if a.exists() else 'change'})")
        elif _content(a) != _content(b):
            differ.append(name)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path, help="a new directory for both sides' outputs")
    parser.add_argument("--size", choices=SIZES, default="bench")
    args = parser.parse_args(argv)
    if args.out.exists():
        parser.error(f"{args.out} exists; name a new directory")
    steps = matrix(SIZES[args.size])
    sides = [(args.base, args.out / "base"), (args.change, args.out / "change")]
    with ThreadPoolExecutor(len(sides)) as pool:  # one process per side at a time
        list(pool.map(lambda side: run_side(*side, steps), sides))
    differ = compare(args.out / "base", args.out / "change")
    files = sum(1 for _ in (args.out / "base").iterdir())
    commands = sum(1 for _, step in steps if not callable(step))
    for name in differ:
        print(f"DIFFERS {name}")
    print(f"{len(differ)} of {files} files differ over {commands} commands")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
