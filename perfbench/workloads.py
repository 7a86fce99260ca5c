"""The three benchmark workloads and the process launcher they share.

Every input is derived from the run seed: instance ``i`` of a run takes its
seeds from ``SeedSequence([seed, i])``, so the program only ever receives
generated inputs and a seed always gives the same inputs.

Why these three (see README.md for the full table):

* pipeline5d -- the CLI pipeline of the paper's headline run, each stage in
  its own process: CSV I/O, the sketch-JSON round trip and the norm-pruned
  kernel (N >= 65,536) all do real work, and the error stage runs the
  extreme-point oracle.
* million3d -- the kernel alone, in one process: a cube the norm bound can
  prune and a sphere it cannot, so a bound change must help one without
  costing the other.  No files, no oracle, no LPs.
* desk3d -- many small calls: the recursive hyperplane compression, the
  error report's LP probes, and CLI ``bench`` curves that spend their time
  in Wolfe projections and HiGHS LPs on the direct kernel path (N < 65,536).
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracing import now

WORKER = Path(__file__).resolve().parent / "worker.py"

# Shear applied to desk3d's simplices, as in scripts/run_bench.py.
SHEAR = np.array([[1.5, 0.4, 0.0], [0.0, 0.9, 0.25], [0.2, 0.0, 0.7]])

# Sizes per preset.  "bench" is what BENCHMARK.json runs; "full" is the
# ROADMAP's scale (minutes per iteration, for reproducing its stage split by
# hand); "toy" is the self-test's.
SIZES = {
    "pipeline5d": {
        "toy": {"points": 10_000, "dirs": 500, "oracle_cap": 1_000},
        "bench": {"points": 100_000, "dirs": 5_000, "oracle_cap": 1_000},
        "full": {"points": 1_000_000, "dirs": 70_000, "oracle_cap": 10_000},
    },
    "million3d": {
        "toy": {"points": 100_000, "dirs": 1_000},
        "bench": {"points": 1_000_000, "dirs": 1_000},
        "full": {"points": 1_000_000, "dirs": 1_000},
    },
    "desk3d": {
        "toy": {
            "points": 10_000, "dirs": 500, "probes": 20, "bench_points": 3_000,
            "schedule": [20, 50, 100], "ref_dirs": 400, "bench_probes": 20,
            "bench_shapes": ["cube", "sphere"],
        },
        "bench": {
            "points": 100_000, "dirs": 5_000, "probes": 100, "bench_points": 10_000,
            "schedule": [50, 100, 200, 400], "ref_dirs": 1_600, "bench_probes": 25,
            "bench_shapes": ["cube"],
        },
        "full": {
            "points": 100_000, "dirs": 5_000, "probes": 200, "bench_points": 10_000,
            "schedule": [50, 100, 200, 400, 700, 1000], "ref_dirs": 4_000,
            "bench_probes": 200, "bench_shapes": ["cube", "sphere", "simplex"],
        },
    },
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a failure of the program)."""


@dataclass
class Proc:
    code: int
    start: float
    end: float
    peak_rss_mb: float
    log: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclass
class Iteration:
    """What one run of a workload produced."""

    wall_s: float = math.nan
    hull_s: float = math.nan
    stages: dict = field(default_factory=dict)  # operation label -> its wall time
    setup_s: float | None = None  # measured by workloads whose iterations set up
    peak_rss_mb: float = 0.0
    report: dict = field(default_factory=dict)  # the program's own error values
    ops: list = field(default_factory=list)  # (label, [failure messages])
    processes: list = field(default_factory=list)  # traced processes' spans


class Launcher:
    """Starts the program's processes inside the checkout and reaps them."""

    def __init__(self, root: Path, workdir: Path, python: str, deadline: float | None = None):
        self.root, self.workdir, self.python = root, workdir, python
        self.env, self.deadline = dict(os.environ), deadline

    def spawn(self, argv: list[str]) -> Proc:
        log_path = self.workdir / "process.log"
        with open(log_path, "w") as log:
            start = now()
            child = subprocess.Popen(argv, stdout=log, stderr=log, env=self.env, cwd=self.root)
            timer = None
            if self.deadline is not None:
                timer = threading.Timer(max(0.0, self.deadline - start), child.kill)
                timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
                end = now()
                child.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if timer is not None:
                    timer.cancel()
                if child.returncode is None:  # interrupted while waiting
                    child.kill()
                    child.wait()
        return Proc(child.returncode, start, end, usage.ru_maxrss / 1024.0, log_path.read_text())

    def clear(self) -> None:
        """Delete the last iteration's files, so that no output is read stale."""
        for path in self.workdir.iterdir():
            path.unlink()

    def setup_probe(self) -> tuple[float, dict]:
        """Interpreter start plus imports, as each CLI stage pays them."""
        out = self.workdir / "setup.json"
        proc = self.spawn([self.python, str(WORKER), "setup", str(out)])
        if proc.code != 0:
            raise BenchError(f"set-up probe failed:\n{proc.log[-2000:]}")
        data = json.loads(out.read_text())
        return data["ready"] - proc.start, data["runtime"]

    def stage(self, it: Iteration, label: str, args: list[str], traced: bool) -> Proc:
        """Run one CLI stage as its own process and record it as an operation."""
        spans_path = self.workdir / f"{label}.spans.json"
        if traced:
            argv = [self.python, str(WORKER), "cli", str(spans_path), label, "--", *args]
        else:
            argv = [self.python, "-m", "hullsketch", *args]
        proc = self.spawn(argv)
        fails = [] if proc.code == 0 else [f"exit code {proc.code}: {proc.log[-500:]}"]
        it.ops.append((label, fails))
        it.peak_rss_mb = max(it.peak_rss_mb, proc.peak_rss_mb)
        if traced and proc.code == 0:
            it.processes.append(
                {
                    "spans": json.loads(spans_path.read_text()),
                    "stage": args[0],
                    "wall_s": proc.wall_s,
                    "peak_rss_mb": proc.peak_rss_mb,
                }
            )
        return proc


def _seeds(seed: int, index: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, index]).generate_state(n) >> 1]


def _load(path: Path, **kwargs) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2, **kwargs)


def _fail(it: Iteration, label: str, messages: list[str]) -> None:
    for op_label, fails in it.ops:
        if op_label == label:
            fails.extend(messages)


class Workload:
    name: str
    hull_ops: tuple  # labels of the operations up to the last hull output

    def __init__(self, size: str):
        self.size = SIZES[self.name][size]


class CliWorkload(Workload):
    """A workload run as CLI stages, each in its own process, then checked."""

    def setup(self, launcher: Launcher, inst: dict) -> tuple[float, dict]:
        return launcher.setup_probe()

    def iterate(self, launcher: Launcher, inst: dict, traced: bool) -> Iteration:
        launcher.clear()
        it = Iteration()
        start = now()
        for label, args in self.stages(launcher.workdir, inst):
            proc = launcher.stage(it, label, args, traced)
            if proc.code != 0:
                return it
            it.stages[label] = proc.wall_s
            if label == "compress":
                it.hull_s = proc.end - start
        it.wall_s = proc.end - start
        try:
            self.check(it, launcher.workdir, inst)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            it.ops[-1][1].append(f"outputs could not be checked: {exc!r}")
        return it


class Pipeline5d(CliWorkload):
    name = "pipeline5d"
    hull_ops = ("gen", "sketch", "compress")

    def instance(self, seed: int, index: int) -> dict:
        gen_seed, run_seed, check_seed = _seeds(seed, index, 3)
        return {"gen_seed": gen_seed, "run_seed": run_seed, "check_seed": check_seed}

    def stages(self, w: Path, inst: dict) -> list[tuple[str, list[str]]]:
        s, seed = self.size, str(inst["run_seed"])
        return [
            ("gen", ["gen", "--shape", "simplex", "--dims", "5", "--points", str(s["points"]),
                     "--seed", str(inst["gen_seed"]), "--out", str(w / "points.csv")]),
            ("sketch", ["sketch", "--in", str(w / "points.csv"), "--dirs", str(s["dirs"]),
                        "--alpha", "0", "--seed", seed, "--out-prefix", str(w / "s"),
                        "--save-sketch"]),
            ("compress", ["compress", "--in", str(w / "points.csv"),
                          "--sketch-json", str(w / "s_sketch.json"), "--alpha", "0",
                          "--beta", "0.25", "--seed", seed, "--out-prefix", str(w / "c")]),
            ("error", ["error", "--in", str(w / "points.csv"),
                       "--inner", str(w / "c_vertices.csv"),
                       "--halfspaces", str(w / "s_halfspaces.csv"),
                       "--out", str(w / "report.json"), "--seed", seed, "--probes", "0",
                       "--oracle-cap", str(s["oracle_cap"])]),
        ]

    def check(self, it: Iteration, w: Path, inst: dict) -> None:
        n, m = self.size["points"], self.size["dirs"]
        rng = np.random.default_rng(inst["check_seed"])
        points = _load(w / "points.csv")
        if points.shape != (n, 5):
            _fail(it, "gen", [f"points file has shape {points.shape}, expected ({n}, 5)"])
            return
        sk = json.loads((w / "s_sketch.json").read_text())
        assignment = np.asarray(sk["assignment"], dtype=np.int64)
        counts = np.asarray(sk["counts"], dtype=np.int64)
        half = _load(w / "s_halfspaces.csv")
        inner = _load(w / "s_inner.csv")
        fails = checks.check_counts(assignment, counts, m)
        if (sk["n_points"], sk["dim"], sk["n_dirs"]) != (n, 5, m) or half.shape != (m, 6):
            fails.append("sketch outputs do not match the input sizes")
        if not fails:
            fails += checks.check_winners(points, half[:, :5], half[:, 5], assignment, rng)
            fails += checks.check_constraints(points, half[:, :5], half[:, 5], rng)
            kept = checks.row_indices(points, inner[:, :5])
            fails += checks.check_subset(kept) or checks.check_kept(
                kept, inner[:, 5], counts, m, 0.0
            )
        _fail(it, "sketch", fails)
        if fails:
            return

        summary = json.loads((w / "c_summary.json").read_text())
        verts = _load(w / "c_vertices.csv")
        vert_idx = checks.row_indices(points, verts[:, :5])
        found = np.flatnonzero(counts)
        fails = checks.check_subset(vert_idx, found)
        if summary["n_kept"] > 50:
            fails.append(f"compress kept {summary['n_kept']} points, more than 50")
        if summary["n_found"] != found.size or verts.shape[0] != summary["n_kept"]:
            fails.append("compress summary disagrees with its vertex file")
        elif not fails and not np.array_equal(verts[:, 5], counts[vert_idx] / float(m)):
            fails.append("compressed vertex curvatures differ from counts / directions")
        _fail(it, "compress", fails)

        report = json.loads((w / "report.json").read_text())
        fails = []
        if report["reference"] != "oracle-subsample":
            fails.append(f"reference is {report['reference']!r}, expected 'oracle-subsample'")
        if report["n_dirs_used"] != m:
            fails.append(f"error used {report['n_dirs_used']} halfspaces, expected {m}")
        if not (math.isfinite(report["inner_error"]) and report["inner_error"] >= 0):
            fails.append(f"inner error {report['inner_error']} is not finite and nonnegative")
        if report["n_kept"] != verts.shape[0]:
            fails.append("error report's kept count differs from the compressed set")
        _fail(it, "error", fails)
        it.report = {"inner_error": report["inner_error"]}


class Million3d(Workload):
    name = "million3d"
    hull_ops = tuple(
        f"{shape}.{call}"
        for shape in ("cube", "sphere")
        for call in ("build_sketch", "threshold_filter", "outer_hull")
    )

    def instance(self, seed: int, index: int) -> dict:
        keys = ("cube_seed", "cube_dirs_seed", "sphere_seed", "sphere_dirs_seed", "check_seed")
        return dict(zip(keys, _seeds(seed, index, len(keys))))

    def _spawn(self, launcher: Launcher, inst: dict, spans: str, setup_only: bool):
        out = launcher.workdir / "million3d.json"
        spec = json.dumps({**self.size, **inst, "setup_only": setup_only})
        proc = launcher.spawn([launcher.python, str(WORKER), "million3d", str(out), spans, spec])
        return proc, (json.loads(out.read_text()) if proc.code == 0 else None)

    def setup(self, launcher: Launcher, inst: dict) -> tuple[float, dict]:
        """Interpreter start, imports and generation of both clouds."""
        proc, data = self._spawn(launcher, inst, "-", setup_only=True)
        if data is None:
            raise BenchError(f"million3d set-up failed:\n{proc.log[-2000:]}")
        return data["ready"] - proc.start, data["runtime"]

    def iterate(self, launcher: Launcher, inst: dict, traced: bool) -> Iteration:
        launcher.clear()
        it = Iteration()
        spans_path = launcher.workdir / "million3d.spans.json"
        proc, data = self._spawn(launcher, inst, str(spans_path) if traced else "-", False)
        if data is None:
            it.ops.append(("million3d", [f"exit code {proc.code}: {proc.log[-500:]}"]))
            return it
        it.setup_s = data["ready"] - proc.start
        it.ops = [(op["op"], op["fails"]) for op in data["ops"]]
        it.peak_rss_mb = data["peak_rss_mb"]
        it.report = {"found_" + shape: n for shape, n in data["found"].items()}
        if len(it.ops) == 6 and not any(fails for _, fails in it.ops):
            it.wall_s = it.hull_s = data["ops"][-1]["end"] - data["ops"][0]["start"]
            it.stages = {op["op"]: op["end"] - op["start"] for op in data["ops"]}
        if traced:
            it.processes.append({"spans": json.loads(spans_path.read_text())})
        return it


class Desk3d(CliWorkload):
    name = "desk3d"
    hull_ops = ("gen", "compress")

    def instance(self, seed: int, index: int) -> dict:
        gen_seed, run_seed, bench_seed, check_seed = _seeds(seed, index, 4)
        return {"gen_seed": gen_seed, "run_seed": run_seed, "bench_seed": bench_seed,
                "check_seed": check_seed}

    def stages(self, w: Path, inst: dict) -> list[tuple[str, list[str]]]:
        """The stages' arguments; writes the shear file they read."""
        s, seed = self.size, str(inst["run_seed"])
        shear = w / "shear.csv"
        np.savetxt(shear, SHEAR, delimiter=",")
        stages = [
            ("gen", ["gen", "--shape", "simplex", "--dims", "3", "--points", str(s["points"]),
                     "--seed", str(inst["gen_seed"]), "--transform", str(shear),
                     "--out", str(w / "q.csv")]),
            ("compress", ["compress", "--in", str(w / "q.csv"), "--hyperplanes",
                          "--dirs", str(s["dirs"]), "--beta", "0.05", "--seed", seed,
                          "--out-prefix", str(w / "h")]),
            ("error", ["error", "--in", str(w / "q.csv"), "--inner", str(w / "h_vertices.csv"),
                       "--halfspaces", str(w / "h_halfspaces.csv"), "--out", str(w / "r.json"),
                       "--seed", seed, "--probes", str(s["probes"])]),
        ]
        schedule = ",".join(str(m) for m in s["schedule"])
        for k, shape in enumerate(s["bench_shapes"]):
            extra = ["--transform", str(shear)] if shape == "simplex" else []
            stages.append((f"bench-{shape}", [
                "bench", "--shape", shape, "--dims", "3", "--points", str(s["bench_points"]),
                "--schedule", schedule, "--seed", str(inst["bench_seed"] + k),
                "--gen-seed", str(inst["gen_seed"] + k + 1), "--ref-dirs", str(s["ref_dirs"]),
                "--probes", str(s["bench_probes"]), "--out", str(w / f"bench_{shape}.csv"),
                *extra,
            ]))
        return stages

    def check(self, it: Iteration, w: Path, inst: dict) -> None:
        rng = np.random.default_rng(inst["check_seed"])
        points = _load(w / "q.csv")
        if points.shape != (self.size["points"], 3):
            _fail(it, "gen", [f"points file has shape {points.shape}"])
            return
        summary = json.loads((w / "h_summary.json").read_text())
        clusters = json.loads((w / "h_clusters.json").read_text())
        verts = _load(w / "h_vertices.csv")
        half = _load(w / "h_halfspaces.csv")
        vert_idx = checks.row_indices(points, verts[:, :3])
        members = np.concatenate([np.asarray(v) for v in clusters["members"].values()])
        fails = checks.check_subset(vert_idx)
        if verts.shape[0] != summary["n_kept"] or not np.array_equal(
            np.sort(clusters["representatives"]), np.sort(vert_idx)
        ):
            fails.append("compressed vertices differ from the cluster representatives")
        if np.unique(members).size != members.size or members.size != summary["n_kept_threshold"]:
            fails.append("clusters do not partition the thresholded points")
        if half.shape[0] < 1 or clusters.get("n_halfspaces") != half.shape[0]:
            fails.append("hyperplane compression left no halfspace")
        else:
            fails += checks.check_winners(points, half[:, :3], half[:, 3], None, rng)
            fails += checks.check_constraints(points, half[:, :3], half[:, 3], rng)
        _fail(it, "compress", fails)

        report = json.loads((w / "r.json").read_text())
        fails = []
        for key in ("inner_error", "outer_error"):
            value = report[key]
            if value is None or not (math.isfinite(value) and value >= 0):
                fails.append(f"{key} {value} is not finite and nonnegative")
        if report["n_probes"] != self.size["probes"] or report["n_dirs_used"] != half.shape[0]:
            fails.append("error report does not match its inputs")
        _fail(it, "error", fails)
        it.report = {"inner_error": report["inner_error"], "outer_error": report["outer_error"]}

        for shape in self.size["bench_shapes"]:
            rows = _load(w / f"bench_{shape}.csv", usecols=(0, 1, 2, 3, 4))
            share = 0.9 if shape == "sphere" else 0.0
            _fail(it, f"bench-{shape}", checks.check_bench_rows(rows, self.size["schedule"], share))


WORKLOADS = {w.name: w for w in (Pipeline5d, Million3d, Desk3d)}
