"""The same-bytes harness, at toy size, with one tree on both sides: every
command of its matrix must write the same bytes twice, so the CLI is
deterministic and the harness's masks cover every field that is not."""
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_same_tree_gives_an_empty_diff(tmp_path):
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "same_bytes.py"), str(REPO), str(REPO),
         str(tmp_path / "out"), "--size", "toy"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("0 of "), done.stdout
    # the matrix reached its exit-1 and exit-2 cases
    base = tmp_path / "out" / "base"
    assert (base / "x1-missing-file.exit").read_text() == "1\n"
    assert (base / "x2-unbounded.exit").read_text() == "2\n"
    assert (base / "bench_cube.csv").read_text().splitlines()[1].split(",")[4] == "inf"
    # bounds without --out prints the report it writes with --out
    assert (base / "bounds-stdout.stdout").read_text() == (base / "bounds.json").read_text()
    assert '"cap_lower_bound"' in (base / "bounds.json").read_text()
