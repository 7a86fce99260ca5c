"""Import boundary: scipy loads only inside the functions that call it.

Each case runs in a fresh interpreter, since this test process has long
since imported scipy through other tests.
"""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hullsketch

SRC = str(Path(hullsketch.__file__).resolve().parent.parent)

CASES = {
    "import": """
        import hullsketch, hullsketch.cli
        assert_loaded(scipy=False)
    """,
    "gen": """
        from hullsketch.cli import main
        assert main(["gen", "--shape", "cube", "--dims", "3", "--points", "100",
                     "--out", sys.argv[1]]) == 0
        assert_loaded(scipy=False)
    """,
    "sample_uniform": """
        from hullsketch.directions import sample_uniform
        sample_uniform(10, 3, 0)
        assert_loaded(special=True, optimize=False)
    """,
    # 3-d outer error is a max over the halfspace intersection's vertices
    "error_3d": """
        run_error(3)
        assert_loaded(spatial=True, optimize=False)
    """,
    "bench_3d": """
        from hullsketch.cli import main
        assert main(["bench", "--shape", "cube", "--dims", "3", "--points", "500",
                     "--schedule", "20,50", "--probes", "10", "--out", sys.argv[1]]) == 0
        assert_loaded(spatial=True, optimize=False)
    """,
    # in 4-d and up each probe still solves a support LP
    "error_4d": """
        run_error(4)
        assert_loaded(optimize=True)
    """,
    "exact_extreme_points": """
        import numpy as np
        from hullsketch import PointCloud, exact_extreme_points
        exact_extreme_points(PointCloud(np.random.default_rng(0).random((50, 3))))
        assert_loaded(spatial=True, optimize=False)
    """,
}

PRELUDE = """
import sys

def assert_loaded(scipy=None, special=None, optimize=None, spatial=None):
    names = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    for want, prefix in ((scipy, "scipy"), (special, "scipy.special"),
                         (optimize, "scipy.optimize"), (spatial, "scipy.spatial")):
        if want is not None:
            assert (prefix in names) == want, (prefix, names[:10])

def run_error(dims):
    # gen -> sketch -> error --probes 10, files next to sys.argv[1]
    from hullsketch.cli import main
    pts, prefix = sys.argv[1], sys.argv[1] + ".run"
    assert main(["gen", "--shape", "cube", "--dims", str(dims), "--points", "300",
                 "--out", pts]) == 0
    assert main(["sketch", "--in", pts, "--dirs", "100", "--out-prefix", prefix]) == 0
    assert main(["error", "--in", pts, "--inner", prefix + "_inner.csv",
                 "--halfspaces", prefix + "_halfspaces.csv", "--probes", "10",
                 "--out", prefix + ".json"]) == 0
"""


@pytest.mark.parametrize("name", list(CASES))
def test_scipy_loads_only_where_called(tmp_path, name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = PRELUDE + textwrap.dedent(CASES[name])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "pts.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
