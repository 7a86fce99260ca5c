import bz2
import gzip
import json
import lzma
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hullsketch import DirectionSet, OuterHull, PointCloud, build_sketch, sample_uniform
from hullsketch.io import (
    WRITE_BLOCK_ROWS,
    CsvFormatError,
    read_halfspaces,
    read_matrix,
    read_sketch,
    write_halfspaces,
    write_json,
    write_matrix,
    write_rows,
    write_sketch,
)

SQUARE = PointCloud([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((100, 5)) * 1e3
    path = tmp_path / "pts.csv"
    write_matrix(path, pts)
    assert np.array_equal(read_matrix(path), pts)


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        (7, 3),
        elements=st.floats(-1e12, 1e12, allow_nan=False, allow_subnormal=False),
    )
)
def test_round_trip_property(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("io") / "m.csv"
    write_matrix(path, data)
    assert np.array_equal(read_matrix(path), data)


def _matrix_cases():
    rng = np.random.default_rng(5)
    b = WRITE_BLOCK_ROWS
    special = np.array([
        [-0.0, 5e-324, 1.7976931348623157e308],
        [np.inf, -np.inf, np.nan],
        [0.1, -2.5e-310, 1e22],
    ])
    return {
        "1x1": np.array([[np.pi]]),
        "one-column": rng.standard_normal((50, 1)),
        "block-minus-one": rng.standard_normal((b - 1, 3)),
        "block-plus-one": rng.standard_normal((b + 1, 3)) * 1e-9,
        "two-blocks-plus-three": rng.standard_normal((2 * b + 3, 5)) * 1e9,
        "special-values": special,
        "strided-view": rng.standard_normal((40, 6))[::3, ::2],
    }


@pytest.mark.parametrize("name", list(_matrix_cases()))
def test_write_matrix_bytes_equal_savetxt(tmp_path, name):
    data = _matrix_cases()[name]
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    write_matrix(ours, data)
    np.savetxt(ref, data, delimiter=",", fmt="%.17g")
    assert ours.read_bytes() == ref.read_bytes()


def test_write_matrix_compressed_suffix_matches_savetxt(tmp_path):
    data = np.random.default_rng(6).standard_normal((30, 4))
    ours, ref = tmp_path / "ours.csv.gz", tmp_path / "ref.csv.gz"
    write_matrix(ours, data)
    np.savetxt(ref, data, delimiter=",", fmt="%.17g")
    assert gzip.decompress(ours.read_bytes()) == gzip.decompress(ref.read_bytes())
    assert np.array_equal(read_matrix(ours), data)


def test_header_and_crlf(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_bytes(b"# x,y header\r\n1.5,2.5\r\n-3.25,4\r\n")
    data = read_matrix(path)
    assert data.tolist() == [[1.5, 2.5], [-3.25, 4.0]]


def test_ragged_row_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3,4,5\n1,2,3,4,5\n1,2,3,4\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        read_matrix(path)


def test_non_numeric_field_located(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_matrix(path)


@pytest.mark.parametrize(
    "suffix,opener",
    [("", open), (".gz", gzip.open), (".bz2", bz2.open), (".xz", lzma.open), (".lzma", lzma.open)],
)
def test_defect_located_in_compressed_input(tmp_path, suffix, opener):
    # the line-by-line rescan opens the file as read_matrix does, so it
    # locates the field instead of failing to decode compressed bytes
    path = tmp_path / f"bad.csv{suffix}"
    with opener(path, "wt") as fh:
        fh.write("# x,y\n1,2\n3,4\n5,oops\n")
    with pytest.raises(CsvFormatError, match=r"line 4, field 2: not a number: 'oops'"):
        read_matrix(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only a header\n")
    with pytest.raises(CsvFormatError, match="no data"):
        read_matrix(path)


def test_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_matrix(tmp_path / "nope.csv")


def test_halfspace_column_layout(tmp_path):
    normals = np.array([[1.0, 0.0], [0.0, 1.0]])
    offsets = np.array([2.0, 3.0])
    path = tmp_path / "hs.csv"
    write_halfspaces(path, OuterHull(normals=normals, offsets=offsets))
    raw = read_matrix(path)
    assert raw.shape == (2, 3)  # dim normal columns + offset column
    back = read_halfspaces(path, 2)
    assert isinstance(back, OuterHull)
    assert np.array_equal(back.normals, normals)
    assert np.array_equal(back.offsets, offsets)
    # the column check comes first, then the dimension check, which names no path
    with pytest.raises(ValueError, match=r"^halfspace dimension does not match the points$"):
        read_halfspaces(path, 3)
    write_matrix(path, np.ones((3, 1)))
    with pytest.raises(CsvFormatError, match="halfspace rows need at least 2 columns"):
        read_halfspaces(path, 1)


def test_halfspace_row_mismatch(tmp_path):
    # the rows a halfspace file can hold are aligned by the hull it is written from
    with pytest.raises(ValueError, match="offsets must align with normals"):
        write_halfspaces(tmp_path / "x.csv", OuterHull(np.eye(2), np.ones(3)))
    assert not (tmp_path / "x.csv").exists()


def test_write_rows_formats_as_the_17g_f_strings(tmp_path):
    rows = [("aleksandrov", 3, np.float64(0.1) * 3, 1 / 3), (7, 12, 0.5, math.inf)]
    path = tmp_path / "rows.csv"
    write_rows(path, ("curve", "n", "omega", "value"), rows)
    want = "# curve,n,omega,value\n" + "".join(
        f"{a},{b},{c:.17g},{d:.17g}\n" for a, b, c, d in rows
    )
    assert path.read_text() == want
    assert want.splitlines()[1:] == [
        "aleksandrov,3,0.30000000000000004,0.33333333333333331", "7,12,0.5,inf",
    ]


PAYLOAD = {"b": [1, 2.5], "a": {"y": None, "x": "s"}}
PAYLOAD_TEXT = """{
  "a": {
    "x": "s",
    "y": null
  },
  "b": [
    1,
    2.5
  ]
}
"""


def test_write_json_to_a_path(tmp_path):
    path = tmp_path / "p.json"
    write_json(path, PAYLOAD)
    assert path.read_text() == PAYLOAD_TEXT


def test_write_json_to_stdout(capsys):
    write_json(None, PAYLOAD)
    assert capsys.readouterr().out == PAYLOAD_TEXT


def test_sketch_file_schema(tmp_path):
    sk = build_sketch(SQUARE, sample_uniform(40, 2, seed=3))
    path = tmp_path / "s.json"
    write_sketch(path, sk)
    payload = json.loads(path.read_text())
    assert payload["dim"] == 2
    assert payload["n_points"] == 4
    assert payload["n_dirs"] == 40
    assert payload["dirs_seed"] == 3
    assert payload["counts"] == sk.counts.tolist()
    assert len(payload["assignment"]) == 40


def test_write_sketch_refuses_directions_it_cannot_record(tmp_path):
    # read_sketch samples the directions again from dirs_seed, so hand-built
    # ones, such as the four axis directions, would read back as others
    cloud = PointCloud(np.random.default_rng(43).standard_normal((50, 2)))
    axes = DirectionSet(np.vstack([np.eye(2), -np.eye(2)]), seed=0)
    path = tmp_path / "s.json"
    with pytest.raises(ValueError, match="not sample_uniform's"):
        write_sketch(path, build_sketch(cloud, axes))
    assert not path.exists()
    # a prefix of a sampled set is what sample_uniform gives for its length
    prefix = sample_uniform(80, 2, seed=44).prefix(30)
    write_sketch(path, build_sketch(cloud, prefix))
    back = read_sketch(path, cloud)
    assert np.array_equal(back.dirs.directions, prefix.directions)


def test_read_sketch_reads_back_what_write_sketch_wrote(tmp_path):
    rng = np.random.default_rng(41)
    cloud = PointCloud(rng.standard_normal((50, 3)))
    sk = build_sketch(cloud, sample_uniform(80, 3, seed=42))
    path = tmp_path / "s.json"
    write_sketch(path, sk)
    back = read_sketch(path, cloud)
    assert np.array_equal(back.assignment, sk.assignment)
    assert np.array_equal(back.dirs.directions, sk.dirs.directions)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: sketch does not match the point file$"):
        read_sketch(path, PointCloud(cloud.points[:-1]))
