import bz2
import gzip
import lzma

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hullsketch.io import (
    WRITE_BLOCK_ROWS,
    CsvFormatError,
    read_halfspaces,
    read_matrix,
    write_halfspaces,
    write_matrix,
)


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
    write_halfspaces(path, normals, offsets)
    raw = read_matrix(path)
    assert raw.shape == (2, 3)  # dim normal columns + offset column
    back_n, back_b = read_halfspaces(path)
    assert np.array_equal(back_n, normals)
    assert np.array_equal(back_b, offsets)


def test_halfspace_row_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_halfspaces(tmp_path / "x.csv", np.eye(2), np.ones(3))
