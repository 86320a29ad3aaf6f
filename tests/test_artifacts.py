"""The artifact format: the bytes of a CSV and reading them back."""

import csv
import io

import numpy as np
import pytest

from investlearn.artifacts import read_csv, write_csv, write_grid_csv

FLOATS = np.array([0.0, -0.0, 1.0, -1.5, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                   1e16, 1e-7, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0])
INTS = np.array([0, 1, -1, 7, 2 ** 40, -(2 ** 62), 12, 13, 14, 15, 16, 17, 18, 19])
BOOLS = np.arange(FLOATS.size) % 3 == 0


def csv_writer_bytes(header, *columns):
    """What csv.writer wrote for the same header and columns."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(zip(*(map(repr, np.asarray(col).tolist()) for col in columns)))
    return buf.getvalue().encode()


@pytest.mark.parametrize("header, columns", [
    (["x"], [FLOATS]),
    (["n", "flag", "x"], [INTS, BOOLS, FLOATS]),
    (["u", "b"], [FLOATS[:0], FLOATS[:0]]),
], ids=["one_column", "ints_bools_floats", "header_only"])
def test_write_csv_bytes_match_csv_writer(tmp_path, header, columns):
    path = tmp_path / "t.csv"
    write_csv(path, header, *columns)
    data = path.read_bytes()
    assert data == csv_writer_bytes(header, *columns)
    assert data.startswith(",".join(header).encode() + b"\r\n")
    assert data.count(b"\r\n") == columns[0].size + 1
    assert data.count(b"\n") == data.count(b"\r\n")


@pytest.mark.parametrize("x, y", [
    (FLOATS, INTS[:5]),
    (INTS[:3], FLOATS),
    (FLOATS[:1], FLOATS[:0]),
    (FLOATS[:0], FLOATS),
], ids=["floats_by_ints", "ints_by_floats", "no_columns", "no_rows"])
def test_write_grid_csv_bytes_match_write_csv(tmp_path, x, y):
    z = np.resize(FLOATS[::-1], x.size * y.size)
    write_grid_csv(tmp_path / "grid.csv", ["x", "y", "z"], x, y, z)
    write_csv(tmp_path / "cols.csv", ["x", "y", "z"], np.repeat(x, y.size), np.tile(y, x.size), z)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "cols.csv").read_bytes()


def test_read_csv_reads_back_bit_for_bit(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "x"], INTS, FLOATS)
    got = read_csv(path, ["n", "x"])
    assert np.array_equal(got[:, 0], INTS.astype(float))
    assert np.array_equal(got[:, 1].view(np.int64), FLOATS.view(np.int64))
