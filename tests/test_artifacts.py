"""The artifact format: the bytes of a CSV and reading them back."""

import csv
import io
import re
import warnings

import numpy as np
import pytest

from investlearn.artifacts import BLOCK_ROWS, read_csv, write_csv, write_grid_csv
from investlearn.model import ConfigError

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


# row counts at the edges of the writers' blocks
BLOCK_EDGES = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1]


@pytest.mark.parametrize("header, columns", [
    (["x"], [FLOATS]),
    (["n", "flag", "x"], [INTS, BOOLS, FLOATS]),
    (["u", "b"], [FLOATS[:0], FLOATS[:0]]),
] + [
    (["n", "x"], [np.resize(INTS, rows), np.resize(FLOATS, rows)]) for rows in BLOCK_EDGES
], ids=["one_column", "ints_bools_floats", "header_only"] + [f"rows_{n}" for n in BLOCK_EDGES])
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
    # x_3's rows 900..1199 straddle the first block's end
    (FLOATS[:5], np.linspace(0.0, 1.0, 300)),
    (INTS[:2], np.resize(FLOATS, BLOCK_ROWS)),
    (INTS[:2], np.resize(FLOATS, BLOCK_ROWS + 1)),
], ids=["floats_by_ints", "ints_by_floats", "no_columns", "no_rows", "x_straddles_block",
        "block_per_x", "block_and_one_per_x"])
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


def csv_reader_floats(path, header):
    """The rows csv.reader and float() read from the file, skipping blank
    lines, or None where they reject it."""
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if not rows or [h.strip() for h in rows[0]] != header or len(rows) < 2:
            return None
        if any(len(row) != len(header) for row in rows):
            return None
        return np.array([[float(cell) for cell in row] for row in rows[1:]])
    except (UnicodeDecodeError, csv.Error, ValueError):
        return None


WELL_FORMED = {
    "crlf": b"u,b\r\n0.0,0.5\r\n1.0,0.75\r\n",
    "lf": b"u,b\n0.0,0.5\n1.0,0.75\n",
    "cr": b"u,b\r0.0,0.5\r1.0,0.75\r",
    "no_final_newline": b"u,b\r\n0.0,0.5\r\n1.0,0.75",
    "blank_lines": b"\r\n\nu,b\r\n\r\n0.0,0.5\r\n\r\n\n1.0,0.75\r\n\r\n\r\n",
    "padded_cells": b" u , b \r\n 0.5 ,\t1 \r\n",
    "quoted": b'"u","b"\r\n"0.5","1e-3"\r\n" 0.25 ",2\r\n',
    "quoted_line_break": b'u,b\r\n"0.5\r\n",1\r\n',
    "nan_inf_overflow": b"u,b\r\nnan,-inf\r\n1e500,-0.0\r\n-1e500,1e-400\r\n",
    "spellings": b"u,b\r\nNaN,Infinity\r\n+1,.5\r\n5.,-1E-5\r\n5e-324,1.7976931348623157e308\r\n",
}
MALFORMED = {
    "empty": b"",
    "blank_only": b"\r\n\r\n",
    "header_only": b"u,b\r\n",
    "header_and_blank_lines": b"u,b\r\n\r\n\n\r\n",
    "wrong_header": b"x,y\r\n0.0,0.5\r\n",
    "extra_header_column": b"u,b,c\r\n0,1,2\r\n",
    "short_row": b"u,b\r\n0,1\r\n2\r\n",
    "long_row": b"u,b\r\n0,1\r\n2,3,4\r\n",
    "every_row_long": b"u,b\r\n0,1,2\r\n3,4,5\r\n",
    "every_row_short": b"u,b\r\n0\r\n1\r\n",
    "trailing_comma": b"u,b\r\n0,1,\r\n",
    "comment_row": b"u,b\r\n0,1\r\n#c\r\n",
    "comment_cell": b"u,b\r\n#c,1\r\n",
    "oops": b"u,b\r\n0.0,oops\r\n",
    "empty_cell": b"u,b\r\n,1\r\n",
    "whitespace_line": b"u,b\r\n0,1\r\n  \r\n",
    "whitespace_first_line": b"u,b\r\n \t\r\n0,1\r\n",
    "nul": b"u,b\r\n0\x00,1\r\n",
    "not_utf8": b"u,b\r\n0,\xff\r\n",
    "hex": b"u,b\r\n0x1,1\r\n",
}


@pytest.mark.parametrize("data", list(WELL_FORMED.values()) + list(MALFORMED.values()),
                         ids=list(WELL_FORMED) + list(MALFORMED))
def test_read_csv_matches_csv_reader_and_float(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    want = csv_reader_floats(path, ["u", "b"])
    assert (want is not None) == (data in WELL_FORMED.values())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(ConfigError, match=re.escape(str(path))):
                read_csv(path, ["u", "b"])
            return
        got = read_csv(path, ["u", "b"])
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("data", [b"x\r\n1\r\n  \r\n", b"x\r\n1,2\r\n", b"x\r\n1\r\n2,\r\n"],
                         ids=["whitespace_line", "two_fields", "trailing_comma"])
def test_read_csv_one_column_rejects_what_csv_reader_rejects(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    assert csv_reader_floats(path, ["x"]) is None
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        read_csv(path, ["x"])


@pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"])
def test_read_csv_rejects_python_only_number_syntax(tmp_path, cell):
    # float() reads digit-group underscores and non-ASCII digits; numpy's
    # reader does not, and these cells are rejected
    path = tmp_path / "t.csv"
    path.write_text(f"u,b\r\n0,{cell}\r\n", encoding="utf-8", newline="")
    assert csv_reader_floats(path, ["u", "b"]) is not None
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        read_csv(path, ["u", "b"])


@pytest.mark.parametrize("data, message", [
    (b"u,b\r\n0.0,oops\r\n", "line 2: could not convert string 'oops' to float64 in column 2"),
    (b"u,b\r\n0,1\r\n2,3,4\r\n", "line 3: 3 fields where the first data row has 2"),
    # blank lines and a row broken inside quotes count their lines
    (b"\r\nu,b\r\n\r\n\"0.5\r\n\",1\n\r3,x\r\n", "line 7: could not convert string 'x'"),
], ids=["no_number", "ragged", "blank_and_quoted_lines"])
def test_read_csv_names_the_file_line_of_a_bad_row(tmp_path, data, message):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        read_csv(path, ["u", "b"])


def test_read_csv_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        read_csv(tmp_path / "gone.csv", ["u", "b"])
