"""The artifact format: every CSV and JSON file the tool writes or reads back.

A CSV is written by column, one row per index, each cell the repr of the
Python scalar (ints stay ints, floats come out in shortest round-trip form),
so identical data gives identical bytes and reads back bit for bit.  The
bytes are those of csv.writer's default dialect on these cells: the header
names and the cells joined by commas, unquoted (no repr of a number or bool
holds a comma, quote or line break), each line ending in \r\n.

The writers format a column with one repr of its list of Python scalars,
split on ", " (a list's repr is the repr of each item), and write the rows
BLOCK_ROWS at a time, so that no more than one block of row strings is held
at once.  write_grid_csv writes the rows of a product grid in the same
format and formats each grid value once, not once per row it appears in.

read_csv parses the header with csv.reader and the body with numpy's C
reader (np.loadtxt).  It reads what csv.reader and float() read, padded and
quoted cells, nan, inf and blank lines included, with one narrowing: a cell
float() takes only through its Python-specific syntax, underscores between
digits ("1_0") or non-ASCII digits, is rejected.  A body loadtxt rejects is
read again, a row at a time, to name the first bad row by its line in the
file.

A JSON document is indented, key-sorted and ends in a newline.
"""

import csv
import json
import re
from itertools import chain
from pathlib import Path
from typing import Callable, List, Sequence, Union

import numpy as np

from .model import ConfigError

PathLike = Union[str, Path]

# rows formatted and written at a time
BLOCK_ROWS = 1024


def _cells(values) -> List[str]:
    """The repr of each scalar of the 1-D values."""
    text = repr(np.asarray(values).tolist())[1:-1]
    return text.split(", ") if text else []


def _write_rows(path: PathLike, header: Sequence[str], n_rows: int,
                block: Callable[[int, int], Sequence]) -> None:
    """Write the header, then rows lo..hi-1 from block(lo, hi), their cell columns."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, BLOCK_ROWS):
            rows = map(",".join, zip(*block(lo, min(lo + BLOCK_ROWS, n_rows))))
            fh.write("\r\n".join(rows) + "\r\n")


def write_csv(path: PathLike, header: Sequence[str], *columns) -> None:
    """Write the header, then one row per index of the equal-length columns."""
    cols = [np.asarray(col) for col in columns]
    _write_rows(path, header, min((len(col) for col in cols), default=0),
                lambda lo, hi: [_cells(col[lo:hi]) for col in cols])


def write_grid_csv(path: PathLike, header: Sequence[str], x, y, z) -> None:
    """Write the rows (x_i, y_j, z_ij), x-major, of z given in that order:
    the bytes of write_csv on x repeated, y tiled and z flattened."""
    xs, ys = (np.array(_cells(v), dtype=object) for v in (x, y))
    z = np.asarray(z).reshape(xs.size * ys.size)

    def block(lo, hi):
        i, j = np.divmod(np.arange(lo, hi), ys.size)
        return xs[i], ys[j], _cells(z[lo:hi])

    _write_rows(path, header, z.size, block)


def _bad_row(path: PathLike) -> str:
    """Why the body of the CSV at path fails to load: the first data row with
    a cell that is no number, or with another number of fields than the
    first data row, named by the 1-based line of the file it starts on.

    A row runs on past a line end inside double quotes, as in loadtxt.  The
    empty string if no row is at fault on its own.
    """
    fields, rows, text = None, 0, []
    with open(path, newline="") as fh:
        for n, line in enumerate(fh, 1):
            if not text:
                start = n
            text.append(line)
            if sum(part.count('"') for part in text) % 2:
                continue
            row, text = text, []
            if not "".join(row).strip("\r\n"):
                continue
            rows += 1
            if rows == 1:  # the header
                continue
            try:
                got = np.loadtxt(row, delimiter=",", comments=None, quotechar='"', ndmin=2)
            except ValueError as exc:
                why = re.sub(r" at row \d+, column", " in column", str(exc)).rstrip(".")
                return f"line {start}: {why}"
            if fields is None:
                fields = got.shape[1]
            elif got.shape[1] != fields:
                return f"line {start}: {got.shape[1]} fields where the first data row has {fields}"
    return ""


def read_csv(path: PathLike, header: Sequence[str]) -> np.ndarray:
    """The data rows of a CSV with this header, as a float array of its columns.

    Blank lines are skipped.  Raises ConfigError naming the file if it
    cannot be read, is empty, has another header, has no data rows, or has
    a ragged or non-numeric row, which it names by its line.
    """
    try:
        with open(path, newline="") as fh:
            head = next((row for row in csv.reader(fh) if row), None)
            if head is None:
                raise ConfigError(f"{path}: empty CSV")
            if [h.strip() for h in head] != list(header):
                raise ConfigError(f"{path}: expected columns {list(header)}, got {head}")
            # the first data line is found here, since loadtxt only warns
            # on a body without one
            first = next((line for line in fh if line.strip("\r\n")), None)
            if first is None:
                raise ConfigError(f"{path}: no data rows")
            data = np.loadtxt(chain([first], fh), delimiter=",", comments=None, quotechar='"',
                              ndmin=2)
    except ConfigError:
        raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # from loadtxt: a ragged row or a cell that is no number
        why = _bad_row(path) or f"ragged or non-numeric row: {exc}"
        raise ConfigError(f"{path}: {why}") from exc
    if data.shape[1] != len(header):
        raise ConfigError(f"{path}: rows have {data.shape[1]} fields, expected {len(header)}")
    return data


def write_json(path: PathLike, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
