"""The artifact format: every CSV and JSON file the tool writes or reads back.

A CSV is written by column, one row per index, each cell the repr of the
Python scalar (ints stay ints, floats come out in shortest round-trip form),
so identical data gives identical bytes and reads back bit for bit.  The
bytes are those of csv.writer's default dialect on these cells: the header
names and the cells joined by commas, unquoted (no repr of a number or bool
holds a comma, quote or line break), each line ending in \r\n.  write_csv
formats the lines itself, without csv.writer's per-cell quoting checks;
write_grid_csv writes the rows of a product grid in the same format and
formats each grid value once, not once per row it appears in.  A JSON
document is indented, key-sorted and ends in a newline.
"""

import csv
import json
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .model import ConfigError

PathLike = Union[str, Path]


def write_csv(path: PathLike, header: Sequence[str], *columns) -> None:
    """Write the header, then one row per index of the equal-length columns."""
    row = ",".join(["%r"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(map(row.__mod__, zip(*(np.asarray(col).tolist() for col in columns))))


def write_grid_csv(path: PathLike, header: Sequence[str], x, y, z) -> None:
    """Write the rows (x_i, y_j, z_ij), x-major, of z given in that order:
    the bytes of write_csv on x repeated, y tiled and z flattened."""
    ys = [f"{v!r}," for v in np.asarray(y).tolist()]
    rows = np.asarray(z).reshape(len(x), len(ys)).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for xv, zs in zip(np.asarray(x).tolist(), rows):
            head = f"{xv!r},"
            fh.writelines(head + yv + f"{zv!r}\r\n" for yv, zv in zip(ys, zs))


def read_csv(path: PathLike, header: Sequence[str]) -> np.ndarray:
    """The data rows of a CSV with this header, as a float array of its columns.

    Raises ConfigError naming the file if it cannot be read, is empty, has
    another header, has no data rows, or has a ragged or non-numeric row.
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: empty CSV")
    if [h.strip() for h in rows[0]] != list(header):
        raise ConfigError(f"{path}: expected columns {list(header)}, got {rows[0]}")
    if len(rows) < 2:
        raise ConfigError(f"{path}: no data rows")
    ragged = next((row for row in rows if len(row) != len(header)), None)
    if ragged is not None:
        raise ConfigError(f"{path}: row {ragged} has {len(ragged)} fields, expected {len(header)}")
    try:
        return np.array(rows[1:], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric row: {exc}") from exc


def write_json(path: PathLike, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
