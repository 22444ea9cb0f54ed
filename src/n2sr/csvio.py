"""The one CSV writer behind every table the package writes."""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError

__all__ = ["finite_columns", "write_columns"]

# Rows formatted per write. Small chunks hold few strings at once, so peak
# memory stays that of a row-by-row writer; from about 128 rows up the chunk
# size no longer changes the speed.
_CHUNK_ROWS = 256


def write_columns(path, header: str, columns: Sequence) -> None:
    """Write `header` (a line, or several, without the final newline) and then
    one comma-separated row per index of `columns`. Every column has the same
    length, checked before the file is opened.

    Array columns are converted with `tolist` and written with repr: for a
    float the shortest string that reads back to the same value. Other
    columns are sequences of Python values written with str, which for a
    float is the same repr, for a bool 'True' or 'False' and for a str the
    text itself, so a column formatted once as strings can go to several
    files.
    """
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("columns must have equal length")
    with Path(path).open("w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _CHUNK_ROWS):
            fh.write("\n".join(map(",".join, zip(*(_cells(col, lo) for col in columns)))) + "\n")


def _cells(col, lo: int):
    """The strings of col's rows lo to lo + _CHUNK_ROWS, made as they are read."""
    c = col[lo:lo + _CHUNK_ROWS]
    return map(repr, c.tolist()) if isinstance(c, np.ndarray) else map(str, c)


def finite_columns(table: str, header: str, build: Callable[[], list], row: Callable[[int], str]) -> list:
    """The columns build() returns, computed without overflow or invalid-value
    warnings, for write_columns. An array column holding a non-finite value
    (an overflowed unit conversion, say) raises NumericalError instead, naming
    the table, the first such column, its value and row(i) of its first such
    row i, so the file is never opened."""
    with np.errstate(over="ignore", invalid="ignore"):
        columns = build()
    for name, col in zip(header.split(","), columns):
        if isinstance(col, np.ndarray) and not np.isfinite(col).all():
            i = int(np.argmin(np.isfinite(col)))
            raise NumericalError(f"{table} column '{name}' is {col[i].item()!r} at {row(i)}")
    return columns
