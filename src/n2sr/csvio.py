"""The one CSV writer behind every table the package writes."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["write_columns"]

# Rows formatted per write. Small chunks hold few strings at once, so peak
# memory stays that of a row-by-row writer; from about 128 rows up the chunk
# size no longer changes the speed.
_CHUNK_ROWS = 256


def write_columns(path, header: str, columns: Sequence) -> None:
    """Write `header` (a line, or several, without the final newline) and then
    one comma-separated row per index of the equal-length `columns`.

    Array columns are converted with `tolist`, so each float is written as its
    repr: the shortest string that reads back to the same value. Other
    columns are sequences of Python values written with str, which for a
    float is the same repr, for a bool 'True' or 'False' and for a str the
    text itself.
    """
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("columns must have equal length")
    with Path(path).open("w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, _CHUNK_ROWS):
            chunk = [col[lo:lo + _CHUNK_ROWS] for col in columns]
            cells = [map(str, c.tolist() if isinstance(c, np.ndarray) else c) for c in chunk]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
