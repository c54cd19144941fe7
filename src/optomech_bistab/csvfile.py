"""CSV files of sweep results.

A file is one line naming the package version and a timestamp, one
``# key=value`` line per meta entry in sorted key order, the column header
and one line per row. Columns are the 1-D numpy arrays tables build:
float64, cells as ``repr`` and NaN as NaN, or bool, str and object
arrays of str, True, False and None cells, as is, 1, 0 and NaN; cells
are not quoted. Rows are written in blocks of ``_BLOCK_ROWS``, each
block's lines joined at once from one list of cells per column: a
float64 column is formatted a block at a time, one ``repr`` per value,
so that one block of it is alive as Python floats and text; any other
column is formatted whole, a bool column by one vectorised lookup.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .harness import SweepResult

# cell text of None and the bools
_WORDS = {None: "NaN", True: "1", False: "0"}

# rows formatted and written at once. A block is a list of cells per
# column, all of its text held at once: on the default fig5a grid (40,401
# rows) a whole-file block raised the peak resident memory from 69 to
# 120 MB, while 512-row blocks stay within 2 MB of a row-at-a-time writer
# (1,024-row blocks did not)
_BLOCK_ROWS = 512


def _float_cells(block: np.ndarray) -> list[str]:
    """Cells of a float64 array: the repr of each value, NaN as NaN."""
    cells = list(map(repr, block.tolist()))
    for i in np.flatnonzero(np.isnan(block)).tolist():
        cells[i] = "NaN"
    return cells


def _column_cells(name: str, values):
    """CSV cells of one column, as a function of a slice of rows: a float64
    array one slice at a time (a float's repr holds no comma or line break),
    any other array at once, checked here for a cell that is not a str, a
    bool or None, and for text that cannot go unquoted."""
    if not isinstance(values, np.ndarray) or values.ndim != 1 or \
            values.dtype != np.float64 and values.dtype.kind not in "bUO":
        raise ValueError(f"write_csv: column {name!r} is not a 1-D float64, "
                         "bool, str or object array")
    if values.dtype == np.float64:
        return lambda rows: _float_cells(values[rows])
    if values.dtype.kind == "b":
        return np.where(values, "1", "0").tolist().__getitem__
    if values.dtype.kind == "U":
        cells = values.tolist()
    else:
        # 1.0 == True: an object cell that is a number fails the join, not
        # _WORDS
        cells = [v if type(v) is str else _WORDS[v] if v is None or type(v) is bool
                 else v for v in values.tolist()]
    try:
        joined = "".join(cells)
    except TypeError:
        raise ValueError(f"write_csv: column {name!r} holds a cell that is "
                         "not a str, a bool or None") from None
    if "," in joined or "\n" in joined or "\r" in joined:
        raise ValueError(f"write_csv: column {name!r} holds a comma or a "
                         "line break, which is not quoted")
    return cells.__getitem__


def write_csv(result: SweepResult, path, version: str,
              timestamp: str | None = None) -> Path:
    """Write a sweep result; only the first (timestamp) line varies
    between identical runs. A column of another type or dtype, an object
    cell that is not a str, a bool or None, a string cell holding a comma
    or a line break and columns of unequal length raise ValueError naming
    the columns. A rejected result touches no file."""
    path = Path(path)
    if timestamp is None:
        timestamp = datetime.datetime.now(datetime.timezone.utc) \
            .strftime("%Y-%m-%dT%H:%M:%SZ")
    columns = [_column_cells(name, values)
               for name, values in result.columns.items()]
    lengths = {name: len(values) for name, values in result.columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"write_csv: columns of unequal length {lengths}")
    head = [f"# optomech-bistab v{version} {timestamp}"]
    head += [f"# {key}={result.meta[key]}" for key in sorted(result.meta)]
    head.append(",".join(result.columns))
    n_rows = max(lengths.values(), default=0)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write("\n".join(head) + "\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            block = zip(*(cells(rows) for cells in columns))
            f.write("\n".join(map(",".join, block)) + "\n")
    return path
