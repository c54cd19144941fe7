"""CSV files of sweep results.

A file is one line naming the package version and a timestamp, one
``# key=value`` line per meta entry in sorted key order, the column header
and one line per row. Cells are not quoted: floats as ``repr``, bools as
1/0, None and NaN as NaN, strings verbatim. Rows are written in blocks of
``_BLOCK_ROWS``: a column of floats and None is formatted a block at a
time by one ``repr`` of the block's list, and each block's lines are
joined at once.
"""

from __future__ import annotations

import datetime
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .harness import SweepResult

# cell text of None and the bools
_WORDS = {None: "NaN", True: "1", False: "0"}

# rows formatted and written at once. The text of a block's cells is held
# at once: on the default fig5a grid (40,401 rows) a whole-file block
# raised the peak resident memory from 69 to 120 MB, while 512-row blocks
# stay within 2 MB of a row-at-a-time writer (1,024-row blocks did not)
_BLOCK_ROWS = 512


def _float_cells(values: list) -> list[str]:
    """CSV cells of a non-empty list of floats and None, from one repr of
    the list: repr(float) per value, None and NaN as NaN."""
    text = repr(values)[1:-1].replace("nan", "NaN").replace("None", "NaN")
    return text.split(", ")


def _column_cells(name: str, values: list):
    """CSV cells of one column, as a function of a slice of rows: strings
    verbatim, bools as 1/0, None and NaN as NaN, any other value as
    repr(float(value)). A column of floats and None is formatted one
    slice at a time; any other column at once, and checked here for text
    that cannot go unquoted."""
    kinds = set(map(type, values))
    # a list, so that the repr of a slice is a list's
    if type(values) is not list or not kinds <= {float, str, bool, type(None)}:
        values = [v if v is None or isinstance(v, bool) else str.__str__(v)
                  if isinstance(v, str) else float(v) for v in values]
        kinds = set(map(type, values))
    if kinds <= {float, type(None)}:  # repr holds no comma or line break
        return lambda rows: _float_cells(values[rows])
    if kinds <= {str, bool, type(None)}:  # no key of _WORDS equals a str
        cells = list(map(_WORDS.get, values, values))
    else:  # floats among words
        cells = [_float_cells([v])[0] if type(v) is float else _WORDS.get(v, v)
                 for v in values]
    joined = "".join(cells)
    if "," in joined or "\n" in joined or "\r" in joined:
        raise ValueError(f"write_csv: column {name!r} holds a comma or a "
                         "line break, which is not quoted")
    return cells.__getitem__


def write_csv(result: SweepResult, path, version: str,
              timestamp: str | None = None) -> Path:
    """Write a sweep result; only the first (timestamp) line varies
    between identical runs. Cells are not quoted: a string cell holding a
    comma or a line break raises ValueError naming its column, as do
    columns of unequal length. A rejected result touches no file."""
    path = Path(path)
    if timestamp is None:
        timestamp = datetime.datetime.now(datetime.timezone.utc) \
            .strftime("%Y-%m-%dT%H:%M:%SZ")
    lengths = {name: len(values) for name, values in result.columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"write_csv: columns of unequal length {lengths}")
    columns = [_column_cells(name, values)
               for name, values in result.columns.items()]
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
