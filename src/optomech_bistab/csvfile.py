"""CSV files of sweep results.

A file is one line naming the package version and a timestamp, one
``# key=value`` line per meta entry in sorted key order, the column header
and one line per row. Cells are not quoted: floats as ``repr``, bools as
1/0, None and NaN as NaN, strings verbatim.
"""

from __future__ import annotations

import datetime
from itertools import tee
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .harness import SweepResult

# cell text of None and the bools, and the fix-up of repr's None and NaN
_WORDS = {None: "NaN", True: "1", False: "0"}
_NAN_TEXT = {"None": "NaN", "nan": "NaN"}


def _column_cells(name: str, values: list):
    """CSV cells of one column: strings verbatim, bools as 1/0, None and
    NaN as NaN, any other value as repr(float(value)). Float cells come
    lazily, so that the writer holds no more than a row of them at once."""
    kinds = set(map(type, values))
    if not kinds <= {float, str, bool, type(None)}:
        values = [v if v is None or isinstance(v, bool) else str.__str__(v)
                  if isinstance(v, str) else float(v) for v in values]
        kinds = set(map(type, values))
    if kinds <= {float, type(None)}:  # repr holds no comma or line break
        text, again = tee(map(repr, values))
        return map(_NAN_TEXT.get, text, again)
    if kinds <= {str, bool, type(None)}:  # no key of _WORDS equals a str
        cells = list(map(_WORDS.get, values, values))
    else:  # floats among words
        cells = [c for v in values for c in _column_cells(name, [v])]
    joined = "".join(cells)
    if "," in joined or "\n" in joined or "\r" in joined:
        raise ValueError(f"write_csv: column {name!r} holds a comma or a "
                         "line break, which is not quoted")
    return cells


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
    cells = [_column_cells(name, values)
             for name, values in result.columns.items()]
    head = [f"# optomech-bistab v{version} {timestamp}"]
    head += [f"# {key}={result.meta[key]}" for key in sorted(result.meta)]
    head.append(",".join(result.columns))
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write("\n".join(head) + "\n")
        f.writelines(",".join(line) + "\n" for line in zip(*cells))
    return path
