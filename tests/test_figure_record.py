"""Regression record of every default figure panel.

``figure_record.json`` holds, for fig2, fig3a, fig4, fig5a and fig6 at
their default grids and the bundled default parameters: the row count,
the histogram of the ``status`` column (of ``branch`` for fig2, which has
no status), the column header, the ``#`` meta lines after the timestamp
and a fixed sample of rows (every k-th row, plus the first and last row
of each status). fig3b and fig5b are byte copies of fig3a and fig5a
(``SAME_SWEEP_AS``) and are not recorded.

The test regenerates the panels and compares counts, histograms and
headers exactly, and the sampled rows and meta values cell by cell:
identical text for labels, identical NaN pattern, and at most
``REL_TOL`` relative difference between numbers.

A documented fix that changes rows regenerates the record in the same
change, from the repository root:

    PYTHONPATH=src python tests/test_figure_record.py

and the record's diff then shows the changed rows.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

from optomech_bistab.harness import figure_command
from optomech_bistab.params import default_params

RECORD = Path(__file__).with_name("figure_record.json")
PANELS = ("fig2", "fig3a", "fig4", "fig5a", "fig6")
REL_TOL = 1e-12

# about this many rows of each panel are sampled at a fixed stride
SAMPLED_ROWS = 120


def _panel(fig_id: str, out_dir: Path) -> dict:
    """Header, meta lines and rows of one panel at its default grid."""
    (path,) = figure_command(fig_id, default_params(), out_dir,
                             version="record", timestamp="T")
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [line for line in lines[1:] if line.startswith("#")]
    header, *rows = lines[1 + len(meta):]
    return {"header": header, "meta": meta, "rows": rows}


def _record(panel: dict) -> dict:
    header, rows = panel["header"].split(","), panel["rows"]
    label = header.index("status" if "status" in header else "branch")
    labels = [row.split(",")[label] for row in rows]
    sample = set(range(0, len(rows), max(1, len(rows) // SAMPLED_ROWS)))
    for value in set(labels):
        sample.add(labels.index(value))
        sample.add(len(labels) - 1 - labels[::-1].index(value))
    return {"rows": len(rows), "histogram": dict(sorted(Counter(labels).items())),
            "header": panel["header"], "meta": panel["meta"],
            "sample": {str(i): rows[i] for i in sorted(sample)}}


def _cells_match(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _lines_match(got: str, want: str, sep: str) -> bool:
    got, want = got.split(sep), want.split(sep)
    return len(got) == len(want) and all(map(_cells_match, got, want))


def test_default_panels_match_the_record(tmp_path):
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    assert sorted(record) == sorted(PANELS)
    for fig_id in PANELS:
        want, panel = record[fig_id], _panel(fig_id, tmp_path)
        got = _record(panel)
        assert got["rows"] == want["rows"], fig_id
        assert got["histogram"] == want["histogram"], fig_id
        assert got["header"] == want["header"], fig_id
        assert len(got["meta"]) == len(want["meta"]), fig_id
        for g, w in zip(got["meta"], want["meta"]):
            assert _lines_match(g, w, "="), (fig_id, g, w)
        for index, line in want["sample"].items():
            assert _lines_match(panel["rows"][int(index)], line, ","), (fig_id, index)


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        record = {fig_id: _record(_panel(fig_id, Path(out_dir))) for fig_id in PANELS}
    RECORD.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {RECORD} ({RECORD.stat().st_size} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
