"""CSV emission: the column writer against a per-value reference, its
refusal of results it cannot write, and the fig2 path that writes from
the root table without building working points."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optomech_bistab import steady
from optomech_bistab.csvfile import _BLOCK_ROWS
from optomech_bistab.harness import (
    SweepResult,
    _default_power_grid,
    figure_command,
    write_csv,
)
from optomech_bistab.params import laser_frequency


def _reference_cell(value) -> str:
    """One cell, one value at a time: the rule the writer must follow."""
    if value is None:
        return "NaN"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    value = float(value)
    if math.isnan(value):
        return "NaN"
    return repr(value)


def _reference_csv(result: SweepResult, version: str, timestamp: str) -> bytes:
    lines = [f"# optomech-bistab v{version} {timestamp}"]
    lines += [f"# {key}={result.meta[key]}" for key in sorted(result.meta)]
    lines.append(",".join(result.columns))
    lines += [",".join(map(_reference_cell, row))
              for row in zip(*result.columns.values())]
    return ("\n".join(lines) + "\n").encode("utf-8")


_EDGE_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                -2.225073858507201e-308, 1e16, 1e-5, 1.7976931348623157e308)

# the array columns sweeps build: float64 (NaN where a row has no number),
# bool, str, and the tri-state validity_ok
_ARRAY_CELLS = {
    "float64": (st.floats(allow_subnormal=True) | st.sampled_from(_EDGE_FLOATS),
                np.float64),
    "bool": (st.booleans(), bool),
    "str": (st.text(st.characters(blacklist_characters=",\n\r",
                                  blacklist_categories=("Cs",)), max_size=6), str),
    "tri-state": (st.sampled_from((True, False, None)), object),
}


@st.composite
def _array_columns(draw, n_rows: int) -> np.ndarray:
    """One 1-D array column of ``n_rows`` values of one dtype."""
    cells, dtype = _ARRAY_CELLS[draw(st.sampled_from(sorted(_ARRAY_CELLS)))]
    pool = draw(st.lists(cells, min_size=1, max_size=8))
    rnd = draw(st.randoms(use_true_random=False))
    return np.array([rnd.choice(pool) for _ in range(n_rows)], dtype=dtype)


@st.composite
def _results(draw) -> SweepResult:
    n_rows = draw(st.sampled_from((0, 1, 2, 129)))
    names = tuple(f"c{i}" for i in range(draw(st.integers(1, 4))))
    columns = {name: draw(_array_columns(n_rows)) for name in names}
    return SweepResult(columns, meta={"k": "v"})


# the cells that repr of a list gives in words, and a finite float
_BLOCK_FLOATS = (math.nan, None, math.inf, -math.inf, -0.0, 0.1)


@settings(max_examples=50, deadline=None)
@given(_results())
@example(SweepResult(  # None among bools and among strings, as object arrays
    columns={"validity_ok": np.array([True, None, False]),
             "status": np.array(["ok", "unstable", None], dtype=object)}))
@example(SweepResult(  # two whole blocks
    columns={"x": np.array([_BLOCK_FLOATS[k % 6] for k in range(2 * _BLOCK_ROWS)],
                           dtype=float),
             "ok": np.arange(2 * _BLOCK_ROWS) % 4 == 0}))
@example(SweepResult(  # one block and one row more, as sweeps write them
    columns={"x": np.array([_BLOCK_FLOATS[k % 6] for k in range(_BLOCK_ROWS + 1)],
                           dtype=float),
             "ok": np.arange(_BLOCK_ROWS + 1) % 4 == 0,
             "validity_ok": np.array([(True, None, False)[k % 3]
                                      for k in range(_BLOCK_ROWS + 1)]),
             "status": np.array([("ok", "unstable", "error:X")[k % 3]
                                 for k in range(_BLOCK_ROWS + 1)])}))
def test_write_csv_equals_per_value_reference(tmp_path_factory, result):
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(result, path, "1", timestamp="T")
    assert path.read_bytes() == _reference_csv(result, "1", "T")


@pytest.mark.parametrize("text", ["a,b", "a\nb", "a\rb", ","])
def test_write_csv_rejects_text_it_cannot_quote(tmp_path, text):
    # the bad cell is the last of many: a writer that checked each row
    # as it wrote it would leave a partial file
    columns = {"x": np.arange(129.0), "label": np.array(["ok"] * 128 + [text])}
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="column 'label'"):
        write_csv(SweepResult(columns), path, "1")
    assert not path.exists()


# columns write_csv cannot write: a list, another dtype, an array that is
# not 1-D, and object cells that are not a str, a bool or None; 1.0 == True,
# so 1.0 must not be written as 1
_UNWRITABLE = {
    "list": ["ok", "ok", "ok"],
    "int64": np.arange(3),
    "2-D": np.zeros((3, 1)),
    "object 1.0": np.array([True, 1.0, None], dtype=object),
    "object np.float64": np.array(["ok", np.float64(0.0), "ok"], dtype=object),
}


@pytest.mark.parametrize("kind", sorted(_UNWRITABLE))
def test_write_csv_rejects_columns_it_cannot_write(tmp_path, kind):
    columns = {"x": np.arange(3.0), "label": _UNWRITABLE[kind]}
    path = tmp_path / "new" / "bad.csv"
    with pytest.raises(ValueError, match="column 'label'"):
        write_csv(SweepResult(columns), path, "1")
    assert not path.parent.exists()


# results write_csv must reject: a short column, a cell it cannot quote
_MALFORMED = {
    "ragged": {"x": np.arange(200.0), "label": np.array(["ok"] * 199)},
    "unquotable": {"x": np.arange(200.0),
                   "label": np.array(["ok"] * 199 + ["a,b"])},
}


def test_write_csv_rejects_ragged_columns(tmp_path):
    path = tmp_path / "new" / "t.csv"
    with pytest.raises(ValueError, match="unequal length"):
        write_csv(SweepResult(_MALFORMED["ragged"]), path, "1")
    assert not path.parent.exists()


@pytest.mark.parametrize("kind", sorted(_MALFORMED))
def test_rejected_write_leaves_existing_file_unchanged(tmp_path, kind):
    path = tmp_path / "t.csv"
    write_csv(SweepResult({"x": np.array([1.0, 2.0])}), path, "1", timestamp="T")
    before = path.read_bytes()
    with pytest.raises(ValueError, match="write_csv"):
        write_csv(SweepResult(_MALFORMED[kind]), path, "1")
    assert path.read_bytes() == before


def test_figure2_builds_no_working_points(tmp_path, monkeypatch,
                                          default_physical, default_model):
    made = []
    init = steady.WorkingPoint.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(steady.WorkingPoint, "__init__", counting_init)
    figure_command("fig2", default_physical, tmp_path, grid=300)
    assert made == []

    omega_L = laser_frequency(default_physical.wavelength)
    powers = _default_power_grid(default_model, omega_L,
                                 default_physical.power, 300)
    trace = steady.hysteresis(default_model, powers, omega_L)
    assert made == []
    assert 3 in trace.table.count.tolist()
