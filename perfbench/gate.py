"""Correctness gate: recompute sampled CSV rows through the scalar public path.

A row matches when its ``status`` and NaN pattern are identical and every
number agrees to 1e-12 relative. Each check returns a list of problems;
an empty list means the file passed. Invariants checked on every row:
the expected row count, grid axes equal (under the same rule) to the axes
rebuilt from the package's public ``linear_grid`` and
``bistable_window_estimate``, known status values and E_N >= 0 on ``ok``
rows. Sampled rows are recomputed at the rebuilt axis values, not at the
values read from the CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from optomech_bistab import (
    PhysicalParams,
    derive_model,
    steady_states,
    working_point_from_eta,
)
from optomech_bistab.harness import (
    bistable_window_estimate,
    evaluate_point,
    linear_grid,
)
from optomech_bistab.params import laser_frequency

RTOL = 1e-12

# rows recomputed per CSV file
SAMPLE_ROWS = 256

STATUSES = {"ok", "unstable", "marginal", "conditioning", "degenerate"}

# fig2 columns recomputed from one WorkingPoint
_POINT_COLUMNS = ("branch", "q_s", "photons", "Delta_over_wm", "G_over_wm",
                  "eta", "stable")


@dataclass
class Table:
    meta: dict[str, str]
    header: list[str]
    rows: list[list[str]]

    def column(self, name: str) -> list[str]:
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def read_csv(path: Path) -> Table:
    meta, header, rows = {}, None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return Table(meta, header or [], rows)


def is_failed(status: str) -> bool:
    """Rows counted as failed: pipeline errors and ill-conditioned solves."""
    return status.startswith("error") or status == "conditioning"


def _same(text: str, expected) -> bool:
    if expected is None:
        return text == "NaN"
    if isinstance(expected, bool):
        return text == ("1" if expected else "0")
    if isinstance(expected, str):
        return text == expected
    expected = float(expected)
    try:
        value = float(text)
    except ValueError:
        return False
    if math.isnan(expected) or math.isnan(value):
        return math.isnan(expected) and math.isnan(value)
    if value == expected:
        return True
    return abs(value - expected) <= RTOL * max(abs(value), abs(expected))


def compare_row(header: list[str], fields: list[str], expected: dict,
                where: str) -> list[str]:
    if len(fields) != len(header):
        return [f"{where}: {len(fields)} fields, header has {len(header)}"]
    if expected.get("status", "").startswith("error"):
        status = fields[header.index("status")]
        return [] if status == expected["status"] else \
            [f"{where}: status {status!r}, recomputed {expected['status']!r}"]
    problems = []
    for col, text in zip(header, fields):
        if col not in expected:
            problems.append(f"{where}: column {col} not recomputed")
        elif not _same(text, expected[col]):
            problems.append(f"{where}: {col}={text}, recomputed {expected[col]!r}")
    return problems


def _pipeline_row(wp, mp) -> dict:
    try:
        return evaluate_point(wp, mp)
    except Exception as exc:  # the sweep records these as status rows
        return {"status": f"error:{type(exc).__name__}"}


def _sample(rng: np.random.Generator, n: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(n, SAMPLE_ROWS),
                                             replace=False))


def _check_grid(table: Table, inner: tuple[str, tuple[float, ...]],
                outer: tuple[str, tuple[float, ...]]) -> list[str]:
    """Invariants of an n x n sweep with one row per cell.

    ``inner`` and ``outer`` are (CSV column, expected axis values): row r
    holds inner[r % n] and outer[r // n].
    """
    n = len(inner[1])
    if len(table.rows) != n * n:
        return [f"{len(table.rows)} rows, expected {n * n}"]
    if "status" not in table.header:
        return ["no status column"]
    problems = []
    for col, values, index in ((*inner, lambda r: r % n),
                               (*outer, lambda r: r // n)):
        column = table.column(col)
        wrong = [r for r in range(n * n) if not _same(column[r], values[index(r)])]
        if wrong:
            problems.append(f"{col} off the expected axis in {len(wrong)} rows, "
                            f"first row {wrong[0]}: {column[wrong[0]]}, "
                            f"expected {values[index(wrong[0])]!r}")
    statuses = table.column("status")
    bad = sorted({s for s in statuses if s not in STATUSES and not s.startswith("error:")})
    if bad:
        problems.append(f"unknown statuses {bad}")
    for i, (status, e_n) in enumerate(zip(statuses, table.column("E_N"))):
        if status == "ok" and not float(e_n) >= 0.0:
            problems.append(f"row {i}: ok with E_N={e_n}")
    return problems


def check_entanglement_surface(path: Path, physical: PhysicalParams, n: int,
                               rng: np.random.Generator) -> list[str]:
    """fig3a/fig3b: eta (inner) x effective detuning (outer), branch=all."""
    table = read_csv(path)
    mp = derive_model(physical)
    etas = linear_grid(1e-3, 1.0, n)
    deltas = linear_grid(0.02 * mp.omega_m, 3.0 * mp.omega_m, n)
    problems = _check_grid(
        table, ("eta_target", etas),
        ("Delta_target_over_wm", tuple(d / mp.omega_m for d in deltas)))
    if problems:
        return problems
    for r in _sample(rng, n * n):
        eta, delta = etas[r % n], deltas[r // n]
        wp = working_point_from_eta(mp, eta, delta)
        expected = {"Delta_target_over_wm": delta / mp.omega_m,
                    "eta_target": eta,
                    **_pipeline_row(wp, mp)}
        problems += compare_row(table.header, table.rows[r], expected,
                                f"{path.name} row {r}")
    return problems


def check_bistability_map(path: Path, physical: PhysicalParams, n: int,
                          rng: np.random.Generator) -> list[str]:
    """fig5a/fig5b: power (inner) x bare detuning (outer), branch=lower."""
    table = read_csv(path)
    mp = derive_model(physical)
    window = bistable_window_estimate(mp, laser_frequency(physical.wavelength))
    p_hi = 1.5 * window[1] if window else 2.0 * physical.power
    powers = linear_grid(p_hi / n, p_hi, n)
    detunings = linear_grid(0.5 * mp.omega_m, 4.0 * mp.omega_m, n)
    problems = _check_grid(
        table, ("P_in_W", powers),
        ("Delta0_over_wm", tuple(d / mp.omega_m for d in detunings)))
    if problems:
        return problems
    for r in _sample(rng, n * n):
        power, delta0 = powers[r % n], detunings[r // n]
        cell = derive_model(replace(physical, power=power, delta0=delta0))
        wp = steady_states(cell)[0]
        expected = {"P_in_W": power, "Delta0_over_wm": delta0 / mp.omega_m,
                    **_pipeline_row(wp, cell)}
        problems += compare_row(table.header, table.rows[r], expected,
                                f"{path.name} row {r}")
    return problems


def check_power_hysteresis(path: Path, physical: PhysicalParams, n: int,
                           rng: np.random.Generator) -> list[str]:
    """fig2: every steady state per power; one up- and one down-sweep row each."""
    table = read_csv(path)
    mp = derive_model(physical)
    window = bistable_window_estimate(mp, laser_frequency(physical.wavelength))
    if window is None:
        values = linear_grid(0.1 * physical.power, 2.0 * physical.power, n)
    else:
        values = linear_grid(0.5 * window[0], 1.15 * window[1], n)
    by_power: dict[str, list[int]] = {}
    for i, text in enumerate(table.column("P_in_W")):
        by_power.setdefault(text, []).append(i)
    powers = list(by_power)
    if len(powers) != n:
        return [f"{len(powers)} distinct powers, expected {n}"]
    wrong = [k for k in range(n) if not _same(powers[k], values[k])]
    if wrong:
        return [f"P_in_W off the expected grid at {len(wrong)} powers, first "
                f"{powers[wrong[0]]}, expected {values[wrong[0]]!r}"]
    problems = []
    up, down = table.column("on_up_sweep"), table.column("on_down_sweep")
    for text, idx in by_power.items():
        if [up[i] for i in idx].count("1") != 1 or \
                [down[i] for i in idx].count("1") != 1:
            problems.append(f"P={text}: not exactly one up- and one down-sweep row")
    for key in ("switch_down_W", "switch_up_W"):
        switch = float(table.meta.get(key, "nan"))
        if not values[0] < switch < values[-1]:
            problems.append(f"{key}={switch} outside the power grid")
    cols = [table.header.index(c) for c in _POINT_COLUMNS]
    for k in _sample(rng, n):
        idx = by_power[powers[k]]
        at = derive_model(replace(physical, power=values[k]))
        points = steady_states(at)
        if len(points) != len(idx):
            problems.append(f"P={powers[k]}: {len(idx)} rows, recomputed "
                            f"{len(points)} steady states")
            continue
        for i, wp in zip(idx, points):
            expected = {"branch": wp.branch, "q_s": wp.q_s,
                        "photons": wp.photons,
                        "Delta_over_wm": wp.delta / at.omega_m,
                        "G_over_wm": wp.G / at.omega_m, "eta": wp.eta,
                        "stable": wp.stable}
            problems += compare_row(list(_POINT_COLUMNS),
                                    [table.rows[i][c] for c in cols],
                                    expected, f"{path.name} row {i}")
    return problems
