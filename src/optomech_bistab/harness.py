"""Parameter sweeps and figure reproduction; ``csvfile`` writes their CSV.

Two families of sweep axes are supported; they cannot be mixed in one
sweep. Experimental axes (power, bare_detuning, temperature) derive the
whole grid's models in one call and solve their steady-state cubics in
one pass. Theoretical axes (effective_detuning, eta, coupling) prescribe
the linearization inputs directly, inverting the bistability parameter
for the coupling when eta is swept, for the whole grid in one pass
(``steady.synthetic_points``). Both build a root table, with each root's
Hurwitz stability verdict, and differ only in how: one tail maps the
table's picked roots to row columns, running the covariance chain of the
stable rows on stacks (``quantum.covariance_rows``) and mapping its
masks to the row statuses (``_chain_columns``). Per-row failures
(instability, marginal decay, ill conditioning, a singular Lyapunov
system, an unphysical covariance) are recorded in the ``status`` column
and never abort a sweep; any other exception of the covariance chain is
a defect and propagates out of ``sweep``. ``evaluate_point`` is the
same tail on one working point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import quantum, steady
from .csvfile import write_csv
from .errors import ValidationError
from .params import (
    ModelParams,
    PhysicalParams,
    derive_model,
    laser_frequency,
)
from .steady import bistable_window_estimate

# One sweep axis: its CSV column; the PhysicalParams field it sets, for
# an experimental axis, or None for a theoretical one; whether it holds an
# angular rate (rad/s in an AxisSpec, omega_m on the command line, in CSV
# columns and in validation messages); its range (lower bound, inclusive,
# upper bound), None for no bound.
_Axis = namedtuple("_Axis", "column field rate range")

_AXES = {
    "power": _Axis("P_in_W", "power", False, (0.0, True, None)),
    "bare_detuning": _Axis("Delta0_over_wm", "delta0", True, (None, True, None)),
    "temperature": _Axis("T_K", "temperature", False, (0.0, True, None)),
    "effective_detuning": _Axis("Delta_target_over_wm", None, True,
                                (0.0, False, None)),
    "eta": _Axis("eta_target", None, False, (None, True, 1.0)),
    "coupling": _Axis("G_target_over_wm", None, True, (0.0, True, None)),
}

AXIS_NAMES = tuple(_AXES)
EXPERIMENTAL_AXES = tuple(n for n, a in _AXES.items() if a.field is not None)
THEORETICAL_AXES = tuple(n for n, a in _AXES.items() if a.field is None)
RATE_AXES = tuple(n for n, a in _AXES.items() if a.rate)

BRANCH_CHOICES = ("lower", "upper", "both", "all")

# steady-state fields every row carries, in CSV column order
_POINT_COLUMNS = ("branch", "q_s", "photons", "Delta_over_wm", "G_over_wm",
                  "eta", "stable")

# covariance-derived CSV columns, NaN on rows that get no covariance, and
# the EntanglementReport field of each
_COVARIANCE_COLUMNS = {"n_m": "n_m", "n_o": "n_o", "Sigma": "sigma", "detV": "det_v",
                       "E_N": "e_n", "validity_ratio": "validity_ratio",
                       "validity_ok": "validity_ok"}

# sweep CSV columns after the axis columns
_ROW_COLUMNS = ("branch", "q_s", "photons", "eta", "n_m", "n_o", "E_N",
                "Sigma", "detV", "G_over_wm", "Delta_over_wm", "validity_ok",
                "validity_ratio", "stable", "status")

FIGURE_IDS = ("fig2", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6")

# panel -> the panel that runs the identical sweep (byte-identical CSV body)
SAME_SWEEP_AS = {"fig3b": "fig3a", "fig5b": "fig5a"}

# the six statuses a row can get (``_chain_columns``), a closed set
STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_MARGINAL = "marginal"
STATUS_CONDITIONING = "conditioning"
STATUS_DEGENERATE = "degenerate"
STATUS_UNPHYSICAL = "error:PhysicalityError"


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: a named, strictly monotone grid of values.

    Values are absolute: W for power, K for temperature, rad/s for the
    detunings and the coupling, dimensionless for eta.
    """

    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class SweepSpec:
    base: PhysicalParams | ModelParams  # a ModelParams: theoretical axes only
    axis1: AxisSpec
    axis2: AxisSpec | None = None
    branch: str = "both"


@dataclass
class SweepResult:
    """A CSV table: ``columns`` maps each column name, in CSV order, to the
    1-D array of its values, one per row: float64 numbers (NaN for none),
    bool flags, str branch labels, and object arrays of str for
    ``status`` and of True, False or None for ``validity_ok``, whatever
    the sweep family. ``meta`` holds the ``#`` lines. ``write_csv`` takes
    these columns only: no list, no other dtype, no other object cell."""

    columns: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


def _check_axis(axis: AxisSpec, omega_m: float) -> None:
    if axis.name not in AXIS_NAMES:
        raise ValidationError(
            f"axis: unknown name {axis.name!r}, expected one of {AXIS_NAMES}")
    if not axis.values:
        raise ValidationError(f"axis {axis.name}: grid must be non-empty")
    if not all(math.isfinite(v) for v in axis.values):
        raise ValidationError(f"axis {axis.name}: grid values must be finite")
    if len(axis.values) > 1:
        diffs = [b - a for a, b in zip(axis.values, axis.values[1:])]
        if not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
            raise ValidationError(
                f"axis {axis.name}: grid must be strictly monotone")
    _, _, rate, (lo, lo_incl, hi) = _AXES[axis.name]
    for v in axis.values:
        if (lo is not None and (v < lo or (not lo_incl and v == lo))) or \
                (hi is not None and v > hi):
            shown = f"{v / omega_m!r} omega_m" if rate else f"{v}"
            raise ValidationError(
                f"axis {axis.name}: value {shown} out of range")


def validate_spec(spec: SweepSpec) -> None:
    """Reject malformed sweep requests before any computation."""
    _check_axis(spec.axis1, spec.base.omega_m)
    axes = [spec.axis1.name]
    if spec.axis2 is not None:
        _check_axis(spec.axis2, spec.base.omega_m)
        if spec.axis2.name == spec.axis1.name:
            raise ValidationError("axes: axis names must be distinct")
        axes.append(spec.axis2.name)
    if spec.branch not in BRANCH_CHOICES:
        raise ValidationError(
            f"branch: must be one of {BRANCH_CHOICES}, got {spec.branch!r}")
    experimental = [a for a in axes if a in EXPERIMENTAL_AXES]
    theoretical = [a for a in axes if a in THEORETICAL_AXES]
    if experimental and theoretical:
        raise ValidationError(
            "axes: experimental and theoretical axes cannot be mixed "
            f"({experimental[0]} vs {theoretical[0]})")
    if experimental and not isinstance(spec.base, PhysicalParams):
        raise ValidationError(
            f"axes: the {experimental[0]} axis needs PhysicalParams")
    if theoretical and set(theoretical) == {"effective_detuning"}:
        raise ValidationError(
            "axes: an effective_detuning sweep needs an eta or coupling axis "
            "to fix the working point")
    if "eta" in theoretical and "coupling" in theoretical:
        raise ValidationError("axes: eta and coupling axes are redundant")
    if "eta" in theoretical and "effective_detuning" not in theoretical \
            and spec.base.delta0 <= 0:
        # the eta sweep then runs at the bare detuning
        raise ValidationError("bare_detuning: must be positive for an eta "
                              "sweep without an effective_detuning axis")


def _point_fields(wp, mp: ModelParams) -> dict:
    """The steady-state fields of a CSV row, rates in units of omega_m; of
    a WorkingPoint, or as columns over all roots of a ``RootTable``."""
    return dict(zip(_POINT_COLUMNS, (
        wp.branch, wp.q_s, wp.photons, wp.delta / mp.omega_m,
        wp.G / mp.omega_m, wp.eta, wp.stable)))


def evaluate_point(wp: steady.WorkingPoint, mp: ModelParams) -> dict:
    """One pipeline row: steady-state point -> covariance -> observables.

    The row of ``_chain_columns`` on a stack of one, beside the point's
    steady-state fields, as Python floats, bools, strs and None: unstable,
    marginal, degenerate, ill-conditioned and unphysical points keep their
    steady-state fields, and their covariance-derived fields are NaN
    (``validity_ok`` None).
    """
    columns = _chain_columns(
        *(np.array([x], dtype=float) for x in (wp.delta, wp.G, wp.photons)),
        [np.array([v], dtype=float) for v in vars(mp).values()],
        np.array([wp.stable]), np.array([wp.degenerate]))
    return {**_point_fields(wp, mp),
            **{name: values.tolist()[0] for name, values in columns.items()}}


# rows per stacked pass of the covariance chain; each matrix is solved on
# its own, so the chunk size changes no bit of a row
_CHUNK_ROWS = 4096


def _chain_columns(delta: np.ndarray, G: np.ndarray, photons: np.ndarray,
                   model: list, stable: np.ndarray, degenerate: np.ndarray) -> dict:
    """The status and covariance columns of N sweep rows: the one home of
    a row's status, for both sweep families and ``evaluate_point``.

    ``delta``, ``G`` and ``photons`` are the rows' working points,
    ``model`` the arrays of their ModelParams fields, ``stable`` their
    Hurwitz verdicts and ``degenerate`` marks double roots. The covariance
    chain (``quantum.covariance_rows``) runs on the stable rows that are
    not degenerate, in stacks of at most ``_CHUNK_ROWS`` rows; it takes
    its marginal verdicts from the Hurwitz conditions too, and spectra
    only of drift matrices at or above the norm bound of the solve. Its
    masks give the statuses: an unphysical covariance is
    ``error:PhysicalityError``, a failed Lyapunov solve ``conditioning``;
    its report, of the rows neither mask holds, goes to those rows. Any
    exception of the chain propagates.
    """
    n = len(delta)
    row = {name: np.full(n, math.nan) for name in _COVARIANCE_COLUMNS}
    row["validity_ok"] = np.full(n, None)
    row["status"] = np.full(n, STATUS_OK, dtype=object)
    live = np.flatnonzero(stable & ~degenerate)
    for start in range(0, len(live), _CHUNK_ROWS):
        r = live[start:start + _CHUNK_ROWS]
        marginal, conditioning, report = quantum.covariance_rows(
            delta[r], G[r], photons[r], ModelParams(*(field[r] for field in model)))
        solved, ok = r[~(marginal | conditioning)], ~np.isnan(report.e_n)
        row["status"][solved[~ok]] = STATUS_UNPHYSICAL
        row["status"][r[conditioning]] = STATUS_CONDITIONING
        row["status"][r[marginal]] = STATUS_MARGINAL
        for name, attr in _COVARIANCE_COLUMNS.items():
            row[name][solved[ok]] = getattr(report, attr)[ok]
    row["status"][~stable] = STATUS_UNSTABLE
    row["status"][degenerate] = STATUS_DEGENERATE
    return row


def _theoretical_table(mp: ModelParams, axes: tuple, n: int) -> tuple:
    """The root table of a theoretical sweep, one synthetic root per cell
    of its ``n`` cells (``axes[k]`` on dimension k, C order), and its grid
    model ``mp``: one ``steady.synthetic_points`` call, at the model's bare
    detuning where no effective_detuning axis is swept."""
    cells = dict(zip((axis.name for axis in axes), (v.ravel() for v in np.meshgrid(
        *(np.array(axis.values, dtype=float) for axis in axes), indexing="ij"))))
    t = steady.synthetic_points(
        mp, cells.get("effective_detuning", np.full(n, mp.delta0)),
        G=cells.get("coupling"), eta=cells.get("eta"))
    return t, mp


def _experimental_table(spec: SweepSpec, axes: tuple) -> tuple:
    """The root table of an experimental sweep's grid model, ``axes[k]``
    on dimension k (its C order is the cell order), and the grid model."""
    grid = derive_model(replace(spec.base, **dict(zip(
        (_AXES[a.name].field for a in axes), np.ix_(*(a.values for a in axes))))))
    return steady.root_table(grid), grid


def sweep(spec: SweepSpec) -> SweepResult:
    """Run the pipeline over the grid; row order is axis2-major, then
    axis1, then branch. Deterministic for a given spec.

    Both families give a root table and a grid model, whose fields
    broadcast to the grid and picked at each root's cell give the rows'
    models; ``steady.branch_roots`` picks the roots (all of a theoretical
    table, one per cell, whatever the branch). ``_chain_columns`` runs the covariance chain of the picked roots' live
    rows (the stable, non-degenerate ones), which takes no spectrum below
    the norm bound of the Lyapunov solve. It builds no ``WorkingPoint``;
    an exception of the stacked chain propagates.
    """
    # the scalar derive validates the config's own fields, axes or not
    mp = spec.base if isinstance(spec.base, ModelParams) else derive_model(spec.base)
    validate_spec(spec)
    axes = (spec.axis1,) if spec.axis2 is None else (spec.axis2, spec.axis1)
    shape = tuple(len(axis.values) for axis in axes)
    t, grid = (_theoretical_table(mp, axes, math.prod(shape))
               if axes[0].name in THEORETICAL_AXES
               else _experimental_table(spec, axes))
    roots = steady.branch_roots(t, spec.branch)
    cell = t.model[roots]
    model = [np.full(shape, v, dtype=float).ravel()[cell] for v in vars(grid).values()]
    columns = {}
    for axis, index in zip(axes, np.unravel_index(cell, shape)):
        column, _, rate, _ = _AXES[axis.name]
        values = np.array(axis.values, dtype=float)[index]
        columns[column] = values / mp.omega_m if rate else values
    row = {name: v[roots] for name, v in _point_fields(t, mp).items()}
    row.update(_chain_columns(t.delta[roots], t.G[roots], t.photons[roots], model,
                              row["stable"], t.degenerate[roots]))
    columns.update((name, row[name]) for name in _ROW_COLUMNS)

    meta = {
        "axis1": f"{spec.axis1.name}[{len(spec.axis1.values)}]",
        "branch": spec.branch,
        "kappa_over_wm": repr(mp.kappa / mp.omega_m),
        "gamma_over_wm": repr(mp.gamma_m / mp.omega_m),
        "validity_threshold": repr(quantum.VALIDITY_THRESHOLD),
    }
    if spec.axis2 is not None:
        meta["axis2"] = f"{spec.axis2.name}[{len(spec.axis2.values)}]"
    # a temperature axis sets nbar per row, and its T_K column carries it
    if all(axis.name != "temperature" for axis in axes):
        meta["nbar"] = repr(mp.nbar)
    return SweepResult(columns, meta)


def linear_grid(lo: float, hi: float, n: int) -> tuple[float, ...]:
    if n < 1:
        raise ValidationError(f"grid: need at least one point, got {n}")
    if n == 1:
        return (lo,)
    step = (hi - lo) / (n - 1)
    return tuple(lo + i * step for i in range(n))


def _hysteresis_rows(trace: steady.HysteresisTrace,
                     mp: ModelParams) -> SweepResult:
    t = trace.table
    # the up-sweep is on each power's first root, the down-sweep on its last
    up, down = (np.bincount(steady.branch_roots(t, branch), minlength=len(t.model)) > 0
                for branch in ("lower", "upper"))
    columns = {"P_in_W": np.array(trace.powers)[t.model], **_point_fields(t, mp),
               "on_up_sweep": up, "on_down_sweep": down}
    meta = {
        "switch_up_W": "NaN" if trace.switch_up is None else repr(trace.switch_up),
        "switch_down_W": "NaN" if trace.switch_down is None else repr(trace.switch_down),
        "kappa_over_wm": repr(mp.kappa / mp.omega_m),
    }
    return SweepResult(columns, meta)


def steady_table(physical: PhysicalParams) -> SweepResult:
    """The ``steady`` command's table: every root at the configured power."""
    mp = derive_model(physical)
    t = steady.root_table(mp)
    columns = {"P_in_W": np.full(len(t.model), physical.power, dtype=float),
               **_point_fields(t, mp)}
    return SweepResult(columns, {"kappa_over_wm": repr(mp.kappa / mp.omega_m),
                                 "nbar": repr(mp.nbar)})


def _default_power_grid(mp: ModelParams, omega_L: float, fallback: float,
                        n: int) -> tuple[float, ...]:
    window = bistable_window_estimate(mp, omega_L)
    if window is None:
        return linear_grid(0.1 * fallback, 2.0 * fallback, n)
    p_down, p_up = window
    return linear_grid(0.5 * p_down, 1.15 * p_up, n)


def figure_command(fig_id: str, physical: PhysicalParams, out_dir,
                   grid: int | None = None, version: str = "0",
                   timestamp: str | None = None) -> list[Path]:
    """Emit the CSV data behind one figure panel; returns written paths.

    fig2   hysteresis loop of the intracavity power vs input power
    fig3a  E_N over (eta, effective detuning); fig3b the coupling surface
    fig4   E_N vs input power on both branches
    fig5a  eta over (bare detuning, input power); fig5b the E_N surface
    fig6   the fig4 sweep at bath temperatures 0.4, 5 and 10 K
    """
    if fig_id not in FIGURE_IDS:
        raise ValidationError(
            f"figure: unknown id {fig_id!r}, expected one of {FIGURE_IDS}")
    out_dir = Path(out_dir)
    mp = derive_model(physical)
    omega_L = laser_frequency(physical.wavelength)
    sweep_id = SAME_SWEEP_AS.get(fig_id, fig_id)
    n = grid if grid is not None else \
        {"fig3a": 101, "fig5a": 201}.get(sweep_id, 400)

    if fig_id == "fig2":
        powers = _default_power_grid(mp, omega_L, physical.power, n)
        result = _hysteresis_rows(steady.hysteresis(mp, powers, omega_L), mp)
    else:
        axis2 = None
        if sweep_id == "fig3a":
            axis1 = AxisSpec("eta", linear_grid(1e-3, 1.0, n))
            axis2 = AxisSpec("effective_detuning",
                             linear_grid(0.02 * mp.omega_m, 3.0 * mp.omega_m, n))
            branch = "all"
        elif sweep_id == "fig5a":
            window = bistable_window_estimate(mp, omega_L)
            p_hi = 1.5 * window[1] if window else 2.0 * physical.power
            # built first: it rejects n < 1 before p_hi / n is taken
            axis2 = AxisSpec("bare_detuning",
                             linear_grid(0.5 * mp.omega_m, 4.0 * mp.omega_m, n))
            axis1 = AxisSpec("power", linear_grid(p_hi / n, p_hi, n))
            branch = "lower"
        else:  # fig4, and fig6 adds the temperature axis
            axis1 = AxisSpec("power", _default_power_grid(mp, omega_L,
                                                          physical.power, n))
            if fig_id == "fig6":
                axis2 = AxisSpec("temperature", (0.4, 5.0, 10.0))
            branch = "both"
        result = sweep(SweepSpec(base=physical, axis1=axis1, axis2=axis2,
                                 branch=branch))
    return [write_csv(result, out_dir / f"{fig_id}.csv", version, timestamp)]
