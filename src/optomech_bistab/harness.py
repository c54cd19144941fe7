"""Parameter sweeps, figure reproduction and CSV emission.

Two families of sweep axes are supported. Experimental axes (power,
bare_detuning, temperature) derive the whole grid's models in one call
and solve their steady-state cubics in one pass. Theoretical axes
(effective_detuning, eta, coupling) prescribe the linearization inputs
directly, inverting the bistability parameter for the coupling when eta
is swept; they cannot be mixed with experimental axes in one sweep.

Per-row failures (instability, marginal decay, ill conditioning) are
recorded in the ``status`` column and never abort a sweep.
"""

from __future__ import annotations

import datetime
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import product, tee
from pathlib import Path

import numpy as np

from . import dynamics, quantum, steady
from .errors import IllConditionedError, ValidationError
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

# covariance-derived fields, NaN on rows that get no covariance
_COVARIANCE_COLUMNS = ("n_m", "n_o", "Sigma", "detV", "E_N", "validity_ratio",
                       "validity_ok")

# sweep CSV columns after the axis columns
_ROW_COLUMNS = ("branch", "q_s", "photons", "eta", "n_m", "n_o", "E_N",
                "Sigma", "detV", "G_over_wm", "Delta_over_wm", "validity_ok",
                "validity_ratio", "stable", "status")

FIGURE_IDS = ("fig2", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6")

# panel -> the panel that runs the identical sweep (byte-identical CSV body)
SAME_SWEEP_AS = {"fig3b": "fig3a", "fig5b": "fig5a"}

STATUS_OK = "ok"
STATUS_UNSTABLE = "unstable"
STATUS_MARGINAL = "marginal"
STATUS_CONDITIONING = "conditioning"
STATUS_DEGENERATE = "degenerate"
STATUS_ERROR = "error"


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
    list of its values, one per row; ``meta`` holds the ``#`` lines."""

    columns: dict[str, list]
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


def _point_fields(wp, mp: ModelParams) -> dict:
    """The steady-state fields of a CSV row, rates in units of omega_m; of
    a WorkingPoint, or as columns over all roots of a ``RootTable``."""
    return dict(zip(_POINT_COLUMNS, (
        wp.branch, wp.q_s, wp.photons, wp.delta / mp.omega_m,
        wp.G / mp.omega_m, wp.eta, wp.stable)))


def _root_columns(powers, t: steady.RootTable, mp: ModelParams) -> dict:
    """P_in_W (``powers`` per model) and ``_point_fields`` of every root."""
    return {"P_in_W": np.array(powers)[t.model].tolist(),
            **{name: v.tolist() if isinstance(v, np.ndarray) else v
               for name, v in _point_fields(t, mp).items()}}


def evaluate_point(wp: steady.WorkingPoint, mp: ModelParams) -> dict:
    """One pipeline row: steady-state point -> covariance -> observables.

    Unstable, marginal, degenerate, ill-conditioned and failed points keep
    their steady-state fields but carry no covariance-derived values; any
    other exception of the covariance chain is an ``error:<Type>`` status.
    """
    row = {**_point_fields(wp, mp), **dict.fromkeys(_COVARIANCE_COLUMNS)}
    if wp.degenerate:
        row["status"] = STATUS_DEGENERATE
        return row
    if not wp.stable:
        row["status"] = STATUS_UNSTABLE
        return row
    try:
        A = dynamics.drift_from_rates(wp.delta, wp.G, mp.kappa, mp.omega_m,
                                      mp.gamma_m)
        if dynamics.decay_rate(A) < dynamics.MARGINAL_DECAY_FRACTION * mp.omega_m:
            row["status"] = STATUS_MARGINAL
            return row
        V = dynamics.solve_lyapunov(A, dynamics.diffusion_matrix(mp))
        report = quantum.log_negativity(V, photons=wp.photons)
    except IllConditionedError:
        row["status"] = STATUS_CONDITIONING
        return row
    except Exception as exc:  # failures are data, not aborts
        row["status"] = f"{STATUS_ERROR}:{type(exc).__name__}"
        return row
    row.update({
        "n_m": report.n_m,
        "n_o": report.n_o,
        "Sigma": report.sigma,
        "detV": report.det_v,
        "E_N": report.e_n,
        "validity_ratio": report.validity_ratio,
        "validity_ok": report.validity_ok,
        "status": STATUS_OK,
    })
    return row


def _select_branch(points: list[steady.WorkingPoint],
                   branch: str) -> list[steady.WorkingPoint]:
    if branch == "all":
        return list(points)
    if branch == "lower":
        return [points[0]]
    if branch == "upper":
        return [points[-1]]
    if len(points) == 1:
        return [points[0]]
    return [points[0], points[-1]]


def _synthetic_point(mp: ModelParams,
                     values: dict[str, float]) -> steady.WorkingPoint:
    delta = values.get("effective_detuning", mp.delta0)
    if "eta" in values:
        return steady.working_point_from_eta(mp, values["eta"], delta)
    return steady.working_point_from_coupling(mp, values["coupling"], delta)


def _cell_points(spec: SweepSpec, mp: ModelParams, axes: tuple, cells: list
                 ) -> list[tuple[ModelParams, list[steady.WorkingPoint]]]:
    """Per cell, its model and the working points it emits rows for.

    Theoretical axes prescribe one synthetic point of ``mp`` per cell.
    Experimental axes derive one grid model, ``axes[k]`` on dimension k (its
    C order is the cell order), and solve it in one ``steady_states_grid`` call.
    """
    if axes[0].name in THEORETICAL_AXES:
        return [(mp, [_synthetic_point(mp, values)]) for values in cells]
    grid = derive_model(replace(spec.base, **dict(zip(
        (_AXES[a.name].field for a in axes), np.ix_(*(a.values for a in axes))))))
    models = [ModelParams(*cell) for cell in zip(*(
        a.ravel().tolist() for a in np.broadcast_arrays(*vars(grid).values())))]
    return [(mp, _select_branch(points, spec.branch))
            for mp, points in zip(models, steady.steady_states_grid(grid))]


def sweep(spec: SweepSpec) -> SweepResult:
    """Run the pipeline over the grid; row order is axis2-major, then
    axis1, then branch. Deterministic for a given spec."""
    mp = spec.base if isinstance(spec.base, ModelParams) else derive_model(spec.base)
    validate_spec(spec)
    axes = (spec.axis1,) if spec.axis2 is None else (spec.axis2, spec.axis1)
    names = [axis.name for axis in axes]
    cells = [dict(zip(names, values))
             for values in product(*(axis.values for axis in axes))]
    columns = {column: [] for column in
               (*(_AXES[name].column for name in names), *_ROW_COLUMNS)}

    for values, (cell, selected) in zip(cells, _cell_points(spec, mp, axes, cells)):
        for wp in selected:
            row = evaluate_point(wp, cell)
            for name, value in values.items():
                column, _, rate, _ = _AXES[name]
                columns[column].append(value / mp.omega_m if rate else value)
            for name in _ROW_COLUMNS:
                columns[name].append(row[name])

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
    if "temperature" not in cells[0]:
        meta["nbar"] = repr(mp.nbar)
    return SweepResult(columns, meta)


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
    # a model's roots are contiguous: the up-sweep is on its first root,
    # the down-sweep on its last
    end, index = np.cumsum(t.count)[t.model], np.arange(len(t.model))
    columns = {**_root_columns(trace.powers, t, mp),
               "on_up_sweep": (index == end - t.count[t.model]).tolist(),
               "on_down_sweep": (index == end - 1).tolist()}
    meta = {
        "switch_up_W": "NaN" if trace.switch_up is None else repr(trace.switch_up),
        "switch_down_W": "NaN" if trace.switch_down is None else repr(trace.switch_down),
        "kappa_over_wm": repr(mp.kappa / mp.omega_m),
    }
    return SweepResult(columns, meta)


def steady_table(physical: PhysicalParams) -> SweepResult:
    """The ``steady`` command's table: every root at the configured power."""
    mp = derive_model(physical)
    columns = _root_columns([physical.power], steady._solve_grid(mp), mp)
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
