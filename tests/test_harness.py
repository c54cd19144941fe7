import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from optomech_bistab import __version__, dynamics, harness, quantum
from optomech_bistab.dynamics import (
    LYAPUNOV_RESIDUAL_C,
    diffusion_matrix,
    drift_from_rates,
    solve_lyapunov,
    symplectic_eigenvalues,
)
from optomech_bistab.errors import ValidationError
from optomech_bistab.harness import (
    SAME_SWEEP_AS,
    AxisSpec,
    SweepSpec,
    bistable_window_estimate,
    evaluate_point,
    figure_command,
    linear_grid,
    sweep,
    validate_spec,
    write_csv,
)
from optomech_bistab.params import (
    ModelParams,
    default_params,
    derive_model,
    laser_frequency,
)
from optomech_bistab.quantum import asymptotic_coeffs, classify_regime
from optomech_bistab.steady import (
    steady_states,
    working_point_from_coupling,
    working_point_from_eta,
)


def _model(kappa=1.4, delta0=1.0, gamma=1e-5, nbar=0.0):
    return ModelParams(kappa=kappa, G0=1e-5, E=0.0, delta0=delta0,
                       omega_m=1.0, gamma_m=gamma, nbar=nbar)


def _rows(result):
    """The rows of a sweep result, each a dict of column name -> value."""
    return [dict(zip(result.columns, row))
            for row in zip(*(v.tolist() for v in result.columns.values()))]


# --- validation ------------------------------------------------------------------

def test_rejects_unknown_axis(default_model):
    spec = SweepSpec(base=default_model,
                     axis1=AxisSpec("volume", (1.0, 2.0)))
    with pytest.raises(ValidationError, match="unknown name"):
        validate_spec(spec)


def test_rejects_mixed_axis_families(default_model, default_physical):
    spec = SweepSpec(base=default_physical,
                     axis1=AxisSpec("power", (0.01, 0.02)),
                     axis2=AxisSpec("eta", (0.1, 0.2)))
    with pytest.raises(ValidationError, match="mixed"):
        validate_spec(spec)


def test_rejects_experimental_axis_without_physical(default_model):
    spec = SweepSpec(base=default_model,
                     axis1=AxisSpec("power", (0.01, 0.02)))
    with pytest.raises(ValidationError, match="PhysicalParams"):
        validate_spec(spec)


def test_rejects_underdetermined_theoretical_sweep(default_model):
    spec = SweepSpec(base=default_model,
                     axis1=AxisSpec("effective_detuning", (1.0, 2.0)))
    with pytest.raises(ValidationError, match="eta or coupling"):
        validate_spec(spec)


def test_rejects_non_monotone_grid(default_model):
    spec = SweepSpec(base=default_model,
                     axis1=AxisSpec("eta", (0.1, 0.5, 0.3)))
    with pytest.raises(ValidationError, match="monotone"):
        validate_spec(spec)


def test_rejects_out_of_range_axis_values(default_model, default_physical):
    bad = [
        SweepSpec(base=default_model,
                  axis1=AxisSpec("eta", (0.5, 1.5))),
        SweepSpec(base=default_model,
                  axis1=AxisSpec("eta", (0.5,)),
                  axis2=AxisSpec("effective_detuning", (-1.0, 2.0))),
        SweepSpec(base=default_physical,
                  axis1=AxisSpec("power", (-0.01, 0.02))),
        SweepSpec(base=default_physical,
                  axis1=AxisSpec("temperature", (-3.0, 5.0))),
    ]
    for spec in bad:
        with pytest.raises(ValidationError, match="out of range"):
            validate_spec(spec)


def test_rejects_duplicate_axes(default_model):
    spec = SweepSpec(base=default_model,
                     axis1=AxisSpec("eta", (0.1, 0.2)),
                     axis2=AxisSpec("eta", (0.3, 0.4)))
    with pytest.raises(ValidationError, match="distinct"):
        validate_spec(spec)


# --- single-point behaviour ---------------------------------------------------------

def test_single_point_sweep_decoupled(default_model, default_physical):
    spec = SweepSpec(base=default_physical,
                     axis1=AxisSpec("power", (0.0,)), branch="both")
    result = sweep(spec)
    assert len(_rows(result)) == 1
    row = _rows(result)[0]
    assert row["E_N"] == 0.0
    assert row["n_o"] == pytest.approx(0.0, abs=1e-9)
    assert row["status"] == "ok"


def test_evaluate_point_marks_unstable(default_model):
    wp = steady_states(default_model)[1]  # middle branch
    row = evaluate_point(wp, default_model)
    assert row["status"] == "unstable"
    assert math.isnan(row["E_N"]) and math.isnan(row["n_m"])
    assert row["validity_ok"] is None
    assert row["stable"] is False


def test_evaluate_point_reports_validity():
    # strong single-photon coupling: few photons back the same G, so the
    # fluctuation occupancy dwarfs the classical field near the branch end
    mp = ModelParams(kappa=1.4, G0=1.0, E=0.0, delta0=1.0, omega_m=1.0,
                     gamma_m=1e-6, nbar=0.0)
    wp = working_point_from_eta(mp, 1e-4, 1.0)
    row = evaluate_point(wp, mp)
    assert row["status"] == "ok"
    assert row["validity_ok"] is False
    assert row["validity_ratio"] > 1.0


def test_evaluate_point_records_an_overflowing_covariance(default_model):
    # nbar ~ 1e300: the determinants of the covariance overflow
    mp = replace(default_model, nbar=1e300)
    row = evaluate_point(steady_states(mp)[0], mp)
    assert row["status"] == "error:PhysicalityError"
    for name in ("n_m", "n_o", "Sigma", "detV", "E_N", "validity_ratio"):
        assert math.isnan(row[name]), name
    assert row["validity_ok"] is None  # written as NaN
    assert row["stable"] is True and row["branch"] == "lower"


# --- ordering and determinism ---------------------------------------------------------

def test_row_order_axis2_major():
    spec = SweepSpec(base=_model(),
                     axis1=AxisSpec("eta", (0.2, 0.4, 0.6)),
                     axis2=AxisSpec("effective_detuning", (0.8, 1.6)))
    result = sweep(spec)
    pairs = [(row["Delta_target_over_wm"], row["eta_target"])
             for row in _rows(result)]
    assert pairs == [(0.8, 0.2), (0.8, 0.4), (0.8, 0.6),
                     (1.6, 0.2), (1.6, 0.4), (1.6, 0.6)]


def test_csv_bodies_identical_excluding_timestamp(tmp_path):
    spec = SweepSpec(base=_model(),
                     axis1=AxisSpec("eta", (0.1, 0.5, 0.9)),
                     axis2=AxisSpec("effective_detuning", (1.0, 2.0)))
    result = sweep(spec)
    p1 = write_csv(result, tmp_path / "a.csv", __version__, timestamp="T1")
    p2 = write_csv(sweep(spec), tmp_path / "b.csv", __version__, timestamp="T2")
    body1 = p1.read_text().splitlines()[1:]
    body2 = p2.read_text().splitlines()[1:]
    assert body1 == body2
    head = p1.read_text().splitlines()[0]
    assert head.startswith(f"# optomech-bistab v{__version__} ")


def test_csv_null_marker_for_unstable(tmp_path, default_model, default_physical):
    # span the window so the middle branch shows up with branch="all"
    spec = SweepSpec(base=default_physical,
                     axis1=AxisSpec("power", (0.057,)), branch="all")
    result = sweep(spec)
    path = write_csv(result, tmp_path / "rows.csv", __version__)
    lines = path.read_text().splitlines()
    header = lines[[i for i, l in enumerate(lines)
                    if not l.startswith("#")][0]].split(",")
    data = [l.split(",") for l in lines if not l.startswith("#")][1:]
    by_status = {row[header.index("status")]: row for row in data}
    assert "unstable" in by_status
    unstable = by_status["unstable"]
    assert unstable[header.index("E_N")] == "NaN"
    assert unstable[header.index("n_m")] == "NaN"


# --- physics structure ------------------------------------------------------------------

def test_eta_delta_sweep_reproduces_three_bands(default_model):
    """Qualitative band structure of the entanglement surface at
    kappa = 1.4 omega_m: a dead band at low detuning, an interior maximum
    at intermediate detuning, an edge maximum (eta -> 0) at high detuning."""
    mp = _model(kappa=1.4, gamma=1e-6, nbar=0.0)
    etas = tuple(np.geomspace(5e-4, 0.9, 24))
    deltas = (0.05, 0.2, 1.0)  # one detuning per band
    spec = SweepSpec(base=mp,
                     axis1=AxisSpec("eta", etas),
                     axis2=AxisSpec("effective_detuning", deltas))
    result = sweep(spec)

    def ens_at(delta):
        return [r["E_N"] for r in _rows(result)
                if r["Delta_target_over_wm"] == pytest.approx(delta)
                and r["status"] == "ok"]

    # first band: no entanglement anywhere in eta
    dead = ens_at(0.05)
    assert max(dead) == 0.0

    # second band: positive maximum strictly inside (0, 1); zero at the
    # branch end because the limiting value alpha is negative there
    mid = ens_at(0.2)
    idx = int(np.argmax(mid))
    assert 0 < idx < len(mid) - 1
    assert mid[idx] > 0
    assert mid[0] == 0.0
    coeffs_mid = asymptotic_coeffs(0.2, 1.4, 1.0)
    assert coeffs_mid.alpha < 0 < coeffs_mid.beta

    # third band: maximum at the end of the branch
    high = ens_at(1.0)
    assert int(np.argmax(high)) == 0
    assert high[0] > 0
    assert classify_regime(asymptotic_coeffs(1.0, 1.4, 1.0)) == 3


_DEFAULT_MODEL = derive_model(default_params())


def _axis(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=4,
                    unique=True).map(sorted)


def _check_ok_rows_physical(kappa_over_wm, nbar, etas, deltas_over_wm):
    w = _DEFAULT_MODEL.omega_m
    mp = replace(_DEFAULT_MODEL, kappa=kappa_over_wm * w, nbar=nbar)
    deltas = [d * w for d in deltas_over_wm]
    assume(len(set(etas)) == len(etas) and len(set(deltas)) == len(deltas))
    result = sweep(SweepSpec(
        base=mp, axis1=AxisSpec("eta", tuple(etas)),
        axis2=AxisSpec("effective_detuning", tuple(deltas))))
    cells = [(eta, delta) for delta in deltas for eta in etas]
    assert len(_rows(result)) == len(cells)
    D = diffusion_matrix(mp)
    eps = np.finfo(float).eps
    for row, (eta, delta) in zip(_rows(result), cells):
        if row["status"] != "ok":
            continue
        wp = working_point_from_eta(mp, eta, delta)
        A = drift_from_rates(wp.delta, wp.G, mp.kappa, mp.omega_m, mp.gamma_m)
        V = solve_lyapunov(A, D)
        assert row["detV"] == float(np.linalg.det(V))  # the row's covariance
        assert row["E_N"] >= 0.0
        assert symplectic_eigenvalues(V).min() >= 0.5 - 1e-9
        residual = np.abs(A @ V + V @ A.T + D).max()
        bound = LYAPUNOV_RESIDUAL_C * eps * np.abs(A).max() * np.abs(V).max()
        assert residual <= bound


@given(kappa_over_wm=st.floats(0.05, 3.0), nbar=st.floats(0.0, 1e4),
       etas=_axis(1e-3, 1.0), deltas_over_wm=_axis(0.02, 3.0))
# a correct row whose residual is 1.9 times 1e-9 * max|D|, the bound this
# test held rows at eta >= 1e-3 to before it scaled with max|V|
@example(kappa_over_wm=2.875, nbar=0.0, etas=[0.001], deltas_over_wm=[0.02])
@settings(max_examples=60, deadline=None)
def test_every_ok_row_is_physical(kappa_over_wm, nbar, etas, deltas_over_wm):
    _check_ok_rows_physical(kappa_over_wm, nbar, etas, deltas_over_wm)


@given(kappa_over_wm=st.floats(0.05, 3.0), nbar=st.floats(0.0, 1e4),
       log_etas=_axis(-8.0, -5.0), deltas_over_wm=_axis(0.02, 3.0))
@settings(max_examples=60, deadline=None)
def test_every_ok_row_below_eta_1e3_is_physical(kappa_over_wm, nbar, log_etas,
                                                deltas_over_wm):
    # V grows like 1/eta here; the residual bound grows with max|V|
    _check_ok_rows_physical(kappa_over_wm, nbar,
                            [10.0 ** x for x in log_etas], deltas_over_wm)


def test_coupling_surface_decreases_with_detuning(default_model):
    # G ~ sqrt((kappa^2+Delta^2)/Delta) falls with Delta up to Delta = kappa,
    # which covers all three entanglement bands at kappa = 1.4: the coupling
    # ordering across the bands is G(band 1) > G(band 2) > G(band 3)
    mp = _model(kappa=1.4, gamma=1e-6)
    spec = SweepSpec(base=mp,
                     axis1=AxisSpec("eta", (0.2, 0.5, 0.8)),
                     axis2=AxisSpec("effective_detuning",
                                    tuple(np.linspace(0.05, 1.4, 15))))
    result = sweep(spec)
    for eta in (0.2, 0.5, 0.8):
        gs = [r["G_over_wm"] for r in _rows(result)
              if r["eta_target"] == pytest.approx(eta)]
        assert np.all(np.diff(gs) < 0)
        g_band1 = np.interp(0.05, np.linspace(0.05, 1.4, 15), gs)
        g_band2 = np.interp(0.2, np.linspace(0.05, 1.4, 15), gs)
        g_band3 = np.interp(1.0, np.linspace(0.05, 1.4, 15), gs)
        assert g_band1 > g_band2 > g_band3


def _branch_argmax(rows, branch):
    sel = [(r["P_in_W"], r["E_N"]) for r in rows
           if r["branch"] == branch and r["status"] == "ok"
           and not math.isnan(r["E_N"])]
    powers = [p for p, _ in sel]
    ens = [e for _, e in sel]
    return powers, ens


def test_power_sweep_entanglement_peaks_at_branch_ends(
        default_model, default_physical, tmp_path):
    omega_L = laser_frequency(default_physical.wavelength)
    window = bistable_window_estimate(default_model, omega_L)
    assert window is not None
    p_down, p_up = window

    def run(n):
        spec = SweepSpec(base=default_physical,
                         axis1=AxisSpec("power",
                                        linear_grid(0.5 * p_down,
                                                    0.999 * p_up, n)),
                         branch="both")
        return sweep(spec)

    coarse = run(60)
    powers, ens = _branch_argmax(_rows(coarse), "lower")
    # lower branch: E_N grows toward the switch-up point
    idx = int(np.argmax(ens))
    assert idx == len(ens) - 1
    assert ens[idx] > 0.2

    # upper branch: entanglement lives near the switch-down point and is
    # maximal at the end of the branch
    upper = [(r["P_in_W"], r["E_N"]) for r in _rows(coarse)
             if r["branch"] == "upper" and r["status"] == "ok"]
    if upper:
        powers_u = [p for p, _ in upper]
        ens_u = [e for _, e in upper]
        assert int(np.argmin(powers_u)) == int(np.argmax(ens_u))

    # argmax location stable under 4x refinement
    fine = run(240)
    powers_f, ens_f = _branch_argmax(_rows(fine), "lower")
    coarse_cell = powers[1] - powers[0]
    assert abs(powers_f[int(np.argmax(ens_f))] - powers[idx]) <= coarse_cell


# sweep axis -> (CSV column, PhysicalParams field or None for a theoretical
# axis, whether a rate)
_AXIS_COLUMNS = {"power": ("P_in_W", "power", False),
                 "bare_detuning": ("Delta0_over_wm", "delta0", True),
                 "temperature": ("T_K", "temperature", False),
                 "effective_detuning": ("Delta_target_over_wm", None, True),
                 "eta": ("eta_target", None, False),
                 "coupling": ("G_target_over_wm", None, True)}


def _per_cell_columns(spec):
    """The columns of a sweep built one cell at a time. Experimental axes:
    the cell's scalar model, its steady states, the branch pick, one row
    each. Theoretical axes: one ``working_point_from_*`` call and one
    ``evaluate_point`` row per cell, at the base delta0 where no
    effective_detuning axis is swept."""
    omega_m = spec.base.omega_m
    axes = (spec.axis1,) if spec.axis2 is None else (spec.axis2, spec.axis1)
    columns = {}
    for values in product(*(axis.values for axis in axes)):
        cell = {axis.name: value for axis, value in zip(axes, values)}
        if _AXIS_COLUMNS[axes[0].name][1] is None:
            mp = spec.base
            delta = cell.get("effective_detuning", mp.delta0)
            picked = [working_point_from_eta(mp, cell["eta"], delta) if "eta" in cell
                      else working_point_from_coupling(mp, cell["coupling"], delta)]
        else:
            mp = derive_model(replace(spec.base, **{
                _AXIS_COLUMNS[name][1]: value for name, value in cell.items()}))
            points = steady_states(mp)
            picked = {"lower": points[:1], "upper": points[-1:],
                      "both": points[:1] + points[1:][-1:], "all": points}[spec.branch]
        for wp in picked:
            row = {}
            for name, value in cell.items():
                column, _, rate = _AXIS_COLUMNS[name]
                row[column] = value / omega_m if rate else value
            row.update(evaluate_point(wp, mp))
            for name, value in row.items():
                columns.setdefault(name, []).append(value)
    return columns


@pytest.mark.parametrize("case,branch", [
    *(("power x bare_detuning", b) for b in ("lower", "upper", "both", "all")),
    ("power x temperature", "both"),
    ("bare_detuning", "all"),
])
def test_experimental_sweep_equals_per_cell_path(default_model, default_physical,
                                                 case, branch):
    w = default_model.omega_m
    p_down, p_up = bistable_window_estimate(
        default_model, laser_frequency(default_physical.wavelength))
    powers = AxisSpec("power", linear_grid(0.5 * p_down, 1.3 * p_up, 9))
    axis1, axis2 = {
        # Delta0^2 > 3 kappa^2 (bistable) from about 2.42 omega_m on
        "power x bare_detuning": (powers, AxisSpec(
            "bare_detuning", linear_grid(1.5 * w, 3.5 * w, 5))),
        "power x temperature": (powers, AxisSpec("temperature",
                                                 (0.0, 0.4, 5.0))),
        "bare_detuning": (AxisSpec("bare_detuning",
                                   linear_grid(-2.0 * w, 4.0 * w, 13)), None),
    }[case]
    spec = SweepSpec(base=default_physical,
                     axis1=axis1, axis2=axis2, branch=branch)
    expected = _per_cell_columns(spec)
    result = sweep(spec)
    assert set(result.columns) == set(expected)
    assert "ok" in expected["status"]
    for name, values in result.columns.items():
        assert list(map(repr, values.tolist())) == list(map(repr, expected[name])), name


def _assert_sweep_equals_per_cell_path(spec, chunk_rows=None) -> set:
    """Compare every column of ``sweep`` with the per-cell path, at
    ``chunk_rows`` live rows per stacked pass; returns the statuses."""
    expected = _per_cell_columns(spec)
    with pytest.MonkeyPatch.context() as patch:
        if chunk_rows is not None:
            patch.setattr(harness, "_CHUNK_ROWS", chunk_rows)
        result = sweep(spec)
    assert set(result.columns) == set(expected)
    for name, values in result.columns.items():
        assert list(map(repr, values.tolist())) == list(map(repr, expected[name])), name
    return set(expected["status"])


_DEFAULT = default_params()
_W = _DEFAULT.omega_m
# a narrow cavity on nearly undamped mechanics
_NARROW = replace(_DEFAULT, kappa_override=1e-6 * _W, gamma_m=1e-9)

# a sweep for each status the grid path takes from a mask
_STATUS_SWEEPS = {
    # undriven, so uncoupled: the mechanics alone decays at gamma_m / 2,
    # below 1e-8 omega_m, above the round-off of the eigenvalues
    "marginal": SweepSpec(replace(_DEFAULT, gamma_m=0.1),
                          AxisSpec("power", (0.0, 0.01)), branch="all"),
    # a double root at the turning point
    "degenerate": SweepSpec(
        _NARROW, AxisSpec("power", (0.0, 1e-6 / 29)),
        AxisSpec("bare_detuning", linear_grid(-2.0 * _W, 3.0 * _W, 20)[-4:]),
        branch="all"),
    # nbar overflows to inf: the Lyapunov residual is not finite
    "conditioning": SweepSpec(_DEFAULT, AxisSpec("temperature", (1e305, 1e308)),
                              branch="both"),
    # the determinants of the covariance overflow
    "error:PhysicalityError": SweepSpec(
        _DEFAULT, AxisSpec("temperature", (1e300,)), branch="both"),
}


@pytest.mark.parametrize("status", _STATUS_SWEEPS)
def test_grid_path_status_equals_per_cell_path(status):
    assert status in _assert_sweep_equals_per_cell_path(_STATUS_SWEEPS[status])


def test_an_overflowing_covariance_is_a_conditioning_row_on_both_paths():
    # undriven at 1e300 K: the solved V holds inf, the residual is not finite
    spec = SweepSpec(replace(_DEFAULT, kappa_override=1.4 * _W),
                     AxisSpec("power", (0.0,)), AxisSpec("temperature", (0.0, 1e300)),
                     branch="lower")
    assert "conditioning" in _assert_sweep_equals_per_cell_path(spec, chunk_rows=1)


@st.composite
def _experimental_sweeps(draw):
    """A random experimental sweep: power by bare detuning or temperature,
    on a few grid points each, with any branch."""
    base = replace(_DEFAULT, kappa_override=draw(st.sampled_from((1.4, 0.5, 1e-6))) * _W,
                   gamma_m=draw(st.sampled_from((_DEFAULT.gamma_m, 1e-9))))
    window = bistable_window_estimate(derive_model(base),
                                      laser_frequency(base.wavelength))
    p_top = 1.5 * window[1] if window else 2.0 * base.power

    def grid(lo, hi, step):
        ks = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=5, unique=True))
        return tuple(k * step for k in sorted(ks))

    axis1 = AxisSpec("power", grid(0, 40, p_top / 40))
    axis2 = AxisSpec("bare_detuning", grid(-8, 16, _W / 4)) if draw(st.booleans()) \
        else AxisSpec("temperature", tuple(sorted(draw(st.lists(
            st.sampled_from((0.0, 0.4, 10.0, 1e300, 1e308)),
            min_size=1, max_size=3, unique=True)))))
    if draw(st.booleans()):
        axis1, axis2 = axis2, None
    return SweepSpec(base, axis1, axis2, draw(st.sampled_from(("lower", "upper",
                                                               "both", "all"))))


@given(spec=_experimental_sweeps(), chunk_rows=st.sampled_from((1, 2, 3, None)))
@settings(max_examples=40, deadline=None)
def test_random_experimental_sweep_equals_per_cell_path(spec, chunk_rows):
    _assert_sweep_equals_per_cell_path(spec, chunk_rows)


@st.composite
def _theoretical_sweeps(draw):
    """A random theoretical sweep: eta or coupling by effective detuning,
    or either alone at the base delta0, on a few grid points each. Its
    negative etas and large couplings are unstable, gamma_m = 1e-9 makes
    marginal rows, and a bath whose thermal term overflows (nbar = 1e308)
    or nearly does (1e300) makes conditioning and unphysical rows."""
    base = _model(kappa=draw(st.sampled_from((1.4, 0.5, 1e-6))),
                  delta0=draw(st.sampled_from((1.0, 0.3))),
                  gamma=draw(st.sampled_from((1e-5, 1e-9))),
                  nbar=draw(st.sampled_from((0.0, 10.0, 1e300, 1e308))))

    def grid(values):
        return tuple(sorted(draw(st.lists(st.sampled_from(values), min_size=1,
                                          max_size=4, unique=True))))

    axis1 = AxisSpec("eta", grid((-1.0, -1e-3, 0.0, 1e-9, 1e-7, 1e-3, 0.5, 1.0))) \
        if draw(st.booleans()) else \
        AxisSpec("coupling", grid((0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0)))
    axis2 = AxisSpec("effective_detuning", grid((0.02, 0.3, 1.0, 2.5))) \
        if draw(st.booleans()) else None
    return SweepSpec(base, axis1, axis2, branch="all")


@given(spec=_theoretical_sweeps(), chunk_rows=st.sampled_from((1, 2, 3, None)))
@settings(max_examples=40, deadline=None)
def test_random_theoretical_sweep_equals_per_cell_path(spec, chunk_rows):
    _assert_sweep_equals_per_cell_path(spec, chunk_rows)


def test_theoretical_sweeps_reach_every_status_of_the_chain():
    # the statuses the draws of _theoretical_sweeps reach, on fixed sweeps
    statuses = set()
    for kappa, gamma, nbar in ((1.4, 1e-9, 0.0), (1e-6, 1e-5, 1e300), (1.4, 1e-5, 1e308)):
        spec = SweepSpec(_model(kappa=kappa, gamma=gamma, nbar=nbar),
                         AxisSpec("eta", (-1.0, 1e-9, 0.5)),
                         AxisSpec("effective_detuning", (0.02, 0.3, 1.0, 2.5)))
        statuses |= _assert_sweep_equals_per_cell_path(spec, chunk_rows=2)
    assert statuses == {"ok", "unstable", "marginal", "conditioning",
                        "error:PhysicalityError"}


def test_an_overflowing_thermal_term_is_a_conditioning_row_on_both_paths():
    # nbar ~ 2e305 at 1e302 K: gamma_m * (2 nbar + 1) overflows to inf
    spec = SweepSpec(_DEFAULT, AxisSpec("temperature", (1e302,)), branch="lower")
    assert _assert_sweep_equals_per_cell_path(spec) == {"conditioning"}


@pytest.mark.parametrize("axis1,deltas", [
    # the coupling backed out of eta overflows at the subnormal detuning
    (AxisSpec("eta", (0.25, 0.5)), (1e-320, 1e300)),
    # the detuning's square overflows
    (AxisSpec("eta", (0.25, 0.5)), (1e300, 1e-320)),
    # the photon number of the second coupling overflows
    (AxisSpec("coupling", (0.5, 1e200)), (1.0, 2.0)),
])
def test_an_overflowing_cell_raises_the_message_of_its_scalar_call(axis1, deltas):
    mp = _model()
    spec = SweepSpec(mp, axis1, AxisSpec("effective_detuning", deltas))
    scalar = working_point_from_eta if axis1.name == "eta" else working_point_from_coupling
    # the first offending cell in row order, which is axis2-major
    for delta, value in product(deltas, axis1.values):
        try:
            scalar(mp, value, delta)
        except ValidationError as exc:
            message = str(exc)
            break
    with pytest.raises(ValidationError) as raised:
        sweep(spec)
    assert str(raised.value) == message


# nine live rows: three chunks (4, 4, 1) at chunk_rows=4
_CHUNKED = SweepSpec(_DEFAULT, AxisSpec("power", linear_grid(0.0, 0.1, 7)),
                     AxisSpec("bare_detuning", (2.0 * _W, 3.0 * _W)), branch="both")


def _chunked_rows():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_CHUNK_ROWS", 4)
        return _rows(sweep(_CHUNKED))


def _refuse_spectra(monkeypatch) -> list:
    """Make every eigenvalue call and ``decay_rate`` raise, and return the
    list that records the row count of each ``quantum.covariance_rows``
    call."""
    covariance_rows, calls = quantum.covariance_rows, []

    def recording(delta, *args):
        calls.append(len(delta))
        return covariance_rows(delta, *args)

    def refused(*args):
        raise AssertionError("a spectrum below the norm bound")

    monkeypatch.setattr(np.linalg, "eigvals", refused)
    monkeypatch.setattr(dynamics, "decay_rate", refused)
    monkeypatch.setattr(quantum, "covariance_rows", recording)
    return calls


def test_an_experimental_sweep_solves_its_live_rows_without_a_spectrum(monkeypatch):
    # the roots' and the marginal verdicts are Hurwitz, and every drift
    # matrix is below the norm bound: the chain takes the live rows, in
    # one chunk, and no spectrum, as does the one-row reference
    calls = _refuse_spectra(monkeypatch)
    columns = sweep(_CHUNKED).columns
    live = sum(s and b != "degenerate" for s, b in zip(columns["stable"],
                                                       columns["status"]))
    assert "ok" in columns["status"] and live < len(columns["status"]) <= harness._CHUNK_ROWS
    assert calls == [live]
    assert "ok" in _assert_sweep_equals_per_cell_path(_CHUNKED)


def test_a_theoretical_sweep_solves_one_stack_per_chunk_without_a_spectrum(monkeypatch):
    # nine cells, six of them Hurwitz-stable: two chunks (4, 2) of live
    # rows at chunk_rows=4, none of them taking a spectrum
    def refused(*args):
        raise AssertionError("called on a theoretical sweep")

    calls = _refuse_spectra(monkeypatch)
    monkeypatch.setattr(harness, "evaluate_point", refused)
    monkeypatch.setattr(harness, "_CHUNK_ROWS", 4)
    columns = sweep(SweepSpec(_model(), AxisSpec("eta", (-0.5, 0.25, 0.5)),
                              AxisSpec("effective_detuning", (0.5, 1.0, 2.0)))).columns
    assert {"ok", "unstable"} <= set(columns["status"])
    assert columns["stable"].sum() == 6
    assert calls == [4, 2]


def test_rows_above_the_norm_bound_read_alike_on_both_paths():
    # the drift matrices at Delta >= 1.7e8 omega_m keep the solve's
    # eigenvalue tests, which make them conditioning on either path
    spec = SweepSpec(_DEFAULT_MODEL, AxisSpec("coupling", linear_grid(0.0, _W, 4)),
                     AxisSpec("effective_detuning", linear_grid(1e3 * _W, 1e9 * _W, 7)))
    assert _assert_sweep_equals_per_cell_path(spec) == {"ok", "conditioning"}


# rows whose marginal verdict eigenvalue round-off at a large spectral
# radius once put on the wrong side of 1e-8 omega_m: (kappa, gamma_m, G,
# Delta) in units of omega_m and the status, with the true decay rate over
# 1e-8 omega_m from 60-digit roots of the characteristic quartic
_SPECTRAL_ROUND_OFF_ROWS = [
    ((1e-6, 1e-5, 1e-3, 1e10), "conditioning"),  # decay 100, was marginal
    ((1e5, 1e-12, 1.0, 1e10), "marginal"),  # 5e-5, was conditioning
    ((1e9, 1e-12, 1.0, 1e3), "marginal"),  # 5e-5, was conditioning
    ((1e9, 1e-12, 1.0, 1e10), "marginal"),  # 5e-5, was conditioning
    # 1.000003, was marginal; the Hurwitz verdict flips at 1 + 2.9e-6
    ((1e3, 1e-2, 1e4, 1e8), "conditioning"),
]


@pytest.mark.parametrize("rates,status", _SPECTRAL_ROUND_OFF_ROWS,
                         ids=[str(r[0]) for r in _SPECTRAL_ROUND_OFF_ROWS])
def test_the_marginal_verdict_is_exact_at_a_large_spectral_radius(rates, status):
    kappa, gamma, G, delta = rates
    mp = replace(_DEFAULT_MODEL, kappa=kappa * _W, gamma_m=gamma * _W)
    spec = SweepSpec(mp, AxisSpec("coupling", (G * _W,)),
                     AxisSpec("effective_detuning", (delta * _W,)))
    assert _assert_sweep_equals_per_cell_path(spec) == {status}


def test_undriven_rows_of_nearly_undamped_mechanics_are_marginal():
    # gamma_m / 2 = 5e-10 is below the round-off of the eigenvalues, whose
    # sign once made these rows unstable: the Hurwitz verdict is exact
    columns = sweep(_STATUS_SWEEPS["degenerate"]).columns
    undriven = [s for p, s in zip(columns["P_in_W"], columns["status"]) if p == 0.0]
    assert undriven == ["marginal"] * 4
    assert all(s for p, s in zip(columns["P_in_W"], columns["stable"]) if p == 0.0)


def test_uncoupled_rows_of_nearly_undamped_mechanics_read_alike_on_both_families():
    # at G = 0 the mechanics alone decays at gamma_m / 2 = 5e-10 rad/s,
    # below the round-off of the eigenvalues: the Hurwitz verdict calls
    # every row stable, and the decay test marginal, on either family
    deltas = linear_grid(0.02 * _W, 3.0 * _W, 60)
    theoretical = sweep(SweepSpec(_NARROW, AxisSpec("coupling", (0.0,)),
                                  AxisSpec("effective_detuning", deltas))).columns
    undriven = sweep(SweepSpec(_NARROW, AxisSpec("power", (0.0,)),
                               AxisSpec("bare_detuning", deltas), branch="all")).columns
    for columns in (theoretical, undriven):
        assert columns["status"].tolist() == ["marginal"] * 60
        assert columns["stable"].tolist() == [True] * 60


def test_a_singular_system_changes_only_its_own_row(monkeypatch):
    solve, stacks = np.linalg.solve, []

    def recording(M, b):
        if M.ndim == 3:
            stacks.append(M.copy())
        return solve(M, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    before = _chunked_rows()
    assert len(stacks) > 1 and len(stacks[1]) > 1
    target = stacks[1][1]  # a system of the second chunk

    def singular_target(M, b):
        if any(np.array_equal(m, target) for m in M.reshape(-1, 10, 10)):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(M, b)

    monkeypatch.setattr(np.linalg, "solve", singular_target)
    assert "conditioning" in _assert_sweep_equals_per_cell_path(_CHUNKED, chunk_rows=4)
    after = _chunked_rows()
    changed = [k for k, (a, b) in enumerate(zip(before, after)) if repr(a) != repr(b)]
    assert len(before) == len(after) and len(changed) == 1
    assert before[changed[0]]["status"] == "ok"
    assert after[changed[0]]["status"] == "conditioning"
    assert math.isnan(after[changed[0]]["E_N"])


def test_an_all_singular_solve_gives_conditioning_rows_on_both_paths(monkeypatch):
    def singular(M, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    statuses = _assert_sweep_equals_per_cell_path(_CHUNKED)
    assert "conditioning" in statuses
    assert not any(status.startswith("error") or status == "ok" for status in statuses)


def test_a_raising_covariance_chain_raises_out_of_an_experimental_sweep(monkeypatch):
    def broken(*args):
        raise RuntimeError("broken covariance chain")

    monkeypatch.setattr(quantum, "covariance_rows", broken)
    with pytest.raises(RuntimeError, match="broken covariance chain"):
        sweep(_CHUNKED)


def test_a_raising_covariance_chain_raises_out_of_a_theoretical_sweep(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken log negativity")

    monkeypatch.setattr(quantum, "log_negativity", broken)
    spec = SweepSpec(base=_model(), axis1=AxisSpec("eta", (0.25, 0.5)),
                     axis2=AxisSpec("effective_detuning", (0.5, 1.0)))
    with pytest.raises(RuntimeError, match="broken log negativity"):
        sweep(spec)


def test_sweep_meta_and_rate_columns_come_from_its_model(default_physical):
    # omega_m doubled and kappa tripled: kappa/omega_m = 1.4 * 3 / 2 = 2.1
    base = replace(default_physical, omega_m=2.0 * default_physical.omega_m,
                   kappa_override=3.0 * default_physical.kappa_override)
    mp = derive_model(base)
    w = mp.omega_m
    result = sweep(SweepSpec(base=base, axis1=AxisSpec("power", (0.01, 0.05)),
                             axis2=AxisSpec("bare_detuning", (2.0 * w, 3.0 * w)),
                             branch="lower"))
    assert result.meta["kappa_over_wm"] == repr(mp.kappa / mp.omega_m)
    assert mp.kappa / mp.omega_m == pytest.approx(2.1)
    assert result.meta["nbar"] == repr(mp.nbar)
    assert result.columns["Delta0_over_wm"] == pytest.approx([2.0, 2.0, 3.0, 3.0])


def test_experimental_sweep_derives_once(tmp_path, default_physical,
                                         monkeypatch):
    calls = []

    def counted(physical):
        calls.append(physical)
        return derive_model(physical)

    monkeypatch.setattr(harness, "derive_model", counted)
    counts = []
    for grid in (4, 8):
        calls.clear()
        figure_command("fig5a", default_physical, tmp_path, grid=grid,
                       timestamp="T")
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_figure2_sweeps_differ_only_in_window(tmp_path, default_physical):
    paths = figure_command("fig2", default_physical, tmp_path, grid=80,
                           version=__version__, timestamp="T")
    lines = paths[0].read_text().splitlines()
    switch = {}
    for line in lines:
        if line.startswith("# switch_"):
            key, _, value = line[2:].partition("=")
            switch[key] = float(value)
    header = next(l for l in lines if l.startswith("P_in_W")).split(",")
    p_idx = header.index("P_in_W")
    up_idx = header.index("on_up_sweep")
    dn_idx = header.index("on_down_sweep")
    for line in lines:
        if line.startswith("#") or line.startswith("P_in_W"):
            continue
        cells = line.split(",")
        power = float(cells[p_idx])
        inside = switch["switch_down_W"] < power < switch["switch_up_W"]
        if not inside:
            assert cells[up_idx] == cells[dn_idx]


def test_figure3_files(tmp_path, default_physical):
    for fig_id in ("fig3a", "fig3b"):
        paths = figure_command(fig_id, default_physical, tmp_path, grid=7,
                               version=__version__, timestamp="T")
        text = paths[0].read_text()
        assert "eta_target" in text and "Delta_target_over_wm" in text
        assert len(text.splitlines()) > 49


def test_figure5_grid_shape(tmp_path, default_physical):
    paths = figure_command("fig5a", default_physical, tmp_path, grid=5,
                           version=__version__, timestamp="T")
    lines = [l for l in paths[0].read_text().splitlines()
             if not l.startswith("#")]
    assert len(lines) - 1 == 25  # 5x5 grid, lower branch only


def test_figure6_entanglement_support_shrinks(tmp_path, default_physical):
    mp = derive_model(default_physical)
    omega_L = laser_frequency(default_physical.wavelength)
    p_down, p_up = bistable_window_estimate(mp, omega_L)

    paths = figure_command("fig6", default_physical, tmp_path, grid=120,
                           version=__version__, timestamp="T")
    lines = [l for l in paths[0].read_text().splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    t_idx = header.index("T_K")
    p_idx = header.index("P_in_W")
    b_idx = header.index("branch")
    e_idx = header.index("E_N")
    support = {}
    cell = (1.15 * p_up - 0.5 * p_down) / 119
    for line in lines[1:]:
        cells = line.split(",")
        power = float(cells[p_idx])
        # the lower branch exists only up to the switch-up power; past it
        # the single remaining root continues the upper branch
        if cells[b_idx] != "lower" or power > p_up or cells[e_idx] == "NaN":
            continue
        if float(cells[e_idx]) > 0:
            t = float(cells[t_idx])
            lo, hi = support.get(t, (math.inf, -math.inf))
            support[t] = (min(lo, power), max(hi, power))
    widths = [support[t][1] - support[t][0] for t in (0.4, 5.0, 10.0)]
    assert widths[0] > widths[1] > widths[2] > 0
    # the surviving intervals all cling to the end of the branch
    for t in (0.4, 5.0, 10.0):
        assert support[t][1] >= p_up - 2 * cell
    starts = [support[t][0] for t in (0.4, 5.0, 10.0)]
    assert starts[0] < starts[1] < starts[2]


def _csv(path):
    """(meta lines, header, rows) of a CSV written by write_csv."""
    lines = path.read_text().splitlines()
    meta = [l for l in lines[1:] if l.startswith("#")]
    body = [l.split(",") for l in lines if not l.startswith("#")]
    return meta, body[0], body[1:]


def test_figure6_is_figure4_at_three_temperatures(tmp_path, default_physical):
    fig4, fig6 = (figure_command(fig_id, default_physical, tmp_path, grid=12,
                                 version=__version__, timestamp="T")[0]
                  for fig_id in ("fig4", "fig6"))
    _, header4, rows4 = _csv(fig4)
    _, header6, rows6 = _csv(fig6)
    t_idx = header6.index("T_K")
    assert header6[:t_idx] + header6[t_idx + 1:] == header4
    assert len(rows6) == 3 * len(rows4) > 0
    at_04 = [row[:t_idx] + row[t_idx + 1:] for row in rows6
             if row[t_idx] == "0.4"]
    assert at_04 == rows4


def test_temperature_sweep_writes_no_nbar(tmp_path, default_physical):
    # one nbar line would be wrong for every row off the base temperature
    fig6 = figure_command("fig6", default_physical, tmp_path, grid=3,
                          version=__version__, timestamp="T")[0]
    assert not any(l.startswith("# nbar=") for l in _csv(fig6)[0])
    fig4 = figure_command("fig4", default_physical, tmp_path, grid=3,
                          version=__version__, timestamp="T")[0]
    assert f"# nbar={derive_model(default_physical).nbar!r}" in _csv(fig4)[0]


@pytest.mark.parametrize("fig_id", sorted(SAME_SWEEP_AS))
def test_paired_panels_write_identical_bodies(tmp_path, default_physical,
                                              fig_id):
    first, second = (
        figure_command(panel, default_physical, tmp_path, grid=5,
                       version=__version__)[0].read_text().splitlines()[1:]
        for panel in (SAME_SWEEP_AS[fig_id], fig_id))
    assert first == second


def test_figure_unknown_id(tmp_path, default_physical):
    with pytest.raises(ValidationError, match="unknown id"):
        figure_command("fig9", default_physical, tmp_path)


def test_linear_grid_endpoints():
    grid = linear_grid(1.0, 3.0, 5)
    assert grid == (1.0, 1.5, 2.0, 2.5, 3.0)
    assert linear_grid(2.0, 9.0, 1) == (2.0,)
    with pytest.raises(ValidationError):
        linear_grid(0.0, 1.0, 0)


# columns that are not float64: their dtype, whatever the sweep family
_WORD_COLUMNS = {"stable": np.dtype(bool), "on_up_sweep": np.dtype(bool),
                 "on_down_sweep": np.dtype(bool), "status": np.dtype(object),
                 "validity_ok": np.dtype(object)}


def test_every_column_is_a_1d_array(tmp_path, monkeypatch, default_physical):
    results = {
        "theoretical": sweep(SweepSpec(
            base=_model(), axis1=AxisSpec("eta", (1e-4, 0.5, 1.0)),
            axis2=AxisSpec("effective_detuning", (0.8, 1.6)), branch="all")),
        "theoretical, every row ok": sweep(SweepSpec(
            base=_model(), axis1=AxisSpec("eta", (0.25, 0.5)),
            axis2=AxisSpec("effective_detuning", (0.8, 1.6)))),
        "experimental": sweep(_CHUNKED),
        "steady": harness.steady_table(default_physical),
    }
    monkeypatch.setattr(harness, "write_csv",
                        lambda result, *args: results.setdefault("fig2", result))
    figure_command("fig2", default_physical, tmp_path, grid=20)
    assert set(results["theoretical, every row ok"].columns["status"]) == {"ok"}
    for family, result in results.items():
        for name, values in result.columns.items():
            where = f"{family}: {name}"
            assert type(values) is np.ndarray and values.ndim == 1, where
            if name == "branch":
                assert values.dtype.kind == "U", where
            else:
                assert values.dtype == _WORD_COLUMNS.get(name, np.float64), where
            if name == "status":
                assert all(type(v) is str for v in values), where
            if name == "validity_ok":
                assert set(values.tolist()) <= {True, False, None}, where
    assert {"P_in_W", "on_up_sweep"} <= set(results["fig2"].columns)
