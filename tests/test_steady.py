import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import hbar as HBAR

from optomech_bistab import dynamics
from optomech_bistab.errors import ValidationError
from optomech_bistab.params import (
    ModelParams,
    cubic_overflows,
    default_params,
    derive_model,
    drive_amplitude,
    laser_frequency,
)
from optomech_bistab.steady import (
    WorkingPoint,
    _cbrt,
    _cubic_roots,
    _pow3,
    _working_points,
    bistability_parameter,
    bistable_window_estimate,
    hysteresis,
    root_table,
    steady_states,
    synthetic_points,
    working_point_from_coupling,
    working_point_from_eta,
)

TWO_PI = 2.0 * math.pi


def _cubic_coeffs(mp):
    return (mp.omega_m * mp.G0 ** 2,
            -2.0 * mp.omega_m * mp.G0 * mp.delta0,
            mp.omega_m * (mp.kappa ** 2 + mp.delta0 ** 2),
            -mp.G0 * mp.E ** 2)


def dense_scan_roots(mp, n=1_000_000):
    """Independent root localization: sign changes of the cubic on a fine
    displacement grid covering all physically reachable q."""
    q_max = 1.2 * mp.G0 * mp.E ** 2 / (mp.omega_m * mp.kappa ** 2)
    q = np.linspace(0.0, q_max, n)
    c3, c2, c1, c0 = _cubic_coeffs(mp)
    f = ((c3 * q + c2) * q + c1) * q + c0
    idx = np.nonzero(np.diff(np.sign(f)) != 0)[0]
    return 0.5 * (q[idx] + q[idx + 1])


# --- trivial structure ----------------------------------------------------

def test_decoupled_cavity_single_root(reference_model):
    mp = replace(reference_model, G0=0.0)
    pts = steady_states(mp)
    assert len(pts) == 1
    wp = pts[0]
    assert wp.q_s == 0.0
    assert wp.branch == "lower"
    expected = abs(mp.E / complex(mp.kappa, mp.delta0)) ** 2
    assert wp.photons == pytest.approx(expected, rel=1e-14)
    assert wp.G == 0.0
    assert wp.eta == 1.0


def test_undriven_cavity_single_root(reference_model):
    mp = replace(reference_model, E=0.0)
    pts = steady_states(mp)
    assert len(pts) == 1
    wp = pts[0]
    assert wp.q_s == 0.0
    assert wp.branch == "lower"
    assert wp.photons == 0.0
    assert wp.delta == mp.delta0
    assert wp.eta == 1.0


# --- bistable structure against the dense-scan oracle ----------------------

def test_three_roots_inside_window(default_model):
    pts = steady_states(default_model)
    assert [wp.branch for wp in pts] == ["lower", "middle", "upper"]

    oracle = dense_scan_roots(default_model)
    assert len(oracle) == 3
    for wp, q_ref in zip(pts, oracle):
        assert wp.q_s == pytest.approx(q_ref, rel=1e-4)

    mp = default_model
    assert [dynamics.is_stable_rh(wp.delta, wp.G, mp.kappa, mp.omega_m, mp.gamma_m)
            for wp in pts] == [True, False, True]


def test_root_residual_contract(default_model):
    c = _cubic_coeffs(default_model)
    scale = max(abs(x) for x in c)
    for wp in steady_states(default_model):
        q = wp.q_s
        res = ((c[0] * q + c[1]) * q + c[2]) * q + c[3]
        assert abs(res) <= 1e-9 * scale


def test_working_point_self_consistency(default_model):
    mp = default_model
    for wp in steady_states(mp):
        assert wp.photons * (mp.kappa ** 2 + wp.delta ** 2) == \
            pytest.approx(mp.E ** 2, rel=1e-9)
        assert wp.q_s == pytest.approx(mp.G0 * wp.photons / mp.omega_m,
                                       rel=1e-9)
        assert wp.delta == pytest.approx(mp.delta0 - mp.G0 * wp.q_s, rel=1e-12)


def test_eta_sign_matches_routh_hurwitz(default_physical, rng):
    for _ in range(60):
        power = float(rng.uniform(1e-4, 0.12))
        mp = derive_model(replace(default_physical, power=power))
        for wp in steady_states(mp):
            if wp.delta <= 0:
                continue
            verdict = dynamics.is_stable_rh(wp.delta, wp.G, mp.kappa,
                                            mp.omega_m, mp.gamma_m)
            assert (wp.eta > 0) == verdict


# --- cubic solver against numpy -------------------------------------------

@given(b=st.floats(-5, 5), c=st.floats(-5, 5), d=st.floats(-5, 5))
@settings(max_examples=200, deadline=None)
def test_cubic_roots_match_numpy(b, c, d):
    from hypothesis import assume

    # discriminant of the depressed form t^3 + p*t + q
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    disc = -4.0 * p ** 3 - 27.0 * q * q
    scale = max(abs(4.0 * p ** 3), 27.0 * q * q, 1e-300)
    assume(abs(disc) > 1e-8 * scale)  # root separation is unambiguous
    (roots,), (count,), (degenerate,) = _cubic_roots(*np.array([[1.0], [b], [c], [d]]))
    assert not degenerate
    np_roots = np.roots([1.0, b, c, d])
    np_real = np.sort(np_roots[np.abs(np_roots.imag)
                               <= 1e-8 * np.abs(np_roots)].real)
    assert count == len(np_real)
    for mine, ref in zip(roots, np_real):
        assert mine == pytest.approx(ref, rel=1e-6, abs=1e-9)


def test_cubic_triple_root():
    # (x - 2)^3 = x^3 - 6x^2 + 12x - 8
    (roots,), (count,), (degenerate,) = _cubic_roots(
        *np.array([[1.0], [-6.0], [12.0], [-8.0]]))
    assert degenerate
    assert roots[:count] == pytest.approx([2.0], abs=1e-9)


def test_cubic_double_root():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2
    (roots,), (count,), (degenerate,) = _cubic_roots(
        *np.array([[1.0], [0.0], [-3.0], [2.0]]))
    assert degenerate
    assert roots[:count] == pytest.approx([-2.0, 1.0], abs=1e-9)


# the largest float whose cube is finite: cubic_overflows lets through a
# cubic whose coefficient (kappa^2 + delta0^2)/G0^2 is below it, and
# _cubic_roots cubes no larger value
_CUBE_MAX = 5.643803094122361e+102

# signed zeros, the smallest and largest subnormals, the smallest normal
_TINY_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                -2.225073858507201e-308, 2.2250738585072014e-308, -1e-310]


def _bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


def test_cube_max_is_the_edge_of_cubic_overflows():
    assert math.isfinite(_CUBE_MAX ** 3)
    with pytest.raises(OverflowError):
        math.nextafter(_CUBE_MAX, math.inf) ** 3
    below, above = (math.sqrt(f * _CUBE_MAX) for f in (0.5, 2.0))
    coupling, _ = cubic_overflows([below, above], 1.0, 1.0, 0.0, 1.0)
    assert coupling.tolist() == [False, True]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-_CUBE_MAX, _CUBE_MAX, allow_subnormal=True),
                max_size=12))
@example(_TINY_FLOATS + [_CUBE_MAX, -_CUBE_MAX, 1.0, -1.0, 3.0, -0.5])
@example([])
def test_pow3_is_the_per_element_power(values):
    assert _bits(_pow3(np.array(values, dtype=float))) \
        == _bits([v ** 3 for v in values])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          allow_subnormal=True), max_size=12))
@example(_TINY_FLOATS + [1.7976931348623157e308, -1.7976931348623157e308,
                         8.0, -8.0, -27.0, 1e-300])
@example([])
def test_cbrt_is_the_per_element_root(values):
    assert _bits(_cbrt(np.array(values, dtype=float))) \
        == _bits([math.copysign(abs(v) ** (1 / 3), v) for v in values])


# --- bistability parameter --------------------------------------------------

def test_eta_trivial_values():
    assert bistability_parameter(2.0, 0.0, 1.0, 1.0) == 1.0
    delta, kappa, omega = 1.3, 0.8, 1.0
    g_boundary = math.sqrt(omega * (kappa ** 2 + delta ** 2) / delta)
    assert bistability_parameter(delta, g_boundary, kappa, omega) \
        == pytest.approx(0.0, abs=1e-14)
    assert bistability_parameter(1.0, 1.0, 1.0, 1.0) == pytest.approx(0.5)


def test_synthetic_working_points():
    mp = ModelParams(kappa=1.4, G0=1e-5, E=0.0, delta0=1.0, omega_m=1.0,
                     gamma_m=1e-5, nbar=0.0)
    wp = working_point_from_eta(mp, 0.25, 1.0)
    assert wp.eta == pytest.approx(0.25, rel=1e-12)
    assert wp.branch == "synthetic"
    wp2 = working_point_from_coupling(mp, wp.G, 1.0)
    assert wp2.eta == pytest.approx(0.25, rel=1e-12)
    assert wp2.photons == pytest.approx(wp.G ** 2 / (2 * mp.G0 ** 2), rel=1e-12)
    with pytest.raises(ValidationError):
        working_point_from_eta(mp, 1.5, 1.0)
    with pytest.raises(ValidationError):
        working_point_from_eta(mp, 0.5, -1.0)


def test_synthetic_points_equal_their_one_cell_views():
    mp = derive_model(default_params())
    w = mp.omega_m
    etas, deltas = np.meshgrid(np.linspace(-0.5, 1.0, 31),
                               np.linspace(0.02 * w, 3.0 * w, 29))
    for by, values in (("eta", etas.ravel()), ("G", np.linspace(0.0, 2.0 * w, 29 * 31))):
        points = synthetic_points(mp, deltas.ravel(), **{by: values})
        assert points.model.tolist() == list(range(len(values)))
        assert points.count.tolist() == [1] * len(values)
        one = working_point_from_eta if by == "eta" else working_point_from_coupling
        for k, (value, delta) in enumerate(zip(values.tolist(), deltas.ravel().tolist())):
            wp = one(mp, value, delta)
            assert [repr(getattr(wp, f.name)) for f in fields(WorkingPoint)] == \
                [repr(getattr(points, f.name)[k].item()) for f in fields(WorkingPoint)], \
                (by, k)
            if by == "eta" and value <= 1.0:
                # the inversion on Python floats, one cell at a time
                G = math.sqrt(w * (mp.kappa ** 2 + delta ** 2) * (1.0 - value) / delta)
                assert wp.G == G and wp.eta == bistability_parameter(delta, G, mp.kappa, w)


def test_synthetic_points_take_the_hurwitz_verdict_without_a_spectrum(monkeypatch):
    def refused(A):
        raise AssertionError("eigvals called by the steady layer")

    monkeypatch.setattr(np.linalg, "eigvals", refused)
    # a red-detuned point, one past the end of its branch (eta < 0) and a
    # blue-detuned one (Hopf-unstable)
    mp = ModelParams(kappa=1.4, G0=1e-5, E=0.0, delta0=1.0, omega_m=1.0,
                     gamma_m=1e-5, nbar=0.0)
    points = synthetic_points(mp, [1.0, 1.0, -1.0], G=[0.5, 2.0, 0.5])
    assert points.eta[1] < 0
    assert points.stable.tolist() == dynamics.is_stable_rh(
        points.delta, points.G, 1.4, 1.0, 1e-5).tolist() == [True, False, False]
    assert points.degenerate.tolist() == [False] * 3
    assert points.branch.tolist() == ["synthetic"] * 3
    assert working_point_from_eta(mp, 0.5, 1.0).stable
    assert not working_point_from_eta(mp, -0.5, 1.0).stable
    assert not working_point_from_coupling(mp, 0.5, -1.0).stable


@pytest.mark.parametrize("etas", [(-1e300, 2.0), (2.0, -1e300)])
def test_synthetic_points_name_their_first_offending_cell(etas):
    # eta = -1e300 backs out a coupling whose photon number overflows;
    # eta = 2 fails an earlier check of its cell
    mp = ModelParams(kappa=1.4, G0=1e-5, E=0.0, delta0=1.0, omega_m=1.0,
                     gamma_m=1e-5, nbar=0.0)
    with pytest.raises(ValidationError) as raised:
        synthetic_points(mp, [1.0, 1.0], eta=list(etas))
    with pytest.raises(ValidationError) as alone:
        working_point_from_eta(mp, etas[0], 1.0)
    assert str(raised.value) == str(alone.value)


# --- hysteresis --------------------------------------------------------------

def window_estimate(mp, omega_L):
    """Turning-point powers from a dense scan of the cubic level curve
    (independent of the closed form under test)."""
    disc = mp.delta0 ** 2 - 3.0 * mp.kappa ** 2
    assert disc > 0
    q_hi = (2.0 * mp.delta0 + math.sqrt(disc)) / (3.0 * mp.G0)
    q = np.linspace(0.0, 1.5 * q_hi, 1_000_000)
    delta = mp.delta0 - mp.G0 * q
    level = mp.omega_m * q * (mp.kappa ** 2 + delta ** 2) / mp.G0  # = E^2
    power = HBAR * laser_frequency(810e-9) * level / (2.0 * mp.kappa)
    # between the two turning points the level curve is non-monotone
    interior = (q > 0.05 * q_hi) & (q < 1.45 * q_hi)
    local_max_mask = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    local_min_mask = (level[1:-1] < level[:-2]) & (level[1:-1] < level[2:])
    p_up = power[1:-1][local_max_mask & interior[1:-1]]
    p_down = power[1:-1][local_min_mask & interior[1:-1]]
    assert len(p_up) == 1 and len(p_down) == 1
    return float(p_down[0]), float(p_up[0])


def test_hysteresis_window(default_model, default_physical):
    omega_L = laser_frequency(default_physical.wavelength)
    p_down_ref, p_up_ref = window_estimate(default_model, omega_L)
    powers = np.linspace(0.5 * p_down_ref, 1.2 * p_up_ref, 120)
    trace = hysteresis(default_model, powers, omega_L)

    assert trace.switch_down is not None and trace.switch_up is not None
    assert trace.switch_down < trace.switch_up
    assert trace.switch_down == pytest.approx(p_down_ref, rel=1e-4)
    assert trace.switch_up == pytest.approx(p_up_ref, rel=1e-4)

    for power, count in zip(trace.powers, trace.table.count):
        inside = trace.switch_down < power < trace.switch_up
        assert count == (3 if inside else 1)

    # the sweeps disagree exactly inside the window
    for power, pts in zip(trace.powers, _working_points(trace.table)):
        inside = trace.switch_down < power < trace.switch_up
        assert (pts[0] is not pts[-1]) == inside

    # a grid that steps over the window sees no change of the root count,
    # so no switch is reported
    straddle = hysteresis(default_model, [0.9 * p_down_ref, 1.1 * p_up_ref],
                          omega_L)
    assert straddle.table.count.tolist() == [1, 1]
    assert straddle.switch_down is None and straddle.switch_up is None


@pytest.mark.parametrize("kappa_over_wm", [None, 1.2])
def test_hysteresis_switches_are_turning_points(default_model,
                                                default_physical,
                                                kappa_over_wm):
    mp = default_model
    if kappa_over_wm is not None:
        mp = replace(mp, kappa=kappa_over_wm * mp.omega_m)
    omega_L = laser_frequency(default_physical.wavelength)
    p_down, p_up = bistable_window_estimate(mp, omega_L)
    trace = hysteresis(mp, np.linspace(0.5 * p_down, 1.2 * p_up, 120), omega_L)
    assert trace.switch_down == p_down
    assert trace.switch_up == p_up


def test_hysteresis_grid_starting_inside_window(default_model,
                                                default_physical):
    # arrival from above: the down-sweep stays on the upper branch across
    # every in-window point even when the lower window edge is off-grid
    omega_L = laser_frequency(default_physical.wavelength)
    p_down_ref, p_up_ref = window_estimate(default_model, omega_L)
    powers = np.linspace(0.5 * (p_down_ref + p_up_ref), 1.3 * p_up_ref, 30)
    trace = hysteresis(default_model, powers, omega_L)
    assert trace.switch_down is None and trace.switch_up is not None
    for pts in _working_points(trace.table):
        assert len(pts) in (1, 3)
        assert pts[-1].branch == "upper"  # the down-sweep's point


def test_hysteresis_below_window(default_model, default_physical):
    omega_L = laser_frequency(default_physical.wavelength)
    p_down_ref, _ = window_estimate(default_model, omega_L)
    powers = np.linspace(0.05 * p_down_ref, 0.5 * p_down_ref, 25)
    trace = hysteresis(default_model, powers, omega_L)
    assert trace.switch_up is None and trace.switch_down is None
    assert np.all(trace.table.count == 1)


def test_hysteresis_linear_when_decoupled(reference_model, reference_physical):
    mp = replace(reference_model, G0=0.0)
    omega_L = laser_frequency(reference_physical.wavelength)
    powers = np.linspace(1e-4, 0.1, 12)
    trace = hysteresis(mp, powers, omega_L)
    for power, (wp,) in zip(trace.powers, _working_points(trace.table)):
        expected = 2.0 * power * mp.kappa / (
            HBAR * omega_L * (mp.kappa ** 2 + mp.delta0 ** 2))
        assert wp.photons == pytest.approx(expected, rel=1e-12)


def test_eta_vanishes_toward_turning_points(default_model, default_physical):
    omega_L = laser_frequency(default_physical.wavelength)
    p_down_ref, p_up_ref = window_estimate(default_model, omega_L)
    width = p_up_ref - p_down_ref
    lower_end, upper_end = [], []
    for frac in (1e-1, 1e-2, 1e-3, 1e-4):
        up_trace = hysteresis(default_model, [p_up_ref - frac * width],
                              omega_L)
        lower_end.append(up_trace.table.eta[0])
        down_trace = hysteresis(default_model, [p_down_ref + frac * width],
                                omega_L)
        upper_end.append(down_trace.table.eta[-1])
    for etas in (lower_end, upper_end):
        assert all(b < a for a, b in zip(etas, etas[1:]))
        assert etas[-1] < 0.02


def test_stable_red_detuned_eta_within_unit_interval(default_physical, rng):
    for _ in range(40):
        power = float(rng.uniform(1e-4, 0.12))
        mp = derive_model(replace(default_physical, power=power))
        points = steady_states(mp)
        for wp in points:
            if wp.stable and wp.delta > 0:
                assert 0.0 <= wp.eta <= 1.0
        if len(points) == 3:
            middle = points[1]
            assert middle.eta <= 0.0 or not dynamics.is_stable_rh(
                middle.delta, middle.G, mp.kappa, mp.omega_m, mp.gamma_m)


def test_hysteresis_validation(default_model, default_physical):
    omega_L = laser_frequency(default_physical.wavelength)
    with pytest.raises(ValidationError, match="non-empty"):
        hysteresis(default_model, [], omega_L)
    with pytest.raises(ValidationError, match="increasing"):
        hysteresis(default_model, [0.02, 0.01], omega_L)
    with pytest.raises(ValidationError, match="non-negative"):
        hysteresis(default_model, [-0.01, 0.02], omega_L)
    # a grid failing several checks names the first, in the order
    # non-empty, finite, non-negative, increasing
    for powers, message in (([math.nan, -1.0], "finite"),
                            ([-1.0, math.inf], "finite"),
                            ([0.02, -0.01], "non-negative"),
                            ([-0.01, -0.02], "non-negative")):
        with pytest.raises(ValidationError, match=f"powers: grid.*{message}"):
            hysteresis(default_model, powers, omega_L)


def test_hysteresis_takes_a_list_a_tuple_or_an_array(default_model,
                                                     default_physical):
    omega_L = laser_frequency(default_physical.wavelength)
    p_down, p_up = bistable_window_estimate(default_model, omega_L)
    powers = np.linspace(0.5 * p_down, 1.2 * p_up, 40)
    traces = [hysteresis(default_model, kind(powers), omega_L)
              for kind in (list, tuple, np.asarray)]
    for trace in traces:
        assert trace.powers == tuple(powers.tolist())
        assert all(type(p) is float for p in trace.powers)
        assert (trace.switch_up, trace.switch_down) \
            == (traces[0].switch_up, traces[0].switch_down)
        for field, column in trace.table._asdict().items():
            assert np.array_equal(column, getattr(traces[0].table, field),
                                  equal_nan=column.dtype.kind == "f"), field


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_hysteresis_rejects_non_finite_powers(default_model, default_physical,
                                              bad):
    omega_L = laser_frequency(default_physical.wavelength)
    with pytest.raises(ValidationError, match="powers: grid values must be "
                                              "finite"):
        hysteresis(default_model, [0.01, bad, 0.02], omega_L)


@pytest.mark.parametrize("field,bad", [
    ("kappa", math.inf), ("G0", math.nan), ("E", math.nan),
    ("delta0", -math.inf), ("omega_m", math.nan), ("gamma_m", math.inf),
    ("E", np.array([1e12, math.nan])),
])
def test_non_finite_model_field_is_named(default_model, field, bad):
    with pytest.raises(ValidationError, match=f"^{field}: must be finite$"):
        root_table(replace(default_model, **{field: bad}))


# one field of the default model at a time; derive_model rejects each
@pytest.mark.parametrize("field,value", [
    ("kappa", 1e150), ("delta0", 1e150), ("G0", 1e-200), ("omega_m", 1e-300),
])
def test_out_of_range_cubic_names_its_model_field(default_model,
                                                  default_physical, field,
                                                  value):
    mp = replace(default_model, **{field: value})
    omega_L = laser_frequency(default_physical.wavelength)
    for solve in (lambda: steady_states(mp),
                  lambda: hysteresis(mp, [0.01, 0.05], omega_L)):
        with pytest.raises(ValidationError, match="steady-state cubic") as exc:
            solve()
        assert field in str(exc.value).split(":")[0].split(", ")


def test_decoupled_drive_whose_square_overflows_is_named(default_model):
    # a decoupled model solves no cubic, so the cubic's range rule skips it
    with pytest.raises(ValidationError,
                       match="^E: too large, its square overflows$"):
        steady_states(replace(default_model, G0=0.0, E=1e200))


@pytest.mark.parametrize("fields", [
    dict(kappa=0.0, delta0=0.0),                 # E^2 / 0
    dict(kappa=1e-200, delta0=0.0),              # kappa^2 underflows to 0
    dict(E=1e150, kappa=1e-100, delta0=0.0),     # E^2 / kappa^2 overflows
])
def test_decoupled_model_whose_photon_number_is_not_finite_is_named(
        default_model, fields):
    with pytest.raises(ValidationError, match="^E, kappa, delta0: "):
        steady_states(replace(default_model, G0=0.0, **fields))


def test_root_table_and_hysteresis_make_no_eigenvalue_call(
        default_model, default_physical, monkeypatch):
    def no_eigvals(A):
        raise AssertionError("eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    t = root_table(replace(default_model, E=np.array([0.0, default_model.E])))
    assert t.stable.tolist() == [True, True, False, True]
    trace = hysteresis(default_model, np.linspace(0.0, 0.1, 50),
                       laser_frequency(default_physical.wavelength))
    assert not trace.table.stable.all() and trace.table.stable.any()


def test_working_points_hold_python_scalars(default_model, default_physical):
    # a numpy bool would be written to a CSV as 1.0 instead of 1
    trace = hysteresis(default_model, [0.01, 0.05],
                       laser_frequency(default_physical.wavelength))
    for wp in steady_states(default_model) + sum(_working_points(trace.table), []):
        assert type(wp.stable) is bool and type(wp.branch) is str
        assert type(wp.degenerate) is bool and type(wp.eta) is float


def test_every_field_spans_the_grid(default_model):
    # the roots ignore nbar, but a temperature sweep is a grid of models
    grid = _working_points(root_table(replace(default_model,
                                              nbar=np.array([0.0, 1.0, 2.0]))))
    assert grid == [steady_states(default_model)] * 3


def test_hysteresis_rejects_non_finite_laser_frequency(default_model):
    with pytest.raises(ValidationError,
                       match="^omega_L: must be finite and positive$"):
        hysteresis(default_model, [0.01, 0.02], math.nan)


@pytest.mark.parametrize("name,omega_L,kappa_sign", [
    ("omega_L", 0.0, 1.0), ("omega_L", -1.0, 1.0), ("omega_L", math.inf, 1.0),
    ("kappa", 1.0, -1.0),
])
def test_hysteresis_names_its_bad_input(default_model, default_physical,
                                        name, omega_L, kappa_sign):
    omega_L *= laser_frequency(default_physical.wavelength)
    mp = replace(default_model, kappa=kappa_sign * default_model.kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError,
                           match=f"^{name}: must be finite and positive$"):
            hysteresis(mp, [0.0, 0.01], omega_L)


def test_single_root_labels_follow_the_turning_points(default_model,
                                                      default_physical):
    mp = default_model
    omega_L = laser_frequency(default_physical.wavelength)
    p_down, p_up = bistable_window_estimate(mp, omega_L)

    def single_root(model, power):
        (wp,) = steady_states(replace(
            model, E=drive_amplitude(power, model.kappa, omega_L)))
        return wp

    # past p_up the lower branch has ended: the root left is the upper one
    assert single_root(mp, 1.01 * p_up).branch == "upper"
    assert single_root(mp, 0.99 * p_down).branch == "lower"
    # monostable (Delta0^2 <= 3 kappa^2) and blue-detuned models have one
    # branch, labelled lower at every power
    for model in (replace(mp, kappa=0.6 * mp.delta0),
                  replace(mp, kappa=mp.delta0), replace(mp, delta0=-mp.delta0)):
        for power in np.linspace(0.0, 10.0 * p_up, 41):
            assert single_root(model, power).branch == "lower"


def test_degenerate_root_at_turning_point(default_model):
    mp = default_model
    disc = mp.delta0 ** 2 - 3.0 * mp.kappa ** 2
    q_turn = (2.0 * mp.delta0 - math.sqrt(disc)) / (3.0 * mp.G0)
    delta = mp.delta0 - mp.G0 * q_turn
    e_turn = math.sqrt(mp.omega_m * q_turn * (mp.kappa ** 2 + delta ** 2)
                       / mp.G0)
    pts = steady_states(replace(mp, E=e_turn))
    assert any(wp.degenerate for wp in pts)
    degenerate = [wp for wp in pts if wp.degenerate]
    assert degenerate[0].q_s == pytest.approx(q_turn, rel=1e-6)


# --- grid solve equals the one-model solve ------------------------------------

def _turning_points(kappa, delta0, G0):
    """Displacements of the cubic's turning points (empty if monotone)."""
    disc = delta0 ** 2 - 3.0 * kappa ** 2
    if disc <= 0 or delta0 <= 0 or G0 <= 0:
        return []
    root = math.sqrt(disc)
    return [(2.0 * delta0 - root) / (3.0 * G0),
            (2.0 * delta0 + root) / (3.0 * G0)]


@st.composite
def normalized_models(draw):
    """omega_m = 1 models; the drive is set from a target root q so that
    single-root, three-root, undriven, decoupled, red- and blue-detuned
    models and exact turning-point drives all occur."""
    kappa = draw(st.floats(0.05, 3.0))
    delta0 = draw(st.floats(-3.0, 5.0))
    G0 = draw(st.sampled_from([0.0, 1e-3, 0.5]) | st.floats(1e-4, 2.0))
    gamma_m = draw(st.floats(0.0, 1e-2))
    turning = _turning_points(kappa, delta0, G0)
    if G0 == 0.0:
        E = draw(st.floats(0.0, 5.0))
    else:
        if turning and draw(st.booleans()):
            q = draw(st.sampled_from(turning))
        else:
            q = draw(st.floats(0.0, 1.0)) * 3.0 * max(delta0, kappa) / G0
        delta = delta0 - G0 * q
        E = math.sqrt(q * (kappa ** 2 + delta ** 2) / G0)
    return ModelParams(kappa=kappa, G0=G0, E=E, delta0=delta0, omega_m=1.0,
                       gamma_m=gamma_m, nbar=0.0)


def _mixed_models():
    base = ModelParams(kappa=0.4, G0=0.5, E=0.0, delta0=2.0, omega_m=1.0,
                       gamma_m=1e-3, nbar=0.0)
    q_lo, q_hi = _turning_points(base.kappa, base.delta0, base.G0)

    def drive(q):
        delta = base.delta0 - base.G0 * q
        return math.sqrt(q * (base.kappa ** 2 + delta ** 2) / base.G0)

    return [base,                                            # undriven
            replace(base, G0=0.0, E=1.0),                    # decoupled
            replace(base, E=drive(0.1 * q_lo)),              # one root
            replace(base, E=drive(0.5 * (q_lo + q_hi))),     # three roots
            replace(base, E=drive(q_lo)),                    # turning point
            replace(base, delta0=-1.0, E=1.0),               # blue detuned
            replace(base, delta0=0.0, E=1.0)]                # resonant


@given(models=st.lists(normalized_models(), min_size=1, max_size=12))
@example(models=_mixed_models())
@settings(max_examples=100, deadline=None)
def test_grid_solve_equals_one_model_solves(models):
    fields = zip(*(vars(mp).values() for mp in models))
    stacked = ModelParams(*(np.array(column) for column in fields))
    grid = _working_points(root_table(stacked))
    assert len(grid) == len(models)
    for points, mp in zip(grid, models):
        assert points == steady_states(mp)


def test_mixed_models_cover_every_root_structure():
    counts = [len(steady_states(mp)) for mp in _mixed_models()]
    assert counts[:4] == [1, 1, 1, 3]
    assert any(wp.degenerate for wp in steady_states(_mixed_models()[4]))


_PHYSICAL = default_params()
_OMEGA_L = laser_frequency(_PHYSICAL.wavelength)


@given(kappa_over_wm=st.floats(0.3, 1.7), lo=st.floats(0.0, 1.2),
       width=st.floats(0.01, 1.5), n=st.integers(1, 60))
@settings(max_examples=40, deadline=None)
def test_hysteresis_sweeps_differ_only_inside_window(kappa_over_wm, lo, width,
                                                     n):
    mp = derive_model(_PHYSICAL)
    mp = replace(mp, kappa=kappa_over_wm * mp.omega_m)
    window = bistable_window_estimate(mp, _OMEGA_L)
    p_ref = window[1] if window else _PHYSICAL.power
    powers = np.linspace(lo * p_ref, (lo + width) * p_ref, n)
    trace = hysteresis(mp, powers, _OMEGA_L)

    for power, points in zip(trace.powers, _working_points(trace.table)):
        E = drive_amplitude(power, mp.kappa, _OMEGA_L)
        assert points == steady_states(replace(mp, E=E))
    if window is None:
        assert trace.switch_down is None and trace.switch_up is None
        assert np.all(trace.table.count == 1)
        return
    p_down, p_up = window
    assert trace.switch_down in (None, p_down)
    assert trace.switch_up in (None, p_up)
    for power, count in zip(trace.powers, trace.table.count):
        if count > 1:
            # the discriminant tolerance may call a cubic degenerate a
            # relative ~1e-12 outside the exact window
            assert p_down * (1 - 1e-9) <= power <= p_up * (1 + 1e-9)
