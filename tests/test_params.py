import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optomech_bistab
from optomech_bistab import dynamics, params, quantum, steady
from optomech_bistab.errors import ValidationError
from optomech_bistab.params import (
    ANGULAR,
    CYCLIC,
    ModelParams,
    default_params,
    derive_model,
    drive_amplitude,
    drive_power,
    load_config,
    thermal_phonons,
)

TWO_PI = 2.0 * math.pi

# Regression values for the reference set, evaluated once from the
# defining formulas with CODATA constants (c = 299792458 m/s,
# hbar = 1.0545718176461565e-34 J s, kB = 1.380649e-23 J/K):
#   kappa/omega_m = pi*c/(2*F*L) / (2*pi*1e7)        F = 1.07e4, L = 1 mm
#   G0            = (omega_c/L)*sqrt(hbar/(m*omega_m))
#   E             = sqrt(2*P*kappa/(hbar*omega_L))    P = 50 mW
#   nbar          = 1/(exp(hbar*omega_m/(kB*T)) - 1)  T = 0.4 K
KAPPA_OVER_WM = 0.700449668224299
G0_REF = 1347.3447279431448
E_REF_50MW = 4236259389037.8643
NBAR_REF = 832.9648649173312


def test_zero_temperature_gives_zero_occupation():
    assert thermal_phonons(TWO_PI * 1e7, 0.0) == 0.0
    assert thermal_phonons(1.0, 0.0) == 0.0


@pytest.mark.parametrize("x", [1.0, 700.0, 709.7])
def test_thermal_phonons_is_the_bose_formula(x):
    omega_m = TWO_PI * 1e7
    t = params._HBAR * omega_m / (params._KB * x)
    assert thermal_phonons(omega_m, t) == \
        1.0 / math.expm1(params._HBAR * omega_m / (params._KB * t))


@pytest.mark.parametrize("t", [1e-6 / 1.5, 1e-7, 1e-9, 1e-300, 1e-310, 5e-324])
def test_cold_bath_occupation_is_the_exp_limit(t):
    omega_m = TWO_PI * 1e7
    kT = params._KB * t
    expected = math.exp(-params._HBAR * omega_m / kT) if kT else 0.0
    assert thermal_phonons(omega_m, t) == expected
    assert thermal_phonons(omega_m, np.array([t])).tolist() == [expected]


def test_zero_power_gives_zero_drive(reference_physical):
    mp = derive_model(replace(reference_physical, power=0.0))
    assert mp.E == 0.0


def test_reference_constants_regression(reference_model):
    mp = reference_model
    assert mp.kappa / mp.omega_m == pytest.approx(KAPPA_OVER_WM, rel=1e-12)
    assert mp.G0 == pytest.approx(G0_REF, rel=1e-12)
    assert mp.E == pytest.approx(E_REF_50MW, rel=1e-12)
    assert mp.nbar == pytest.approx(NBAR_REF, rel=1e-12)


def test_constants_equal_scipy():
    import scipy.constants

    assert params._C == scipy.constants.c
    assert params._HBAR == scipy.constants.hbar
    assert params._KB == scipy.constants.k


def test_drive_power_inverts_drive_amplitude(reference_model):
    omega_L = params.laser_frequency(810e-9)
    E = drive_amplitude(0.05, reference_model.kappa, omega_L)
    assert drive_power(E ** 2, reference_model.kappa, omega_L) == \
        pytest.approx(0.05, rel=1e-14)


# run in a fresh interpreter: the test process has scipy loaded already
_IMPORT_PROBE = """
import sys
import numpy as np
import optomech_bistab.cli
from optomech_bistab import integrate_lyapunov
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
if loaded:
    sys.exit(f"import loaded {len(loaded)} scipy modules: {sorted(loaded)[:5]}")
integrate_lyapunov(-np.eye(4), np.eye(4), np.eye(4), 1.0)
if "scipy.integrate" not in sys.modules:
    sys.exit("integrate_lyapunov did not load scipy.integrate")
"""


def test_import_loads_no_scipy():
    src = str(Path(optomech_bistab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_public_names_unique_sorted_and_defined():
    names = optomech_bistab.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)
    for name in names:
        getattr(optomech_bistab, name)  # AttributeError names a stale entry


def test_kappa_override_bypasses_finesse(reference_physical):
    omega_m = reference_physical.omega_m
    mp = derive_model(replace(reference_physical, kappa_override=1.4 * omega_m))
    assert mp.kappa == 1.4 * omega_m


# an array field with one bad value, which comes last
_BAD_ARRAYS = [
    ("power", [0.01, -1e-3]),
    ("power", [[0.01], [math.nan]]),
    ("temperature", [[0.4], [-0.1]]),
    ("temperature", [0.0, math.nan]),
    ("delta0", [[1e7], [math.inf]]),
]


@pytest.mark.parametrize("field,value", [
    ("cavity_length", 0.0),
    ("cavity_length", -1e-3),
    ("finesse", 0.0),
    ("wavelength", -810e-9),
    ("mass", 0.0),
    ("omega_m", 0.0),
    ("gamma_m", 0.0),
    ("power", -1e-3),
    ("temperature", -0.1),
    ("mass", float("nan")),
    ("delta0", float("inf")),
    *((field, np.array(values)) for field, values in _BAD_ARRAYS),
])
def test_validation_error_names_field(reference_physical, field, value):
    bad = replace(reference_physical, **{field: value})
    with pytest.raises(ValidationError, match=field):
        derive_model(bad)


@pytest.mark.parametrize("field,values", _BAD_ARRAYS)
def test_array_validation_message_is_the_scalar_one(reference_physical,
                                                     field, values):
    array = np.array(values)
    with pytest.raises(ValidationError) as of_array:
        derive_model(replace(reference_physical, **{field: array}))
    with pytest.raises(ValidationError) as of_value:
        derive_model(replace(reference_physical,
                             **{field: array.ravel().tolist()[-1]}))
    assert str(of_array.value) == str(of_value.value)


@pytest.mark.parametrize("rows,columns", [
    (("delta0", [-1.0, 0.5, 2.62, 4.0]), ("power", [0.0, 0.01, 0.057, 0.2])),
    (("temperature", [0.0, 0.4, 10.0]), ("power", [0.0, 0.057])),
    (("delta0", [0.5, 2.62]), ("temperature", [0.0, 0.4, 5.0])),
])
def test_array_model_equals_scalar_models(reference_physical, rows, columns):
    """Fields of shapes (n, 1) x (m,) give an (n, m) grid of models."""
    (row_field, row_values), (col_field, col_values) = rows, columns
    scale = {"delta0": reference_physical.omega_m}
    row_values = [v * scale.get(row_field, 1.0) for v in row_values]
    col_values = [v * scale.get(col_field, 1.0) for v in col_values]
    grid = derive_model(replace(reference_physical, **{
        row_field: np.array(row_values)[:, None],
        col_field: np.array(col_values)}))
    cells = [[derive_model(replace(reference_physical,
                                   **{row_field: r, col_field: c}))
              for c in col_values] for r in row_values]
    shape = (len(row_values), len(col_values))
    for name, value in vars(grid).items():
        expected = [[getattr(mp, name) for mp in row] for row in cells]
        assert np.array_equal(np.broadcast_to(value, shape), expected), name


def test_scalar_model_fields_are_floats(reference_physical):
    mp = derive_model(replace(reference_physical, temperature=0.0))
    assert all(type(v) is float for v in vars(mp).values())
    mp = derive_model(reference_physical)
    assert all(type(v) is float for v in vars(mp).values())
    assert type(drive_amplitude(0.05, mp.kappa, 2.3e15)) is float
    assert type(thermal_phonons(mp.omega_m, 0.4)) is float


@given(t1=st.floats(1e-6, 1e3), factor=st.floats(1.0 + 1e-9, 1e4))
@settings(max_examples=50, deadline=None)
def test_nbar_monotone_in_temperature(t1, factor):
    omega_m = TWO_PI * 1e7
    assert thermal_phonons(omega_m, t1 * factor) > thermal_phonons(omega_m, t1)


def test_load_config_matches_defaults(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(
        "# comment line\n"
        "cavity_length_m = 1e-3\n"
        "finesse = 1.07e4\n"
        "wavelength_m = 810e-9\n"
        "power_W = 0.057\n"
        "mass_kg = 5e-12\n"
        "mech_freq = 1e7\n"
        "mech_damping = 100\n"
        "temperature_K = 0.4\n"
        "bare_detuning = 2.62e7\n"
        "freq_convention = cyclic\n"
        "kappa_override = 1.4e7\n"
    )
    assert load_config(cfg) == default_params()


def test_bundled_config_matches_defaults():
    from pathlib import Path

    bundled = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    assert load_config(bundled) == default_params()


def test_load_config_angular_convention(tmp_path):
    cfg = tmp_path / "params.cfg"
    body = (
        "cavity_length_m = 1e-3\nfinesse = 1.07e4\nwavelength_m = 810e-9\n"
        "power_W = 0.05\nmass_kg = 5e-12\nmech_freq = {w}\n"
        "mech_damping = {g}\ntemperature_K = 0.4\nbare_detuning = {d}\n"
        "freq_convention = {conv}\n"
    )
    cfg.write_text(body.format(w=1e7, g=100, d=2.62e7, conv=CYCLIC))
    cyclic = load_config(cfg)
    cfg.write_text(body.format(w=TWO_PI * 1e7, g=TWO_PI * 100,
                               d=TWO_PI * 2.62e7, conv=ANGULAR))
    angular = load_config(cfg)
    assert cyclic == angular
    assert cyclic.omega_m == pytest.approx(TWO_PI * 1e7)


@pytest.mark.parametrize("line,match", [
    ("unknown_key = 3\n", "unknown key"),
    ("finesse\n", "expected"),
    ("freq_convention = weekly\n", "freq_convention"),
])
def test_load_config_rejects_bad_lines(tmp_path, line, match):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line)
    with pytest.raises(ValidationError, match=match):
        load_config(cfg)


def test_load_config_missing_keys(tmp_path):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("finesse = 1e4\n")
    with pytest.raises(ValidationError, match="missing"):
        load_config(cfg)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


def _dimensionless_outputs(mp):
    wp = steady.steady_states(mp)[0]
    A = dynamics.drift_from_rates(wp.delta, wp.G, mp.kappa, mp.omega_m,
                                  mp.gamma_m)
    V = dynamics.solve_lyapunov(A, dynamics.diffusion_matrix(mp))
    report = quantum.log_negativity(V, photons=wp.photons)
    return wp.eta, report.n_m, report.n_o, report.e_n


def test_dimensionless_outputs_invariant_under_normalization(default_model):
    si = _dimensionless_outputs(default_model)
    w = default_model.omega_m
    scaled = _dimensionless_outputs(ModelParams(
        kappa=default_model.kappa / w, G0=default_model.G0 / w,
        E=default_model.E / w, delta0=default_model.delta0 / w, omega_m=1.0,
        gamma_m=default_model.gamma_m / w, nbar=default_model.nbar))
    for a, b in zip(si, scaled):
        assert a == pytest.approx(b, rel=1e-10)
