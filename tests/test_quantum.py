import math

import numpy as np
import pytest

from optomech_bistab import steady
from optomech_bistab.dynamics import (
    diffusion_matrix,
    drift_from_rates,
    solve_lyapunov,
)
from optomech_bistab.errors import PhysicalityError
from optomech_bistab.params import ModelParams
from optomech_bistab.quantum import (
    REGIME_BOUNDARY,
    AsymptoticCoeffs,
    approx_phonons,
    approx_photons,
    asymptotic_coeffs,
    classify_regime,
    cooling_limit,
    log_negativity,
    max_entanglement,
    occupancies,
    optimal_cooling_detuning,
    optimal_entanglement_detuning,
)


def _model(kappa=1.4, delta0=1.0, gamma=1e-5, nbar=0.0):
    return ModelParams(kappa=kappa, G0=1e-5, E=0.0, delta0=delta0,
                       omega_m=1.0, gamma_m=gamma, nbar=nbar)


def solve_at(mp, eta, delta):
    wp = steady.working_point_from_eta(mp, eta, delta)
    A = drift_from_rates(wp.delta, wp.G, mp.kappa, mp.omega_m, mp.gamma_m)
    return solve_lyapunov(A, diffusion_matrix(mp))


def two_mode_squeezed(r):
    """Covariance of the two-mode squeezed vacuum, 1/2-vacuum convention."""
    ch, sh = math.cosh(2 * r) / 2.0, math.sinh(2 * r) / 2.0
    V = np.zeros((4, 4))
    V[:2, :2] = ch * np.eye(2)
    V[2:, 2:] = ch * np.eye(2)
    V[:2, 2:] = sh * np.diag([1.0, -1.0])
    V[2:, :2] = sh * np.diag([1.0, -1.0])
    return V


def pt_symplectic_negativity(V):
    """Independent E_N: flip one momentum, take |eig(i Omega V)| directly."""
    P = np.diag([1.0, 1.0, 1.0, -1.0])
    Vt = P @ V @ P
    omega = np.zeros((4, 4))
    omega[0, 1] = omega[2, 3] = 1.0
    omega[1, 0] = omega[3, 2] = -1.0
    nus = np.abs(np.linalg.eigvals(1j * omega @ Vt))
    nu_min = np.sort(nus)[0]
    return max(0.0, -math.log(2.0 * nu_min))


def golden_section(fun, lo, hi, tol=1e-10):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    while b - a > tol:
        if fun(c) < fun(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


# --- occupancies ---------------------------------------------------------------

def test_occupancies_vacuum():
    assert occupancies(0.5 * np.eye(4)) == (0.0, 0.0)


def test_occupancies_thermal_equilibrium():
    mp = _model(gamma=1e-5, nbar=42.0)
    A = drift_from_rates(mp.delta0, 0.0, mp.kappa, 1.0, mp.gamma_m)
    V = solve_lyapunov(A, diffusion_matrix(mp))
    n_m, n_o = occupancies(V)
    assert n_o == pytest.approx(0.0, abs=1e-9)
    assert n_m == pytest.approx(42.0, rel=1e-3)


@pytest.mark.parametrize("nbar", [0.0, 832.96])
def test_phonon_approximation_against_full_solve(nbar):
    # the closed forms assume omega_m/gamma_m >> 1 and kappa/(nbar*gamma_m)
    # >> 1; both hold here (1e5 and either inf or ~170)
    mp = _model(kappa=1.4, delta0=1.0, gamma=1e-5, nbar=nbar)
    eta = 1e-3
    n_m, n_o = occupancies(solve_at(mp, eta, 1.0))
    assert n_m == pytest.approx(approx_phonons(1.0, 1.4, 1.0, eta), rel=0.05)
    assert n_o == pytest.approx(approx_photons(1.0, 1.4, eta), rel=0.05)


# --- logarithmic negativity -----------------------------------------------------

def test_log_negativity_vacuum():
    report = log_negativity(0.5 * np.eye(4))
    assert report.sigma == pytest.approx(0.5, rel=1e-12)
    assert report.det_v == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert report.nu_min == pytest.approx(0.5, rel=1e-9)
    assert report.e_n == 0.0


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_log_negativity_two_mode_squeezed(r):
    V = two_mode_squeezed(r)
    report = log_negativity(V)
    assert report.e_n == pytest.approx(2.0 * r, abs=1e-9)
    assert report.e_n == pytest.approx(pt_symplectic_negativity(V), abs=1e-9)


def test_log_negativity_separable_product(rng):
    for _ in range(20):
        n1, n2 = rng.uniform(0.0, 5.0, size=2)
        V = np.diag([n1 + 0.5, n1 + 0.5, n2 + 0.5, n2 + 0.5])
        assert log_negativity(V).e_n == 0.0


def test_log_negativity_rejects_unphysical():
    # symmetric but not a covariance matrix: nu_min^2 comes out negative
    V = np.zeros((4, 4))
    V[:2, :2] = np.diag([1.0, 2.0])
    V[2:, 2:] = np.eye(2)
    cross = np.array([[0.0, 1.5], [-1.5, 0.0]])
    V[:2, 2:] = cross
    V[2:, :2] = cross.T
    with pytest.raises(PhysicalityError):
        log_negativity(V)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_log_negativity_rejects_overflowing_covariance(scale):
    # the block determinants overflow, Sigma^2 - 4 det V is NaN
    with pytest.raises(PhysicalityError):
        log_negativity(scale * np.eye(4))


def test_validity_flag_thresholds():
    V = two_mode_squeezed(0.3)
    n_o = occupancies(V)[1]
    ok = log_negativity(V, photons=n_o / 0.005)
    assert ok.validity_ok and ok.validity_ratio == pytest.approx(0.005)
    bad = log_negativity(V, photons=n_o / 0.02)
    assert not bad.validity_ok


def random_symplectic(rng):
    """Random 2x2 real symplectic (det = 1) with moderate condition."""
    theta, phi = rng.uniform(0.0, 2.0 * math.pi, size=2)
    r = rng.uniform(-0.8, 0.8)
    rot1 = np.array([[math.cos(theta), math.sin(theta)],
                     [-math.sin(theta), math.cos(theta)]])
    rot2 = np.array([[math.cos(phi), math.sin(phi)],
                     [-math.sin(phi), math.cos(phi)]])
    squeeze = np.diag([math.exp(r), math.exp(-r)])
    return rot1 @ squeeze @ rot2


def test_log_negativity_local_symplectic_invariance(rng):
    V = two_mode_squeezed(0.4)
    base = log_negativity(V).e_n
    for _ in range(40):
        s_local = np.zeros((4, 4))
        s_local[:2, :2] = random_symplectic(rng)
        s_local[2:, 2:] = random_symplectic(rng)
        transformed = s_local @ V @ s_local.T
        assert log_negativity(transformed).e_n == pytest.approx(base, abs=1e-9)


# --- cooling closed forms ---------------------------------------------------------

def test_approx_photons_at_unit_eta():
    assert approx_photons(1.0, 1.4, 1.0) == 0.0


def test_phonon_minimum_matches_resolved_sideband():
    for kappa in (0.0, 0.3, 1.0, 2.0):
        d_opt = optimal_cooling_detuning(kappa, 1.0)
        assert d_opt == pytest.approx(math.sqrt(kappa ** 2 + 1.0), rel=1e-14)
        n_min = approx_phonons(d_opt, kappa, 1.0, 1.0)
        assert n_min == pytest.approx(cooling_limit(kappa, 1.0), abs=1e-12)
    # deep resolved-sideband limit
    n_small = approx_phonons(optimal_cooling_detuning(0.05, 1.0), 0.05, 1.0, 1.0)
    assert n_small == pytest.approx(0.05 ** 2 / 4.0, rel=2e-3)


def test_optimal_cooling_detuning_against_minimizer():
    for kappa in (0.1, 0.7, 1.4, 3.0):
        found = golden_section(
            lambda d: approx_phonons(d, kappa, 1.0, 1.0), 0.05, 8.0)
        assert found == pytest.approx(optimal_cooling_detuning(kappa, 1.0),
                                      rel=1e-6)


def test_approx_domain_errors():
    with pytest.raises(ValueError):
        approx_phonons(1.0, 1.4, 1.0, 0.0)
    with pytest.raises(ValueError):
        approx_phonons(-1.0, 1.4, 1.0, 0.5)
    with pytest.raises(ValueError):
        approx_photons(1.0, 1.4, -0.2)


# --- branch-end expansion -----------------------------------------------------------

def test_asymptotic_coeffs_substitution():
    coeffs = asymptotic_coeffs(1.0, 0.0, 1.0)
    assert coeffs.a == pytest.approx(1.0 / 8.0, rel=1e-14)
    assert coeffs.b == pytest.approx(3.0 / 8.0, rel=1e-14)
    assert coeffs.c == pytest.approx(3.0 / 128.0, rel=1e-14)
    assert coeffs.d == pytest.approx(9.0 / 256.0, rel=1e-14)


def test_asymptotic_coeffs_positive_b_and_d(rng):
    for _ in range(200):
        delta = rng.uniform(0.01, 5.0)
        kappa = rng.uniform(0.0, 5.0)
        coeffs = asymptotic_coeffs(delta, kappa, 1.0)
        assert coeffs.b > 0 and coeffs.d > 0


def test_asymptotics_match_full_pipeline():
    mp = _model(kappa=1.4, gamma=1e-6, nbar=0.0)
    eta = 1e-3
    for delta in (0.5, 0.85, 1.2, 2.0):
        V = solve_at(mp, eta, delta)
        report = log_negativity(V)
        coeffs = asymptotic_coeffs(delta, 1.4, 1.0)
        assert report.sigma == pytest.approx(coeffs.a + coeffs.b / eta,
                                             rel=0.02)
        assert report.det_v == pytest.approx(coeffs.c + coeffs.d / eta,
                                             rel=0.02)
        predicted = max(0.0, coeffs.alpha + coeffs.beta * eta)
        assert report.e_n == pytest.approx(predicted, abs=0.05)


def test_classify_regime_sign_table():
    def coeffs(alpha, beta):
        return AsymptoticCoeffs(a=0, b=1, c=0, d=1, alpha=alpha, beta=beta)

    assert classify_regime(coeffs(-1.0, -1.0)) == 1
    assert classify_regime(coeffs(-0.1, 2.0)) == 2
    assert classify_regime(coeffs(0.2, 1.0)) == 2
    assert classify_regime(coeffs(0.3, -1.0)) == 3
    assert classify_regime(coeffs(0.0, -1.0)) == REGIME_BOUNDARY
    assert classify_regime(coeffs(0.5, 1e-13)) == REGIME_BOUNDARY


def test_optimal_entanglement_detuning_values():
    assert optimal_entanglement_detuning(1.4, 1.0) \
        == pytest.approx(0.85, abs=0.005)
    assert optimal_entanglement_detuning(0.0, 1.0) \
        == pytest.approx(math.sqrt(10.0) / 4.0, rel=1e-12)
    assert max_entanglement(0.0, 1.0) == pytest.approx(-math.log(3.0 / 5.0),
                                                       rel=1e-12)


def test_optimal_entanglement_detuning_against_maximizer():
    for kappa in (0.0, 0.5, 1.4, 2.5):
        found = golden_section(
            lambda d: -asymptotic_coeffs(d, kappa, 1.0).alpha, 0.1, 5.0)
        assert found == pytest.approx(
            optimal_entanglement_detuning(kappa, 1.0), rel=1e-6)


def test_max_entanglement_decreases_with_kappa():
    kappas = np.linspace(0.0, 5.0, 10_000)
    values = [max_entanglement(k, 1.0) for k in kappas]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_entanglement_non_monotonic_in_coupling():
    # fixed effective detuning; scan the coupling toward the stability
    # boundary and look for a strictly decreasing positive pair
    mp = _model(kappa=1.4, delta0=0.25, gamma=1e-5, nbar=0.0)
    delta = 0.25
    g_boundary = math.sqrt((mp.kappa ** 2 + delta ** 2) / delta)
    gs = np.linspace(0.5 * g_boundary, 0.9995 * g_boundary, 200)
    ens = []
    for g in gs:
        wp = steady.working_point_from_coupling(mp, float(g), delta)
        A = drift_from_rates(wp.delta, wp.G, mp.kappa, 1.0, mp.gamma_m)
        V = solve_lyapunov(A, diffusion_matrix(mp))
        ens.append(log_negativity(V).e_n)
    witness = [(g1, g2, e1, e2)
               for (g1, e1), (g2, e2) in zip(zip(gs, ens), zip(gs[1:], ens[1:]))
               if g1 < g2 and e1 > e2 > 0]
    assert witness, "no decreasing positive E_N pair found along the G scan"
