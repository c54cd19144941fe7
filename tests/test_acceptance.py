"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they execute. Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from optomech_bistab import __version__
from optomech_bistab.dynamics import (
    decay_rate,
    diffusion_matrix,
    drift_from_rates,
    integrate_lyapunov,
    is_stable_rh,
    solve_lyapunov,
    symplectic_eigenvalues,
)
from optomech_bistab.harness import (
    AxisSpec,
    SweepSpec,
    bistable_window_estimate,
    figure_command,
    sweep,
)
from optomech_bistab.params import ModelParams, derive_model, laser_frequency
from optomech_bistab.quantum import (
    approx_phonons,
    asymptotic_coeffs,
    classify_regime,
    log_negativity,
    max_entanglement,
    occupancies,
    optimal_entanglement_detuning,
)
from optomech_bistab.steady import (
    _working_points,
    hysteresis,
    working_point_from_eta,
)

# regression pins for criterion 6 (first computation with the bundled
# default parameter set, kappa = 1.4 omega_m, cyclic convention)
SWITCH_DOWN_PIN_W = 0.056049246559
SWITCH_UP_PIN_W = 0.057780933841


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_01_closed_form_optima():
    d_opt = optimal_entanglement_detuning(1.4, 1.0)
    e_max0 = max_entanglement(0.0, 1.0)
    target = -math.log(3.0 / 5.0)
    ok = abs(d_opt - 0.85) <= 0.005 and abs(e_max0 - target) <= 1e-4
    _report(1, "closed-form optima", ok,
            f"Delta_opt(1.4)={d_opt:.6f} wm, E_N_max(0)={e_max0:.6f} "
            f"vs -ln(3/5)={target:.6f}")


def test_criterion_02_cooling_limit():
    worst = 0.0
    for kappa in (0.05, 0.3, 1.0, 1.4, 3.0):
        d_opt = math.sqrt(kappa ** 2 + 1.0)
        n_formula = 0.5 * (d_opt - 1.0)
        n_eq = approx_phonons(d_opt, kappa, 1.0, 1.0)
        worst = max(worst, abs(n_eq - n_formula) / max(n_formula, 1e-300))
    ok = worst <= 1e-12
    n_sb = approx_phonons(math.sqrt(0.05 ** 2 + 1.0), 0.05, 1.0, 1.0)
    rel_sb = abs(n_sb - 0.05 ** 2 / 4.0) / (0.05 ** 2 / 4.0)
    ok = ok and rel_sb <= 0.002
    _report(2, "cooling limit", ok,
            f"identity residual {worst:.2e}, sideband-limit deviation "
            f"{rel_sb:.2e}")


def test_criterion_03_oracle_equivalence():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    worst = 0.0
    draws = 0
    while draws < 100:
        kappa = rng.uniform(0.3, 2.0)
        delta = rng.uniform(0.4, 2.5)
        gamma = rng.uniform(0.02, 0.2)
        nbar = rng.uniform(0.0, 5.0)
        frac = rng.uniform(0.2, 0.9)
        g = frac * math.sqrt((kappa ** 2 + delta ** 2) / delta)
        A = drift_from_rates(delta, g, kappa, 1.0, gamma)
        rate = decay_rate(A)
        if rate < 0.04:
            continue
        draws += 1
        D = np.diag([0.0, gamma * (2 * nbar + 1), kappa, kappa])
        V_direct = solve_lyapunov(A, D)
        V_ode = integrate_lyapunov(A, D, 0.5 * np.eye(4), 40.0 / rate)
        worst = max(worst, float(np.abs(V_ode - V_direct).max()))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-7 and elapsed < 60.0
    _report(3, "oracle equivalence", ok,
            f"{draws} draws, worst max-norm {worst:.2e}, {elapsed:.1f} s")


def test_criterion_04_stability_agreement():
    rng = np.random.default_rng(11)
    disagreements = 0
    for _ in range(10_000):
        kappa = rng.uniform(0.05, 3.0)
        delta = rng.uniform(1e-3, 3.0)
        gamma = 10.0 ** rng.uniform(-6.0, -2.0)
        g = rng.uniform(0.0, 1.5) * math.sqrt(
            (kappa ** 2 + delta ** 2) / delta)
        rh = is_stable_rh(delta, g, kappa, 1.0, gamma)
        spectral = decay_rate(drift_from_rates(delta, g, kappa, 1.0, gamma)) > 0.0
        if rh != spectral:
            disagreements += 1
    ok = disagreements == 0
    _report(4, "stability agreement", ok,
            f"{disagreements} disagreements in 10000 draws")


def test_criterion_05_approximation_validation():
    mp = ModelParams(kappa=1.4, G0=1e-5, E=0.0, delta0=1.0, omega_m=1.0,
                     gamma_m=1e-6, nbar=0.0)
    eta = 1e-3
    worst_sigma = worst_detv = worst_en = 0.0
    for delta in (0.5, 0.85, 1.2, 2.0):
        wp = working_point_from_eta(mp, eta, delta)
        A = drift_from_rates(wp.delta, wp.G, mp.kappa, 1.0, mp.gamma_m)
        V = solve_lyapunov(A, diffusion_matrix(mp))
        report = log_negativity(V)
        coeffs = asymptotic_coeffs(delta, 1.4, 1.0)
        sigma_ref = coeffs.a + coeffs.b / eta
        detv_ref = coeffs.c + coeffs.d / eta
        en_ref = max(0.0, coeffs.alpha + coeffs.beta * eta)
        worst_sigma = max(worst_sigma,
                          abs(report.sigma - sigma_ref) / sigma_ref)
        worst_detv = max(worst_detv,
                         abs(report.det_v - detv_ref) / detv_ref)
        worst_en = max(worst_en, abs(report.e_n - en_ref))
    ok = worst_sigma <= 0.02 and worst_detv <= 0.02 and worst_en <= 0.05
    _report(5, "approximation validation", ok,
            f"Sigma rel {worst_sigma:.2e}, detV rel {worst_detv:.2e}, "
            f"E_N abs {worst_en:.2e}")


def test_criterion_06_hysteresis_reproduction(default_physical):
    mp = derive_model(default_physical)
    omega_L = laser_frequency(default_physical.wavelength)
    powers = np.linspace(0.02, 0.075, 140)
    trace = hysteresis(mp, powers, omega_L)

    ok = trace.switch_down is not None and trace.switch_up is not None \
        and trace.switch_down < trace.switch_up
    counts_ok = True
    middle_ok = True
    for power, pts in zip(trace.powers, _working_points(trace.table)):
        inside = trace.switch_down < power < trace.switch_up
        counts_ok &= len(pts) == (3 if inside else 1)
        if inside:
            middle = pts[1]
            middle_ok &= not is_stable_rh(middle.delta, middle.G, mp.kappa,
                                          mp.omega_m, mp.gamma_m)
    pin_ok = (abs(trace.switch_down - SWITCH_DOWN_PIN_W)
              <= 5e-6 * SWITCH_DOWN_PIN_W
              and abs(trace.switch_up - SWITCH_UP_PIN_W)
              <= 5e-6 * SWITCH_UP_PIN_W)
    ok = ok and counts_ok and middle_ok and pin_ok
    _report(6, "hysteresis reproduction", ok,
            f"window [{trace.switch_down:.6e}, {trace.switch_up:.6e}] W, "
            f"counts {'ok' if counts_ok else 'bad'}, middle RH "
            f"{'fails as required' if middle_ok else 'UNEXPECTEDLY STABLE'}, "
            f"pins {'ok' if pin_ok else 'moved'}")


def test_criterion_07_three_regime_structure():
    kappa = 1.4
    deltas = np.linspace(0.02, 3.0, 300)
    alphas = np.array([asymptotic_coeffs(d, kappa, 1.0).alpha
                       for d in deltas])
    small_ok = alphas[0] < 0
    signs = np.sign(alphas)
    crossings = np.nonzero(np.diff(signs) != 0)[0]
    one_crossing = len(crossings) == 1
    cross_at = deltas[crossings[0]] if one_crossing else float("nan")

    # regime-3 behaviour at larger detuning: full-pipeline maximum sits at
    # the end of the branch
    mp = ModelParams(kappa=kappa, G0=1e-5, E=0.0, delta0=1.0, omega_m=1.0,
                     gamma_m=1e-6, nbar=0.0)
    etas = np.geomspace(1e-3, 0.9, 16)
    ens = []
    for eta in etas:
        wp = working_point_from_eta(mp, float(eta), 1.0)
        A = drift_from_rates(wp.delta, wp.G, kappa, 1.0, mp.gamma_m)
        ens.append(log_negativity(solve_lyapunov(A, diffusion_matrix(mp))).e_n)
    edge_max = int(np.argmax(ens)) == 0 and ens[0] > 0
    regime3 = classify_regime(asymptotic_coeffs(1.0, kappa, 1.0)) == 3

    ok = small_ok and one_crossing and edge_max and regime3
    _report(7, "three-regime structure", ok,
            f"alpha(0.02)={alphas[0]:.3f}<0, single sign change at "
            f"Delta={cross_at:.3f} wm, edge max at eta->0 for Delta=1.0: "
            f"{edge_max}")


def test_criterion_08_non_monotonicity_witness():
    mp = ModelParams(kappa=1.4, G0=1e-5, E=0.0, delta0=0.25, omega_m=1.0,
                     gamma_m=1e-5, nbar=0.0)
    g_boundary = math.sqrt((mp.kappa ** 2 + 0.25 ** 2) / 0.25)
    spec = SweepSpec(base=mp,
                     axis1=AxisSpec("coupling",
                                    tuple(np.linspace(0.5 * g_boundary,
                                                      0.9995 * g_boundary,
                                                      150))))
    result = sweep(spec)
    rows = [r for r in (dict(zip(result.columns, row))
                        for row in zip(*result.columns.values()))
            if r["status"] == "ok"]
    witness = None
    for first, second in zip(rows, rows[1:]):
        g1, g2 = first["G_over_wm"], second["G_over_wm"]
        e1, e2 = first["E_N"], second["E_N"]
        if g1 < g2 and e1 > e2 > 0:
            witness = (g1, g2, e1, e2)
            break
    ok = witness is not None
    detail = "no witness" if witness is None else (
        f"G1={witness[0]:.4f} < G2={witness[1]:.4f} with "
        f"E_N={witness[2]:.6f} > {witness[3]:.6f} > 0 at Delta=0.25 wm")
    _report(8, "non-monotonicity witness", ok, detail)


def test_criterion_09_temperature_robustness(tmp_path, default_physical):
    mp = derive_model(default_physical)
    omega_L = laser_frequency(default_physical.wavelength)
    p_down, p_up = bistable_window_estimate(mp, omega_L)
    paths = figure_command("fig6", default_physical, tmp_path, grid=120,
                           version=__version__, timestamp="T")
    lines = [l for l in paths[0].read_text().splitlines()
             if not l.startswith("#")]
    header = lines[0].split(",")
    idx = {name: header.index(name)
           for name in ("T_K", "P_in_W", "branch", "E_N")}
    support = {}
    for line in lines[1:]:
        cells = line.split(",")
        power = float(cells[idx["P_in_W"]])
        if cells[idx["branch"]] != "lower" or power > p_up \
                or cells[idx["E_N"]] == "NaN":
            continue
        if float(cells[idx["E_N"]]) > 0:
            t = float(cells[idx["T_K"]])
            lo, hi = support.get(t, (math.inf, -math.inf))
            support[t] = (min(lo, power), max(hi, power))
    widths = [support[t][1] - support[t][0] for t in (0.4, 5.0, 10.0)]
    shrinking = widths[0] > widths[1] > widths[2] > 0
    clinging = all(support[t][1] > p_up - (p_up - p_down)
                   for t in (0.4, 5.0, 10.0))
    ok = shrinking and clinging
    _report(9, "temperature robustness", ok,
            "support widths [mW] "
            + " > ".join(f"{w * 1e3:.2f}" for w in widths)
            + f", all ending near the branch end ({clinging})")


def test_criterion_10_physicality_suite(rng):
    floor_ok = True
    worst_floor = 1.0
    for _ in range(200):
        kappa = rng.uniform(0.2, 2.5)
        delta = rng.uniform(0.3, 2.5)
        gamma = 10.0 ** rng.uniform(-5, -1)
        nbar = rng.uniform(0.0, 50.0)
        g = rng.uniform(0.1, 0.95) * math.sqrt(
            (kappa ** 2 + delta ** 2) / delta)
        A = drift_from_rates(delta, g, kappa, 1.0, gamma)
        if decay_rate(A) < 1e-8:
            continue
        V = solve_lyapunov(A, np.diag([0.0, gamma * (2 * nbar + 1),
                                       kappa, kappa]))
        sym_ok = np.abs(V - V.T).max() <= 1e-10 * np.abs(V).max()
        nu = symplectic_eigenvalues(V).min()
        worst_floor = min(worst_floor, nu)
        floor_ok &= sym_ok and nu >= 0.5 - 1e-9

    vacuum = log_negativity(0.5 * np.eye(4))
    vacuum_ok = vacuum.e_n == 0.0

    tms_ok = True
    worst_tms = 0.0
    for r in (0.1, 0.5, 1.0):
        ch, sh = math.cosh(2 * r) / 2.0, math.sinh(2 * r) / 2.0
        V = np.zeros((4, 4))
        V[:2, :2] = ch * np.eye(2)
        V[2:, 2:] = ch * np.eye(2)
        V[:2, 2:] = sh * np.diag([1.0, -1.0])
        V[2:, :2] = sh * np.diag([1.0, -1.0])
        err = abs(log_negativity(V).e_n - 2.0 * r)
        worst_tms = max(worst_tms, err)
        tms_ok &= err <= 1e-9

    ok = floor_ok and vacuum_ok and tms_ok
    _report(10, "physicality suite", ok,
            f"min symplectic eigenvalue {worst_floor:.9f} >= 0.5-1e-9, "
            f"vacuum E_N={vacuum.e_n}, squeezed-state error {worst_tms:.1e}")
