import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from optomech_bistab import dynamics, steady
from optomech_bistab.dynamics import (
    MARGINAL_DECAY_FRACTION,
    decay_rate,
    diffusion_matrix,
    drift_from_rates,
    integrate_lyapunov,
    is_marginal,
    is_stable_rh,
    solve_lyapunov,
    spectral_decay,
    split_blocks,
    symplectic_eigenvalues,
)
from optomech_bistab.errors import (
    IllConditionedError,
    IntegrationError,
    PhysicalityError,
    UnstableSystemError,
)
from optomech_bistab.params import ModelParams, default_params, derive_model
from optomech_bistab.quantum import log_negativity


def _model(kappa=1.4, delta0=1.0, gamma=1e-5, nbar=0.0, g0=1e-5):
    return ModelParams(kappa=kappa, G0=g0, E=0.0, delta0=delta0,
                       omega_m=1.0, gamma_m=gamma, nbar=nbar)


def stable_drift(rng, min_decay=0.0):
    """Random Hurwitz drift matrix in the red-detuned regime."""
    while True:
        kappa = rng.uniform(0.3, 2.0)
        delta = rng.uniform(0.4, 2.5)
        gamma = rng.uniform(1e-4, 0.2)
        frac = rng.uniform(0.1, 0.95)
        g = frac * math.sqrt((kappa ** 2 + delta ** 2) / delta)
        A = drift_from_rates(delta, g, kappa, 1.0, gamma)
        if decay_rate(A) > min_decay:
            return A, kappa, delta, gamma, g


# --- drift / diffusion shape -------------------------------------------------

def test_drift_entry_placement():
    w, g, kappa, delta, gamma = 1.0, 0.7, 1.4, 0.9, 1e-4
    A = drift_from_rates(delta, g, kappa, w, gamma)
    expected = np.zeros((4, 4))
    expected[0, 1] = w
    expected[1, 0] = -w
    expected[1, 1] = -gamma
    expected[1, 2] = g
    expected[2, 2] = -kappa
    expected[2, 3] = delta
    expected[3, 0] = g
    expected[3, 2] = -delta
    expected[3, 3] = -kappa
    assert np.array_equal(A, expected)


def test_drift_decouples_without_coupling():
    A = drift_from_rates(0.9, 0.0, 1.4, 1.0, 1e-4)
    assert np.all(A[:2, 2:] == 0.0)
    assert np.all(A[2:, :2] == 0.0)


def test_diffusion_matrix_entries():
    mp = _model(gamma=3e-4, nbar=12.0)
    D = diffusion_matrix(mp)
    assert np.array_equal(D, np.diag([0.0, 3e-4 * 25.0, 1.4, 1.4]))


# --- stability ----------------------------------------------------------------

def test_rh_trivial_cases():
    assert is_stable_rh(1.0, 0.0, 1.4, 1.0, 1e-4)
    boundary_g = math.sqrt(1.0 * (1.4 ** 2 + 1.0) / 1.0)
    assert not is_stable_rh(1.0, boundary_g, 1.4, 1.0, 1e-4)
    # at Delta <= 0, a4 > 0 always: only H3 (the Hopf term) can fail
    assert is_stable_rh(0.0, 0.5, 1.4, 1.0, 1e-4)
    assert not is_stable_rh(-1.0, 0.5, 0.1, 1.0, 1e-4)   # Hopf-unstable
    assert is_stable_rh(-1.0, 1e-3, 0.1, 1.0, 1e-4)      # small G
    for delta, G in ((-1.0, 0.5), (-1.0, 1e-3), (0.0, 0.5)):
        assert is_stable_rh(delta, G, 0.1, 1.0, 1e-4) == (decay_rate(
            drift_from_rates(delta, G, 0.1, 1.0, 1e-4)) > 0.0)
    # gamma_m = 0 or kappa = 0: the coupling damps the undamped mode
    # through the other one, and an uncoupled undamped mode is marginal
    assert is_stable_rh(1.0, 0.5, 1.4, 1.0, 0.0)
    assert is_stable_rh(1.0, 0.5, 0.0, 1.0, 1e-4)
    assert not is_stable_rh(1.0, 0.0, 1.4, 1.0, 0.0)
    assert not is_stable_rh(1.0, 0.0, 0.0, 1.0, 1e-4)


def test_rh_worked_example():
    # omega*(kappa^2 + delta^2) - G^2*delta = 2.96 - 0.25 > 0
    assert is_stable_rh(1.0, 0.5, 1.4, 1.0, 1e-4)


def test_rh_takes_broadcast_arrays():
    delta = np.array([1.0, -1.0, -1.0])
    G = np.array([0.5, 0.5, 1e-3])
    assert is_stable_rh(delta, G, 0.1, 1.0, 1e-4).tolist() == [True, False, True]
    # scaled by a power of two, the verdict neither overflows nor changes
    assert is_stable_rh(1e200 * delta, 1e200 * G, 1e199, 1e200, 1e196).tolist() \
        == [True, False, True]


def test_stable_point_eigenvalues_negative(default_model):
    wp = steady.steady_states(default_model)[0]
    A = drift_from_rates(wp.delta, wp.G, default_model.kappa,
                         default_model.omega_m, default_model.gamma_m)
    eig = np.linalg.eigvals(A)
    assert eig.real.max() < 0
    # cross-check against the characteristic polynomial roots
    w, g = default_model.omega_m, wp.G
    kappa, gamma, delta = default_model.kappa, default_model.gamma_m, wp.delta
    coeffs = [
        1.0,
        gamma + 2.0 * kappa,
        delta ** 2 + kappa ** 2 + w ** 2 + 2.0 * gamma * kappa,
        2.0 * kappa * w ** 2 + gamma * (delta ** 2 + kappa ** 2),
        w ** 2 * (delta ** 2 + kappa ** 2) - g ** 2 * delta * w,
    ]
    poly_roots = np.sort_complex(np.roots(coeffs))
    assert np.allclose(np.sort_complex(eig), poly_roots, rtol=1e-6, atol=1e-8)


def test_rh_agrees_with_spectrum(rng):
    for _ in range(500):
        kappa = rng.uniform(0.05, 3.0)
        delta = rng.uniform(0.01, 3.0)
        gamma = 10 ** rng.uniform(-6, -2)
        g = rng.uniform(0.0, 2.0) * math.sqrt(
            (kappa ** 2 + delta ** 2) / delta)
        rh = is_stable_rh(delta, g, kappa, 1.0, gamma)
        A = drift_from_rates(delta, g, kappa, 1.0, gamma)
        assert rh == (decay_rate(A) > 0.0)


@given(delta=st.floats(-3.0, 3.0), coupling=st.floats(0.0, 2.0),
       log_kappa=st.floats(-6.0, 0.5), log_gamma=st.floats(-9.0, -2.0))
@settings(max_examples=500, deadline=None)
def test_rh_equals_spectral_verdict_for_either_sign_of_delta(
        delta, coupling, log_kappa, log_gamma):
    kappa, gamma = 10.0 ** log_kappa, 10.0 ** log_gamma
    # G up to twice the static instability threshold at |Delta|, which at
    # Delta < 0 reaches into the Hopf-unstable region
    G = coupling * math.sqrt((kappa ** 2 + delta ** 2) / max(abs(delta), 1e-3))
    A = drift_from_rates(delta, G, kappa, 1.0, gamma)
    decay = spectral_decay(np.linalg.eigvals(A))
    # a decay within the round-off of the slowest eigenvalue has no sign to
    # compare: the backward error 64 eps max|A| times the eigenvalue's
    # condition number 1/|y^H x|, y and x its unit left and right vectors.
    # On the boundary itself (coupling 1) that round-off is ~100 eps.
    eig, left, right = scipy.linalg.eig(A, left=True, right=True)
    k = np.argmax(eig.real)
    condition = 1.0 / abs(left[:, k].conj() @ right[:, k])
    assume(abs(decay) > 64 * np.finfo(float).eps * np.abs(A).max() * condition)
    assert is_stable_rh(delta, G, kappa, 1.0, gamma) == (decay > 0.0)


@given(delta=st.floats(-3.0, 3.0),
       coupling=st.one_of(st.floats(0.0, 2.0),
                          st.floats(0.0, 10.0).map(lambda u: 1.0 - 10.0 ** -u)),
       log_kappa=st.floats(-10.0, 0.5), log_gamma=st.floats(-10.0, -1.0))
# the mechanics alone decays at gamma_m / 2, just above and below 1e-8
@example(delta=1.0, coupling=0.0, log_kappa=0.0, log_gamma=math.log10(2.02e-8))
@example(delta=1.0, coupling=0.0, log_kappa=0.0, log_gamma=math.log10(1.98e-8))
@settings(max_examples=500, deadline=None)
def test_marginal_verdict_equals_the_spectral_decay_test(delta, coupling,
                                                         log_kappa, log_gamma):
    kappa, gamma = 10.0 ** log_kappa, 10.0 ** log_gamma
    # coupling 1 - 10^-u approaches the static threshold at |Delta|, where
    # the decay rate falls through 1e-8
    G = coupling * math.sqrt((kappa ** 2 + delta ** 2) / max(abs(delta), 1e-3))
    A = drift_from_rates(delta, G, kappa, 1.0, gamma)
    decay = spectral_decay(np.linalg.eigvals(A))
    # a small A has a spectrum exact enough to be compared with c = 1e-8,
    # away from c itself
    assume(np.linalg.norm(A) < 1e2)
    assume(abs(decay / MARGINAL_DECAY_FRACTION - 1.0) > 1e-3)
    assert is_marginal(delta, G, kappa, 1.0, gamma) == (decay < MARGINAL_DECAY_FRACTION)


@pytest.mark.parametrize("delta,G,kappa,gamma,marginal", [
    # decay rates over 1e-8 from 60-digit roots of the quartic: 5.0e4,
    # 5.3e6, 0.2 and 0.195, and not stable at all
    (-1.0, 1e3, 1.0, 1e9, False),
    (-1.0, 1e4, 1.0, 1e9, False),
    (-4e3, 0.0, 500.0, 5e8, True),
    (4e3, 10.0, 500.0, 5e8, True),
    (1.0, 1e3, 1.0, 1e9, True),
])
def test_marginal_verdict_of_mechanics_damped_beyond_the_shift(delta, G, kappa,
                                                               gamma, marginal):
    # gamma_m > 1e8 omega_m: the restoring term of the shifted quartic is
    # negative, and at Delta < 0 the optical spring can still make the
    # slowest mode decay faster than 1e-8 omega_m
    assert is_marginal(delta, G, kappa, 1.0, gamma) == marginal


def test_marginal_verdict_takes_broadcast_arrays():
    delta, G = np.array([1.0, -1.0, 1.0]), np.array([0.5, 1e3, 0.0])
    gamma = np.array([1e-4, 1e9, 1.98e-8])
    assert is_marginal(delta, G, 1.4, 1.0, gamma).tolist() == [False, False, True]
    # scaled by a power of two, as the stability verdict is
    assert is_marginal(1e200 * delta, 1e200 * G, 1.4e200, 1e200,
                       1e200 * gamma).tolist() == [False, False, True]


# --- Lyapunov solver ----------------------------------------------------------

def test_lyapunov_diagonal_relaxation():
    kappa = 0.8
    A = -kappa * np.eye(4)
    D = np.diag([1.0, 2.0, 3.0, 4.0])
    V = solve_lyapunov(A, D)
    assert np.allclose(V, D / (2.0 * kappa), rtol=1e-12, atol=1e-14)


def test_lyapunov_uncoupled_equilibrium():
    mp = _model(gamma=1e-5, nbar=7.0)
    A = drift_from_rates(mp.delta0, 0.0, mp.kappa, 1.0, mp.gamma_m)
    V = solve_lyapunov(A, diffusion_matrix(mp))
    assert V[2, 2] == pytest.approx(0.5, rel=1e-9)
    assert V[3, 3] == pytest.approx(0.5, rel=1e-9)
    assert V[2, 3] == pytest.approx(0.0, abs=1e-12)
    assert V[0, 0] == pytest.approx(7.5, rel=1e-6)
    assert V[1, 1] == pytest.approx(7.5, rel=1e-6)


def test_lyapunov_residual_contract(rng):
    for _ in range(50):
        A, kappa, delta, gamma, g = stable_drift(rng)
        nbar = rng.uniform(0.0, 100.0)
        D = np.diag([0.0, gamma * (2 * nbar + 1), kappa, kappa])
        V = solve_lyapunov(A, D)
        residual = np.abs(A @ V + V @ A.T + D).max()
        assert residual <= 1e-9 * np.abs(D).max()
        assert np.abs(V - V.T).max() <= 1e-10 * np.abs(V).max()


def _basis_solve(A, D):
    """Reference packed solve: M built column by column from A E + E A^T."""
    I, J = np.triu_indices(4)
    M = np.empty((10, 10))
    for col, (k, l) in enumerate(zip(I, J)):
        E = np.zeros((4, 4))
        E[k, l] = E[l, k] = 1.0
        M[:, col] = (A @ E + E @ A.T)[I, J]
    x = np.linalg.solve(M, -D[I, J])
    V = np.empty((4, 4))
    V[I, J] = x
    V[J, I] = x
    return V


def _matrix(draw, lo, hi):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=16,
                                  max_size=16))).reshape(4, 4)


@st.composite
def hurwitz_problems(draw):
    """(A, D): a drift matrix with Delta of either sign, -k I, or a random
    Hurwitz A with a random positive semidefinite D."""
    kind = draw(st.sampled_from(("drift", "scaled_identity", "random")))
    if kind == "drift":
        kappa = draw(st.floats(0.05, 3.0))
        gamma = draw(st.floats(1e-3, 0.2))
        delta, g = draw(st.floats(-3.0, 3.0)), draw(st.floats(0.0, 1.5))
        A = drift_from_rates(delta, g, kappa, 1.0, gamma)
        nbar = draw(st.floats(0.0, 100.0))
        D = np.diag([0.0, gamma * (2.0 * nbar + 1.0), kappa, kappa])
    elif kind == "scaled_identity":
        A = -draw(st.floats(0.01, 10.0)) * np.eye(4)
        D = np.diag(draw(st.lists(st.floats(0.0, 5.0), min_size=4,
                                  max_size=4)))
    else:
        B = _matrix(draw, -2.0, 2.0)
        shift = np.linalg.eigvals(B).real.max() + draw(st.floats(0.05, 2.0))
        A = B - shift * np.eye(4)
        C = _matrix(draw, -2.0, 2.0)
        D = C @ C.T
    assume(decay_rate(A) > 1e-4)
    return A, D


def _default_drift_problem():
    """(A, D) of the default model at eta = 0.5 and Delta = omega_m: a
    physical covariance, so that its entanglement report exists."""
    mp = derive_model(default_params())
    wp = steady.working_point_from_eta(mp, 0.5, mp.omega_m)
    return (drift_from_rates(wp.delta, wp.G, mp.kappa, mp.omega_m, mp.gamma_m),
            diffusion_matrix(mp))


@given(hurwitz_problems())
# a subnormal max|D|, where 1e-9 * max|D| underflows to 0
@example((-np.eye(4), np.diag([0.0, 0.0, 0.0, 5e-324])))
@example(_default_drift_problem())
@settings(max_examples=150, deadline=None)
def test_lyapunov_equals_basis_assembly_bit_for_bit(problem):
    A, D = problem
    V = solve_lyapunov(A, D)
    V_ref = _basis_solve(A, D)
    assert np.array_equal(V, V_ref)
    assert np.array_equal(np.signbit(V), np.signbit(V_ref))
    a_blk, b_blk, c_blk = split_blocks(V)
    sigma = (np.linalg.det(a_blk) + np.linalg.det(b_blk)
             - 2.0 * np.linalg.det(c_blk))
    try:
        report = log_negativity(V)
    except PhysicalityError:  # the V of a random D need not be a state
        return
    assert report.sigma == sigma


@pytest.mark.parametrize("eta", [10.0 ** -k for k in range(1, 9)])
def test_lyapunov_rejects_a_solution_off_in_one_entry(monkeypatch,
                                                      default_model, eta):
    mp = default_model
    wp = steady.working_point_from_eta(mp, eta, mp.omega_m)
    A = drift_from_rates(wp.delta, wp.G, mp.kappa, mp.omega_m, mp.gamma_m)
    D = diffusion_matrix(mp)
    solve_lyapunov(A, D)  # the unperturbed solve meets the bound
    solve = np.linalg.solve
    for entry in range(10):  # packed entries of V

        def off_in_one_entry(M, b):  # one matrix is solved as a stack of one
            x = solve(M, b)
            x[0, entry, 0] += 1e-6 * np.abs(x).max()
            return x

        monkeypatch.setattr(np.linalg, "solve", off_in_one_entry)
        with pytest.raises(IllConditionedError, match="residual"):
            solve_lyapunov(A, D)


def test_lyapunov_rejects_a_singular_system(monkeypatch):
    A, D = _default_drift_problem()

    def singular(M, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(IllConditionedError, match="singular"):
        solve_lyapunov(A, D)


def test_lyapunov_rejects_unstable():
    A = drift_from_rates(1.0, 5.0, 0.2, 1.0, 1e-5)  # far beyond the boundary
    assert not decay_rate(A) > 0.0
    with pytest.raises(UnstableSystemError, match="Re"):
        solve_lyapunov(A, np.diag([0.0, 1.0, 1.0, 1.0]))


def test_lyapunov_rejects_marginal():
    A = drift_from_rates(1.0, 0.0, 1.4, 1.0, 0.0)  # undamped mechanics
    with pytest.raises((IllConditionedError, UnstableSystemError)):
        solve_lyapunov(A, np.diag([0.0, 1.0, 1.4, 1.4]))


# (A, D) pairs that solve_lyapunov rejects: not Hurwitz; undamped
# mechanics, whose eigenvalue pair sums to 0
_REJECTED = (
    (drift_from_rates(1.0, 5.0, 0.2, 1.0, 1e-5), np.diag([0.0, 1.0, 1.0, 1.0])),
    (drift_from_rates(1.0, 0.0, 1.4, 1.0, 0.0), np.diag([0.0, 1.0, 1.4, 1.4])),
)


@given(st.lists(st.one_of(hurwitz_problems(), st.sampled_from(_REJECTED)),
                min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_stacked_calls_equal_one_matrix_calls(problems):
    A = np.array([a for a, _ in problems])
    D = np.array([d for _, d in problems])
    rates, V = decay_rate(A), solve_lyapunov(A, D)
    assert rates.shape == (len(problems),) and V.shape == A.shape
    # spectra from other eigenvalue calls
    eig = np.array([np.linalg.eigvals(a) for a in A])
    assert np.array_equal(spectral_decay(eig), rates)
    for k, (a, d) in enumerate(problems):
        assert rates[k] == decay_rate(a)
        try:
            expected = solve_lyapunov(a, d)
        except (UnstableSystemError, IllConditionedError):
            assert np.isnan(V[k]).all()
        else:
            assert np.array_equal(V[k], expected)
            assert np.array_equal(np.signbit(V[k]), np.signbit(expected))


@pytest.mark.parametrize("omega_m", [None, 1.0, 1e-5])
def test_each_failed_row_of_a_stack_records_the_error_of_its_own_call(omega_m, rng):
    # a solved row beside rows failing the checks: not Hurwitz, an
    # eigenvalue pair summing to ~0, a residual that is not finite. At
    # omega_m = 1 the norm bound spares every row the eigenvalue tests,
    # and the undamped row is a singular system; at 1e-5 it spares none
    problems = [(stable_drift(rng, min_decay=1e-4)[0], np.diag([0.0, 1e-3, 0.7, 0.7])),
                *_REJECTED, (np.diag([-1e-14, -1.0, -1.0, -1.0]), np.eye(4)),
                (-np.eye(4), np.diag([0.0, np.inf, 1.0, 1.0]))]
    A = np.array([a for a, _ in problems])
    D = np.array([d for _, d in problems])
    rates = None if omega_m is None else np.full(len(A), omega_m)
    V, failed = dynamics._solve_rows(A, D, rates)
    assert np.array_equal(V, solve_lyapunov(A, D, rates), equal_nan=True)
    assert 0 not in failed and len(failed) >= 2
    for k, (a, d) in enumerate(problems):
        try:
            solve_lyapunov(a, d, omega_m)
        except (UnstableSystemError, IllConditionedError) as exc:
            assert type(failed[k]) is type(exc) and str(failed[k]) == str(exc)
            assert np.isnan(V[k]).all()
        else:
            assert k not in failed and not np.isnan(V[k]).any()


def test_lyapunov_given_omega_m_takes_no_spectrum_below_the_norm_bound(monkeypatch, rng):
    A = np.array([stable_drift(rng, min_decay=1e-4)[0] for _ in range(3)])
    D = np.array([np.diag([0.0, 1e-3, 0.7, 0.7])] * 3)
    expected = solve_lyapunov(A, D)

    def refused(*args):
        raise AssertionError("eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refused)
    assert np.array_equal(solve_lyapunov(A, D, np.ones(3)), expected)
    for a, d, v in zip(A, D, expected):
        assert np.array_equal(solve_lyapunov(a, d, 1.0), v)


def test_lyapunov_given_omega_m_keeps_the_eigenvalue_tests_above_the_norm_bound(rng):
    # drift matrices at omega_m = 1 read at omega_m = 1e-5, whose bound
    # 0.1 they are above: a spectrum that does not decay is ill
    # conditioning, as the Hurwitz verdict called the matrix stable
    stable = stable_drift(rng, min_decay=1e-4)[0], np.diag([0.0, 1e-3, 0.7, 0.7])
    A = np.array([stable[0], *(a for a, _ in _REJECTED)])
    D = np.array([stable[1], *(d for _, d in _REJECTED)])
    V = solve_lyapunov(A, D, np.full(3, 1e-5))
    assert np.array_equal(V[0], solve_lyapunov(*stable))
    assert np.isnan(V[1:]).all()
    assert np.array_equal(solve_lyapunov(*stable, 1e-5), V[0])
    for a, d in _REJECTED:
        with pytest.raises(IllConditionedError):
            solve_lyapunov(a, d, 1e-5)
    with pytest.raises(IllConditionedError, match="does not decay"):
        solve_lyapunov(*_REJECTED[0], 1e-5)


def test_stacked_lyapunov_rejects_the_row_off_its_residual(monkeypatch, rng):
    A = np.array([stable_drift(rng)[0] for _ in range(3)])
    D = np.array([np.diag([0.0, 1.0, 0.7, 0.7])] * 3)
    expected = [solve_lyapunov(a, d) for a, d in zip(A, D)]
    solve = np.linalg.solve

    def off_in_row_1(M, b):
        x = solve(M, b)
        x[1, 0] += 1e-6 * np.abs(x[1]).max()
        return x

    monkeypatch.setattr(np.linalg, "solve", off_in_row_1)
    V = solve_lyapunov(A, D)
    assert np.isnan(V[1]).all()
    assert np.array_equal(V[0], expected[0]) and np.array_equal(V[2], expected[2])


def test_stacked_diffusion_matrix_rows():
    kappa, gamma, nbar = np.array([1.4, 0.3]), np.array([1e-5, 2e-3]), np.array([0.0, 7.5])
    D = diffusion_matrix(ModelParams(kappa=kappa, G0=None, E=None, delta0=None,
                                     omega_m=None, gamma_m=gamma, nbar=nbar))
    for k in range(2):
        one = diffusion_matrix(_model(kappa=kappa[k], gamma=gamma[k], nbar=nbar[k]))
        assert np.array_equal(D[k], one)


def test_physicality_of_stable_points(rng):
    for _ in range(30):
        A, kappa, delta, gamma, g = stable_drift(rng)
        nbar = rng.uniform(0.0, 10.0)
        D = np.diag([0.0, gamma * (2 * nbar + 1), kappa, kappa])
        V = solve_lyapunov(A, D)
        assert symplectic_eigenvalues(V).min() >= 0.5 - 1e-9


def test_covariance_diverges_at_boundary():
    mp = _model(kappa=1.4, gamma=1e-6, nbar=0.0)
    traces = []
    for eta in (1e-2, 1e-3, 1e-4):
        wp = steady.working_point_from_eta(mp, eta, 1.0)
        A = drift_from_rates(wp.delta, wp.G, mp.kappa, 1.0, mp.gamma_m)
        V = solve_lyapunov(A, diffusion_matrix(mp))
        traces.append(np.trace(V))
    assert traces[0] < traces[1] < traces[2]
    assert traces[-1] > 1e3


# --- integrator ---------------------------------------------------------------

def test_integrator_frozen_dynamics():
    V0 = np.diag([1.0, 2.0, 3.0, 4.0])
    V = integrate_lyapunov(np.zeros((4, 4)), np.zeros((4, 4)), V0, 5.0)
    assert np.allclose(V, V0, atol=1e-12)


def test_integrator_pure_decay(rng):
    A, *_ = stable_drift(rng, min_decay=0.05)
    V0 = 0.5 * np.eye(4)
    V = integrate_lyapunov(A, np.zeros((4, 4)), V0, 60.0 / decay_rate(A))
    assert np.abs(V).max() < 1e-8


def test_integrator_requires_positive_horizon():
    with pytest.raises(ValueError):
        integrate_lyapunov(np.eye(4), np.eye(4), np.eye(4), 0.0)


def test_integrator_matches_direct_solve(default_model):
    wp = steady.steady_states(default_model)[0]
    mp = default_model
    A = drift_from_rates(wp.delta, wp.G, mp.kappa, mp.omega_m,
                         mp.gamma_m) / mp.omega_m
    D = diffusion_matrix(mp) / mp.omega_m
    V_direct = solve_lyapunov(A, D)
    t_final = 50.0 / decay_rate(A)
    V_ode = integrate_lyapunov(A, D, 0.5 * np.eye(4), t_final)
    assert np.abs(V_ode - V_direct).max() <= 1e-7


def van_loan_covariance(A, D, V0, t):
    """V(t) of dV/dt = A V + V A^T + D from one matrix exponential.

    expm([[-A, D], [0, A^T]] t) has lower-right block e^{A^T t} = Phi^T
    and upper-right block F12 with Phi F12 = int_0^t e^{As} D e^{A^T s} ds.
    """
    C = np.block([[-A, D], [np.zeros((4, 4)), A.T]])
    F = expm(C * t)
    phi = F[4:, 4:].T
    return phi @ V0 @ phi.T + phi @ F[:4, 4:]


def test_integrator_transient_matches_van_loan():
    # short horizons only: at t ~ 5/rate the e^{kappa t} growth of the
    # -A block cancels the reference to O(1) error
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(30):
        kappa = rng.uniform(0.3, 2.0)
        delta = rng.uniform(0.4, 2.5)
        gamma = rng.uniform(0.02, 0.2)
        nbar = rng.uniform(0.0, 5.0)
        g = rng.uniform(0.2, 0.9) * math.sqrt((kappa ** 2 + delta ** 2) / delta)
        A = drift_from_rates(delta, g, kappa, 1.0, gamma)
        D = np.diag([0.0, gamma * (2 * nbar + 1), kappa, kappa])
        B = rng.normal(size=(4, 4))
        V0 = 0.5 * np.eye(4) + 0.1 * B @ B.T
        for t in (0.3, 1.0, 3.0):
            V_ref = van_loan_covariance(A, D, V0, t)
            V_ode = integrate_lyapunov(A, D, V0, t)
            err = np.abs(V_ode - V_ref).max() / max(1.0, np.abs(V_ref).max())
            worst = max(worst, err)
    assert worst <= 1e-8


def test_integrator_underflow_raises():
    A = drift_from_rates(1.0, 0.5, 1.4, 1.0, 1e-4)
    D = np.diag([0.0, 1.0, 1.4, 1.4])
    with pytest.raises(IntegrationError):
        # horizon so long that h/t_final underflows the step floor
        integrate_lyapunov(A, D, 0.5 * np.eye(4), 1e18)


# --- helpers -------------------------------------------------------------------

def test_split_blocks_layout():
    V = np.arange(16, dtype=float).reshape(4, 4)
    a_blk, b_blk, c_blk = split_blocks(V)
    assert np.array_equal(a_blk, [[0.0, 1.0], [4.0, 5.0]])
    assert np.array_equal(b_blk, [[10.0, 11.0], [14.0, 15.0]])
    assert np.array_equal(c_blk, [[2.0, 3.0], [6.0, 7.0]])


def test_symplectic_eigenvalues_vacuum():
    assert np.allclose(symplectic_eigenvalues(0.5 * np.eye(4)), [0.5, 0.5])
