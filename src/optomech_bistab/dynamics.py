"""Linearized Gaussian dynamics of the fluctuations.

State ordering is (dq, dp, X, Y) with X, Y the cavity quadratures. The
drift matrix is

        |   0      w_m     0      0   |
    A = |  -w_m   -g_m     G      0   |
        |   0      0      -kappa  D   |
        |   G      0      -D     -kappa|

and the diffusion matrix, fixed by the vacuum optical input and the
Markovian thermal force, is D = diag(0, g_m*(2*nbar+1), kappa, kappa).
The steady-state covariance solves A V + V A^T + D = 0. The direct solver
takes the 10 upper-triangle entries of V as unknowns; V -> A V + V A^T is
linear in A, so their 10x10 system is one constant (100, 16) map applied
to the entries of A. The adaptive integrator below evolves the transient
form and serves as an independent oracle for the direct solver.

Stability has one verdict, ``is_stable_rh``, and it needs no eigenvalue:
it reads the signs of the Routh-Hurwitz determinants of A's
characteristic quartic, evaluated in a factored form whose terms are all
non-negative save the Hopf term at Delta < 0 (the expanded form cancels
catastrophically when gamma_m << kappa << omega_m). It decides every
working point, the roots of the steady-state cubic and the synthetic
points of theoretical axes alike. The marginal verdict (``is_marginal``:
a decay rate at most MARGINAL_DECAY_FRACTION * omega_m) is the same
verdict on the drift shifted by that rate. So the covariance chain
takes a spectrum only for the eigenvalue tests of ``solve_lyapunov``,
and only on drift matrices too large for a bound on the spectrum to
rule those tests out.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    IllConditionedError,
    IntegrationError,
    UnstableSystemError,
)

if TYPE_CHECKING:  # pragma: no cover
    from .params import ModelParams

# decay rates slower than this fraction of omega_m are treated as marginal
MARGINAL_DECAY_FRACTION = 1e-8

# an eigenvalue pair l_i + l_j below this fraction of the spectral radius
# makes the Lyapunov system ill conditioned
PAIR_SUM_FRACTION = 1e-12

# ||A||_F, in units of omega_m, below which that pair test cannot fire on
# a matrix that is not marginal: min |l_i + l_j| >= 2 * decay > 2 * f *
# omega_m, f the marginal fraction, and max |l| <= ||A||_F (a factor 2 of
# margin against round-off in either)
_SPECTRUM_FREE_NORM = MARGINAL_DECAY_FRACTION / PAIR_SUM_FRACTION

# residual bound of the direct Lyapunov solve, c * eps * max|A| * max|V|:
# the round-off of A V + V A^T, which grows with V as the decay rate -> 0.
# Floored at the smallest normal float, as the product underflows to 0
# for subnormal inputs.
LYAPUNOV_RESIDUAL_C = 64
_C_EPS = LYAPUNOV_RESIDUAL_C * np.finfo(float).eps
_RESIDUAL_FLOOR = np.finfo(float).tiny

# packed unknowns: the upper triangle of V, row by row
_I, _J = np.array([(i, j) for i in range(4) for j in range(i, 4)]).T
_PACKED = np.zeros((4, 4), dtype=int)  # packed index of every entry of V
_PACKED[_I, _J] = _PACKED[_J, _I] = np.arange(10)

# _MAP @ A.ravel() is the packed system: entry (r, c) is entry r of
# A E_c + E_c A^T, where E_c[m, n] = 1 if _PACKED[m, n] == c, else 0. So
# A[i, q] enters entry (i, j) of column _PACKED[q, j] (from A E_c), and
# A[j, q] enters entry (i, j) of column _PACKED[i, q] (from E_c A^T).
_i, _j, _q = np.indices((4, 4, 4))
_MAP = np.zeros((4, 4, 10, 4, 4))
_MAP[_i, _j, _PACKED[_q, _j], _i, _q] += 1.0
_MAP[_i, _j, _PACKED[_i, _q], _j, _q] += 1.0
_MAP = _MAP[_I, _J].reshape(100, 16)


def drift_from_rates(delta: float, G: float, kappa: float,
                     omega_m: float, gamma_m: float) -> np.ndarray:
    """Drift matrix from the rates (effective detuning, coupling).

    Scalar rates give one 4x4 matrix; rates given as equal-length 1-D
    arrays give the stack (N, 4, 4).
    """
    zero = 0.0 * abs(kappa)  # a scalar or array of +0.0 like the rates
    A = np.array([
        [zero, omega_m, zero, zero],
        [-omega_m, -gamma_m, G, zero],
        [zero, zero, -kappa, delta],
        [G, zero, -delta, -kappa],
    ])
    return A if A.ndim == 2 else A.transpose(2, 0, 1)


def diffusion_matrix(mp: "ModelParams") -> np.ndarray:
    """Noise-strength matrix diag(0, gamma_m*(2*nbar+1), kappa, kappa).

    A model whose gamma_m, nbar and kappa are equal-length 1-D arrays
    gives the stack (N, 4, 4).
    """
    zero, kappa = 0.0 * abs(mp.kappa), mp.kappa
    # an overflowing thermal term is inf, as it is for a number, and the
    # solve's residual is then not finite
    with np.errstate(over="ignore"):
        thermal = mp.gamma_m * (2.0 * mp.nbar + 1.0)
    D = np.array([
        [zero, zero, zero, zero],
        [zero, thermal, zero, zero],
        [zero, zero, kappa, zero],
        [zero, zero, zero, kappa],
    ])
    return D if D.ndim == 2 else D.transpose(2, 0, 1)


def is_stable_rh(delta: float, G: float, kappa: float, omega_m: float,
                 gamma_m: float, spring: float = 1.0) -> bool | np.ndarray:
    """Hurwitz stability verdict on the drift matrix, for either sign of
    Delta: True iff every eigenvalue has strictly negative real part, the
    boundary counting as not stable. Takes scalars or broadcast arrays.

    The characteristic quartic [(l + k)^2 + D^2][l^2 + g l + w^2] - w G^2 D
    = l^4 + a1 l^3 + a2 l^2 + a3 l + a4 of A has a1 = g + 2k, a2 = D^2 +
    k^2 + w^2 + 2gk, a3 = g(D^2 + k^2) + 2kw^2 and a4 = w(w(k^2 + D^2) -
    G^2 D), with D = delta, k = kappa, w = omega_m and g = gamma_m. It is
    Hurwitz iff a1, H2 = a1 a2 - a3, H3 = a1 a2 a3 - a3^2 - a1^2 a4 and a4
    are positive (DeJesus & Kaufman, PRA 35, 5288 (1987)). H2 and H3 are
    evaluated factored, as sums whose every term is non-negative for g,
    k >= 0 save the Hopf term of H3 at D < 0: the expanded H3 cancels
    catastrophically when g << k << w.

    ``spring`` replaces w^2 by spring * w^2 in the mechanical factor only,
    w G^2 staying as it is: the quartic of a shifted drift (``is_marginal``),
    whose restoring term may have either sign.
    """
    # scaled by a power of two at the largest rate: exact, so it changes no
    # sign below, and no product overflows
    _, exp = np.frexp(functools.reduce(np.maximum, map(np.abs, (
        delta, G, kappa, omega_m, gamma_m))))
    d, G, k, w, g = (np.ldexp(x, -exp) for x in (delta, G, kappa, omega_m, gamma_m))
    d2, k2, w2 = d * d, k * k, spring * w * w
    a1 = g + 2.0 * k
    a4 = w * (spring * w * (k2 + d2) - G * G * d)
    h2 = 2.0 * k * (d2 + k2) + g * (w2 + 2.0 * g * k + 4.0 * k2)
    h3 = 2.0 * g * k * ((d2 + k2 - w2) ** 2 + 4.0 * k2 * w2 + g * (
        g * d2 + 2.0 * k * d2 + g * k2 + 2.0 * k * k2 + 2.0 * k * w2)) \
        + d * w * G * G * a1 * a1
    return (a1 > 0.0) & (h2 > 0.0) & (h3 > 0.0) & (a4 > 0.0)


def is_marginal(delta: float, G: float, kappa: float, omega_m: float,
                gamma_m: float) -> bool | np.ndarray:
    """True iff the slowest decay rate of the drift matrix is at most c =
    MARGINAL_DECAY_FRACTION * omega_m, every unstable matrix among them:
    the Hurwitz verdict on A + c I, with no eigenvalue. Takes what
    ``is_stable_rh`` takes.

    With l -> l - c and f the fraction, the quartic keeps its form with
    k - c, g - 2c and the restoring term (1 - f g/w + f^2) w^2 in place of
    w^2, the product w G^2 unchanged; the restoring term is negative for
    mechanics damped beyond g = (1/f + f) w.
    """
    f = MARGINAL_DECAY_FRACTION
    c = f * omega_m
    return ~is_stable_rh(delta, G, kappa - c, omega_m, gamma_m - 2.0 * c,
                         spring=1.0 - f * gamma_m / omega_m + f * f)


def spectral_decay(eig: np.ndarray) -> np.ndarray:
    """Slowest decay rate -max Re(l) of a spectrum, or of each spectrum of
    a stack (N, 4). A matrix is stable iff the rate of its spectrum is
    positive, that is iff every eigenvalue has negative real part."""
    return -eig.real.max(-1)


def decay_rate(A: np.ndarray) -> float | np.ndarray:
    """Slowest decay rate -max Re(eig A); negative if A is unstable. A
    stack (N, 4, 4) gives the array of N rates from one eigenvalue call."""
    rate = spectral_decay(np.linalg.eigvals(A))
    return rate if rate.ndim else float(rate)


def solve_lyapunov(A: np.ndarray, D: np.ndarray, omega_m=None) -> np.ndarray:
    """Unique symmetric V with A V + V A^T + D = 0.

    Solved for the 10 packed upper-triangle entries of V as one dense
    system with matrix ``_MAP @ A.ravel()``. Raises UnstableSystemError
    (naming the offending eigenvalue) if A is not Hurwitz, and
    IllConditionedError if an eigenvalue pair sums to less than
    PAIR_SUM_FRACTION of the spectral radius, the system is singular or
    the residual contract max|A V + V A^T + D| <= max(c * eps * max|A| *
    max|V|, tiny) cannot be met: c = 64, eps the machine epsilon and tiny
    the smallest normal float. The bound is the backward-error scale of
    the solve (Higham, BIT 33, 1993): over 20,000 drift matrices of the
    default model with kappa and Delta in [0.05, 3] and [0.02, 3] omega_m
    and eta log-uniform in [1e-8, 1] the residual stays below 2.5 * eps *
    max|A| * max|V|.

    ``omega_m`` is given for a drift matrix that the Hurwitz verdicts
    call stable and not marginal (``is_stable_rh``, ``is_marginal``).
    Below the norm bound ||A||_F < _SPECTRUM_FREE_NORM * omega_m the
    eigenvalue tests cannot fire, and A goes straight to the packed solve
    and its residual bound, with no eigenvalue call. At or above it the
    tests run, and a computed spectrum that does not decay raises
    IllConditionedError, not UnstableSystemError.

    Stacks A and D (N, 4, 4), with omega_m per row, give the stack of V,
    each matrix solved on its own, NaN on every row that fails
    (``_solve_rows``). One matrix is solved as a stack of one, and its
    call raises the error of its row.
    """
    if A.ndim == 3:
        return _solve_rows(A, D, omega_m)[0]
    V, failed = _solve_rows(A[None], D[None],
                            None if omega_m is None else np.reshape(omega_m, 1))
    if failed:
        raise failed[0]
    return V[0]


def _solve_rows(A: np.ndarray, D: np.ndarray, omega_m) -> tuple:
    """The stack of V of ``solve_lyapunov`` on stacks (N, 4, 4), NaN on
    every failed row, and the error of each failed row by row index: the
    error its one-matrix call raises. Rows that fail the eigenvalue tests
    skip the packed solve; a stack whose every row passes them is solved
    whole."""
    tested = np.full(len(A), True) if omega_m is None else \
        ~(np.linalg.norm(A, axis=(-2, -1)) < _SPECTRUM_FREE_NORM * omega_m)
    failed = {}
    if tested.any():
        rows = np.flatnonzero(tested).tolist()
        eig = np.linalg.eigvals(A[rows])
        decay, pair_min = spectral_decay(eig), _pair_min(eig)
        passed = (decay > 0.0) & ~(pair_min < PAIR_SUM_FRACTION * np.abs(eig).max(-1))
        for k in np.flatnonzero(~passed).tolist():
            if not decay[k] > 0.0:
                unstable = UnstableSystemError(eig[k][np.argmax(eig[k].real)])
                failed[rows[k]] = unstable if omega_m is None else \
                    IllConditionedError(f"computed spectrum does not decay: {unstable}")
            else:
                failed[rows[k]] = IllConditionedError(
                    f"eigenvalue pair sums to ~0 (min |l_i + l_j| = {pair_min[k]:.3e})")
    if not failed:
        return _solve_packed(A, D)
    rows = np.setdiff1d(np.arange(len(A)), list(failed)).tolist()
    V = np.full(A.shape, np.nan)
    V[rows], unsolved = _solve_packed(A[rows], D[rows])
    return V, {**failed, **{rows[k]: error for k, error in unsolved.items()}}


def _pair_min(eig: np.ndarray) -> np.ndarray:
    """min |l_i + l_j| over the pairs of a spectrum, or per spectrum of a
    stack (N, 4), i = j included."""
    return np.abs(eig[..., :, None] + eig[..., None, :]).min(axis=(-2, -1))


def _solve_packed(A: np.ndarray, D: np.ndarray) -> tuple:
    """The packed solve of ``solve_lyapunov`` and its residual bound on
    stacks, without the eigenvalue tests: the stack of V, NaN on failed
    rows, and the error of each failed row by row index. Where numpy
    rejects the stack for a singular matrix, each row is solved as a
    stack of its own."""
    M = (A.reshape(-1, 16) @ _MAP.T).reshape(-1, 10, 10)
    try:
        V = np.linalg.solve(M, -D[:, _I, _J, None])[:, _PACKED, 0]
    except np.linalg.LinAlgError:  # for the whole stack, if one matrix is singular
        if len(A) == 1:
            return np.full(A.shape, np.nan), {0: IllConditionedError(
                "Lyapunov system is singular")}
        singles = [_solve_packed(a[None], d[None]) for a, d in zip(A, D)]
        return np.concatenate([V for V, _ in singles]), \
            {k: failed[0] for k, (_, failed) in enumerate(singles) if failed}
    residual, bound = _residual_bound(A, V, D)
    off = np.flatnonzero(~(residual <= bound)).tolist()
    V[off] = np.nan
    return V, {k: IllConditionedError(f"Lyapunov residual {residual[k]:.3e} "
                                      f"exceeds {bound[k]:.3e}") for k in off}


def _residual_bound(A: np.ndarray, V: np.ndarray, D: np.ndarray) -> tuple:
    """max|A V + V A^T + D| and its bound, per matrix of a stack."""
    axes = (-2, -1)  # the matrix axes
    # an overflowing V gives a non-finite residual, which fails the bound
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(A @ V + V @ A.swapaxes(-1, -2) + D).max(axis=axes)
        bound = np.maximum(_C_EPS * np.abs(A).max(axis=axes)
                           * np.abs(V).max(axis=axes), _RESIDUAL_FLOOR)
    return residual, bound


def integrate_lyapunov(A: np.ndarray, D: np.ndarray, V0: np.ndarray,
                       t_final: float) -> np.ndarray:
    """V(t_final) of dV/dt = A V + V A^T + D from V(0) = V0.

    scipy's DOP853 stepper (the 8(5,3) pair of Hairer, Norsett & Wanner)
    on the 16 entries of V, with 1e-10 as both absolute and relative
    local tolerance; V is symmetrized once, at the end. Raises
    IntegrationError when a step falls below the floor 1e-14 * t_final.
    """
    # imported here, the package's only scipy import: at module level it
    # would add ~0.45 s (about four times the numpy-only package import)
    # and ~50 MB of resident memory, for an oracle the pipeline never calls
    from scipy.integrate import DOP853

    if not t_final > 0:
        raise ValueError(f"t_final must be positive, got {t_final}")

    def rhs(t, y):
        M = y.reshape(4, 4)
        return (A @ M + M @ A.T + D).ravel()

    solver = DOP853(rhs, 0.0, (0.5 * (V0 + V0.T)).ravel(), t_final,
                    rtol=1e-10, atol=1e-10)
    h_min = 1e-14 * t_final
    while solver.status == "running":
        solver.step()
        h = solver.step_size
        # a step clipped to end exactly at t_final is not an underflow
        if solver.status == "failed" or \
                (solver.status == "running" and h < h_min):
            raise IntegrationError(
                f"step size underflow at t = {solver.t:.6e} (h = {h or 0.0:.3e})")
    V = solver.y.reshape(4, 4)
    return 0.5 * (V + V.T)


def split_blocks(V: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mechanical, optical, cross) 2x2 blocks of the covariance matrix,
    or of each matrix of a stack (N, 4, 4)."""
    return V[..., :2, :2], V[..., 2:, 2:], V[..., :2, 2:]


def symplectic_eigenvalues(V: np.ndarray) -> np.ndarray:
    """Symplectic spectrum |eig(i Omega V)| of a 4x4 covariance, ascending.

    Physical states have both values >= 1/2 in the vacuum-1/2 convention.
    """
    omega = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ])
    ev = np.abs(np.linalg.eigvals(1j * omega @ V))
    return np.sort(ev)[::2]  # values come in equal pairs
