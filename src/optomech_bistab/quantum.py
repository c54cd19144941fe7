"""Physics extracted from the steady-state covariance matrix.

Occupancies come straight from the diagonal, n_m = (V11+V22-1)/2 and
n_o = (V33+V44-1)/2. Entanglement between the mechanical and optical
modes is the logarithmic negativity

    E_N = max{0, -ln(2*nu_min)},
    nu_min = sqrt((Sigma - sqrt(Sigma^2 - 4 det V)) / 2),
    Sigma = det A + det B - 2 det C,

with A/B/C the 2x2 blocks of V. The closed forms below capture the
behaviour near the end of a stable branch (eta -> 0), where
Sigma = a + b/eta and det V = c + d/eta, giving E_N = max{0, alpha + beta*eta}
with alpha = -ln(2*sqrt(d/b)) and beta = (a*b*d - b^2*c - d^2)/(2*d*b^2).
They hold for a high-Q mechanical mode in a cold environment
(omega_m/gamma_m >> 1, kappa/(nbar*gamma_m) >> 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import (
    diffusion_matrix,
    drift_from_rates,
    is_marginal,
    solve_lyapunov,
    split_blocks,
)
from .errors import PhysicalityError

if TYPE_CHECKING:  # pragma: no cover
    from .params import ModelParams

# linearization-validity threshold of validity_ok: n_o / photons <= threshold
VALIDITY_THRESHOLD = 0.01

# round-off allowed below 0 in the symplectic discriminant and nu_min^2
PHYSICALITY_SLACK = 1e-9

# |alpha| or |beta| below this counts as a regime-boundary tie
REGIME_TIE_TOL = 1e-12

REGIME_BOUNDARY = 0


@dataclass(frozen=True)
class EntanglementReport:
    """Covariance-derived scalars plus the linearization-validity check."""

    sigma: float           # det A_blk + det B_blk - 2 det C_blk
    det_v: float
    nu_min: float          # smallest symplectic eigenvalue of the PT state
    e_n: float             # logarithmic negativity, >= 0
    n_m: float             # phonon occupancy
    n_o: float             # photon occupancy
    validity_ok: bool      # validity_ratio <= VALIDITY_THRESHOLD
    validity_ratio: float  # n_o / photons (inf at 0 photons, NaN if unknown)


@dataclass(frozen=True)
class AsymptoticCoeffs:
    """Coefficients of the eta -> 0 expansion at fixed (Delta, kappa)."""

    a: float
    b: float
    c: float
    d: float
    alpha: float   # limiting E_N at the branch end
    beta: float    # first-order slope in eta


def occupancies(V: np.ndarray) -> tuple[float, float]:
    """(n_m, n_o) from the covariance diagonal; no clamping applied. A
    stack (N, 4, 4) gives two arrays."""
    W = V.T  # W[i, i] is V[i, i], or the column of V[:, i, i] of a stack
    n_m = (W[0, 0] + W[1, 1] - 1.0) / 2.0
    n_o = (W[2, 2] + W[3, 3] - 1.0) / 2.0
    return (n_m, n_o) if V.ndim == 3 else (float(n_m), float(n_o))


def _e_n(nu_min: float) -> float:
    """E_N = max{0, -ln(2*nu_min)}, through math.log."""
    return max(0.0, -math.log(2.0 * nu_min)) if nu_min > 0 else math.inf


def log_negativity(V: np.ndarray, photons: float | None = None) -> EntanglementReport:
    """Full entanglement report for a physical 4x4 covariance matrix.

    ``photons`` is the classical intracavity photon number |alpha_s|^2 of
    the working point; when omitted the validity ratio is NaN and the
    validity flag vacuously true. Raises PhysicalityError if the
    symplectic discriminant Sigma^2 - 4 det V or nu_min^2 is below
    -PHYSICALITY_SLACK, or NaN, as where the determinants of V overflow.

    A stack (N, 4, 4), with ``photons`` an array or None, gives a report
    of arrays (``_report_rows``), NaN in every number and validity_ok
    False on each row that fails. One matrix is a stack of one: its call
    raises the error of its row, or returns the row as Python floats and
    bools.
    """
    if V.ndim == 3:
        return _report_rows(V, photons)[0]
    report, failed = _report_rows(
        V[None], None if photons is None else np.array([photons], dtype=float))
    if failed:
        raise failed[0]
    return EntanglementReport(*(v[0].item() for v in vars(report).values()))


def _report_rows(V: np.ndarray, photons) -> tuple:
    """The report of ``log_negativity`` on a stack (N, 4, 4), and the
    error of each failed row by row index, the discriminant tested first:
    the error its one-matrix call raises. The logarithm is taken per
    element through ``math``, whose bits the CSV bodies carry: ``np.log``
    differs from it in the last bit of about 1% of values."""
    # overflowing determinants give a NaN disc, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        det_a, det_b, det_c = np.linalg.det(split_blocks(V))  # one call
        sigma = det_a + det_b - 2.0 * det_c
        det_v = np.linalg.det(V)
        disc = sigma * sigma - 4.0 * det_v
        nu_sq = (sigma - np.sqrt(np.maximum(disc, 0.0))) / 2.0
        physical = (disc >= -PHYSICALITY_SLACK) & (nu_sq >= -PHYSICALITY_SLACK)
        nu_min = np.where(physical, np.sqrt(np.maximum(nu_sq, 0.0)), np.nan)
        e_n = np.full(len(V), np.nan)
        e_n[physical] = list(map(_e_n, nu_min[physical].tolist()))
        n_m, n_o = np.where(physical, occupancies(V), np.nan)
        if photons is None:
            ratio, ok = np.full(len(V), np.nan), physical
        else:
            ratio = np.divide(n_o, photons, where=physical & (photons > 0),
                              out=np.where(physical, np.inf, np.nan))
            ok = ratio <= VALIDITY_THRESHOLD
    report = EntanglementReport(
        sigma=np.where(physical, sigma, np.nan),
        det_v=np.where(physical, det_v, np.nan), nu_min=nu_min,
        e_n=e_n, n_m=n_m, n_o=n_o, validity_ok=ok, validity_ratio=ratio)
    failed = {}
    for k in np.flatnonzero(~physical).tolist():
        failed[k] = PhysicalityError(  # a NaN disc fails its test too
            f"Sigma^2 - 4 det V = {disc[k]:.3e}, not >= 0 within slack; "
            "covariance is not physical" if not disc[k] >= -PHYSICALITY_SLACK
            else f"nu_min^2 = {nu_sq[k]:.3e}, not >= 0 within slack")
    return report, failed


def covariance_rows(delta: np.ndarray, G: np.ndarray, photons: np.ndarray,
                    mp: "ModelParams") -> tuple[np.ndarray, np.ndarray,
                                                EntanglementReport]:
    """The covariance chain on a stack of working points the Hurwitz
    verdict calls stable: drift, marginal verdict, Lyapunov solve, report.
    Each sweep chunk, and ``harness.evaluate_point``'s stack of one, is
    one call, with one call each of ``solve_lyapunov`` and
    ``log_negativity``.

    ``delta``, ``G`` and ``photons`` are 1-D arrays of N rows, and so are
    the fields of the ModelParams ``mp``. Returns the mask of marginal
    rows (``dynamics.is_marginal``: decay rate at most
    MARGINAL_DECAY_FRACTION * omega_m), the mask of rows whose Lyapunov
    solve (``dynamics.solve_lyapunov`` given omega_m) raises alone, and
    the stacked report of the other rows, the solved ones, in row order,
    NaN where the covariance is not physical. No row takes a spectrum save
    those at or above the solve's norm bound. Every row is bit-identical
    to the chain on that row alone.
    """
    A = drift_from_rates(delta, G, mp.kappa, mp.omega_m, mp.gamma_m)
    marginal = is_marginal(delta, G, mp.kappa, mp.omega_m, mp.gamma_m)
    live = ~marginal
    V = solve_lyapunov(A[live], diffusion_matrix(mp)[live], mp.omega_m[live])
    solved = ~np.isnan(V[:, 0, 0])
    conditioning = live.copy()
    conditioning[live] = ~solved
    return marginal, conditioning, log_negativity(V[solved], photons[live][solved])


def approx_phonons(delta: float, kappa: float, omega_m: float,
                   eta: float) -> float:
    """High-Q cold-bath phonon number as a function of eta.

    ((Delta^2+kappa^2)(1+eta) - 2*eta*omega_m*(2*Delta-omega_m))
    / (8*Delta*eta*omega_m). Diverges as eta -> 0.
    """
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    num = ((delta * delta + kappa * kappa) * (1.0 + eta)
           - 2.0 * eta * omega_m * (2.0 * delta - omega_m))
    return num / (8.0 * delta * eta * omega_m)


def approx_photons(delta: float, kappa: float, eta: float) -> float:
    """High-Q cold-bath photon number (1-eta)(kappa^2+Delta^2)/(8*eta*Delta^2)."""
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return (1.0 - eta) * (kappa * kappa + delta * delta) / (8.0 * eta * delta * delta)


def optimal_cooling_detuning(kappa: float, omega_m: float) -> float:
    """Detuning sqrt(kappa^2 + omega_m^2) minimizing the phonon number at eta = 1."""
    return math.hypot(kappa, omega_m)


def cooling_limit(kappa: float, omega_m: float) -> float:
    """Minimal phonon number (sqrt(kappa^2+omega_m^2)/omega_m - 1)/2.

    Approaches kappa^2/(4*omega_m^2) deep in the resolved-sideband regime.
    """
    return 0.5 * (math.hypot(kappa, omega_m) / omega_m - 1.0)


def asymptotic_coeffs(delta: float, kappa: float,
                      omega_m: float) -> AsymptoticCoeffs:
    """Branch-end expansion coefficients at fixed (Delta, kappa, omega_m)."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if omega_m <= 0:
        raise ValueError(f"omega_m must be positive, got {omega_m}")
    d2 = delta * delta
    k2 = kappa * kappa
    w2 = omega_m * omega_m
    s = d2 + k2
    a = (d2 - 3.0 * k2 + w2) / (16.0 * d2)
    b = s * (s + 5.0 * w2) / (16.0 * d2 * w2)
    c = (2.0 * d2 * s + (d2 - k2) * w2) / (128.0 * d2 * d2)
    d = s * (4.0 * d2 * d2 + 4.0 * d2 * k2 + 4.0 * d2 * w2 + w2 * w2) \
        / (256.0 * d2 * d2 * w2)
    alpha = -math.log(2.0 * math.sqrt(d / b))
    beta = (a * b * d - b * b * c - d * d) / (2.0 * d * b * b)
    return AsymptoticCoeffs(a=a, b=b, c=c, d=d, alpha=alpha, beta=beta)


def classify_regime(coeffs: AsymptoticCoeffs) -> int:
    """Regime label from the signs of (alpha, beta).

    1: alpha < 0, beta < 0 (no entanglement near the branch end);
    2: alpha < 0 < beta, or both positive (interior maximum in eta);
    3: alpha > 0 > beta (maximum exactly at the branch end);
    0: tie, |alpha| or |beta| at most ``REGIME_TIE_TOL``.
    """
    alpha, beta = coeffs.alpha, coeffs.beta
    if abs(alpha) <= REGIME_TIE_TOL or abs(beta) <= REGIME_TIE_TOL:
        return REGIME_BOUNDARY
    if alpha < 0 and beta < 0:
        return 1
    if alpha > 0 and beta < 0:
        return 3
    return 2


def optimal_entanglement_detuning(kappa: float, omega_m: float) -> float:
    """Detuning maximizing the branch-end entanglement alpha.

    (omega_m/4) * sqrt(1 + sqrt(16*(kappa/omega_m)^2 + 81)); the inner root
    is ``math.hypot``, which squares no ratio, so that it stays finite for
    kappa/omega_m up to ~4e307.
    """
    ratio = kappa / omega_m
    return 0.25 * omega_m * math.sqrt(1.0 + math.hypot(4.0 * ratio, 9.0))


def max_entanglement(kappa: float, omega_m: float) -> float:
    """Maximum achievable E_N, -ln[(1/5)*sqrt(9 + 128 k^2/(8 k^2 + 45 w^2))].

    Exact at kappa = 0 where it equals -ln(3/5); for kappa > 0 it tracks
    the branch-end value at the optimal detuning to within ~2e-3. Taken on
    the rates over the larger one: no square of a rate makes it 0/0 or inf/inf.
    Where the logarithm is 0 (kappa >> omega_m) it returns +0.0, not -0.0.
    """
    scale = max(kappa, omega_m)
    k, w = kappa / scale, omega_m / scale
    k2, w2 = k * k, w * w
    return 0.0 - math.log(0.2 * math.sqrt(9.0 + 128.0 * k2 / (8.0 * k2 + 45.0 * w2)))
