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

import numpy as np

from .dynamics import split_blocks
from .errors import PhysicalityError

# linearization-validity threshold of validity_ok: n_o <= threshold * photons
VALIDITY_THRESHOLD = 0.01

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
    validity_ok: bool      # n_o <= VALIDITY_THRESHOLD * photons
    validity_ratio: float  # n_o / photons (NaN if photons unknown)


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
    """(n_m, n_o) from the covariance diagonal; no clamping applied."""
    n_m = (V[0, 0] + V[1, 1] - 1.0) / 2.0
    n_o = (V[2, 2] + V[3, 3] - 1.0) / 2.0
    return float(n_m), float(n_o)


def log_negativity(V: np.ndarray, photons: float | None = None,
                   slack: float = 1e-9) -> EntanglementReport:
    """Full entanglement report for a physical 4x4 covariance matrix.

    ``photons`` is the classical intracavity photon number |alpha_s|^2 of
    the working point; when omitted the validity ratio is NaN and the
    validity flag vacuously true. Raises PhysicalityError if the
    symplectic discriminant Sigma^2 - 4 det V or nu_min^2 is negative
    beyond ``slack``, or NaN, as where the determinants of V overflow.
    """
    # overflowing determinants give a NaN disc, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        det_a, det_b, det_c = np.linalg.det(split_blocks(V))  # stacked: one call
        sigma = det_a + det_b - 2.0 * det_c
        det_v = float(np.linalg.det(V))
        disc = sigma * sigma - 4.0 * det_v
    if not disc >= -slack:  # NaN too: overflowed determinants
        raise PhysicalityError(
            f"Sigma^2 - 4 det V = {disc:.3e}, not >= 0 within slack; "
            "covariance is not physical")
    nu_sq = (sigma - math.sqrt(max(disc, 0.0))) / 2.0
    if not nu_sq >= -slack:
        raise PhysicalityError(f"nu_min^2 = {nu_sq:.3e}, not >= 0 within slack")
    nu_min = math.sqrt(max(nu_sq, 0.0))
    e_n = max(0.0, -math.log(2.0 * nu_min)) if nu_min > 0 else math.inf
    n_m, n_o = occupancies(V)
    if photons is None:
        ratio = float("nan")
        ok = True
    else:
        ratio = n_o / photons if photons > 0 else math.inf
        ok = n_o <= VALIDITY_THRESHOLD * photons
    return EntanglementReport(
        sigma=float(sigma), det_v=det_v, nu_min=nu_min, e_n=e_n,
        n_m=n_m, n_o=n_o, validity_ok=ok, validity_ratio=ratio,
    )


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

    (omega_m/4) * sqrt(1 + sqrt(16*(kappa/omega_m)^2 + 81)).
    """
    ratio = kappa / omega_m
    return 0.25 * omega_m * math.sqrt(1.0 + math.sqrt(16.0 * ratio * ratio + 81.0))


def max_entanglement(kappa: float, omega_m: float) -> float:
    """Maximum achievable E_N, -ln[(1/5)*sqrt(9 + 128 k^2/(8 k^2 + 45 w^2))].

    Exact at kappa = 0 where it equals -ln(3/5); for kappa > 0 it tracks
    the branch-end value at the optimal detuning to within ~2e-3.
    """
    k2 = kappa * kappa
    w2 = omega_m * omega_m
    return -math.log(0.2 * math.sqrt(9.0 + 128.0 * k2 / (8.0 * k2 + 45.0 * w2)))
