"""Classical steady states of the driven cavity and the hysteresis loop.

The stationary displacement solves the cubic

    omega_m * q * (kappa^2 + (Delta_0 - G0*q)^2) = G0 * E^2,

with up to three real roots. The smallest and largest roots form the lower
and upper stable branches; the middle one is dynamically unstable. Each
root carries the effective detuning Delta = Delta_0 - G0*q, the enhanced
coupling G = sqrt(2)*G0*|alpha_s| (fluctuation phase gauged so G is real)
and the bistability parameter eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from scipy.constants import hbar as _HBAR

from . import dynamics
from .errors import ValidationError
from .params import ModelParams, drive_amplitude

# relative discriminant threshold below which a cubic counts as degenerate
_DEGENERATE_RTOL = 1e-12

BRANCH_LOWER = "lower"
BRANCH_MIDDLE = "middle"
BRANCH_UPPER = "upper"
BRANCH_SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class WorkingPoint:
    """One classical steady state with its linearization inputs."""

    q_s: float            # dimensionless displacement
    p_s: float            # stationary momentum, always 0
    alpha_s: complex      # cavity amplitude E/(kappa + i*Delta)
    photons: float        # |alpha_s|^2
    delta: float          # effective detuning, rad/s
    G: float              # enhanced coupling, rad/s
    eta: float            # bistability parameter
    branch: str           # lower | middle | upper | synthetic
    stable: bool          # spectral verdict on the drift matrix
    degenerate: bool = False  # double root exactly at a turning point


@dataclass(frozen=True)
class HysteresisTrace:
    """Steady states over a power grid with adiabatic sweep selections."""

    powers: tuple[float, ...]                 # W, ascending
    points: tuple[tuple[WorkingPoint, ...], ...]
    up: tuple[WorkingPoint, ...]              # branch followed on the up-sweep
    down: tuple[WorkingPoint, ...]            # branch followed on the down-sweep
    switch_up: float | None                   # W, lower branch disappears
    switch_down: float | None                 # W, upper branch disappears


def bistability_parameter(delta: float, G: float, kappa: float,
                          omega_m: float) -> float:
    """eta = 1 - G^2*delta / (omega_m*(kappa^2 + delta^2)), never clamped."""
    return 1.0 - G * G * delta / (omega_m * (kappa * kappa + delta * delta))


def real_cubic_roots(c3: float, c2: float, c1: float, c0: float,
                     polish: bool = True) -> tuple[list[float], bool]:
    """All real roots of c3*x^3 + c2*x^2 + c1*x + c0, ascending.

    Closed-form (trigonometric / Cardano) solution of the depressed cubic,
    then up to 5 Newton polish iterations per root, each kept only while
    the residual improves. Returns (roots, degenerate) where degenerate
    marks a double/triple root within the discriminant tolerance; in that
    case the repeated root appears once.
    """
    b = c2 / c3
    c = c1 / c3
    d = c0 / c3
    shift = b / 3.0
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    # discriminant of t^3 + p*t + q: positive for three distinct real
    # roots, negative for one; compared relative to its largest term
    disc = -4.0 * p ** 3 - 27.0 * q * q
    scale = max(abs(4.0 * p ** 3), 27.0 * q * q, 1e-300)
    degenerate = abs(disc) <= _DEGENERATE_RTOL * scale

    if degenerate:
        if abs(p) ** 3 <= 1e-30 * max(1.0, q * q):
            roots = [-shift]  # triple root
        else:
            # f = f' = 0 gives the double root; the sum of roots is zero
            t_double = -1.5 * q / p
            t_simple = 3.0 * q / p
            roots = sorted({t_double - shift, t_simple - shift})
    elif disc > 0.0:
        # three distinct real roots, trigonometric form (p < 0 here)
        m = 2.0 * math.sqrt(-p / 3.0)
        theta = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * m)))) / 3.0
        roots = sorted(m * math.cos(theta - 2.0 * math.pi * k / 3.0) - shift
                       for k in range(3))
    else:
        # one real root; the Cardano radicand is strictly positive here
        half_q = q / 2.0
        rad = math.sqrt(max(half_q * half_q + (p / 3.0) ** 3, 0.0))
        u = _cbrt(-half_q + rad)
        v = _cbrt(-half_q - rad)
        roots = [u + v - shift]

    if polish:
        roots = [_polish_root(c3, c2, c1, c0, r) for r in roots]
    return sorted(roots), degenerate


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish_root(c3: float, c2: float, c1: float, c0: float, x: float) -> float:
    def f(t):
        return ((c3 * t + c2) * t + c1) * t + c0

    def fp(t):
        return (3.0 * c3 * t + 2.0 * c2) * t + c1

    best, best_res = x, abs(f(x))
    for _ in range(5):
        slope = fp(x)
        if slope == 0.0:
            break
        x_new = x - f(x) / slope
        res = abs(f(x_new))
        if not math.isfinite(x_new) or res >= best_res:
            break
        best, best_res = x_new, res
        x = x_new
    return best


def _point_from_q(mp: ModelParams, q: float, branch: str,
                  degenerate: bool = False) -> WorkingPoint:
    delta = mp.delta0 - mp.G0 * q
    denom = mp.kappa * mp.kappa + delta * delta
    alpha = mp.E / complex(mp.kappa, delta)
    photons = mp.E * mp.E / denom
    G = math.sqrt(2.0) * mp.G0 * math.sqrt(photons)
    eta = bistability_parameter(delta, G, mp.kappa, mp.omega_m)
    A = dynamics.drift_from_rates(delta, G, mp.kappa, mp.omega_m, mp.gamma_m)
    return WorkingPoint(
        q_s=q, p_s=0.0, alpha_s=alpha, photons=photons, delta=delta, G=G,
        eta=eta, branch=branch, stable=dynamics.is_stable_spectral(A),
        degenerate=degenerate,
    )


def _cubic_coeffs(mp: ModelParams) -> tuple[float, float, float, float]:
    return (
        mp.omega_m * mp.G0 * mp.G0,
        -2.0 * mp.omega_m * mp.G0 * mp.delta0,
        mp.omega_m * (mp.kappa * mp.kappa + mp.delta0 * mp.delta0),
        -mp.G0 * mp.E * mp.E,
    )


def steady_states(mp: ModelParams) -> list[WorkingPoint]:
    """All classical steady states, sorted by displacement.

    Three distinct roots are labelled lower/middle/upper; a single root is
    labelled lower. A double root at a turning point is reported with
    degenerate=True rather than failing.
    """
    if mp.E < 0:
        raise ValidationError("E: drive amplitude must be non-negative")
    if mp.E == 0.0 or mp.G0 == 0.0:
        # undriven or decoupled: q = 0 is the only root
        return [_point_from_q(mp, 0.0, BRANCH_LOWER)]

    roots, degenerate = real_cubic_roots(*_cubic_coeffs(mp))
    if degenerate:
        labels = [BRANCH_LOWER, BRANCH_UPPER][:len(roots)]
        # the repeated root is the one at a turning point: f'(q) ~ 0 there
        c3, c2, c1, _ = _cubic_coeffs(mp)
        slopes = [abs((3 * c3 * q + 2 * c2) * q + c1) for q in roots]
        double_idx = int(np.argmin(slopes)) if len(roots) > 1 else 0
        return [_point_from_q(mp, q, lab, degenerate=(i == double_idx))
                for i, (q, lab) in enumerate(zip(roots, labels))]
    if len(roots) == 1:
        return [_point_from_q(mp, roots[0], BRANCH_LOWER)]
    labels = (BRANCH_LOWER, BRANCH_MIDDLE, BRANCH_UPPER)
    return [_point_from_q(mp, q, lab) for q, lab in zip(roots, labels)]


def working_point_from_coupling(mp: ModelParams, G: float,
                                delta: float) -> WorkingPoint:
    """Synthetic working point at prescribed (G, Delta), theoretical axes.

    The intracavity amplitude is backed out of G = sqrt(2)*G0*|alpha_s|;
    photons is NaN when G0 = 0.
    """
    if G < 0:
        raise ValidationError("coupling: G must be non-negative")
    eta = bistability_parameter(delta, G, mp.kappa, mp.omega_m)
    if mp.G0 > 0:
        amp = G / (math.sqrt(2.0) * mp.G0)
        photons = amp * amp
        q = mp.G0 * photons / mp.omega_m
    else:
        amp = float("nan")
        photons = float("nan")
        q = float("nan")
    A = dynamics.drift_from_rates(delta, G, mp.kappa, mp.omega_m, mp.gamma_m)
    return WorkingPoint(
        q_s=q, p_s=0.0, alpha_s=complex(amp, 0.0), photons=photons,
        delta=delta, G=G, eta=eta, branch=BRANCH_SYNTHETIC,
        stable=dynamics.is_stable_spectral(A),
    )


def working_point_from_eta(mp: ModelParams, eta: float,
                           delta: float) -> WorkingPoint:
    """Synthetic working point at prescribed (eta, Delta).

    Inverts the bistability parameter for the coupling:
    G = sqrt(omega_m*(kappa^2+delta^2)*(1-eta)/delta). Requires delta > 0
    and eta <= 1.
    """
    if delta <= 0:
        raise ValidationError("effective_detuning: must be positive for an eta sweep")
    if eta > 1:
        raise ValidationError(f"eta: must be <= 1, got {eta}")
    G = math.sqrt(mp.omega_m * (mp.kappa ** 2 + delta ** 2) * (1.0 - eta) / delta)
    return working_point_from_coupling(mp, G, delta)


def bistable_window_estimate(mp: ModelParams,
                             omega_L: float) -> tuple[float, float] | None:
    """(switch-down, switch-up) powers from the turning points of the
    steady-state cubic; None when the response is single-valued.

    Exact closed form: the turning points q_lo/q_hi are where the drive
    E^2(q) is stationary, mapped back to power through
    E = sqrt(2*P*kappa/(hbar*omega_L)). ``hysteresis`` reports these as
    its switch powers and the figure commands centre their default grids
    on them.
    """
    disc = mp.delta0 ** 2 - 3.0 * mp.kappa ** 2
    if disc <= 0 or mp.G0 <= 0 or mp.delta0 <= 0:
        return None

    def power_at(q):
        delta = mp.delta0 - mp.G0 * q
        e2 = mp.omega_m * q * (mp.kappa ** 2 + delta ** 2) / mp.G0
        return _HBAR * omega_L * e2 / (2.0 * mp.kappa)

    root = math.sqrt(disc)
    q_lo = (2.0 * mp.delta0 - root) / (3.0 * mp.G0)  # local max of the cubic
    q_hi = (2.0 * mp.delta0 + root) / (3.0 * mp.G0)  # local min
    return power_at(q_hi), power_at(q_lo)


def hysteresis(mp: ModelParams, powers, omega_L: float) -> HysteresisTrace:
    """Steady states over an input-power grid with adiabatic selections.

    ``mp`` must be in absolute units (rad/s) so that the power-to-drive
    conversion E = sqrt(2*P*kappa/(hbar*omega_L)) is meaningful. The
    up-sweep follows the lower branch until it ceases to exist, then jumps
    to the upper branch; the down-sweep is the mirror image. Where the
    root count changes between grid points, the switch power is the exact
    turning-point power of ``bistable_window_estimate``.
    """
    powers = [float(p) for p in powers]
    if not powers:
        raise ValidationError("powers: grid must be non-empty")
    if any(p < 0 for p in powers):
        raise ValidationError("powers: grid values must be non-negative")
    if any(b <= a for a, b in zip(powers, powers[1:])):
        raise ValidationError("powers: grid must be strictly increasing")

    per_power = []
    for p in powers:
        E = drive_amplitude(p, mp.kappa, omega_L)
        per_power.append(tuple(steady_states(replace(mp, E=E))))
    counts = [len(pts) for pts in per_power]

    # transitions of the root count along the grid -> switch powers
    p_down, p_up = bistable_window_estimate(mp, omega_L) or (None, None)
    switch_up = None    # 3 -> 1 going up: lower branch ends
    switch_down = None  # 1 -> 3 going up: upper branch begins
    for a, b in zip(counts, counts[1:]):
        if a < 3 <= b:
            switch_down = p_down
        elif a >= 3 > b:
            switch_up = p_up

    # adiabatic following: the up-sweep rides the smallest root until it
    # ceases to exist (the remaining single root IS the post-jump state),
    # the down-sweep mirrors it on the largest root
    up = [pts[0] for pts in per_power]
    down = [pts[-1] for pts in per_power]

    return HysteresisTrace(
        powers=tuple(powers),
        points=tuple(per_power),
        up=tuple(up),
        down=tuple(down),
        switch_up=switch_up,
        switch_down=switch_down,
    )
