"""Classical steady states of the driven cavity and the hysteresis loop.

The stationary displacement solves the cubic

    omega_m * q * (kappa^2 + (Delta_0 - G0*q)^2) = G0 * E^2,

with up to three real roots. The smallest and largest roots form the lower
and upper stable branches; the middle one is dynamically unstable. Each
root carries the effective detuning Delta = Delta_0 - G0*q, the enhanced
coupling G = sqrt(2)*G0*|alpha_s| (fluctuation phase gauged so G is real)
and the bistability parameter eta.

The cubic is solved array-at-a-time: ``steady_states_grid`` takes model
constants as broadcast numpy arrays (a power grid, an experimental sweep
grid) and computes the closed-form roots, their Newton polish, the
working-point quantities and one stacked spectral stability verdict for
every grid point in one pass, into one root table: an array per field
over all roots of the grid. ``WorkingPoint`` objects are a view of that
table, built only when a caller asks for them. ``steady_states`` and
``real_cubic_roots`` are one-model views, so each result is bit-identical
whether a model is solved alone or as part of a grid.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import dynamics
from .errors import ValidationError
from .params import ModelParams, drive_amplitude, drive_power

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
    photons: float        # |alpha_s|^2, alpha_s = E/(kappa + i*Delta)
    delta: float          # effective detuning, rad/s
    G: float              # enhanced coupling, rad/s
    eta: float            # bistability parameter
    branch: str           # lower | middle | upper | synthetic
    stable: bool          # spectral verdict on the drift matrix
    degenerate: bool = False  # double root exactly at a turning point


# All roots of a grid of models, in model order and ascending q_s within a
# model; numpy arrays, but lists for branch and stable. Per root: its model
# index and the WorkingPoint fields; per model, ``count``, its root count.
RootTable = namedtuple("RootTable", "model count q_s photons delta G eta "
                                    "branch stable degenerate")


@dataclass(frozen=True, eq=False)
class HysteresisTrace:
    """Steady states over a power grid with adiabatic sweep selections.

    ``points`` is the ``WorkingPoint`` view of ``table``, built on first
    access. The up-sweep rides the smallest root of each power,
    ``points[k][0]``, until it ceases to exist (the remaining single root
    IS the post-jump state); the down-sweep mirrors it on the largest
    root, ``points[k][-1]``.
    """

    powers: tuple[float, ...]                 # W, ascending
    table: RootTable
    switch_up: float | None                   # W, lower branch disappears
    switch_down: float | None                 # W, upper branch disappears

    @cached_property
    def points(self) -> tuple[tuple[WorkingPoint, ...], ...]:
        return tuple(map(tuple, _working_points(self.table)))


def bistability_parameter(delta: float, G: float, kappa: float,
                          omega_m: float) -> float:
    """eta = 1 - G^2*delta / (omega_m*(kappa^2 + delta^2)), never clamped."""
    return 1.0 - G * G * delta / (omega_m * (kappa * kappa + delta * delta))


def real_cubic_roots(c3: float, c2: float, c1: float,
                     c0: float) -> tuple[list[float], bool]:
    """All real roots of c3*x^3 + c2*x^2 + c1*x + c0, ascending.

    Closed-form (trigonometric / Cardano) solution of the depressed cubic,
    then up to 5 Newton polish iterations per root, each kept only while
    the residual improves. Returns (roots, degenerate) where degenerate
    marks a double/triple root within the discriminant tolerance; in that
    case the repeated root appears once. The one-cubic view of
    ``_cubic_roots``.
    """
    roots, count, degenerate = _cubic_roots(
        *(np.array([c], dtype=float) for c in (c3, c2, c1, c0)))
    return roots[0, :count[0]].tolist(), bool(degenerate[0])


# Only + - * / sqrt abs run as numpy array operations, which round exactly
# like their scalar counterparts. acos, cos and the powers go through
# ``math`` and float ``**`` one element at a time: numpy's vectorised
# versions of these may differ from libm in the last bit.

def _pow3(x: np.ndarray) -> np.ndarray:
    return np.array([v ** 3 for v in x.tolist()], dtype=float)


def _cbrt(x: np.ndarray) -> np.ndarray:
    return np.array([math.copysign(abs(v) ** (1.0 / 3.0), v)
                     for v in x.tolist()], dtype=float)


# rotations of the trigonometric solution, one per root
_ROTATIONS = tuple(2.0 * math.pi * k / 3.0 for k in range(3))


def _cubic_roots(c3: np.ndarray, c2: np.ndarray, c1: np.ndarray,
                 c0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real roots of N cubics given as equal-length coefficient arrays.

    Returns (roots, count, degenerate): roots is (N, 3), each row
    ascending in its first ``count`` entries and NaN after them.
    """
    n = len(c3)
    b = c2 / c3
    c = c1 / c3
    d = c0 / c3
    shift = b / 3.0
    p = c - b * b / 3.0
    p3 = _pow3(p)
    q = 2.0 * _pow3(b) / 27.0 - b * c / 3.0 + d
    # discriminant of t^3 + p*t + q: positive for three distinct real
    # roots, negative for one; compared relative to its largest term
    disc = -4.0 * p3 - 27.0 * q * q
    scale = np.maximum(np.maximum(np.abs(4.0 * p3), 27.0 * q * q), 1e-300)
    degenerate = np.abs(disc) <= _DEGENERATE_RTOL * scale
    three = ~degenerate & (disc > 0.0)
    one = ~degenerate & ~three

    roots = np.full((n, 3), np.nan)
    count = np.where(three, 3, 1)
    # degenerate cubics are rare: solved one by one
    for r in np.flatnonzero(degenerate).tolist():
        pr, qr, sr = float(p[r]), float(q[r]), float(shift[r])
        if abs(pr) ** 3 <= 1e-30 * max(1.0, qr * qr):
            found = [-sr]  # triple root
        else:
            # f = f' = 0 gives the double root; the sum of roots is zero
            found = sorted({-1.5 * qr / pr - sr, 3.0 * qr / pr - sr})
        roots[r, :len(found)] = found
        count[r] = len(found)

    i = np.flatnonzero(three)
    if i.size:
        # trigonometric form (p < 0 here)
        m = 2.0 * np.sqrt(-p[i] / 3.0)
        thetas = [math.acos(max(-1.0, min(1.0, x))) / 3.0
                  for x in (3.0 * q[i] / (p[i] * m)).tolist()]
        cosines = [[math.cos(t - rot) for rot in _ROTATIONS] for t in thetas]
        roots[i] = m[:, None] * np.array(cosines) - shift[i, None]

    i = np.flatnonzero(one)
    if i.size:
        # Cardano; the radicand is strictly positive here
        half_q = q[i] / 2.0
        rad = np.sqrt(np.maximum(half_q * half_q + _pow3(p[i] / 3.0), 0.0))
        roots[i, 0] = _cbrt(-half_q + rad) + _cbrt(-half_q - rad) - shift[i]

    valid = np.arange(3) < count[:, None]
    row = np.nonzero(valid)[0]
    roots[valid] = _polish(c3[row], c2[row], c1[row], c0[row], roots[valid])
    for r in np.flatnonzero(count > 1).tolist():
        roots[r, :count[r]] = sorted(roots[r, :count[r]].tolist())
    return roots, count, degenerate


def _polish(c3, c2, c1, c0, x: np.ndarray) -> np.ndarray:
    """Up to 5 Newton steps per root, each kept only while the residual
    strictly improves; a root stops at its first rejected step."""
    def f(t):
        return ((c3 * t + c2) * t + c1) * t + c0

    best_res = np.abs(f(x))
    active = np.ones(x.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(5):
            slope = (3.0 * c3 * x + 2.0 * c2) * x + c1
            # a zero slope gives a non-finite step, rejected below
            x_new = x - f(x) / slope
            res = np.abs(f(x_new))
            active &= np.isfinite(x_new) & ~(res >= best_res)
            if not active.any():
                break
            x = np.where(active, x_new, x)
            best_res = np.where(active, res, best_res)
    return x


def steady_states(mp: ModelParams) -> list[WorkingPoint]:
    """All classical steady states, sorted by displacement.

    Three distinct roots are labelled lower/middle/upper. A single root is
    labelled upper when it lies past the upper turning point q_hi, else
    lower. A double root at a turning point is reported with
    degenerate=True rather than failing. The one-model view of
    ``steady_states_grid``.
    """
    return steady_states_grid(mp)[0]


# branch labels by root position, for three/one roots and for a double root
_LABELS = (BRANCH_LOWER, BRANCH_MIDDLE, BRANCH_UPPER)
_DEGENERATE_LABELS = (BRANCH_LOWER, BRANCH_UPPER)


def steady_states_grid(mp: ModelParams) -> list[list[WorkingPoint]]:
    """``steady_states`` of every model of a grid, solved in one pass.

    Any field of ``mp`` may be a numpy array; the fields broadcast
    together and each element of the flattened (C-order) broadcast shape
    is one model. Per model the result equals ``steady_states`` of that
    model field for field: cubic roots and Newton polish run elementwise
    over the grid, and the spectral stability verdicts of all roots come
    from one stacked eigenvalue call.
    """
    return _working_points(_solve_grid(mp))


def _working_points(t: RootTable) -> list[list[WorkingPoint]]:
    """The ``WorkingPoint`` view of a root table, one list per model."""
    points: list[list[WorkingPoint]] = [[] for _ in range(len(t.count))]
    for r, *fields in zip(
            t.model.tolist(), t.q_s.tolist(), t.photons.tolist(),
            t.delta.tolist(), t.G.tolist(), t.eta.tolist(), t.branch,
            t.stable, t.degenerate.tolist()):
        points[r].append(WorkingPoint(*fields))
    return points


def _solve_grid(mp: ModelParams) -> RootTable:
    """The root table of every model of a grid (see ``steady_states_grid``)."""
    # nbar broadcasts too, so that a temperature grid is a grid of models
    kappa, G0, E, delta0, omega_m, gamma_m, _ = fields = [
        a.ravel().astype(float) for a in np.broadcast_arrays(*vars(mp).values())]
    for name, a in zip(vars(mp), fields[:-1]):  # the roots ignore nbar
        if not np.all(np.isfinite(a)):
            raise ValidationError(f"{name}: must be finite")
    if np.any(E < 0):
        raise ValidationError("E: drive amplitude must be non-negative")

    n = len(E)
    roots = np.zeros((n, 3))
    count = np.ones(n, dtype=int)
    degenerate = np.zeros(n, dtype=bool)
    # undriven or decoupled models keep q = 0, their only root
    cubic = (E != 0.0) & (G0 != 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        c3 = omega_m * G0 * G0
        c2 = -2.0 * omega_m * G0 * delta0
        c1 = omega_m * (kappa * kappa + delta0 * delta0)
        c0 = -G0 * E * E
    if not np.all(np.isfinite([c3, c2, c1, c0])):
        # the cubic's fields are all rates (rad/s): name the largest
        name, _ = max(zip(vars(mp), fields[:5]),
                      key=lambda f: np.max(np.abs(f[1])))
        raise ValidationError(f"{name}: too large, the steady-state cubic "
                              "overflows")
    if cubic.any():
        roots[cubic], count[cubic], degenerate[cubic] = _cubic_roots(
            c3[cubic], c2[cubic], c1[cubic], c0[cubic])

    row, col = np.nonzero(np.arange(3) < count[:, None])
    double = np.zeros(len(row), dtype=bool)
    for r in np.flatnonzero(degenerate).tolist():
        # the repeated root is the one at a turning point: f'(q) ~ 0 there
        q = roots[r, :count[r]]
        k = int(np.argmin(np.abs((3.0 * c3[r] * q + 2.0 * c2[r]) * q + c1[r])))
        double[np.searchsorted(row, r) + k] = True

    # a single root past the upper turning point is on the upper branch
    _, q_hi = _turning_points(kappa, G0, delta0)
    upper = (count == 1) & (roots[:, 0] > q_hi)
    labels = [_DEGENERATE_LABELS if d else (BRANCH_UPPER,) if u else _LABELS
              for d, u in zip(degenerate.tolist(), upper.tolist())]

    q = roots[row, col]
    kappa, G0, E, delta0, omega_m, gamma_m = (
        a[row] for a in (kappa, G0, E, delta0, omega_m, gamma_m))
    delta = delta0 - G0 * q
    photons = E * E / (kappa * kappa + delta * delta)
    G = math.sqrt(2.0) * G0 * np.sqrt(photons)
    eta = bistability_parameter(delta, G, kappa, omega_m)
    stable = dynamics.is_stable_spectral(
        dynamics.drift_from_rates(delta, G, kappa, omega_m, gamma_m))
    branch = [labels[r][k] for r, k in zip(row.tolist(), col.tolist())]
    return RootTable(model=row, count=count, q_s=q, photons=photons,
                     delta=delta, G=G, eta=eta, branch=branch, stable=stable,
                     degenerate=double)


def _square(x, name: str):
    """x ** 2; where the square of a float overflows (float ** raises,
    an array gives inf), a ValidationError naming the input ``name``."""
    try:
        return x ** 2
    except OverflowError:
        raise ValidationError(f"{name}: too large, its square overflows") \
            from None


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
        photons = float("nan")
        q = float("nan")
    A = dynamics.drift_from_rates(delta, G, mp.kappa, mp.omega_m, mp.gamma_m)
    return WorkingPoint(
        q_s=q, photons=photons, delta=delta, G=G, eta=eta,
        branch=BRANCH_SYNTHETIC, stable=dynamics.is_stable_spectral(A))


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
    G = math.sqrt(mp.omega_m * (_square(mp.kappa, "kappa")
                                + _square(delta, "effective_detuning"))
                  * (1.0 - eta) / delta)
    if not math.isfinite(G):
        raise ValidationError(
            f"eta {eta!r} at effective_detuning {delta / mp.omega_m!r} "
            "omega_m: the coupling overflows")
    return working_point_from_coupling(mp, G, delta)


def _turning_points(kappa, G0, delta0):
    """(q_lo, q_hi), the displacements where the drive E^2(q) of the
    steady-state cubic is stationary: the lower branch ends at q_lo (a
    local maximum of E^2), the upper branch at q_hi (a local minimum).
    NaN where the response is single-valued: Delta_0^2 <= 3*kappa^2,
    G0 <= 0 or Delta_0 <= 0. Takes scalars or broadcast arrays.
    """
    disc = _square(delta0, "delta0") - 3.0 * _square(kappa, "kappa")
    bistable = (disc > 0) & (G0 > 0) & (delta0 > 0)
    root = np.sqrt(np.where(bistable, disc, np.nan))
    return ((2.0 * delta0 - root) / (3.0 * G0),
            (2.0 * delta0 + root) / (3.0 * G0))


def bistable_window_estimate(mp: ModelParams,
                             omega_L: float) -> tuple[float, float] | None:
    """(switch-down, switch-up) powers from the turning points of the
    steady-state cubic; None when the response is single-valued.

    Exact closed form: the turning points of ``_turning_points`` mapped
    back to power through E = sqrt(2*P*kappa/(hbar*omega_L)).
    ``hysteresis`` reports these as its switch powers and the figure
    commands centre their default grids on them.
    """
    q_lo, q_hi = map(float, _turning_points(mp.kappa, mp.G0, mp.delta0))
    if math.isnan(q_lo):
        return None

    def power_at(q):
        delta = mp.delta0 - mp.G0 * q
        e2 = mp.omega_m * q * (mp.kappa ** 2 + delta ** 2) / mp.G0
        return drive_power(e2, mp.kappa, omega_L)

    return power_at(q_hi), power_at(q_lo)


def hysteresis(mp: ModelParams, powers, omega_L: float) -> HysteresisTrace:
    """Steady states over an input-power grid with adiabatic selections.

    ``mp`` must be in absolute units (rad/s) so that the power-to-drive
    conversion E = sqrt(2*P*kappa/(hbar*omega_L)) is meaningful. The
    up-sweep follows the lower branch until it ceases to exist, then jumps
    to the upper branch; the down-sweep is the mirror image. One grid
    solve over the drive amplitudes of the grid gives the root table the
    trace holds. Where the root count changes between grid points, the
    switch power is the exact turning-point power of
    ``bistable_window_estimate``.
    """
    powers = [float(p) for p in powers]
    if not powers:
        raise ValidationError("powers: grid must be non-empty")
    if not all(map(math.isfinite, powers)):
        raise ValidationError("powers: grid values must be finite")
    if any(p < 0 for p in powers):
        raise ValidationError("powers: grid values must be non-negative")
    if any(b <= a for a, b in zip(powers, powers[1:])):
        raise ValidationError("powers: grid must be strictly increasing")
    for name, value in (("omega_L", omega_L), ("kappa", mp.kappa)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name}: must be finite and positive")

    E = drive_amplitude(np.array(powers), mp.kappa, omega_L)
    table = _solve_grid(replace(mp, E=E))
    counts = table.count.tolist()

    # transitions of the root count along the grid -> switch powers
    p_down, p_up = bistable_window_estimate(mp, omega_L) or (None, None)
    switch_up = None    # 3 -> 1 going up: lower branch ends
    switch_down = None  # 1 -> 3 going up: upper branch begins
    for a, b in zip(counts, counts[1:]):
        if a < 3 <= b:
            switch_down = p_down
        elif a >= 3 > b:
            switch_up = p_up
    return HysteresisTrace(powers=tuple(powers), table=table,
                           switch_up=switch_up, switch_down=switch_down)
