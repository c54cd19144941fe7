"""Classical steady states of the driven cavity and the hysteresis loop.

The stationary displacement solves the cubic

    omega_m * q * (kappa^2 + (Delta_0 - G0*q)^2) = G0 * E^2,

with up to three real roots. The smallest and largest roots form the lower
and upper stable branches; the middle one is dynamically unstable. Each
root carries the effective detuning Delta = Delta_0 - G0*q, the enhanced
coupling G = sqrt(2)*G0*|alpha_s| (fluctuation phase gauged so G is real)
and the bistability parameter eta.

The cubic is solved array-at-a-time: ``root_table`` takes model constants
as broadcast numpy arrays (a power grid, an experimental sweep grid) and
computes the closed-form roots, their Newton polish, the working-point
quantities and the stability verdict of every root for every grid point
in one pass, into one root table: an array per field over all roots of
the grid. The table holds no spectra: each verdict comes from the
Hurwitz conditions on the root's rates (``dynamics.is_stable_rh``), with
no eigenvalue call.
``steady_states`` is the one-model view of that table as ``WorkingPoint``
objects, so each result is bit-identical whether a model is solved alone
or as part of a grid.

Theoretical sweep axes prescribe the working point instead:
``synthetic_points`` builds the root table of a whole theoretical grid in
one pass, one synthetic root per cell with the same Hurwitz verdict, and
``working_point_from_eta`` and ``working_point_from_coupling`` are its
one-cell views. The steady layer makes no eigenvalue call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import dynamics
from .errors import ValidationError
from .params import ModelParams, cubic_overflows, drive_amplitude, drive_power

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
    stable: bool          # Hurwitz verdict on the drift matrix
    degenerate: bool = False  # double root exactly at a turning point


# All roots of a grid of models, in model order and ascending q_s within a
# model, one numpy array per field. Per root: its model index and the
# WorkingPoint fields; per model, ``count``, its root count.
RootTable = namedtuple("RootTable", "model count q_s photons delta G eta "
                                    "branch stable degenerate")


@dataclass(frozen=True, eq=False)
class HysteresisTrace:
    """Steady states over a power grid with adiabatic sweep selections.

    ``table`` holds every root of each power. The up-sweep rides the
    smallest root of each power until it ceases to exist (the remaining
    single root IS the post-jump state); the down-sweep mirrors it on the
    largest root.
    """

    powers: tuple[float, ...]                 # W, ascending
    table: RootTable
    switch_up: float | None                   # W, lower branch disappears
    switch_down: float | None                 # W, upper branch disappears


def bistability_parameter(delta: float, G: float, kappa: float,
                          omega_m: float) -> float:
    """eta = 1 - G^2*delta / (omega_m*(kappa^2 + delta^2)), never clamped."""
    return 1.0 - G * G * delta / (omega_m * (kappa * kappa + delta * delta))


# Only + - * / sqrt abs copysign run as numpy array operations, which round
# exactly like their scalar counterparts. acos, cos and the powers go
# through ``math`` and the builtin ``pow`` one element at a time: numpy's
# vectorised versions of these may differ from libm in the last bit.

def _pow3(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(pow, x.tolist(), repeat(3)), float, len(x))


def _cbrt(x: np.ndarray) -> np.ndarray:
    roots = map(pow, np.abs(x).tolist(), repeat(1.0 / 3.0))
    return np.copysign(np.fromiter(roots, float, len(x)), x)


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
    return np.sort(roots, axis=1, kind="stable"), count, degenerate


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
    ``root_table``.
    """
    return _working_points(root_table(mp))[0]


def _working_points(t: RootTable) -> list[list[WorkingPoint]]:
    """The ``WorkingPoint`` view of a root table, one list per model: the
    table's fields from ``q_s`` on, as Python floats, strs and bools."""
    points: list[list[WorkingPoint]] = [[] for _ in range(len(t.count))]
    for r, *fields in zip(*(a.tolist() for a in (t.model, *t[2:]))):
        points[r].append(WorkingPoint(*fields))
    return points


def branch_roots(t: RootTable, branch: str) -> np.ndarray:
    """Indices into ``t`` of the roots a branch choice picks, in model
    order: per model its first root (``lower``), its last (``upper``), both
    (``both``, once where they are one root) or every root (``all``)."""
    if branch == "all":
        return np.arange(len(t.model))
    first = np.cumsum(t.count) - t.count
    last = first + t.count - 1
    if branch != "both":
        return first if branch == "lower" else last
    return np.column_stack((first, last))[np.column_stack((t.count > 0, t.count > 1))]


# branch labels by root position, one row per root structure: three (or
# one) roots, a single root past the upper turning point, a double root
_LABELS = np.array([(BRANCH_LOWER, BRANCH_MIDDLE, BRANCH_UPPER),
                    (BRANCH_UPPER,) * 3,
                    (BRANCH_LOWER, BRANCH_UPPER, BRANCH_UPPER)])


def root_table(mp: ModelParams) -> RootTable:
    """The root table of every model of a grid, solved in one pass.

    Any field of ``mp`` may be a numpy array; the fields broadcast
    together and each element of the flattened (C-order) broadcast shape
    is one model. Each model's roots equal those of that model solved
    alone: cubic roots, Newton polish and the Hurwitz stability verdict
    (``dynamics.is_stable_rh``) run elementwise over the grid, and no
    eigenvalue is computed. A non-finite field, a negative drive, a cubic
    out of range (``params.cubic_overflows``), a drive whose square
    overflows or a decoupled model whose photon number is not finite is a
    ValidationError naming model fields.
    """
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
    for overflows, names, term in zip(
            cubic_overflows(kappa, G0, E, delta0, omega_m),
            ("kappa, delta0, G0", "E, omega_m, G0"),
            ("(kappa^2 + delta0^2)/G0^2", "E^2/(omega_m*G0)")):
        if overflows.any():
            raise ValidationError(f"{names}: out of range, {term} overflows "
                                  "the steady-state cubic")
    with np.errstate(over="ignore"):
        # the photon number's E^2; of a cubic it is checked just above
        if not np.all(np.isfinite(E * E)):
            raise ValidationError("E: too large, its square overflows")
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
    branch = _LABELS[np.where(degenerate, 2, upper)[row], col]

    q = roots[row, col]
    kappa, G0, E, delta0, omega_m, gamma_m = (
        a[row] for a in (kappa, G0, E, delta0, omega_m, gamma_m))
    delta = delta0 - G0 * q
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        photons = E * E / (kappa * kappa + delta * delta)
    if not np.all(np.isfinite(photons)):  # a decoupled model's, at q = 0
        raise ValidationError("E, kappa, delta0: the photon number "
                              "E^2/(kappa^2 + Delta^2) is not finite")
    G = math.sqrt(2.0) * G0 * np.sqrt(photons)
    eta = bistability_parameter(delta, G, kappa, omega_m)
    return RootTable(model=row, count=count, q_s=q, photons=photons,
                     delta=delta, G=G, eta=eta, branch=branch,
                     stable=dynamics.is_stable_rh(delta, G, kappa, omega_m, gamma_m),
                     degenerate=double)


def _square(x, name: str):
    """x ** 2; where the square of a float overflows (float ** raises,
    an array gives inf), a ValidationError naming the input ``name``."""
    try:
        return x ** 2
    except OverflowError:
        raise ValidationError(f"{name}: too large, its square overflows") \
            from None


def _square_or_inf(x: float) -> float:
    """x ** 2 of a float, inf where it overflows."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def synthetic_points(mp: ModelParams, delta, G=None, eta=None) -> RootTable:
    """The root table of theoretical axes, one synthetic root per cell
    (model index = cell index), at the effective detunings ``delta`` and
    either the couplings ``G`` or the bistability parameters ``eta``:
    equal-length 1-D arrays. The model's fields are numbers. Each root's
    verdict is ``dynamics.is_stable_rh``, as on ``root_table``.

    An eta is inverted for G = sqrt(omega_m*(kappa^2+delta^2)*(1-eta)/delta),
    which needs delta > 0 and eta <= 1; the squares go through float
    ``**`` one element at a time, as in ``_pow3``, so that each cell is
    bit-identical to the one-cell call. The amplitude is backed out of
    G = sqrt(2)*G0*|alpha_s|: photons and q_s are NaN when G0 = 0. A
    negative G, or an overflowing square, coupling, eta, photon number or
    displacement, is a ValidationError; it names the first offending cell
    in cell order, with the message that cell gives alone.
    """
    w = mp.omega_m
    delta = np.asarray(delta, dtype=float)
    # (cells a check rejects, its message at cell i), in the order one cell
    # is checked
    checks = []
    if eta is not None:
        target = np.asarray(eta, dtype=float)
        kappa2 = _square_or_inf(mp.kappa)
        delta2 = np.array([_square_or_inf(d) for d in delta.tolist()], dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            G = np.sqrt(w * (kappa2 + delta2) * (1.0 - target) / delta)
        checks = [
            (delta <= 0, lambda i: "effective_detuning: must be positive for "
                                   "an eta sweep"),
            (target > 1, lambda i: f"eta: must be <= 1, got {float(target[i])}"),
            (np.full(delta.shape, math.isinf(kappa2)),
             lambda i: "kappa: too large, its square overflows"),
            (np.isinf(delta2),
             lambda i: "effective_detuning: too large, its square overflows"),
            (~np.isfinite(G), lambda i: (
                f"eta {float(target[i])!r} at effective_detuning "
                f"{float(delta[i]) / w!r} omega_m: the coupling overflows")),
        ]
    G = np.asarray(G, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        eta = bistability_parameter(delta, G, mp.kappa, w)
        if mp.G0 > 0:
            amp = G / (math.sqrt(2.0) * mp.G0)
            photons = amp * amp
            q = mp.G0 * photons / w
        else:
            photons = q = np.full(G.shape, math.nan)
    checks += [
        (G < 0, lambda i: "coupling: G must be non-negative"),
        (np.isinf(eta) | np.isinf(photons) | np.isinf(q), lambda i: (
            f"coupling {float(G[i]) / w!r} omega_m at effective_detuning "
            f"{float(delta[i]) / w!r} omega_m: the steady state overflows")),
    ]
    # row-major: the first offending cell, then its first failed check
    failed = np.argwhere(np.column_stack([bad for bad, _ in checks]))
    if len(failed):
        i, k = failed[0]
        raise ValidationError(checks[k][1](i))
    n = len(delta)
    return RootTable(model=np.arange(n), count=np.ones(n, dtype=int), q_s=q,
                     photons=photons, delta=delta, G=G, eta=eta,
                     branch=np.full(n, BRANCH_SYNTHETIC),
                     stable=dynamics.is_stable_rh(delta, G, mp.kappa, w, mp.gamma_m),
                     degenerate=np.zeros(n, dtype=bool))


def working_point_from_coupling(mp: ModelParams, G: float,
                                delta: float) -> WorkingPoint:
    """Synthetic working point at prescribed (G, Delta), theoretical axes:
    the one-cell view of ``synthetic_points``."""
    return _working_points(synthetic_points(mp, [delta], G=[G]))[0][0]


def working_point_from_eta(mp: ModelParams, eta: float,
                           delta: float) -> WorkingPoint:
    """Synthetic working point at prescribed (eta, Delta): the one-cell
    view of ``synthetic_points``. Requires delta > 0 and eta <= 1."""
    return _working_points(synthetic_points(mp, [delta], eta=[eta]))[0][0]


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
    ``bistable_window_estimate``. ``powers`` is an iterable of numbers; a
    grid that is empty, not finite, negative or not strictly increasing is
    a ValidationError, checked in that order on the whole grid.
    """
    powers = np.fromiter(powers, float)
    if not len(powers):
        raise ValidationError("powers: grid must be non-empty")
    if not np.all(np.isfinite(powers)):
        raise ValidationError("powers: grid values must be finite")
    if np.any(powers < 0):
        raise ValidationError("powers: grid values must be non-negative")
    if np.any(powers[1:] <= powers[:-1]):
        raise ValidationError("powers: grid must be strictly increasing")
    for name, value in (("omega_L", omega_L), ("kappa", mp.kappa)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name}: must be finite and positive")

    E = drive_amplitude(powers, mp.kappa, omega_L)
    table = root_table(replace(mp, E=E))

    # going up in power, the root count steps up to 3 where the upper
    # branch begins and down from 3 where the lower branch ends
    three = table.count == 3
    p_down, p_up = bistable_window_estimate(mp, omega_L) or (None, None)
    return HysteresisTrace(
        powers=tuple(powers.tolist()), table=table,
        switch_up=p_up if np.any(three[:-1] & ~three[1:]) else None,
        switch_down=p_down if np.any(~three[:-1] & three[1:]) else None)
