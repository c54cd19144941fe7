"""Experimental parameters and derived model constants.

Every frequency stored on the dataclasses below is an angular frequency in
rad/s. Config files may declare their frequency-like entries either as
angular frequencies or as cycles per second (``freq_convention``); the
conversion happens once, at ingestion.

Derived constants:

    kappa = pi*c / (2*F*L)            amplitude (half-linewidth) decay rate,
                                      unless an explicit override is given
    omega_L = 2*pi*c / lambda_L
    omega_c = omega_L + Delta_0
    G0 = (omega_c/L) * sqrt(hbar/(m*omega_m))
    E  = sqrt(2*P*kappa / (hbar*omega_L))
    nbar = 1 / (exp(hbar*omega_m/(kB*T)) - 1),  nbar = 0 at T = 0

The physical constants c, hbar and kB are defined here, from the exact
SI-2019 values (c, h and kB are defining constants; hbar = h/(2*pi)).
They equal ``scipy.constants.c``, ``hbar`` and ``k`` bit for bit; taking
them from scipy would make every import of the package load scipy.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ValidationError

_C = 299792458.0                        # speed of light, m/s
_KB = 1.380649e-23                      # Boltzmann constant, J/K
_HBAR = 6.62607015e-34 / (2 * math.pi)  # reduced Planck constant, J s

ANGULAR = "angular"
CYCLIC = "cyclic"

_TWO_PI = 2.0 * math.pi

# config key -> (PhysicalParams field, whether the entry is a frequency
# subject to the angular/cyclic convention), in canonical file order
_CONFIG_FIELDS = {
    "cavity_length_m": ("cavity_length", False),
    "finesse": ("finesse", False),
    "wavelength_m": ("wavelength", False),
    "power_W": ("power", False),
    "mass_kg": ("mass", False),
    "mech_freq": ("omega_m", True),
    "mech_damping": ("gamma_m", True),
    "temperature_K": ("temperature", False),
    "bare_detuning": ("delta0", True),
    "kappa_override": ("kappa_override", True),
}

# the one config key that sets no field
_CONVENTION_KEY = "freq_convention"


@dataclass(frozen=True)
class PhysicalParams:
    """Experiment-level inputs, SI units, angular frequencies."""

    cavity_length: float        # m
    finesse: float
    wavelength: float           # m
    power: float                # W
    mass: float                 # kg
    omega_m: float              # rad/s
    gamma_m: float              # rad/s
    temperature: float          # K
    delta0: float               # rad/s, bare detuning omega_c - omega_L
    kappa_override: float | None = None  # rad/s, bypasses the finesse formula


@dataclass(frozen=True)
class ModelParams:
    """Constants of the driven-cavity model, angular frequencies in rad/s."""

    kappa: float      # cavity amplitude decay rate
    G0: float         # single-photon coupling, rad/s per unit displacement
    E: float          # drive amplitude
    delta0: float     # bare detuning
    omega_m: float    # mechanical frequency
    gamma_m: float    # mechanical damping
    nbar: float       # mean thermal phonon number (dimensionless)


def _require(condition: bool, field: str, message: str) -> None:
    if not condition:
        raise ValidationError(f"{field}: {message}")


def _check_physical(p: PhysicalParams) -> None:
    strictly_positive = (
        ("cavity_length", p.cavity_length),
        ("finesse", p.finesse),
        ("wavelength", p.wavelength),
        ("mass", p.mass),
        ("omega_m", p.omega_m),
        ("gamma_m", p.gamma_m),
    )
    for name, value in strictly_positive:
        _require(isinstance(value, (int, float)) and math.isfinite(value), name,
                 "must be a finite number")
        _require(value > 0, name, "must be strictly positive")
    for name, value in (("power", p.power), ("temperature", p.temperature)):
        _require(isinstance(value, (int, float, np.ndarray))
                 and np.all(np.isfinite(value)), name, "must be a finite number")
        _require(np.all(value >= 0), name, "must be non-negative")
    _require(np.all(np.isfinite(p.delta0)), "delta0", "must be finite")
    if p.kappa_override is not None:
        _require(math.isfinite(p.kappa_override) and p.kappa_override > 0,
                 "kappa_override", "must be finite and strictly positive")


def thermal_phonons(omega_m: float, temperature: float) -> float:
    """Bose occupation 1/(exp(hbar*w/kB*T) - 1); exactly 0 at T = 0. An
    array of temperatures gives an array, through math.expm1 per value.
    Where exp overflows (hbar*w/kB*T above ~709.8), the occupation is its
    limit exp(-hbar*w/kB*T), subnormal or 0. Where hbar*w/kB*T is
    subnormal, 1/expm1 is inf, and where it underflows to 0 the occupation
    is that same limit, inf: a sweep row whose Lyapunov solve takes it is
    ``conditioning``."""
    if isinstance(temperature, np.ndarray):
        return np.reshape([thermal_phonons(omega_m, t) for t in
                           temperature.ravel().tolist()], temperature.shape)
    kT = _KB * temperature
    if kT == 0.0:  # T = 0, or so cold that kB*T underflows
        return 0.0
    x = _HBAR * omega_m / kT
    try:
        return 1.0 / math.expm1(x) if x else math.inf
    except OverflowError:
        return math.exp(-x)


def laser_frequency(wavelength: float) -> float:
    """Angular laser frequency 2*pi*c/lambda."""
    return _TWO_PI * _C / wavelength


def cavity_decay(cavity_length: float, finesse: float) -> float:
    """Amplitude decay rate pi*c/(2*F*L) (half-linewidth convention).
    Raises ValidationError naming both inputs where 2*F*L underflows to 0
    or the rate is 0 in double precision (2*F*L overflowing among them)."""
    round_trip = 2.0 * finesse * cavity_length
    _require(round_trip > 0, "cavity_length, finesse",
             "out of range, 2*finesse*cavity_length underflows to 0")
    kappa = math.pi * _C / round_trip
    _require(kappa > 0, "cavity_length, finesse", "out of range, the decay "
             "rate kappa = pi*c/(2*finesse*cavity_length) is 0")
    return kappa


def drive_amplitude(power: float, kappa: float, omega_L: float) -> float:
    """Drive amplitude sqrt(2*P*kappa/(hbar*omega_L)), also of arrays."""
    with np.errstate(over="ignore"):  # derive_model names an infinite drive
        e2 = 2.0 * power * kappa / (_HBAR * omega_L)
    return np.sqrt(e2) if isinstance(e2, np.ndarray) else math.sqrt(e2)


def drive_power(e2: float, kappa: float, omega_L: float) -> float:
    """Input power hbar*omega_L*E^2/(2*kappa) of the squared drive
    amplitude ``e2``; the inverse of ``drive_amplitude``."""
    return _HBAR * omega_L * e2 / (2.0 * kappa)


def cubic_overflows(kappa, G0, E, delta0, omega_m):
    """Masks (coupling, drive) of the models, given by numbers or broadcast
    arrays of their fields, whose steady-state cubic (``steady``) is out of
    range. Divided by its leading coefficient omega_m*G0^2, the cubic has
    coefficients of order (kappa^2 + delta0^2)/G0^2 and E^2/(omega_m*G0);
    its closed-form roots take the cube of the first (``coupling``) and the
    square of the second (``drive``). Undriven and decoupled models solve
    no cubic, and a kappa or delta0 whose own square overflows is named by
    the cubic's coefficients: neither is flagged."""
    kappa, G0, E, delta0, omega_m = (np.asarray(x, dtype=float) for x in
                                     (kappa, G0, E, delta0, omega_m))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore",
                     under="ignore"):
        rates = kappa * kappa + np.square(delta0)
        solved = np.isfinite(rates) & (G0 != 0) & (E != 0)
        coupling = np.isfinite(omega_m * G0 * G0) \
            & np.isfinite((rates / (G0 * G0)) ** 3)
        drive = np.isfinite(G0 * E * E) \
            & np.isfinite((E * E / (omega_m * G0)) ** 2)
    return solved & ~coupling, solved & ~drive


def derive_model(p: PhysicalParams) -> ModelParams:
    """Derive the model constants from experiment-level inputs.

    Raises ValidationError naming the offending field on non-finite or
    out-of-range inputs, also where a derived value would overflow: the
    photon energy hbar*omega_L, the drive E or the steady-state cubic (see
    ``cubic_overflows``), and where the coupling G0, the product
    mass*omega_m or the derived decay rate kappa is 0 (``cavity_decay``).
    A bath too hot for a finite nbar is no error: nbar is then inf
    (``thermal_phonons``).
    Power, delta0 and temperature may be numpy arrays, checked elementwise;
    the fields then broadcast over a sweep grid, each element bit-identical
    to the scalar derivation (only + - * / sqrt).
    """
    _check_physical(p)
    omega_L = laser_frequency(p.wavelength)
    _require(math.isfinite(omega_L) and _HBAR * omega_L > 0, "wavelength",
             "out of range, the photon energy hbar*2*pi*c/wavelength is not "
             "a finite positive number")
    omega_c = omega_L + p.delta0
    kappa = p.kappa_override if p.kappa_override is not None \
        else cavity_decay(p.cavity_length, p.finesse)
    _require(p.mass * p.omega_m > 0, "mass, omega_m",
             "out of range, their product mass*omega_m underflows to 0")
    with np.errstate(over="ignore"):  # cubic_overflows or root_table names inf
        g0 = (omega_c / p.cavity_length) * math.sqrt(_HBAR / (p.mass * p.omega_m))
    # a coupling that underflows to 0 is not a decoupled cavity
    _require(np.all((g0 != 0) | (omega_c == 0)), "cavity_length, mass, omega_m, "
             "wavelength", "out of range, the coupling G0 they give underflows to 0")
    drive = drive_amplitude(p.power, kappa, omega_L)
    # E = sqrt(2*P*kappa/(hbar*omega_L)): name the inputs of kappa too
    _require(np.all(np.isfinite(drive)), "power, " + (
        "cavity_length, finesse" if p.kappa_override is None else "kappa_override"),
        "too large, the drive amplitude E they give overflows")
    coupling, driven = cubic_overflows(kappa, g0, drive, p.delta0, p.omega_m)
    _require(not np.any(coupling), "cavity_length, mass, omega_m, wavelength",
             "out of range, the coupling G0 they give overflows the "
             "steady-state cubic (with kappa and delta0)")
    _require(not np.any(driven), "power",
             "too large, the drive amplitude E overflows the steady-state cubic")
    return ModelParams(
        kappa=kappa,
        G0=g0,
        E=drive,
        delta0=p.delta0,
        omega_m=p.omega_m,
        gamma_m=p.gamma_m,
        nbar=thermal_phonons(p.omega_m, p.temperature),
    )


def default_params() -> PhysicalParams:
    """Reference parameter set of the bundled config.

    Millimetre Fabry-Perot cavity, 810 nm drive, 10 MHz / 5 ng mechanical
    mode at 400 mK, bare detuning 2.62 omega_m. The cavity decay is pinned
    to 1.4 omega_m via the override (the full-linewidth reading of the
    quoted finesse), which keeps both stable branches dynamically alive
    over a useful power range.
    """
    return PhysicalParams(
        cavity_length=1e-3,
        finesse=1.07e4,
        wavelength=810e-9,
        power=0.057,
        mass=5e-12,
        omega_m=_TWO_PI * 1e7,
        gamma_m=_TWO_PI * 100.0,
        temperature=0.4,
        delta0=_TWO_PI * 2.62e7,
        kappa_override=_TWO_PI * 1.4e7,
    )


def load_config(path) -> PhysicalParams:
    """Read a flat ``key = value`` config file into PhysicalParams.

    Lines starting with '#' and blank lines are ignored. Frequency-like
    entries (mech_freq, mech_damping, bare_detuning, kappa_override) are
    interpreted per ``freq_convention`` (default: cyclic).
    """
    raw: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"config line {lineno}: expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _CONFIG_FIELDS and key != _CONVENTION_KEY:
                    raise ValidationError(f"config line {lineno}: unknown key {key!r}")
                if key in raw:
                    raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
                raw[key] = value.strip()
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc

    convention = raw.pop(_CONVENTION_KEY, CYCLIC)
    if convention not in (ANGULAR, CYCLIC):
        raise ValidationError(
            f"{_CONVENTION_KEY}: must be '{ANGULAR}' or '{CYCLIC}', got {convention!r}")

    # keys of fields without a default are required
    optional = {f.name for f in fields(PhysicalParams) if f.default is not MISSING}
    missing = [k for k, (name, _) in _CONFIG_FIELDS.items()
               if k not in raw and name not in optional]
    if missing:
        raise ValidationError(f"config: missing keys {', '.join(missing)}")

    def number(key: str) -> float:
        try:
            return float(raw[key])
        except ValueError as exc:
            raise ValidationError(f"{key}: not a number: {raw[key]!r}") from exc

    values = {k: number(k) for k in raw}
    return PhysicalParams(**{
        name: values[key] * _TWO_PI if frequency and convention == CYCLIC
        else values[key]
        for key, (name, frequency) in _CONFIG_FIELDS.items() if key in values})
