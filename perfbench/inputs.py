"""Seeded inputs: a jittered parameter set.

The seed is the only source of variation. It sets a few-percent
multiplicative jitter of four entries of the bundled default parameter set
(mass, kappa_override, bare detuning, power), which moves every figure
grid. The program sees only the generated ``PhysicalParams`` (through a
config file for the set-up path).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from optomech_bistab import PhysicalParams, default_params

# half-width of the multiplicative jitter, as a fraction. The bistable
# window is narrow (bare detuning^2 is only ~17% above 3 kappa^2), so its
# width, and with it the fig2 row count, moves fast with the jitter: over
# seeds 0-29 the fig2 rows spread by 7.4% (IQR/median) at 3%, 5% at 2%.
JITTER = 0.02

# parameter-set fields the seed moves, in draw order
JITTERED_FIELDS = ("mass", "kappa_override", "delta0", "power")

# PhysicalParams field -> config key; frequencies are written as angular
# so that load_config round-trips every float exactly
_CONFIG_KEYS = (
    ("cavity_length", "cavity_length_m"),
    ("finesse", "finesse"),
    ("wavelength", "wavelength_m"),
    ("power", "power_W"),
    ("mass", "mass_kg"),
    ("omega_m", "mech_freq"),
    ("gamma_m", "mech_damping"),
    ("temperature", "temperature_K"),
    ("delta0", "bare_detuning"),
    ("kappa_override", "kappa_override"),
)


def _streams(seed: int) -> list[np.random.Generator]:
    """Independent generators for the parameters and the gate."""
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(2)]


def physical_params(seed: int) -> PhysicalParams:
    """Default parameter set with the seeded jitter applied."""
    rng = _streams(seed)[0]
    base = default_params()
    factors = 1.0 + JITTER * rng.uniform(-1.0, 1.0, size=len(JITTERED_FIELDS))
    return replace(base, **{name: getattr(base, name) * float(f)
                            for name, f in zip(JITTERED_FIELDS, factors)})


def gate_rng(seed: int) -> np.random.Generator:
    """Generator for the correctness gate's row sample."""
    return _streams(seed)[1]


def write_config(physical: PhysicalParams, path: Path) -> Path:
    """Write ``physical`` as a config file that load_config reads back exactly."""
    lines = ["freq_convention = angular"]
    lines += [f"{key} = {getattr(physical, field)!r}"
              for field, key in _CONFIG_KEYS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path

