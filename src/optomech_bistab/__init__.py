"""Driven optomechanical cavity in the bistable regime.

Classical steady states and hysteresis, linearized Gaussian covariance
dynamics, cooling and entanglement figures of merit, plus a sweep harness
and CLI that emit CSV data files.
"""

__version__ = "0.1.0"

from .dynamics import (
    diffusion_matrix,
    drift_from_rates,
    integrate_lyapunov,
    is_stable_rh,
    solve_lyapunov,
    split_blocks,
    symplectic_eigenvalues,
)
from .errors import (
    IllConditionedError,
    IntegrationError,
    PhysicalityError,
    UnstableSystemError,
    ValidationError,
)
from .harness import AxisSpec, SweepSpec, SweepResult, figure_command, sweep, write_csv
from .params import (
    ModelParams,
    PhysicalParams,
    default_params,
    derive_model,
    load_config,
    thermal_phonons,
)
from .quantum import (
    AsymptoticCoeffs,
    EntanglementReport,
    approx_phonons,
    approx_photons,
    asymptotic_coeffs,
    classify_regime,
    cooling_limit,
    log_negativity,
    max_entanglement,
    occupancies,
    optimal_cooling_detuning,
    optimal_entanglement_detuning,
)
from .steady import (
    HysteresisTrace,
    WorkingPoint,
    bistability_parameter,
    hysteresis,
    steady_states,
    working_point_from_coupling,
    working_point_from_eta,
)

__all__ = [
    "AsymptoticCoeffs",
    "AxisSpec",
    "EntanglementReport",
    "HysteresisTrace",
    "IllConditionedError",
    "IntegrationError",
    "ModelParams",
    "PhysicalParams",
    "PhysicalityError",
    "SweepResult",
    "SweepSpec",
    "UnstableSystemError",
    "ValidationError",
    "WorkingPoint",
    "approx_phonons",
    "approx_photons",
    "asymptotic_coeffs",
    "bistability_parameter",
    "classify_regime",
    "cooling_limit",
    "default_params",
    "derive_model",
    "diffusion_matrix",
    "drift_from_rates",
    "figure_command",
    "hysteresis",
    "integrate_lyapunov",
    "is_stable_rh",
    "load_config",
    "log_negativity",
    "max_entanglement",
    "occupancies",
    "optimal_cooling_detuning",
    "optimal_entanglement_detuning",
    "solve_lyapunov",
    "split_blocks",
    "steady_states",
    "sweep",
    "symplectic_eigenvalues",
    "thermal_phonons",
    "working_point_from_coupling",
    "working_point_from_eta",
    "write_csv",
]
