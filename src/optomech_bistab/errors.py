"""Exception types shared across the package.

The CLI maps ValidationError to exit code 2. Sweeps record the numerical
failures as row statuses; the one-matrix calls and the ODE oracle raise them.
"""


class ValidationError(ValueError):
    """Bad user input: parameters, config files, grids, sweep specs."""


class UnstableSystemError(RuntimeError):
    """Drift matrix has an eigenvalue with non-negative real part."""

    def __init__(self, eigenvalue):
        self.eigenvalue = eigenvalue
        super().__init__(
            f"drift matrix is not Hurwitz: eigenvalue {eigenvalue} has "
            f"Re = {eigenvalue.real:.3e} >= 0"
        )


class IllConditionedError(RuntimeError):
    """Steady-state covariance system is singular or near-singular."""


class IntegrationError(RuntimeError):
    """Adaptive integrator failed (step-size underflow)."""


class PhysicalityError(RuntimeError):
    """Covariance matrix violates physicality beyond numerical slack."""
