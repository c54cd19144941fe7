"""Exception types shared across the package.

The CLI maps ValidationError to exit code 2 and the numerical failures
to exit code 3. OutOfRegimeError comes only from library calls made
outside their regime (``dynamics.is_stable_rh`` at Delta <= 0), which no
CLI path makes.
"""


class ValidationError(ValueError):
    """Bad user input: parameters, config files, grids, sweep specs."""


class OutOfRegimeError(ValueError):
    """Operation evaluated outside its regime of validity (e.g. Delta <= 0)."""


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
