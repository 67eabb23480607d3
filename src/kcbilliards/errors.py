"""Exception types shared across the package, one per distinction a caller
makes. The CLI maps ConfigError, DynamicsError and any other BilliardError
to exit codes 2, 3 and 1; billiard_map ends a run at a DynamicsError and
reports its subclass as the run's outcome; cli project skips a row at the
center (SingularPosition) or off the south hemisphere (WrongHalfPlane).
"""


class BilliardError(Exception):
    """Base class for all domain errors raised by this package (CLI exit 1)."""


class ConfigError(BilliardError):
    """A configuration, parameter set, wall or start failed validation (CLI exit 2)."""


class NonConvergence(BilliardError):
    """An iterative solver exhausted its iteration cap (CLI exit 1)."""


class WrongHalfPlane(BilliardError):
    """sphere_to_planar was given a point with q_z >= 0 (-0.0 included),
    whose ray from the origin misses the chart plane z = -1."""


class DynamicsError(BilliardError):
    """An error that ends a run and keeps the bounces computed before it;
    each subclass names that run's outcome (CLI exit 3)."""

    outcome: str


class Undetermined(DynamicsError):
    """Hit search exhausted t_max without a hit or an escape certificate,
    or a bound planar (beta = 0) or pole-chart leg missed the wall for a whole period."""

    outcome = "undetermined"


class StepFailure(DynamicsError):
    """The ODE integrator failed to meet its tolerance."""

    outcome = "step-failure"


class PoleSingularity(DynamicsError):
    """Spherical state too close to a force pole."""

    outcome = "pole-singularity"


class SingularPosition(DynamicsError):
    """Position too close to the force center for the field or an orbit map to be evaluated."""

    outcome = "singular-position"
