"""Exception types shared across the package."""


class BilliardError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(BilliardError):
    """A configuration file or parameter set failed validation."""


class ZeroMass(ConfigError):
    """The mass factor of the center must be nonzero."""


class NegativeRadius(ConfigError):
    """A circular wall radius must be positive."""


class InconsistentWall(ConfigError):
    """Wall geometry does not match the system parameters (line level != h(a))."""


class PerturbedModel(BilliardError):
    """Operation requires the unperturbed (beta = 0) Kepler-Coulomb field."""


class NonConvergence(BilliardError):
    """An iterative solver exhausted its iteration cap."""


class CollisionInsideInterval(BilliardError):
    """The exact orbit point at the requested time lies at the center."""


class WrongHalfPlane(BilliardError):
    """sphere_to_planar was given a point with q_z >= 0 (-0.0 included),
    whose ray from the origin misses the chart plane z = -1."""


class NotOnWall(BilliardError):
    """Reflection requested for a state not on the wall."""


class DynamicsError(BilliardError):
    """An error that ends a run and keeps the bounces computed before it;
    each subclass names that run's outcome."""

    outcome: str


class Undetermined(DynamicsError):
    """Hit search exhausted t_max without a hit or an escape certificate,
    or a bound planar leg at beta = 0 missed the wall for a whole period."""

    outcome = "undetermined"


class StepFailure(DynamicsError):
    """The ODE integrator failed to meet its tolerance."""

    outcome = "step-failure"


class PoleSingularity(DynamicsError):
    """Spherical state too close to a force pole."""

    outcome = "pole-singularity"


class SingularPosition(DynamicsError):
    """Position too close to the force center for the field to be evaluated."""

    outcome = "singular-position"


class OriginSingularity(BilliardError):
    """Conformal map undefined at the origin."""
