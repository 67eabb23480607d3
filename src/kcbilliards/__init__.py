"""Kepler-Coulomb billiards in the plane and on the sphere.

Simulates billiards defined by a Kepler-Coulomb force with line or
centered-circle walls (and their spherical counterparts), implements the
central-projection correspondence between the planar and spherical
systems, and evaluates the full set of first integrals, including the
line-wall billiard invariant D = L^2 - 2 h A_eta.
"""

from .billiard import (
    BilliardRun,
    Escape,
    HitOutcome,
    billiard_map,
    next_hit_analytic_line,
    next_hit_numeric,
    reflect,
    wall_signed_distance,
)
from .conformal import (
    hooke_invariant,
    line_image_wall,
    transport_trajectory,
)
from .errors import (
    BilliardError,
    ConfigError,
    DynamicsError,
    NonConvergence,
    PoleSingularity,
    SingularPosition,
    StepFailure,
    Undetermined,
    WrongHalfPlane,
)
from .integrals import (
    gj_integral,
    integral_set,
    planar_energy,
    spherical_energy_chart,
)
from .model import (
    BounceRecord,
    IntegralSet,
    IntegratorConfig,
    Model,
    PlanarState,
    RunConfig,
    SphericalState,
    SystemParams,
    Wall,
    load_config,
    parse_config,
    spherical_center,
    validate_config,
)
from .planar import (
    kepler_to_hooke_point,
    propagate_analytic,
    solve_kepler_equation,
)
from .spherical import (
    integrate_spherical,
    planar_to_sphere,
    sphere_to_planar,
    spherical_energy_embedded,
)

__version__ = "0.1.0"
