"""Kepler-Coulomb billiards in the plane and on the sphere.

Simulates billiards defined by a Kepler-Coulomb force with line or
centered-circle walls (and their spherical counterparts), implements the
central-projection correspondence between the planar and spherical
systems, and evaluates the full set of first integrals, including the
line-wall billiard invariant D = L^2 - 2 h A_eta.

The package re-exports the names that the README example, the benchmark
and the CI scripts read; everything else is imported from its module.
"""

from .billiard import billiard_map
from .model import PlanarState, SystemParams, Wall, load_config, validate_config
from .spherical import planar_to_sphere
