"""Conformal transport of line-wall Kepler billiards to Hooke billiards.

The squaring map w -> z = w^2 carries motion under an isotropic harmonic
force to Kepler motion; its inverse, Levi-Civita's map in planar, sends
a planar Kepler trajectory with energy E to a Hooke trajectory in the
w-plane, parametrized by the fictitious time ds = dt/|w|^2. Along the
image 2|w'|^2 - E|w|^2 equals the Kepler mass factor m, and the image of
the wall line {Im z = h} is the rectangular hyperbola {2uv = h}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .planar import kepler_to_hooke_point


def transport_trajectory(
    zs: Sequence[complex], z_dots: Sequence[complex]
) -> List[Tuple[complex, complex]]:
    """Map a sampled Kepler trajectory to the Hooke plane point by point,
    on the branch continuous along the samples (principal at the first):
    where -w lies nearer the previous root, (w, w') becomes (-w, -w'), so
    trajectories crossing the negative real axis do not jump sheets."""
    out: List[Tuple[complex, complex]] = []
    for z, zd in zip(zs, z_dots):
        w, wp = kepler_to_hooke_point(z, zd)
        if out and abs(w - out[-1][0]) > abs(-w - out[-1][0]):
            w, wp = -w, -wp
        out.append((w, wp))
    return out


def hooke_invariant(w: complex, w_prime: complex, energy: float) -> float:
    """The transported constant 2|w'|^2 - E|w|^2 (equals m along an image)."""
    return 2.0 * abs(w_prime) ** 2 - energy * abs(w) ** 2


@dataclass(frozen=True)
class HyperbolaWall:
    """Image of the wall line {Im z = h}: the set {2uv = level} in w = u+iv.

    At level = 0 the set collapses to the pair of coordinate axes; it is
    still usable as an implicit locus.
    """

    level: float

    def implicit(self, w: complex) -> float:
        """Value of 2uv - level at a w-plane point (zero on the wall)."""
        return 2.0 * w.real * w.imag - self.level


def line_image_wall(h: float) -> HyperbolaWall:
    """Wall of the Hooke billiard corresponding to the line {Im z = h}."""
    return HyperbolaWall(level=float(h))
