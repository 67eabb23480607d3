"""Conformal transport of line-wall Kepler billiards to Hooke billiards.

The squaring map w -> z = w^2 carries motion under an isotropic harmonic
force to Kepler motion; inverting it sends a planar Kepler trajectory
with energy E to a Hooke trajectory in the w-plane, parametrized by the
regularizing fictitious time ds = dt/|w|^2. Along the image the quantity
2|w'|^2 - E|w|^2 equals the Kepler mass factor m, and the image of the
wall line {Im z = h} is the rectangular hyperbola {2uv = h}.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import OriginSingularity


def kepler_to_hooke_point(z: complex, z_dot: complex) -> Tuple[complex, complex]:
    """Map one Kepler phase point to the Hooke plane (principal branch).

    The Kepler energy enters only through :func:`hooke_invariant`.

    Args:
        z: planar position as a complex number (origin at the center).
        z_dot: velocity dz/dt.

    Returns:
        (w, w_prime) with w = sqrt(z) and w_prime = z_dot * |w|^2 / (2 w),
        the velocity in the fictitious time ds with dt/ds = |w|^2.

    Raises:
        OriginSingularity: at z = 0.
    """
    if z == 0:
        raise OriginSingularity("the conformal map is singular at the origin")
    w = cmath.sqrt(z)
    w_prime = z_dot * (abs(w) ** 2) / (2.0 * w)
    return w, w_prime


def sqrt_continuous(z: complex, w_prev: complex) -> complex:
    """Square root of z on the sheet continuous with the previous value."""
    if z == 0:
        raise OriginSingularity("the conformal map is singular at the origin")
    w = cmath.sqrt(z)
    if abs(w - w_prev) > abs(-w - w_prev):
        w = -w
    return w


def transport_trajectory(
    zs: Sequence[complex], z_dots: Sequence[complex]
) -> List[Tuple[complex, complex]]:
    """Map a sampled Kepler trajectory to the Hooke plane.

    The branch of the square root is tracked continuously along the
    samples (principal branch at the first point), so trajectories
    crossing the negative real axis do not jump sheets.
    """
    out: List[Tuple[complex, complex]] = []
    w_prev = None
    for z, zd in zip(zs, z_dots):
        if w_prev is None:
            w, wp = kepler_to_hooke_point(z, zd)
        else:
            w = sqrt_continuous(z, w_prev)
            wp = zd * (abs(w) ** 2) / (2.0 * w)
        out.append((w, wp))
        w_prev = w
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
