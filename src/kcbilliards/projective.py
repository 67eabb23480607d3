"""Central projection between affine planes of 3-space, through the origin.

A plane is given by a covector h as {q : <h, q> = 1}. Its points map to
another plane's along rays through the origin, its velocities with the
time change d/dtau = lam^2 d/dt, and its force fields to the pushed field
(Albouy, *Projective dynamics and classical gravitation*, 2008). The
pair with covector (0, 0, -1) is the one chart map between the sphere
and the plane z = -1 (see :func:`kcbilliards.spherical.sphere_to_planar`).
"""

from __future__ import annotations

import numpy as np

from .errors import WrongHalfPlane


def plane_plane_project(q1, h2) -> np.ndarray:
    """Project a point of one affine plane onto another along rays through O.

    Args:
        q1: point of the source plane (3-vector).
        h2: covector of the target plane {q : <h2, q> = 1}.

    Returns:
        The point q1 / <h2, q1> on the target plane.

    Raises:
        WrongHalfPlane: if <h2, q1> <= 0 (the ray misses the target).
    """
    q1 = np.asarray(q1, dtype=float)
    lam = float(np.dot(h2, q1))
    if lam <= 0.0:
        raise WrongHalfPlane(f"<h2, q1> = {lam} must be positive")
    return q1 / lam


def plane_plane_push_velocity(q1, v1, h2) -> np.ndarray:
    """Push a velocity through the projection, in the reparametrized time.

    With lam = <h2, q1> and the time change d/dtau = lam^2 d/dt, the image
    velocity is ``v1*lam - <h2, v1>*q1``; it is tangent to the target plane.
    """
    q1 = np.asarray(q1, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    lam = float(np.dot(h2, q1))
    return v1 * lam - float(np.dot(h2, v1)) * q1


def push_force_field(q1, f1, h2) -> np.ndarray:
    """Transform an acceleration on the source plane to the target plane.

    Applies ``lam^2 (lam*f1 - <h2, f1>*q1)``, the image of the acceleration
    under the projection with the time change d/dtau = lam^2 d/dt.
    """
    q1 = np.asarray(q1, dtype=float)
    f1 = np.asarray(f1, dtype=float)
    lam = float(np.dot(h2, q1))
    return lam * lam * (lam * f1 - float(np.dot(h2, f1)) * q1)
