"""Central projections between planes and the chart normalization.

The pre-normalization chart is the plane V = {z = -1} with coordinates
(x, y); the force center sits at (0, a) and carries the non-Euclidean
norm ``sqrt(vx^2 + vy^2/(1+a^2))`` on tangent vectors. The affine change
(xi, eta) -> (x = xi, y = sqrt(1+a^2) eta + a) turns that norm into the
Euclidean one and moves the center to the origin; the wall line y = 0
becomes eta = h = -a/sqrt(1+a^2).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularPosition, WrongHalfPlane
from .model import ChartState, PlanarState


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


def metric2_norm(vx: float, vy: float, a: float) -> float:
    """Norm of a chart tangent vector, sqrt(vx^2 + vy^2/(1+a^2)).

    The displacement-to-center form of the same quadratic form is obtained
    by passing (x - 0, y - a).
    """
    return math.sqrt(vx * vx + vy * vy / (1.0 + a * a))


def nonstandard_norm(v, h1, z1) -> float:
    """Extension of the source-plane norm to 3-space.

    Decomposes v = v1 + c*Z1 with v1 parallel to the source plane
    (c = <h1, v> since <h1, Z1> = 1) and returns the Euclidean length
    of v1.
    """
    v = np.asarray(v, dtype=float)
    z1 = np.asarray(z1, dtype=float)
    c = float(np.dot(h1, v))
    return float(np.linalg.norm(v - c * z1))


def normalize_chart(x: float, y: float, x_dot: float, y_dot: float, a: float) -> PlanarState:
    """Map an (x, y) chart state to the normalized (xi, eta) chart."""
    s = math.sqrt(1.0 + a * a)
    return PlanarState(x, (y - a) / s, x_dot, y_dot / s)


def denormalize_chart(state: PlanarState, a: float) -> ChartState:
    """Inverse of :func:`normalize_chart`."""
    s = math.sqrt(1.0 + a * a)
    return ChartState(state.xi, s * state.eta + a, state.xi_dot, s * state.eta_dot)


def planar_energy_prenorm(
    x: float, y: float, x_dot: float, y_dot: float, m: float, a: float
) -> float:
    """Planar energy in the (x, y) chart with the transported metric.

    Equals ``(1/2)(x_dot^2 + y_dot^2/(1+a^2)) - m/sqrt(x^2 + (y-a)^2/(1+a^2))``
    and agrees exactly with the normalized-chart energy of the same state.
    """
    one_a2 = 1.0 + a * a
    d = math.sqrt(x * x + (y - a) * (y - a) / one_a2)
    if d == 0.0:
        raise SingularPosition("(x, y) coincides with the center (0, a)")
    return 0.5 * (x_dot * x_dot + y_dot * y_dot / one_a2) - m / d

