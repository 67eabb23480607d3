"""Kepler-Coulomb flow on the unit sphere, integrated in embedded 3-space.

The force center Z1 sits at (0, a/sqrt(1+a^2), -1/sqrt(1+a^2)); the force
function is m' * cot(theta) with theta the angle from Z1 and
m' = m*sqrt(1+a^2). Integration uses the explicit constraint term
-|v|^2 q plus a post-step projection back to the sphere, so there are no
chart singularities at the equator.

One pair of maps, ``planar_to_sphere``/``sphere_to_planar``, identifies
the open southern hemisphere with the normalized planar chart: central
projection onto the plane z = -1 with the time change d tau / d t =
1/lambda^2, lambda^2 = 1 + x^2 + y^2, and the normalization (x, y) =
(xi, sqrt(1+a^2) eta + a) that moves the center to the origin.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import PoleSingularity, StepFailure
from .model import PlanarState, SphericalState, SystemParams, spherical_center
from .projective import plane_plane_project, plane_plane_push_velocity

POLE_GUARD = 1e-10


def _rhs(t, y, m_prime, z1):
    q = y[:3]
    v = y[3:]
    c = q[0] * z1[0] + q[1] * z1[1] + q[2] * z1[2]
    if abs(c) > 1.0 - POLE_GUARD:
        raise PoleSingularity("trajectory entered the pole guard region")
    sin2 = 1.0 - c * c
    k = m_prime / (sin2 * math.sqrt(sin2))
    v2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    return (
        v[0],
        v[1],
        v[2],
        k * (z1[0] - c * q[0]) - v2 * q[0],
        k * (z1[1] - c * q[1]) - v2 * q[1],
        k * (z1[2] - c * q[2]) - v2 * q[2],
    )


def flow_rhs(params: SystemParams) -> Callable:
    """Right-hand side of the embedded spherical system for solve_ivp.

    The acceleration is the tangential gradient of the force function
    m'*cot(theta), of magnitude |m'|/sin^2(theta), plus the centripetal
    constraint term -|v|^2 q. The returned function raises
    PoleSingularity when |q . Z1| > 1 - 1e-10.
    """
    z1 = spherical_center(params)
    m_prime = params.m_prime

    def rhs(t, y):
        return _rhs(t, y, m_prime, z1)

    return rhs


def spherical_energy_embedded(s: SphericalState, params: SystemParams):
    """Spherical energy (1/2)|v|^2 - m' * cot(theta) in embedded form.

    Elementwise: for (n, 3) sample arrays in s.q and s.v, each entry is the
    value at that sample's SphericalState, to the bit."""
    c = s.q @ spherical_center(params)
    if (np.abs(c) > 1.0 - POLE_GUARD).any():
        raise PoleSingularity("cot(theta) overflows inside the pole guard")
    cot = c / np.sqrt(1.0 - c * c)
    # the stacked matmul has np.dot's bits per sample (np.vecdot needs numpy 2)
    v2 = (s.v[..., None, :] @ s.v[..., :, None])[..., 0, 0]
    return 0.5 * v2 - params.m_prime * cot


def time_change_density(s: SphericalState) -> float:
    """Local density d tau / d t = 1/lambda^2 = q_z^2 of the projection."""
    return s.q[2] * s.q[2]


def planar_to_sphere(state: PlanarState, params: SystemParams) -> SphericalState:
    """Map a normalized planar state to the southern hemisphere: the chart
    point (x, y) = (xi, sqrt(1+a^2) eta + a) goes to q = (x, y, -1)/lambda,
    its velocity to d q/d tau, with (x', y') = lambda^2 (x_dot, y_dot)."""
    k = math.sqrt(1.0 + params.a * params.a)
    x, y = state.xi, k * state.eta + params.a
    lam2 = 1.0 + x * x + y * y
    lam = math.sqrt(lam2)
    q = np.array([x, y, -1.0]) / lam
    xp = lam2 * state.xi_dot
    yp = lam2 * (k * state.eta_dot)
    dd = (x * xp + y * yp) / lam2
    v = np.array([xp - x * dd, yp - y * dd, dd]) / lam
    return SphericalState(q, v)


_CHART_PLANE = np.array([0.0, 0.0, -1.0])


def sphere_to_planar(s: SphericalState, params: SystemParams) -> PlanarState:
    """Inverse of :func:`planar_to_sphere`. The projective pair onto z = -1
    gives the chart point and its t-derivative -q_z v + v_z q; raises
    WrongHalfPlane if q_z >= 0."""
    x, y, _ = plane_plane_project(s.q, _CHART_PLANE)
    x_dot, y_dot, _ = plane_plane_push_velocity(s.q, s.v, _CHART_PLANE)
    k = math.sqrt(1.0 + params.a * params.a)
    return PlanarState(x, (y - params.a) / k, x_dot, y_dot / k)


def project_constraints(y: np.ndarray) -> np.ndarray:
    """Project an embedded 6-vector back onto the unit tangent bundle."""
    q = y[:3] / np.linalg.norm(y[:3])
    v = y[3:] - np.dot(q, y[3:]) * q
    return np.concatenate([q, v])


_CHUNK = 5.0


def integrate_spherical(
    state: SphericalState,
    t_eval,
    params: SystemParams,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    max_step: float = math.inf,
):
    """Integrate the embedded spherical flow from t_eval[0] to t_eval[-1].

    The integration runs in chunks of 5 time units, at least one, until
    every sample is taken (a span of 1e-16 included); every sample and
    every chunk's end state is projected back onto the unit tangent
    bundle (constraint drift < 1e-14 afterwards). The ascending samples
    t_eval are read from each chunk's dense output in one call, equal to
    per-sample calls.

    Returns:
        (ts, ys): the sample times t_eval and their 6-column state array.
    """
    rhs = flow_rhs(params)
    want = np.asarray(t_eval, dtype=float)
    t, t1 = float(want[0]), float(want[-1])
    y = state.as_array()
    ys_out = []
    w_idx = 0
    while w_idx < len(want):
        t_next = min(t + _CHUNK, t1)
        sol = solve_ivp(
            rhs,
            (t, t_next),
            y,
            method="DOP853",
            rtol=rtol,
            atol=atol,
            max_step=max_step,
            dense_output=True,
        )
        if not sol.success:
            raise StepFailure(f"spherical integration failed: {sol.message}")
        end = int(np.searchsorted(want, t_next + 1e-15, side="right"))
        if end > w_idx:
            ys_out.extend(project_constraints(row) for row in sol.sol(want[w_idx:end]).T)
            w_idx = end
        y = project_constraints(sol.y[:, -1])
        t = t_next
    return want[:w_idx], np.array(ys_out)
