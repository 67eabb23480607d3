"""Kepler-Coulomb flow on the unit sphere, integrated in embedded 3-space.

The force center Z1 sits at (0, a/sqrt(1+a^2), -1/sqrt(1+a^2)); the force
function is m' * cot(theta) with theta the angle from Z1 and
m' = m*sqrt(1+a^2). Integration uses the explicit constraint term
-|v|^2 q plus a post-step projection back to the sphere, so there are no
chart singularities at the equator.

The open southern hemisphere is identified with the plane z = -1 by
central projection; ``chart_to_sphere``/``sphere_to_chart`` convert
states including the velocity push-forward with the time change
d tau / d t = 1/lambda^2, lambda^2 = 1 + x^2 + y^2.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NotInSouthHemisphere, PoleSingularity, StepFailure
from .model import ChartState, PlanarState, SphericalState, SystemParams, spherical_center
from .projective import denormalize_chart, normalize_chart

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


def spherical_energy_embedded(s: SphericalState, params: SystemParams) -> float:
    """Spherical energy (1/2)|v|^2 - m' * cot(theta) in embedded form."""
    z1 = spherical_center(params)
    c = float(np.dot(s.q, z1))
    if abs(c) > 1.0 - POLE_GUARD:
        raise PoleSingularity("cot(theta) overflows inside the pole guard")
    cot = c / math.sqrt(1.0 - c * c)
    return 0.5 * float(np.dot(s.v, s.v)) - params.m_prime * cot


def chart_to_sphere(p: ChartState) -> SphericalState:
    """Central projection of an (x, y) chart state to the southern hemisphere.

    The point maps to q = (x, y, -1)/sqrt(1+x^2+y^2); the velocity is the
    tau-derivative of q with (x', y') = (1+x^2+y^2)(x_dot, y_dot).
    """
    x, y = p.x, p.y
    lam2 = 1.0 + x * x + y * y
    lam = math.sqrt(lam2)
    q = np.array([x, y, -1.0]) / lam
    xp = lam2 * p.x_dot
    yp = lam2 * p.y_dot
    dd = (x * xp + y * yp) / lam2
    v = np.array([xp - x * dd, yp - y * dd, dd]) / lam
    return SphericalState(q, v)


def sphere_to_chart(s: SphericalState) -> ChartState:
    """Inverse of :func:`chart_to_sphere`; requires q_z < 0.

    Raises:
        NotInSouthHemisphere: if q_z >= 0.
    """
    q, v = s.q, s.v
    if q[2] >= 0.0:
        raise NotInSouthHemisphere(f"q_z = {q[2]} must be negative")
    lam = -1.0 / q[2]
    x = q[0] * lam
    y = q[1] * lam
    # chart velocity in spherical time, then undo the time change
    xp = (v[0] - q[0] * v[2] / q[2]) * lam
    yp = (v[1] - q[1] * v[2] / q[2]) * lam
    lam2 = lam * lam
    return ChartState(x, y, xp / lam2, yp / lam2)


def time_change_density(s: SphericalState) -> float:
    """Local density d tau / d t = 1/lambda^2 = q_z^2 of the projection."""
    return s.q[2] * s.q[2]


def planar_to_sphere(state: PlanarState, params: SystemParams) -> SphericalState:
    """Map a normalized planar state to the corresponding spherical state."""
    return chart_to_sphere(denormalize_chart(state, params.a))


def sphere_to_planar(s: SphericalState, params: SystemParams) -> PlanarState:
    """Map a southern-hemisphere state back to the normalized planar chart."""
    c = sphere_to_chart(s)
    return normalize_chart(c.x, c.y, c.x_dot, c.y_dot, params.a)


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

    The integration runs in chunks of 5 time units; every sample and
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
    while t < t1 - 1e-15:
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
