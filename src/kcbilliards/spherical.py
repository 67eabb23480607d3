"""Kepler-Coulomb flow on the unit sphere, and the one way it is integrated.

The force center Z1 sits at (0, a/sqrt(1+a^2), -1/sqrt(1+a^2)); the force
function is m' * cot(theta) with theta the angle from Z1 and
m' = m*sqrt(1+a^2). Near the attracting pole P (Z1, or -Z1 if m' < 0)
the flow runs in P's gnomonic chart, where it is planar Kepler flow
(Albouy, Projective dynamics and classical gravitation, 2008), in
Levi-Civita's form, which passes the pole; elsewhere it runs in embedded
3-space with the explicit constraint term -|v|^2 q, which has no chart
singularity at the equator of P. The two forms of ``_spherical_forms``
serve the billiard legs (see kcbilliards.billiard) and the free flow of
``integrate_spherical`` alike.

One pair of maps, ``planar_to_sphere``/``sphere_to_planar``, identifies
the open southern hemisphere with the normalized planar chart: central
projection onto the plane z = -1 (``_chart_to_sphere`` and its inverse
``_sphere_to_chart``) with the time change d tau / d t = 1/lambda^2,
lambda^2 = 1 + x^2 + y^2, and the normalization (x, y) =
(xi, sqrt(1+a^2) eta + a) that moves the center to the origin.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .errors import PoleSingularity, StepFailure, WrongHalfPlane
from .integrals import planar_energy
from .model import (POLE_GUARD, SPHERICAL_GREAT_CIRCLE, IntegratorConfig, PlanarState,
                    SphericalState, SystemParams, Wall, solve_ivp, spherical_center)
from .planar import (_Form, _clock_end, _clock_samples, _levi_civita, _levi_civita_to_planar,
                     _radius, levi_civita_rhs)


def flow_rhs(params: SystemParams) -> Callable:
    """Right-hand side of the embedded spherical system for solve_ivp.

    The acceleration is the tangential gradient of the force function
    m'*cot(theta), of magnitude |m'|/sin^2(theta), plus the centripetal
    constraint term -|v|^2 q. The returned function raises
    PoleSingularity when |q . Z1| > 1 - POLE_GUARD; the flow switches to
    the pole chart at 45 degrees from the attracting pole, before that.
    """
    z1 = spherical_center(params)
    m_prime = params.m_prime

    def rhs(t, y):
        q, v = y[:3], y[3:]
        c = q[0] * z1[0] + q[1] * z1[1] + q[2] * z1[2]
        if abs(c) > 1.0 - POLE_GUARD:
            raise PoleSingularity("trajectory entered the pole guard region")
        sin2 = 1.0 - c * c
        k = m_prime / (sin2 * math.sqrt(sin2))
        v2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
        return (v[0], v[1], v[2], k * (z1[0] - c * q[0]) - v2 * q[0],
                k * (z1[1] - c * q[1]) - v2 * q[1], k * (z1[2] - c * q[2]) - v2 * q[2])

    return rhs


def spherical_energy_embedded(s: SphericalState, params: SystemParams):
    """Spherical energy (1/2)|v|^2 - m' * cot(theta) in embedded form, with
    sin(theta) = |q x Z1|, which does not cancel near the pole.

    Elementwise: for (n, 3) sample arrays in s.q and s.v, in any memory
    layout, each entry is the value at that sample's SphericalState, to the bit."""
    z = spherical_center(params)
    (q0, q1, q2), (v0, v1, v2) = s.q.T, s.v.T
    c = q0 * z[0] + q1 * z[1] + q2 * z[2]
    if (np.abs(c) > 1.0 - POLE_GUARD).any():
        raise PoleSingularity("cot(theta) overflows inside the pole guard")
    n0, n1, n2 = q1 * z[2] - q2 * z[1], q2 * z[0] - q0 * z[2], q0 * z[1] - q1 * z[0]
    sin = np.sqrt(n0 * n0 + n1 * n1 + n2 * n2)
    return 0.5 * (v0 * v0 + v1 * v1 + v2 * v2) - params.m_prime * (c / sin)


def time_change_density(s: SphericalState) -> float:
    """Local density d tau / d t = 1/lambda^2 = q_z^2 of the projection."""
    return s.q[2] * s.q[2]


def _chart_to_sphere(x, y, x_dot, y_dot):
    """The point (x, y) of the plane z = -1 and its t-derivative mapped to
    q = (x, y, -1)/lambda and d q/d tau, with (x', y') = lambda^2 (x_dot,
    y_dot); elementwise, so it maps one state or columns of states."""
    lam2 = 1.0 + x * x + y * y
    lam = np.sqrt(lam2)
    xp, yp = lam2 * x_dot, lam2 * y_dot
    dd = (x * xp + y * yp) / lam2
    q = np.array([x, y, np.full_like(x, -1.0)]) / lam
    return q, np.array([xp - x * dd, yp - y * dd, dd]) / lam


def _sphere_to_chart(q, v):
    """Inverse of _chart_to_sphere for q_z < 0: the chart point x = q_xy/lambda,
    lambda = -q_z, and its t-derivative lambda v_xy + v_z q_xy."""
    lam = -q[2]
    return q[0] / lam, q[1] / lam, lam * v[0] + v[2] * q[0], lam * v[1] + v[2] * q[1]


def planar_to_sphere(state: PlanarState, params: SystemParams) -> SphericalState:
    """Map a normalized planar state to the southern hemisphere: the chart
    point (x, y) = (xi, sqrt(1+a^2) eta + a) and its velocity go by _chart_to_sphere."""
    return SphericalState(*_chart_to_sphere(state.xi, params.scale * state.eta + params.a,
                                            state.xi_dot, params.scale * state.eta_dot))


def sphere_to_planar(s: SphericalState, params: SystemParams) -> PlanarState:
    """Inverse of :func:`planar_to_sphere`: the chart point and its
    t-derivative by _sphere_to_chart, then the inverse normalization.
    Raises WrongHalfPlane if q_z >= 0 (the ray misses the plane z = -1)."""
    if s.q[2] >= 0.0:
        raise WrongHalfPlane(f"q_z = {s.q[2]} must be negative")
    x, y, x_dot, y_dot = _sphere_to_chart(s.q, s.v)
    return PlanarState(x, (y - params.a) / params.scale, x_dot, y_dot / params.scale)


# the pole chart's radii of entry and exit; the gap keeps the forms from alternating
_CHART_IN, _CHART_OUT = 1.0, 2.0
_CHART_FAR = 1e6  # the chart level of a wall with no point this near the pole


def _leave_chart(s, y):
    return y[0] * y[0] + y[1] * y[1] - _CHART_OUT


_leave_chart.terminal = True
_leave_chart.direction = 1.0


def _spherical_forms(params: SystemParams, wall: Optional[Wall] = None):
    """The attracting pole P (Z1 if m' > 0, else -Z1), the q.P at which the
    flow enters its chart, form(state, t, in_chart) -> the flow's form at a
    state (the embedded field in the time t, or the chart), and to_sphere(y)
    -> the embedded (q, v) of form states y, one state or one per column.

    The chart is _sphere_to_chart on the sphere turned so that P goes to
    (0, 0, -1): x = q/(q.P) - P, w = v (q.P) - q (v.P) = dx/dt in the basis
    (e1, e2) of P's plane. It carries the spherical flow to the
    planar Kepler flow of mass |m'|, and d tau/dt = (q.P)^2 = 1/(1 + |x|^2)
    (Albouy, Projective dynamics and classical gravitation, 2008), so the
    flow runs Levi-Civita's field at the chart energy with the clock
    d tau/ds = r/(1 + r^2). Each spherical wall function has the sign of
    a planar one there: a great circle n.q = 0 is the line x2 = -n.P/|n'|,
    e2 along n' = n - (n.P) P, and the circle about Z1 is |x| = tan(rho),
    rho its angle from P; a wall with no point within _CHART_FAR of x = 0
    is put at that level. A free flow has no wall (wall None).
    """
    sign, mu = math.copysign(1.0, params.m_prime), abs(params.m_prime)
    pole = sign * spherical_center(params)
    e1 = np.array([1.0, 0.0, 0.0])  # normal to Z1
    chart_wall = None
    if wall is not None and wall.kind == SPHERICAL_GREAT_CIRCLE:
        n_p = float(np.dot(wall.axis, pole))
        normal = np.asarray(wall.axis) - n_p * pole
        k = float(np.linalg.norm(normal))
        level = -math.copysign(_CHART_FAR, n_p)
        if k * _CHART_FAR > abs(n_p):
            e1, level = np.cross(normal, pole) / k, -n_p / k
        chart_wall = Wall.line(level, wall.side)
    elif wall is not None:
        cos_rho = sign * wall.level
        radius = math.sqrt(1.0 - cos_rho * cos_rho) / cos_rho if cos_rho > 0.0 else _CHART_FAR
        chart_wall = Wall.centered_circle(min(radius, _CHART_FAR), -int(sign) * wall.side)
    turn = np.array([e1, np.cross(pole, e1), -pole])
    embedded = flow_rhs(params)
    c_in = 1.0 / math.hypot(1.0, _CHART_IN)

    def enter_chart(s, y):
        return y[0] * pole[0] + y[1] * pole[1] + y[2] * pole[2] - c_in

    enter_chart.terminal = True
    enter_chart.direction = 1.0

    def to_sphere(y):
        if len(y) == 6:  # embedded
            return y[:3], y[3:]
        q, v = _chart_to_sphere(*_levi_civita_to_planar(y))
        return turn.T @ q, turn.T @ v

    def as_state(y):
        return SphericalState.project(*to_sphere(y))

    def form(state: SphericalState, t: float, in_chart: bool):
        if not in_chart:
            return _Form(embedded, state.as_array(), wall, lambda y: y, lambda s, y: t + s,
                         lambda y: 1.0, math.inf, as_state, enter_chart)
        c = PlanarState(*_sphere_to_chart(turn @ state.q, turn @ state.v))
        energy = planar_energy(c, mu)
        kepler = levi_civita_rhs(energy, 0.0)

        def rhs(s, y):
            *f, r = kepler(s, y)
            return (*f, r / (1.0 + r * r))

        def rate(y):
            r = _radius(y)
            return r / (1.0 + r * r)

        return _levi_civita(c, energy, rhs, rate, chart_wall, t, as_state, True, _leave_chart)

    return pole, c_in, form, to_sphere


def integrate_spherical(state: SphericalState, t_eval, params: SystemParams,
                        integ: IntegratorConfig = IntegratorConfig()):
    """Sample the spherical flow from t_eval[0] at the ascending times t_eval.

    The flow runs the billiard legs' forms with no wall: the chart of the
    attracting pole (entered 45 and left 63 degrees off it), which passes
    the pole, and the embedded field elsewhere. Each form runs in one
    integration (integ.max_step a span of s through dt/ds at its start)
    until it switches or its clock reaches t_eval[-1]; the samples come
    from its dense output (_clock_samples), projected onto the unit
    tangent bundle.

    Returns:
        (ts, ys): the sample times t_eval and their 6-column state array.
    """
    want = np.asarray(t_eval, dtype=float)
    pole, c_in, sphere_form, to_sphere = _spherical_forms(params)
    form = sphere_form(state, float(want[0]), float(state.q @ pole) >= c_in)
    samples, k = [], 0
    while k < want.size:
        sol = solve_ivp(form.rhs, (0.0, math.inf), form.y, method="DOP853", rtol=integ.rtol,
                        atol=integ.atol, max_step=integ.max_step / form.rate(form.y),
                        events=[_clock_end(form, want[-1]), form.switch], dense_output=True)
        if not sol.success:
            raise StepFailure(f"spherical integration failed: {sol.message}")
        switched = sol.t_events[1].size > 0
        t = float(form.clock(sol.t[-1], sol.y[:, -1]))
        end = int(np.searchsorted(want, t, side="right")) if switched else want.size
        samples.append(np.concatenate(to_sphere(_clock_samples(sol, form, want[k:end]))))
        k = end
        if switched:
            form = sphere_form(form.state(sol.y[:, -1]), t, form.switch is not _leave_chart)
    ys = np.hstack(samples)  # then projected onto the unit tangent bundle
    q = ys[:3] / np.linalg.norm(ys[:3], axis=0)
    ys = np.concatenate([q, ys[3:] - (q * ys[3:]).sum(axis=0) * q])
    return want, ys.T
