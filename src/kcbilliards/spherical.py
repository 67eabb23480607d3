"""Kepler-Coulomb flow on the unit sphere, and the one way it is integrated.

The force center Z1 sits at (0, a/sqrt(1+a^2), -1/sqrt(1+a^2)); the force
function is m' * cot(theta) with theta the angle from Z1 and
m' = m*sqrt(1+a^2). Near the attracting pole P (Z1, or -Z1 if m' < 0)
the flow runs in P's gnomonic chart, where it is planar Kepler flow
(Albouy, Projective dynamics and classical gravitation, 2008), in
Levi-Civita's form, which passes the pole; elsewhere it runs in embedded
3-space with the explicit constraint term -|v|^2 q, which has no chart
singularity at the equator of P. The two forms of ``_spherical_forms``
serve the numeric billiard legs (see kcbilliards.billiard), and the free
flows of ``integrate_spherical`` only near the parabola of the chart.
Any other orbit is one conic of P's chart (``_chart_conic``): an ellipse,
or both branches of a hyperbola, the far one traced beyond P's equator
by the antipodes (-q, -v) with mass -|m'|. A free flow is sampled on
that conic in closed form, across the equator; billiard_map(mode=
"analytic") times a leg's hit on a chart ellipse by the same clock at one
float s, and a numeric leg that misses the wall stops after one period
of the orbit. One state's maps and energy (_chart_to_sphere,
sphere_to_planar, spherical_energy_embedded) run on plain floats, with
the bits of the same operations on numpy columns.

One pair of maps, ``planar_to_sphere``/``sphere_to_planar``, identifies
the open southern hemisphere with the normalized planar chart: central
projection onto the plane z = -1 (``_chart_to_sphere`` and its inverse
``_sphere_to_chart``) with the time change d tau / d t = 1/lambda^2,
lambda^2 = 1 + x^2 + y^2, and the normalization (x, y) =
(xi, sqrt(1+a^2) eta + a) that moves the center to the origin.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, PoleSingularity, StepFailure, WrongHalfPlane
from .integrals import planar_energy
from .model import (POLE_GUARD, IntegratorConfig, PlanarState, SphericalState, SystemParams,
                    solve_ivp, spherical_center)
from .planar import (_Form, _clock_end, _clock_samples, _conic, _conic_samples, _invert_clock,
                     _kernel_columns, _levi_civita, _levi_civita_to_planar, _radius, _squared,
                     levi_civita_rhs)


def flow_rhs(params: SystemParams) -> Callable:
    """Right-hand side of the embedded spherical system for solve_ivp.

    The acceleration is the tangential gradient of the force function
    m'*cot(theta), of magnitude |m'|/sin^2(theta), plus the centripetal
    constraint term -|v|^2 q. The returned function raises
    PoleSingularity when |q . Z1| > 1 - POLE_GUARD; the flow switches to
    the pole chart at 45 degrees from the attracting pole, before that.
    """
    z0, z1, z2 = spherical_center(params).tolist()
    m_prime = params.m_prime

    def rhs(t, y):
        q0, q1, q2, v0, v1, v2 = np.asarray(y).tolist()  # plain floats: cheaper, same bits
        c = q0 * z0 + q1 * z1 + q2 * z2
        if abs(c) > 1.0 - POLE_GUARD:
            raise PoleSingularity("trajectory entered the pole guard region")
        sin2 = 1.0 - c * c
        k = m_prime / (sin2 * math.sqrt(sin2))
        vv = v0 * v0 + v1 * v1 + v2 * v2
        return (v0, v1, v2, k * (z0 - c * q0) - vv * q0,
                k * (z1 - c * q1) - vv * q1, k * (z2 - c * q2) - vv * q2)

    return rhs


def spherical_energy_embedded(s: SphericalState, params: SystemParams):
    """Spherical energy (1/2)|v|^2 - m' * cot(theta) in embedded form, with
    sin(theta) = |q x Z1|, which does not cancel near the pole.

    Elementwise: for (n, 3) sample arrays in s.q and s.v, in any memory
    layout, each entry is the value at that sample's SphericalState, to the
    bit. One state takes the same operations on plain floats, which round
    as numpy's do."""
    z0, z1, z2 = spherical_center(params).tolist()
    one = s.q.ndim == 1
    (q0, q1, q2), (v0, v1, v2) = (s.q.tolist(), s.v.tolist()) if one else (s.q.T, s.v.T)
    c = q0 * z0 + q1 * z1 + q2 * z2
    if abs(c) > 1.0 - POLE_GUARD if one else (np.abs(c) > 1.0 - POLE_GUARD).any():
        raise PoleSingularity("cot(theta) overflows inside the pole guard")
    n0, n1, n2 = q1 * z2 - q2 * z1, q2 * z0 - q0 * z2, q0 * z1 - q1 * z0
    sin2 = n0 * n0 + n1 * n1 + n2 * n2
    sin = math.sqrt(sin2) if one else np.sqrt(sin2)
    return 0.5 * (v0 * v0 + v1 * v1 + v2 * v2) - params.m_prime * (c / sin)


def time_change_density(s: SphericalState) -> float:
    """Local density d tau / d t = 1/lambda^2 = q_z^2 of the projection."""
    return s.q[2] * s.q[2]


def _chart_to_sphere(x, y, x_dot, y_dot):
    """The point (x, y) of the plane z = -1 and its t-derivative mapped to
    q = (x, y, -1)/lambda and d q/d tau, with (x', y') = lambda^2 (x_dot,
    y_dot), as two triples; elementwise, so it maps one state of plain
    floats or columns of states."""
    lam2 = 1.0 + x * x + y * y
    lam = math.sqrt(lam2) if isinstance(lam2, float) else np.sqrt(lam2)
    xp, yp = lam2 * x_dot, lam2 * y_dot
    dd = (x * xp + y * yp) / lam2
    return (x / lam, y / lam, -1.0 / lam), ((xp - x * dd) / lam, (yp - y * dd) / lam, dd / lam)


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
    q, v = s.q.tolist(), s.v.tolist()  # one state: plain floats
    if q[2] >= 0.0:
        raise WrongHalfPlane(f"q_z = {q[2]} must be negative")
    x, y, x_dot, y_dot = _sphere_to_chart(q, v)
    return PlanarState(x, (y - params.a) / params.scale, x_dot, y_dot / params.scale)


# the pole chart's radii of entry and exit; the gap keeps the forms from alternating
_CHART_IN, _CHART_OUT = 1.0, 2.0


def _leave_chart(s, y):
    return y[0] * y[0] + y[1] * y[1] - _CHART_OUT


_leave_chart.terminal = True
_leave_chart.direction = 1.0


@functools.lru_cache(maxsize=64)
def _pole_chart(params: SystemParams):
    """The attracting pole P (Z1 if m' > 0, else -Z1) and the rotation turn
    with rows (e1, P x e1, -P), which takes P to (0, 0, -1): the sphere
    turned by it projects onto P's gnomonic chart (_sphere_to_chart). Both
    depend on the params alone, so each params computes them once, as
    read-only arrays that every leg and flow shares. The spherical force
    has no beta term: ConfigError for params.beta != 0."""
    if params.beta != 0.0:
        raise ConfigError("the spherical flow requires beta = 0")
    pole = math.copysign(1.0, params.m_prime) * spherical_center(params)
    e1 = np.array([1.0, 0.0, 0.0])  # normal to Z1
    turn = np.array([e1, np.cross(pole, e1), -pole])
    pole.flags.writeable = turn.flags.writeable = False
    return pole, turn


def _spherical_forms(params: SystemParams):
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
    d tau/ds = r/(1 + r^2). Its phase is the sphere point q = (x1 e1 +
    x2 e2 + P)/lambda, lambda^2 = 1 + |x|^2, and dq/ds, regular at the
    pole, so a leg reads the sphere's own wall function in either form.
    ConfigError for params.beta != 0 (_pole_chart).
    """
    pole, turn = _pole_chart(params)
    mu = abs(params.m_prime)
    _, p1, p2 = pole.tolist()  # P = (0, p1, p2), so e2 = P x e1 = (0, p2, -p1)
    embedded = flow_rhs(params)
    c_in = 1.0 / math.hypot(1.0, _CHART_IN)

    def enter_chart(s, y):
        return y[0] * pole[0] + y[1] * pole[1] + y[2] * pole[2] - c_in

    enter_chart.terminal = True
    enter_chart.direction = 1.0

    def chart_phase(y):
        # q and dq/ds = (w1 e1 + w2 e2)/lambda - (d lambda/ds / lambda) q, as floats
        x1, x2, w1, w2 = _squared(np.asarray(y).tolist())
        lam = math.sqrt(1.0 + x1 * x1 + x2 * x2)
        d = (x1 * w1 + x2 * w2) / (lam * lam)
        q0, q1, q2 = x1 / lam, (p1 + x2 * p2) / lam, (p2 - x2 * p1) / lam
        return q0, q1, q2, w1 / lam - d * q0, w2 * p2 / lam - d * q1, -w2 * p1 / lam - d * q2

    def to_sphere(y):
        if len(y) == 6:  # embedded
            return y[:3], y[3:]
        q, v = _chart_to_sphere(*_levi_civita_to_planar(y))
        return turn.T @ q, turn.T @ v

    def as_state(y):
        return SphericalState.project(*to_sphere(y))

    def form(state: SphericalState, t: float, in_chart: bool):
        if not in_chart:
            return _Form(embedded, state.as_array(), lambda y: y, lambda s, y: t + s,
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

        return _levi_civita(c, energy, rhs, rate, chart_phase, t, as_state, True, _leave_chart)

    return pole, c_in, form, to_sphere


# A chart orbit with |alpha| r0/mu at least this (alpha = -2E) runs in closed form. alpha =
# 2 mu/r0 - |w|^2 cancels toward the parabola, and its rounding, 2 ulps/(|alpha| r0/mu)
# relative, moves each pericentre passage in tau: over tau = 5, closed-form samples of an
# ellipse lay 4.4e-10 (scaled) from the integrated ones at rtol 1e-13 at 1e-2, 2.5e-9 at
# 1e-3 and 3.5e-7 at 1e-5. Every benchmark start lies outside this band.
_BOUND_MARGIN = 1e-2

# A spherical orbit as one conic of P's chart (_chart_conic): the start's chart state and
# its clock tau(s) at the universal variable s of the chart conic, a float or an array,
# for a chart ellipse (None for a hyperbola); the period of tau; and samples(ts) -> the
# embedded (q, v), one per column, where tau reads the ascending times ts.
_ChartConic = namedtuple("_ChartConic", "chart clock period samples")

# the largest float below 1, the end of a hyperbola branch's table in u = tanh(w s/2)
_U_END = math.nextafter(1.0, 0.0)


def _chart_conic(state: SphericalState, params: SystemParams, turn,
                 t0: float) -> Optional[_ChartConic]:
    """The spherical flow from state at time t0 as one conic of the chart of
    turn (_pole_chart), in closed form (Albouy, Projective dynamics and
    classical gravitation, 2008), for a start off P's equator with
    |alpha| r0/mu at least _BOUND_MARGIN; None for any other start.

    Beyond P's equator the antipode (-q, -v) is a chart state of mass -mu,
    since cot(pi - theta) = -cot(theta): it runs the same equations in the
    same time. A start in P's hemisphere with chart energy E < 0 (alpha > 0)
    stays on one chart ellipse of mass mu = |m'|. Any other orbit
    alternates between the two branches of one chart hyperbola, with the
    same E, L and Laplace-Runge-Lenz vector A = (w2 L, -w1 L) - m x/r: the
    near branch of mass mu in P's hemisphere, and the antipodes' far branch
    of mass -mu beyond it. Each branch leaves through the equator at
    s -> +inf and the other comes in at s -> -inf, in a finite time, since
    d tau/ds = r/(1 + r^2) = Re 1/(r - i) decays like 1/r.

    On the ellipse, with r(s) = A + R cos psi, psi = sqrt(alpha) s - phi
    (A = mu/alpha), over each period of psi int dpsi/(a + R cos psi) =
    (2/k) atan(c tan(psi/2)), a = A - i, c = sqrt((a - R)/(a + R)), k =
    (a + R) c: Re c > 0, so atan meets no branch cut, and each turn of psi
    adds 2 pi/k. a - R = r_p - i with the pericentre r_p = L^2/(mu + alpha
    R), free of cancellation. The difference of the two atans from the
    start is taken as one atan, of k sin(h)/(a cos h + R cos(h - phi)) with
    h = sqrt(alpha) s/2, which keeps tau - t0 to a few ulps of itself; the
    two atans only pick its branch. That clock is one formula for a float
    s, an exact leg's hit, and for the arrays of at(s), which samples
    inverts. The hyperbola is _chart_hyperbola's."""
    q, v = turn @ state.q, turn @ state.v
    if q[2] == 0.0:  # on P's equator: no chart point
        return None
    near = q[2] < 0.0  # q.P > 0: in P's hemisphere
    c = PlanarState(*_sphere_to_chart(q, v) if near else _sphere_to_chart(-q, -v))
    mu, r0 = abs(params.m_prime), c.r
    m = mu if near else -mu
    alpha = 2.0 * m / r0 - c.speed**2
    if abs(alpha) * r0 < _BOUND_MARGIN * mu:
        return None
    sigma0, ell = c.xi * c.xi_dot + c.eta * c.eta_dot, c.xi * c.eta_dot - c.eta * c.xi_dot
    if alpha < 0.0:
        return _chart_hyperbola(c, m, mu, alpha, sigma0, ell, turn, t0)
    w = math.sqrt(alpha)
    big_a = mu / alpha
    big_r = math.hypot(r0 - big_a, sigma0 / w)
    phi = math.atan2(sigma0 / w, r0 - big_a)
    a = complex(big_a, -1.0)
    root = cmath.sqrt(complex(ell * ell / (mu + alpha * big_r), -1.0) / (a + big_r))
    k = (a + big_r) * root

    def turned_atan(psi):  # (whole turns of psi, atan(c tan(psi/2)) within the turn)
        turns = np.floor((psi + math.pi) / (2.0 * math.pi))
        return turns, np.arctan(root * np.tan(0.5 * (psi - 2.0 * math.pi * turns)))

    turns0, atan0 = turned_atan(-phi)
    conic = _conic(c, mu)

    def clock(s):  # tau(s)
        h = 0.5 * w * s
        d = np.arctan(k * np.sin(h) / (a * np.cos(h) + big_r * np.cos(h - phi)))
        turns, atans = turned_atan(w * s - phi)
        d += math.pi * (turns - turns0 + np.round((atans - atan0 - d).real / math.pi))
        return t0 + (2.0 / k * d).real / w

    def at(s):
        y = conic(s)
        y[4] = clock(s)
        y[5] = y[5] / (1.0 + y[5] * y[5])
        return y

    def samples(ts):
        q, v = _chart_to_sphere(*_conic_samples(at, ts)[:4])
        return np.concatenate([turn.T @ q, turn.T @ v])

    return _ChartConic(c, clock, (2.0 * math.pi / k).real / w, samples)


def _chart_hyperbola(c: PlanarState, m: float, mu: float, alpha: float, sigma0: float,
                     ell: float, turn, t0: float) -> _ChartConic:
    """_chart_conic's orbit on a chart hyperbola, from the start's chart
    state c on the branch of mass m (sigma0 = x.w, ell = L).

    With w = sqrt(-alpha), each branch, from its pericentre rho along A, is
    r(s) = B + R cosh(w s) with B = m/alpha and R = rho - B = |A|/w^2, and
    tau(s) = Re (2/(w k)) atan(c tanh(w s/2)) by the ellipse's integral,
    with a = B - i: R - a = rho' + i, where rho' is the other branch's
    pericentre, and R + a = rho - i, so c = sqrt((rho' + i)/(rho - i)) and
    k = (rho - i) c, free of cancellation as are rho_near = L^2/(mu + |A|),
    rho_far = (mu + |A|)/w^2 and |A| = hypot(mu, w L). A branch is tabled
    and its clock inverted in u = tanh(w s/2), on which tau and d tau/du
    stay smooth up to the equator, u = +-1. Its states are the f and g
    functions from the pericentre, in the terms x = (rho - m G2) A/|A| +
    L G1 A'/|A|, dx/dt = (-m G1 A/|A| + L G0 A'/|A|)/r (A' = A turned by
    +90 degrees), which keep their digits for any L, and their sphere
    states q = (x, -1)/lambda and dq/dtau = (dx/dt + L (-x2, x1),
    x.dx/dt)/lambda in the turned frame: _chart_to_sphere's velocity with L
    in place of the difference of two terms of order r^2, which near P's
    equator (r -> inf) would leave an error of order r ulps. Over one
    period, tau_near(1) + tau_far(1) twice, the near branch spans
    (-tau_near(1), tau_near(1)) of the phase, counted from its pericentre,
    and the far one the rest."""
    w = math.sqrt(-alpha)
    big_a = math.hypot(mu, w * ell)
    a1, a2 = c.eta_dot * ell - m * c.xi / c.r, -c.xi_dot * ell - m * c.eta / c.r
    norm = math.hypot(a1, a2)
    a1, a2 = a1 / norm, a2 / norm
    rho_near, rho_far = ell * ell / (mu + big_a), (mu + big_a) / (w * w)

    def branch(m, rho, rho_other):
        # at(u) at u = tanh(w s/2) from the pericentre, with tau(u) from there in row 4 and
        # d tau/du in row 5, both finite up to u = +-1; and tau(1)
        root = cmath.sqrt(complex(rho_other, 1.0) / complex(rho, -1.0))
        scale = 2.0 / (w * complex(rho, -1.0) * root)
        grow = m - alpha * rho  # r = rho + grow G2

        def at(u):
            g1, g2, _ = _kernel_columns(alpha, 2.0 / w * np.arctanh(u))
            r = rho + grow * g2
            along, across = rho - m * g2, ell * g1
            with np.errstate(divide="ignore", invalid="ignore"):  # r = 0 only at the pole
                d_along, d_across = -m * g1 / r, ell * (1.0 - alpha * g2) / r
            return np.array([along * a1 - across * a2, along * a2 + across * a1,
                             d_along * a1 - d_across * a2, d_along * a2 + d_across * a1,
                             (scale * np.arctan(root * u)).real,
                             (scale * root / (1.0 + (root * u) ** 2)).real])

        return at, grow, (scale * cmath.atan(root)).real

    near, far = branch(mu, rho_near, rho_far), branch(-mu, rho_far, rho_near)
    t_near, half = near[2], near[2] + far[2]  # half: from the near pericentre to the far one

    def samples(ts):
        # the start's phase: sigma = dr/ds = grow G1 = grow sinh(w s)/w on its branch,
        # and tanh(asinh(x)/2) = x/(1 + sqrt(1 + x^2))
        at, grow, _ = near if m > 0.0 else far
        x = w * sigma0 / grow
        phase0 = float(at(np.array([x / (1.0 + math.sqrt(1.0 + x * x))]))[4, 0])
        phase0 += 0.0 if m > 0.0 else half
        phase = (phase0 + (ts - t0) + t_near) % (2.0 * half) - t_near
        on_far = phase >= t_near
        out = np.empty((6, ts.size))
        for (at, _, _), pick, centre, sign in ((near, ~on_far, 0.0, 1.0),
                                              (far, on_far, half, -1.0)):
            if not pick.any():
                continue
            grid = np.linspace(-_U_END, _U_END, max(int(pick.sum()), 2))
            x1, x2, w1, w2 = _invert_clock(at, lambda u, y: y[4], lambda y: y[5], grid,
                                           at(grid)[4], phase[pick] - centre)[:4]
            lam = np.sqrt(1.0 + x1 * x1 + x2 * x2)
            q = np.array([x1, x2, np.full_like(x1, -1.0)]) / lam
            v = np.array([w1 - ell * x2, w2 + ell * x1, x1 * w1 + x2 * w2]) / lam
            out[:, pick] = sign * np.concatenate([turn.T @ q, turn.T @ v])
        return out

    return _ChartConic(None, None, 2.0 * half, samples)


def integrate_spherical(state: SphericalState, t_eval, params: SystemParams,
                        integ: IntegratorConfig = IntegratorConfig()):
    """Sample the spherical flow from t_eval[0] at the ascending times t_eval.

    A start off the parabola of its attracting pole's chart (_chart_conic)
    is sampled on that chart's conic in closed form, where its clock reads
    each time, and integ is not read: on the chart ellipse (_conic_samples)
    or, for an orbit unbound in the chart, on the two branches of its chart
    hyperbola, across P's equator. Any other flow (|alpha| r0/mu below
    _BOUND_MARGIN, or a start on P's equator) runs the billiard legs' forms
    with no wall: the chart of the attracting pole (entered 45 and left 63
    degrees off it), which passes the pole, and the embedded field
    elsewhere. Each form runs in one integration (integ.max_step a span of
    s through dt/ds at its start) until it switches or its clock reaches
    t_eval[-1]; the samples come from its dense output (_clock_samples).
    Either way the samples are projected onto the unit tangent bundle.

    Returns:
        (ts, ys): the sample times t_eval and their 6-column state array.
    """
    want = np.asarray(t_eval, dtype=float)
    _, turn = _pole_chart(params)
    conic = _chart_conic(state, params, turn, float(want[0]))
    if conic is not None:
        ys = conic.samples(want)
    else:
        ys = _integrated_samples(state, want, params, integ)
    # projected onto the unit tangent bundle
    q = ys[:3] / np.linalg.norm(ys[:3], axis=0)
    ys = np.concatenate([q, ys[3:] - (q * ys[3:]).sum(axis=0) * q])
    return want, ys.T


def _integrated_samples(state: SphericalState, want: np.ndarray, params: SystemParams,
                        integ: IntegratorConfig) -> np.ndarray:
    """integrate_spherical's samples by integration, as embedded (q, v) rows."""
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
    return np.hstack(samples)
