"""Wall geometry, reflection operators, hit detection and the billiard map.

Hits are located either numerically (event-detecting adaptive integration
with bracketed root refinement on the step interpolant, any wall and beta;
each step's minima of the wall function are tracked, so a crossing that
enters and leaves within one step is found) or exactly for both planar
walls (beta = 0): the crossing of the conic with the line or the centered
circle is one closed-form root in the universal variable of the planar
kernel. Radial orbits aimed at an attractive center pass the collision by
the elastic bounce: in the plane the numeric map integrates Levi-Civita's
regularized field (q = u^2, dt/ds = r), which is regular through the
center, and the exact map passes it in the universal variable; on the
sphere a radial orbit is solved in closed form.

Both maps share one rule for a start on the wall: a start moving out of
the domain (normal speed above TANGENCY_REL of the speed) is reflected at
once, as a bounce at t = 0 with state_in equal to the start.

A leg returns the BounceRecord of its hit, whose tangent flag marks a
graze (the map acts as the identity there), or an Escape.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    CollisionInsideInterval,
    DynamicsError,
    NotOnWall,
    PerturbedModel,
    PoleSingularity,
    StepFailure,
    Undetermined,
)
from .conformal import kepler_to_hooke_point
from .integrals import integral_set, planar_energy
from .model import (
    PLANAR_CENTERED_CIRCLE,
    PLANAR_LINE,
    BounceRecord,
    IntegralSet,
    IntegratorConfig,
    Model,
    PlanarState,
    SphericalState,
    SystemParams,
    Wall,
    spherical_center,
)
from .planar import (
    crossing_root,
    levi_civita_rhs,
    time_of_flight,
    universal_kernel,
    universal_state,
)
from .spherical import (
    POLE_GUARD,
    flow_rhs as spherical_flow_rhs,
    project_constraints,
    sphere_to_planar,
    spherical_energy_embedded,
)

TANGENCY_REL = 1e-8
ON_WALL_TOL = 1e-10
L_TOL = 1e-10
_T_EPS_REL = 1e-9
_EXACT_WALLS = (PLANAR_LINE, PLANAR_CENTERED_CIRCLE)


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Escape:
    reason: str


HitOutcome = Union[BounceRecord, Escape]


# ---------------------------------------------------------------------------
# Wall geometry
# ---------------------------------------------------------------------------

def wall_signed_distance(point, wall: Wall) -> float:
    """Signed distance-like wall function side*(f - level), positive on the
    dynamics side; f is eta, r or q.axis (see :class:`Wall`)."""
    if wall.kind == PLANAR_LINE:
        f = float(point[1])
    elif wall.axis is None:
        f = math.hypot(float(point[0]), float(point[1]))
    else:
        f = float(np.dot(point, wall.axis))
    return (f - wall.level) * wall.side


def _wall_rate(y, wall: Wall) -> float:
    """The rate of wall_signed_distance at y = (position, its derivative),
    up to a positive factor (1/r for the planar circle): it crosses zero
    upwards exactly where g has a minimum."""
    if wall.kind == PLANAR_LINE:
        f = y[3]
    elif wall.axis is None:
        f = y[0] * y[2] + y[1] * y[3]
    else:
        f = float(np.dot(y[3:], wall.axis))
    return f * wall.side


def _wall_scale(wall: Wall) -> float:
    return max(1.0, abs(wall.level))


def _wall_value(state, wall: Wall) -> float:
    """wall_signed_distance at the position of a planar or spherical state."""
    planar = isinstance(state, PlanarState)
    return wall_signed_distance((state.xi, state.eta) if planar else state.q, wall)


def _curved_normal(state, wall: Wall) -> np.ndarray:
    """Unit normal of a circle or spherical wall at the state, along grad f."""
    if wall.axis is None:
        return state.position / state.r
    axis = np.asarray(wall.axis, dtype=float)
    n = axis - float(np.dot(state.q, axis)) * state.q
    return n / np.linalg.norm(n)


def _normal_velocity(state, wall: Wall) -> float:
    """Velocity along the unit wall normal, positive into the domain."""
    if wall.kind == PLANAR_LINE:
        return wall.side * state.eta_dot
    v = state.velocity if isinstance(state, PlanarState) else state.v
    return wall.side * float(np.dot(v, _curved_normal(state, wall)))


def reflect(state, wall: Wall):
    """Specular reflection at the wall: v <- v - 2 (v.n) n.

    The position is unchanged and kinetic energy is preserved to rounding.
    For the planar line the normal component is simply negated, which
    makes the involution bit-exact.

    Raises:
        NotOnWall: if the state is farther than 1e-10 (scaled) from the wall.
    """
    g = _wall_value(state, wall)
    if abs(g) > ON_WALL_TOL * _wall_scale(wall):
        raise NotOnWall(f"signed distance {g} exceeds the on-wall tolerance")
    if wall.kind == PLANAR_LINE:
        return PlanarState(state.xi, state.eta, state.xi_dot, -state.eta_dot)
    n = _curved_normal(state, wall)
    if isinstance(state, PlanarState):
        v = state.velocity
        v = v - 2.0 * float(np.dot(v, n)) * n
        return PlanarState(state.xi, state.eta, v[0], v[1])
    return SphericalState(state.q, state.v - 2.0 * float(np.dot(state.v, n)) * n)


# ---------------------------------------------------------------------------
# Record assembly
# ---------------------------------------------------------------------------

def _planar_record(
    t_hit: float, state_in: PlanarState, params: SystemParams, wall: Wall,
    tangent: bool = False,
) -> BounceRecord:
    state_out = state_in if tangent else reflect(state_in, wall)
    return BounceRecord(
        t_hit=t_hit,
        state_in=state_in,
        state_out=state_out,
        integrals_in=integral_set(state_in, params),
        integrals_out=integral_set(state_out, params),
        tangent=tangent,
    )


def _spherical_integrals(s: SphericalState, params: SystemParams) -> IntegralSet:
    """Embedded spherical energy plus, when projectable, the planar set."""
    e_sph = spherical_energy_embedded(s, params)
    if s.q[2] < 0.0:
        base = integral_set(sphere_to_planar(s, params), params)
        return IntegralSet(base.E_pl, base.L, base.A_xi, base.A_eta, base.D, e_sph)
    return IntegralSet(math.nan, math.nan, math.nan, math.nan, math.nan, e_sph)


def _spherical_record(
    t_hit: float, state_in: SphericalState, params: SystemParams, wall: Wall,
    tangent: bool = False,
) -> BounceRecord:
    state_out = state_in if tangent else reflect(state_in, wall)
    return BounceRecord(
        t_hit=t_hit,
        state_in=state_in,
        state_out=state_out,
        integrals_in=_spherical_integrals(state_in, params),
        integrals_out=_spherical_integrals(state_out, params),
        tangent=tangent,
    )


def _outward_start(state, params: SystemParams, wall: Wall) -> Optional[BounceRecord]:
    """Zero-time bounce for a start on the wall moving out of the domain.

    Returns None when the start is off the wall (beyond the reflect
    tolerance), moves into the domain, or grazes it (normal speed at most
    TANGENCY_REL of the speed); the hit search then runs as usual.
    """
    if abs(_wall_value(state, wall)) > ON_WALL_TOL * _wall_scale(wall):
        return None
    if _normal_velocity(state, wall) >= -TANGENCY_REL * state.speed:
        return None
    return _hit_or_tangency(0.0, state, params, wall)


def _hit_or_tangency(
    t_hit: float, state_in, params: SystemParams, wall: Wall
) -> BounceRecord:
    """The bounce record at a hit, tangent when the normal speed there is at
    most TANGENCY_REL of the speed."""
    tangent = abs(_normal_velocity(state_in, wall)) <= TANGENCY_REL * state_in.speed
    record = _planar_record if isinstance(state_in, PlanarState) else _spherical_record
    return record(t_hit, state_in, params, wall, tangent=tangent)


# ---------------------------------------------------------------------------
# Exact planar hit
# ---------------------------------------------------------------------------

def next_hit_analytic_line(
    state: PlanarState,
    params: SystemParams,
    wall: Wall,
) -> HitOutcome:
    """First forward crossing out of the domain of a planar wall, exactly.

    Serves the line and the centered circle alike. Along the conic, in
    Goodyear's universal variable s (dt/ds = r, see universal_kernel), the
    wall function side*(f - level) is c + P G1(s) + Q G2(s), because eta
    and r are affine in (1, G1, G2); its crossing_root, the first root
    where it does not increase, is the first crossing out of the domain
    (grazing ones included). The root gets one Newton polish on the
    kernel; the time is t(s) in closed form and the state comes from
    the f and g functions. Radial, circular and near-parabolic legs take
    the same path; a radial leg passes the center by the elastic bounce.
    A crossing at the center itself is no hit (the center is removed from
    the wall), and a start on the wall moving out of the domain bounces
    at t = 0. Agrees with the numerical hit search to 1e-8.

    Raises:
        PerturbedModel: if params.beta != 0.
    """
    if params.beta != 0.0:
        raise PerturbedModel("the analytic billiard map requires beta = 0")
    if wall.kind not in _EXACT_WALLS:
        raise ValueError("analytic hit search supports only the planar walls")
    outward = _outward_start(state, params, wall)
    if outward is not None:
        return outward
    m = params.m
    r0 = state.r
    sigma0 = state.xi * state.xi_dot + state.eta * state.eta_dot
    v2 = state.xi_dot**2 + state.eta_dot**2
    alpha = 2.0 * m / r0 - v2
    if wall.kind == PLANAR_LINE:  # eta(s) = (1 - m G2/r0) eta0 + (r0 G1 + sigma0 G2) eta_dot0
        c = state.eta - wall.level
        P, Q = r0 * state.eta_dot, sigma0 * state.eta_dot - m * state.eta / r0
    else:  # r(s) = r0 + sigma0 G1 + (m - alpha r0) G2
        c, P, Q = r0 - wall.level, sigma0, r0 * v2 - m
    c, P, Q = wall.side * c, wall.side * P, wall.side * Q
    s = crossing_root(alpha, c, P, Q)
    if s is None:
        return Escape("the orbit does not reach the wall")
    if s == math.inf:
        return Escape("the orbit has no forward crossing out of the domain")
    g = universal_kernel(alpha, s)
    F = c + P * g[1] + Q * g[2]
    dF = P * g[0] + Q * g[1]
    if dF < 0.0:  # one Newton step, kept if it helps; grazing roots stay
        g_new = universal_kernel(alpha, s - F / dF)
        F_new = c + P * g_new[1] + Q * g_new[2]
        if abs(F_new) < abs(F):
            g, F = g_new, F_new
    if abs(F) > ON_WALL_TOL * _wall_scale(wall):  # a root at s = infinity
        return Escape("the orbit meets the wall only at infinity")
    t_hit = time_of_flight(r0, sigma0, m, g)
    try:
        hit = universal_state(state, m, t_hit, g)
    except CollisionInsideInterval:
        return Escape("the orbit meets the wall only at the removed center")
    return _hit_or_tangency(t_hit, hit, params, wall)


# ---------------------------------------------------------------------------
# Numerical hit search
# ---------------------------------------------------------------------------

_POLE_EVENT_MARGIN = 1e-6


def _escape_certified(s: PlanarState, params: SystemParams, wall: Wall) -> bool:
    """Unbound, receding beyond 1e3 wall scales, and for the line wall with
    beta = 0 no forward conic intersection."""
    if not (
        s.r > 1e3 * _wall_scale(wall)
        and s.xi * s.xi_dot + s.eta * s.eta_dot > 0.0
        and planar_energy(s, params.m, params.beta) >= 0.0
    ):
        return False
    if wall.kind != PLANAR_LINE or params.beta != 0.0:
        return True
    return isinstance(next_hit_analytic_line(s, params, wall), Escape)


def _squared(y):
    """q = u^2 and dq/ds = 2 u u' (= r v) of y = (u1, u2, u1', u2', t)."""
    u1, u2, w1, w2 = y[0], y[1], y[2], y[3]
    return (u1 * u1 - u2 * u2, 2.0 * u1 * u2,
            2.0 * (u1 * w1 - u2 * w2), 2.0 * (u1 * w2 + u2 * w1))


def _levi_civita_to_planar(y) -> PlanarState:
    """The planar state of a Levi-Civita state: q = u^2, v = 2 u'/conj(u)."""
    q1, q2, p1, p2 = _squared(y)
    r = y[0] * y[0] + y[1] * y[1]
    return PlanarState(q1, q2, p1 / r, p2 / r)


def next_hit_numeric(
    state,
    model: Model,
    integ: IntegratorConfig = IntegratorConfig(),
    t_max: float = 1000.0,
) -> HitOutcome:
    """Integrate the flow to the first wall crossing and refine the hit.

    One engine serves the plane and the sphere. The sphere's embedded flow
    runs in the time t. The planar flow runs in Levi-Civita form
    (levi_civita_rhs at the start's energy, which reflection keeps), in the
    fictitious time s of dt/ds = r with the clock t as a fifth component:
    that field is regular through the center, so radial and near-radial
    legs pass it by the elastic bounce.

    The integration runs in chunks of 16 (|g| + 0.05 wall scales) over the
    current speed, at least 0.25 in time, g the signed distance to the
    wall; the chunk and integ.max_step become spans of the independent
    variable through dt/ds at the chunk start (a planar chunk spans at most
    one period pi/sqrt(|E|/2) of the oscillator). Both events read the wall
    function and its rate at the position and its derivative (dq/ds = r v
    in the plane). A crossing whose step ends outside the domain is refined
    on that step's interpolant by bracketed root-finding. A step whose ends
    both lie inside hides a crossing only where g has an interior minimum
    below zero, so each step also watches the wall rate cross zero upwards;
    at the first such minimum with g < 0 the step is integrated again from
    its start to the minimum, which brackets the crossing. A hit whose
    clock exceeds t_max, or no hit before the clock reaches it, raises
    Undetermined; so does a bound planar leg at beta = 0 with no hit in
    its first period of s, since its conic repeats. In the plane, Escape
    is returned only with a certificate (unbound, receding beyond 1e3 wall
    scales, and for the line wall no forward conic intersection). On the
    sphere the state is projected back onto the unit tangent bundle after
    each chunk.

    Two kinds of start are settled before any integration:

    - A start on the wall (within the reflect tolerance) moving out of the
      domain, with normal speed above TANGENCY_REL of the speed, is
      reflected at once: a bounce at t = 0 whose state_in is the start and
      whose state_out is reflect(start). The exact planar map obeys the same
      rule; grazing starts are left to the search.
    - A radial spherical orbit aimed at the attracting center
      (|(q x v).att| below 1e-10 times speed times the distance to the
      center) is solved in closed form with the elastic bounce, along the
      meridian through q, with the flight time from the exact integral of
      d theta / sqrt(2 (E_sph + |m'| cot theta)). A spherical meridian
      that meets the wall only at the removed center raises Undetermined.
      A non-radial spherical orbit that enters the pole guard raises
      PoleSingularity.
    """
    params = model.params
    wall = model.wall
    outward = _outward_start(state, params, wall)
    if outward is not None:
        return outward
    spherical = isinstance(state, SphericalState)
    dim = 3 if spherical else 2

    # per domain: field, start, events' (position, rate), clock, dt/ds, chunk cap, state
    if spherical:
        z1 = spherical_center(params)
        att = z1 if params.m_prime > 0.0 else -z1
        ell = float(np.dot(np.cross(state.q, state.v), att))
        sin0 = float(np.linalg.norm(np.cross(state.q, att)))
        if abs(ell) <= L_TOL * max(1e-30, state.speed * sin0):
            return _spherical_radial_hit(state, params, wall, att)

        def pole_event(s, y):
            return (y[0] * att[0] + y[1] * att[1] + y[2] * att[2]) - (1.0 - _POLE_EVENT_MARGIN)

        pole_event.terminal = True
        pole_event.direction = 1.0
        rhs = spherical_flow_rhs(params)
        y = state.as_array()
        extra_events = [pole_event]
        phase = lambda y: y  # noqa: E731
        clock = lambda s, y: s  # noqa: E731
        dtds = lambda y: 1.0  # noqa: E731
        span_cap = lambda t: t_max - t  # noqa: E731
        hit_state = lambda y: SphericalState.project(y[:3], y[3:])  # noqa: E731
    else:
        energy = planar_energy(state, params.m, params.beta)
        rhs = levi_civita_rhs(energy, params.beta)
        w, w_prime = kepler_to_hooke_point(
            complex(state.xi, state.eta), complex(state.xi_dot, state.eta_dot)
        )
        y = np.array([w.real, w.imag, w_prime.real, w_prime.imag, 0.0])
        extra_events = []
        period = math.pi / math.sqrt(0.5 * abs(energy)) if energy != 0.0 else math.inf
        phase = _squared
        clock = lambda s, y: y[4]  # noqa: E731
        dtds = lambda y: y[0] * y[0] + y[1] * y[1]  # noqa: E731
        span_cap = lambda t: period  # noqa: E731
        hit_state = _levi_civita_to_planar

    def g_event(s, y):
        return wall_signed_distance(phase(y)[:dim], wall)

    g_event.terminal = True
    g_event.direction = -1.0

    def minimum_event(s, y):
        return _wall_rate(phase(y), wall)

    minimum_event.direction = 1.0
    events = [g_event, minimum_event] + extra_events

    def hit(s_hit, y_hit):
        t_hit = float(clock(s_hit, y_hit))
        if t_hit > t_max:
            raise Undetermined(f"no hit within t_max = {t_max}")
        return _hit_or_tangency(t_hit, hit_state(y_hit), params, wall)

    def integrate(s0, s1, y0, event_fns, max_step):
        sol = solve_ivp(rhs, (s0, s1), y0, method="DOP853", rtol=integ.rtol,
                        atol=integ.atol, max_step=max_step, events=event_fns)
        if not sol.success and sol.status != 1:
            raise StepFailure(f"integration failed: {sol.message}")
        return sol

    scale = _wall_scale(wall)
    s = t = 0.0
    while t < t_max:
        p, rate = phase(y), dtds(y)
        g = wall_signed_distance(p[:dim], wall)
        speed = float(np.linalg.norm(p[dim:])) / rate
        chunk = max(16.0 * (abs(g) + 0.05 * scale) / max(speed, 1e-9), 0.25)
        max_step = integ.max_step / rate
        sol = integrate(s, s + min(span_cap(t), chunk / rate), y, events, max_step)
        # every minimum recorded here comes before any crossing event; one
        # whose dip the step's re-integration does not confirm lies within
        # the tolerances and is passed over
        for s_min, y_min in zip(sol.t_events[1], sol.y_events[1]):
            k = int(np.searchsorted(sol.t, s_min, side="right")) - 1
            if wall_signed_distance(phase(y_min)[:dim], wall) >= 0.0 or s_min <= sol.t[k]:
                continue
            sub = integrate(sol.t[k], s_min, sol.y[:, k], [g_event], max_step)
            if sub.status == 1:
                return hit(sub.t_events[0][0], sub.y_events[0][0])
        if sol.status == 1 and sol.t_events[0].size:
            return hit(sol.t_events[0][0], sol.y_events[0][0])
        if sol.status == 1:  # the only other terminal event is the pole's
            raise PoleSingularity("non-radial trajectory entered the pole guard; no continuation")
        s = float(sol.t[-1])
        y = sol.y[:, -1]
        t = float(clock(s, y))
        if spherical:
            y = project_constraints(y)
        elif params.beta == 0.0 and energy < 0.0 and s >= period:
            raise Undetermined("the bound conic missed the wall for a whole period")
        elif _escape_certified(hit_state(y), params, wall):
            return Escape("unbound, receding beyond the escape radius")
    raise Undetermined(f"no hit or escape certificate within t_max = {t_max}")


def _radial_fall_time(E: float, mu: float, u: Optional[float] = None) -> float:
    """Time a radial spherical orbit takes from the attracting pole to cot(theta) = u.

    E is the spherical energy 0.5 theta_dot^2 - mu cot(theta), mu = |m'|;
    u = None stands for the turning point cot(theta) = -E/mu. The value is
    the closed form of int_u^inf du' / ((1 + u'^2) sqrt(2 (E + mu u'))),
    which is int_0^theta d theta' / sqrt(2 (E + mu cot theta')). With
    s^2 = E + mu u' it reads sqrt(2) mu int_s^inf ds / ((s^2 - E)^2 + mu^2);
    partial fractions over the roots +-(alpha + i beta) = +-sqrt(E + i mu)
    give one logarithm and one argument. Each is evaluated in a form free
    of cancellation, so the result is good to a few ulps for any E and
    mu > 0.
    """
    z = cmath.sqrt(complex(E, mu))
    alpha, beta = z.real, z.imag
    mu_u = -E if u is None else mu * u
    s = math.sqrt(max(E + mu_u, 0.0))
    b2 = (s + alpha) ** 2 + beta * beta
    x = -4.0 * s * alpha / b2
    if x > -0.5:
        d_log = 0.5 * math.log1p(x)
    else:
        d = (mu_u - beta * beta) / (s + alpha)  # s - alpha, since alpha^2 = E + beta^2
        d_log = 0.5 * math.log((d * d + beta * beta) / b2)
    d_arg = -math.atan2(2.0 * beta * s, mu_u - 2.0 * beta * beta)
    return (beta * d_log - alpha * d_arg) / (math.sqrt(2.0) * math.hypot(E, mu))


def _spherical_radial_hit(
    state: SphericalState, params: SystemParams, wall: Wall, att: np.ndarray
) -> HitOutcome:
    """Exact hit of a radial spherical orbit ((q x v).att below tolerance).

    The orbit runs on the half meridian p(theta) = cos(theta) att +
    sin(theta) e through q, theta the angle from the attracting pole att.
    It bounces elastically at the pole and turns at cot(theta_max) =
    -E/|m'|, so it is periodic: out from the pole and back in one period
    T = 2 F(theta_max), F the fall time of :func:`_radial_fall_time`. The
    wall meets the meridian where p(theta).w = k; the hit is the first
    crossing that leaves the domain, and its time is the difference of
    the phases along the period.

    Raises:
        Undetermined: if the meridian meets the wall only at the removed
            center or beyond the turning point, or runs along the wall.
        PoleSingularity: if the start lies within the pole guard.
    """
    mu = abs(params.m_prime)
    q = state.q
    c0 = float(np.dot(q, att))
    if abs(c0) > 1.0 - POLE_GUARD:
        raise PoleSingularity(f"state within the pole guard, |q.Z1| = {abs(c0)}")
    e = q - c0 * att
    sin0 = float(np.linalg.norm(e))
    e = e / sin0
    thdot0 = float(np.dot(state.v, c0 * e - sin0 * att))
    u0 = c0 / sin0
    E = 0.5 * thdot0 * thdot0 - mu * u0

    w, k = np.asarray(wall.axis, dtype=float), wall.level
    A = float(np.dot(att, w))
    B = float(np.dot(e, w))
    R = math.hypot(A, B)
    if R == 0.0:
        raise Undetermined("radial orbit runs along the wall")

    period = 2.0 * _radial_fall_time(E, mu)
    f0 = _radial_fall_time(E, mu, u0)
    tau0 = f0 if thdot0 >= 0.0 else period - f0
    th_max = math.atan2(mu, -E)
    t_eps = _T_EPS_REL * period

    best = None
    psi = math.atan2(B, A)
    delta = math.acos(max(-1.0, min(1.0, k / R)))
    for th in ((psi + delta) % (2.0 * math.pi), (psi - delta) % (2.0 * math.pi)):
        # theta = 0 is the removed center; beyond th_max is never reached
        if not ON_WALL_TOL < th <= th_max:
            continue
        sin1, cos1 = math.sin(th), math.cos(th)
        slope = wall.side * (B * cos1 - A * sin1)  # d g / d theta
        u1 = cos1 / sin1
        f1 = _radial_fall_time(E, mu, u1)
        # the crossing leaves the domain where theta moves against slope
        tau1 = period - f1 if slope > 0.0 else f1
        dt = (tau1 - tau0) % period
        if dt <= t_eps:
            dt += period
        if best is None or dt < best[0]:
            best = (dt, sin1, cos1, u1, -1.0 if slope > 0.0 else 1.0)
    if best is None:
        raise Undetermined(
            "radial orbit meets the wall only at the removed center or "
            "beyond its turning point"
        )
    dt, sin1, cos1, u1, sigma = best
    thdot1 = sigma * math.sqrt(2.0 * max(E + mu * u1, 0.0))
    s_in = SphericalState.project(
        cos1 * att + sin1 * e, thdot1 * (cos1 * e - sin1 * att)
    )
    return _hit_or_tangency(dt, s_in, params, wall)


# ---------------------------------------------------------------------------
# Billiard map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BilliardRun:
    """Result of iterating the billiard map.

    outcome is "completed", "escape" or "tangency", or, when a leg raised
    a DynamicsError, that error's outcome ("undetermined", "step-failure",
    "pole-singularity" or "singular-position"); error then holds that
    error, and records the bounces computed before the failed leg.
    """

    records: List[BounceRecord]
    outcome: str
    final_state: object
    error: Optional[DynamicsError] = None

    @property
    def n_bounces(self) -> int:
        return len(self.records)


def billiard_map(
    state,
    n: int,
    model: Model,
    mode: str = "numeric",
    integ: IntegratorConfig = IntegratorConfig(),
    t_max_per_leg: float = 1000.0,
) -> BilliardRun:
    """Iterate hit-and-reflect up to n times or until a non-hit outcome.

    Every bounce record carries the full integral set on both sides and
    an absolute hit time. ``mode="analytic"`` takes the exact hit of
    :func:`next_hit_analytic_line`: it requires a planar wall (line or
    centered circle) and beta = 0. A leg that raises a DynamicsError ends
    the run with that error's outcome and keeps the bounces before it.
    """
    if mode not in ("numeric", "analytic"):
        raise ValueError("mode must be 'numeric' or 'analytic'")
    if mode == "analytic" and model.wall.kind not in _EXACT_WALLS:
        raise ValueError("analytic mode supports only the planar walls")
    records: List[BounceRecord] = []
    clock = 0.0
    outcome = "completed"
    error = None
    current = state
    for _ in range(n):
        try:
            if mode == "analytic":
                out = next_hit_analytic_line(current, model.params, model.wall)
            else:
                out = next_hit_numeric(current, model, integ, t_max=t_max_per_leg)
        except DynamicsError as exc:
            outcome, error = exc.outcome, exc
            break
        if isinstance(out, Escape):
            outcome = "escape"
            break
        clock += out.t_hit
        # a direct call: dataclasses.replace costs twice as much on this hot path
        records.append(BounceRecord(
            t_hit=clock, state_in=out.state_in, state_out=out.state_out,
            integrals_in=out.integrals_in, integrals_out=out.integrals_out,
            tangent=out.tangent,
        ))
        current = out.state_out
        if out.tangent:
            outcome = "tangency"
            break
    return BilliardRun(records=records, outcome=outcome, final_state=current, error=error)
