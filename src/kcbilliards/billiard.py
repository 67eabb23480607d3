"""Wall geometry, reflection operators, hit detection and the billiard map.

Every wall is a level set of one wall function alpha |x| + n.x: a Wall
is that function, its level and its side. Hits are located either
numerically (adaptive integration, one per form of a leg, ended by events,
with bracketed root refinement on the step interpolant, any wall and beta;
each step's minima of the wall function are tracked, so a crossing that
enters and leaves within one step is found) or exactly, where the wall
function is affine in the planar kernel's (1, G1, G2) along a conic, so
that a crossing is one closed-form root: on the planar walls at beta = 0,
and on the sphere for a leg bound in the gnomonic chart of its attracting
pole, where a great circle is a line and a circle about the center a
centered circle (_chart_hit, which runs the planar leg's own crossing
and f and g functions, timed by the chart clock). At beta != 0 a planar
orbit with L^2 + beta > 0 is a Kepler conic turned as it is swept
(Newton's revolving orbits, _revolving_crossing), and its crossing of
either planar wall comes from a march in the swept angle whose steps no
root can outrun (_march).
Radial orbits aimed at an attractive center pass the collision by the
elastic bounce: the numeric map integrates Levi-Civita's regularized field
(q = u^2, dt/ds = r), regular through the center, in the plane and, on the
sphere, near the attracting pole in its gnomonic chart (see
kcbilliards.spherical); the exact legs pass the center in the universal
variable.

billiard_map's mode="numeric" runs every leg on the numeric engine, the
oracle of the exact legs. mode="analytic" takes the exact leg wherever one
exists, chosen from each leg's start alone (_choose_leg): the exact planar
hit for every planar leg with L^2 + beta > 0, the chart hit for a
chart-bound spherical leg, and the numeric engine for any other leg (a
planar one at beta < 0 that falls into the center, a spherical one that
is not chart-bound). Only numeric legs read the IntegratorConfig.
An exact leg on a bound conic that never meets the wall returns
Escape("the orbit does not reach the wall"), which its closed form proves;
the numeric engine raises Undetermined after one period of such a conic,
and on the sphere after one period of any orbit off its chart's parabola.
At beta != 0 the exact leg proves it only where the orbit's radii stay
on one side of the wall (an apocentre short of the line, say); a turning
orbit that has not met the wall by t_max_per_leg raises Undetermined, as
the numeric leg does.

Both maps share one rule for a start on the wall: a start moving out of
the domain (normal speed above TANGENCY_REL of the speed) is reflected at
once, as a bounce at t = 0 with state_in equal to the start
(_outward_start). A start outside the domain, beyond the on-wall
tolerance, is a ConfigError in both, raised at billiard_map's entry.
Both share one rule for the flight time too: a leg whose hit comes more
than t_max_per_leg after its start raises Undetermined.

A leg returns an Escape or the BounceRecord that _hit_or_tangency
assembles: the hit reflected once through reflect, unless its tangent
flag marks a graze (the map acts as the identity there).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .errors import (
    BilliardError,
    ConfigError,
    DynamicsError,
    NonConvergence,
    SingularPosition,
    StepFailure,
    Undetermined,
)
from .integrals import integral_set, planar_energy
from .model import (BounceRecord, IntegralSet, IntegratorConfig, Model, PlanarState,
                    SphericalState, SystemParams, Wall, solve_ivp)
from .planar import (_MAX_ITER, R_MIN, _clock_end, _planar_form, _radius, crossing_root,
                     time_of_flight, universal_kernel, universal_state)
from .spherical import (_chart_conic, _chart_to_sphere, _leave_chart, _pole_chart,
                        _spherical_forms, sphere_to_planar, spherical_energy_embedded)

TANGENCY_REL = 1e-8
ON_WALL_TOL = 1e-10


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
    """The wall function side*(alpha |x| + n.x - level) at a planar point
    (xi, eta, ...), a PlanarState among them, or a point q of the sphere;
    positive on the dynamics side (see :class:`Wall`)."""
    n = wall.normal
    if len(n) == 3:  # one point q, as plain floats
        q0, q1, q2 = point[:3].tolist() if isinstance(point, np.ndarray) else point[:3]
        f = q0 * n[0] + q1 * n[1] + q2 * n[2]
    else:
        f = n[0] * point[0] + n[1] * point[1]
    if wall.alpha:
        f += wall.alpha * math.hypot(point[0], point[1])
    return (f - wall.level) * wall.side


def _wall_value(state, wall: Wall) -> float:
    """The wall function at the state's point (wall_signed_distance).

    Raises:
        ConfigError: if the state and the wall lie in different domains.
    """
    if isinstance(state, PlanarState) != wall.is_planar:
        raise ConfigError(f"a {type(state).__name__} state against a {wall.domain} wall")
    return wall_signed_distance(state if wall.is_planar else state.q, wall)


def _wall_rate(y, wall: Wall) -> float:
    """The rate of wall_signed_distance at y = (position, its derivative),
    up to a positive factor (r for a planar wall with alpha != 0): it
    crosses zero upwards exactly where g has a minimum."""
    n = wall.normal
    f = float(np.dot(y[3:], n)) if len(n) == 3 else n[0] * y[2] + n[1] * y[3]
    if wall.alpha:
        f = wall.alpha * (y[0] * y[2] + y[1] * y[3]) + math.hypot(y[0], y[1]) * f
    return f * wall.side


def _normal(state, wall: Wall) -> tuple:
    """(n, v.n): the unit normal into the domain at the state, side times the
    wall function's gradient alpha x/r + n (projected onto the tangent plane
    and normalized on the sphere), and the velocity along it. The circle's
    n takes np.dot, whose last bits differ from a plain sum; the line's n
    takes plain floats, exact there, and so does the sphere's, one state's
    three components, which numpy's reductions would only slow."""
    side, alpha, n = wall.side, wall.alpha, wall.normal
    if isinstance(state, SphericalState):
        (q0, q1, q2), (v0, v1, v2), (n0, n1, n2) = state.q.tolist(), state.v.tolist(), n
        qn = q0 * n0 + q1 * n1 + q2 * n2
        t0, t1, t2 = n0 - qn * q0, n1 - qn * q1, n2 - qn * q2
        norm = side * math.sqrt(t0 * t0 + t1 * t1 + t2 * t2)
        n0, n1, n2 = t0 / norm, t1 / norm, t2 / norm
        return (n0, n1, n2), v0 * n0 + v1 * n1 + v2 * n2
    if not alpha:
        n0, n1 = side * n[0], side * n[1]
        return (n0, n1), state.xi_dot * n0 + state.eta_dot * n1
    r = state.r
    n = side * np.array([alpha * state.xi / r + n[0], alpha * state.eta / r + n[1]])
    return n, float(np.dot(np.array([state.xi_dot, state.eta_dot]), n))


def reflect(state, wall: Wall, normal: Optional[tuple] = None):
    """Specular reflection at the wall: v <- v - 2 (v.n) n, with normal the
    state's (n, v.n) from _normal where the caller has it.

    The position is unchanged and kinetic energy is preserved to rounding.
    On the planar line n is (0, +-1), so the normal component is negated
    and the rest kept to the bit, which makes the involution bit-exact.

    Raises:
        ConfigError: if the state and the wall lie in different domains.
        BilliardError: if the state is farther than 1e-10 (scaled) from the wall.
    """
    g = _wall_value(state, wall)
    if abs(g) > ON_WALL_TOL * wall.scale:
        raise BilliardError(f"signed distance {g} exceeds the on-wall tolerance")
    n, vn = normal or _normal(state, wall)
    if not wall.is_planar:
        (v0, v1, v2), k = state.v.tolist(), 2.0 * vn
        return SphericalState(state.q, np.array((v0 - k * n[0], v1 - k * n[1], v2 - k * n[2])))
    return PlanarState(state.xi, state.eta, state.xi_dot - 2.0 * vn * n[0],
                       state.eta_dot - 2.0 * vn * n[1])


# ---------------------------------------------------------------------------
# Record assembly
# ---------------------------------------------------------------------------

def _planar_record(state_in: PlanarState, state_out: PlanarState, params: SystemParams) -> tuple:
    """Both states' integral sets, at one radius: the reflection keeps the point."""
    r = state_in.r
    return integral_set(state_in, params, r), integral_set(state_out, params, r)


def _spherical_integrals(s: SphericalState, params: SystemParams) -> IntegralSet:
    """Embedded spherical energy plus, when projectable, the planar set."""
    e_sph = spherical_energy_embedded(s, params)
    if s.q[2] < 0.0:
        return integral_set(sphere_to_planar(s, params), params)._replace(E_sph=e_sph)
    return IntegralSet(math.nan, math.nan, math.nan, math.nan, math.nan, e_sph)


def _spherical_record(state_in: SphericalState, state_out: SphericalState,
                      params: SystemParams) -> tuple:
    return _spherical_integrals(state_in, params), _spherical_integrals(state_out, params)


def _outward_start(state, params: SystemParams, wall: Wall, g: float, t0: float,
                   inward: bool) -> Optional[BounceRecord]:
    """Zero-time bounce, at the clock t0, for a start on the wall moving out
    of the domain, given its wall function g; None for a start off the wall
    (beyond the reflect tolerance), moving into the domain or grazing it,
    which the hit search then takes. A start that is a non-tangent bounce's
    state_out (inward) moves into the domain by construction, v_out.n =
    -v_in.n > TANGENCY_REL speed, so it is not looked at."""
    if inward or abs(g) > ON_WALL_TOL * wall.scale:
        return None
    normal = _normal(state, wall)
    if normal[1] >= -TANGENCY_REL * state.speed:
        return None
    return _hit_or_tangency(t0, state, params, wall, normal)


def _hit_or_tangency(
    t_hit: float, state_in, params: SystemParams, wall: Wall, normal: Optional[tuple] = None
) -> BounceRecord:
    """The bounce record at a hit: state_in reflected once through reflect,
    or kept when tangent (normal speed at most TANGENCY_REL of the speed);
    normal is _normal(state_in, wall) where the caller has it."""
    normal = normal or _normal(state_in, wall)
    tangent = abs(normal[1]) <= TANGENCY_REL * state_in.speed
    state_out = state_in if tangent else reflect(state_in, wall, normal)
    record = _planar_record if isinstance(state_in, PlanarState) else _spherical_record
    return BounceRecord(t_hit, state_in, state_out, *record(state_in, state_out, params), tangent)


# ---------------------------------------------------------------------------
# Exact hits
# ---------------------------------------------------------------------------

def next_hit_analytic_line(
    state: PlanarState,
    params: SystemParams,
    wall: Wall,
    t_max: float = math.inf,
    t0: float = 0.0,
    inward: bool = False,
) -> HitOutcome:
    """First forward crossing out of the domain of a planar wall, exactly.

    Serves every planar wall alike. Along the conic, in Goodyear's
    universal variable s (dt/ds = r, see universal_kernel), r and x are
    affine in (1, G1, G2), so the wall function side*(alpha r + n.x -
    level) is c + P G1(s) + Q G2(s); its crossing_root, the first root
    where it does not increase, is the first crossing out of the domain
    (grazing ones included). The root gets one Newton polish on the
    kernel; the time is t(s) in closed form and the state comes from
    the f and g functions. Radial, circular and near-parabolic legs take
    the same path; a radial leg passes the center by the elastic bounce.
    At beta != 0 the orbit is a Kepler conic turned as it is swept
    (_revolving_crossing). A crossing at the center itself is no hit (the
    center is removed from the wall), and a start on the wall moving out
    of the domain bounces at t = 0, unless inward marks it a non-tangent
    bounce's state_out (_outward_start). Agrees with the numerical hit
    search to 1e-8. As in next_hit_numeric, the record's t_hit counts
    from t0, the clock at the start.

    Raises:
        ConfigError: if the wall or the state is not planar, or, at beta !=
            0, L^2 + beta <= 0: that orbit falls into the center.
        Undetermined: if the hit comes more than t_max after the start.
    """
    if not wall.is_planar:
        raise ConfigError("analytic hit search supports only the planar walls")
    c = _wall_value(state, wall)  # F(0) below, to the bit; checks the domain
    outward = _outward_start(state, params, wall, c, t0, inward)
    if outward is not None:
        return outward
    if params.beta == 0.0:
        crossing = _exact_crossing(state, params.m, wall, c, t_max)
    else:
        crossing = _revolving_crossing(state, params, wall, t_max)
    if isinstance(crossing, Escape):
        return crossing
    return _hit_or_tangency(t0 + crossing[0], crossing[1], params, wall)


def _exact_crossing(state: PlanarState, m: float, wall, c: float, t_max: float, clock=None):
    """The first forward crossing out of the domain along the conic of
    next_hit_analytic_line, from a start whose wall function is c: its
    (flight time, state), or the Escape that leg returns; no record. The
    state comes from the f and g functions at the flight time t(s); the
    flight time is t(s) itself, or clock(s), a leg's own clock at the
    universal variable s of the crossing (the chart's tau, _chart_hit).

    Raises:
        Undetermined: if the crossing comes more than t_max after the start.
    """
    crossing = _conic_crossing(state, m, wall, c)
    if isinstance(crossing, Escape):
        return crossing
    s, g, r0, sigma0 = crossing
    t = time_of_flight(r0, sigma0, m, g)
    t_hit = t if clock is None else float(clock(s))
    if t_hit > t_max:
        raise Undetermined(f"no hit within t_max = {t_max}")
    try:
        return t_hit, universal_state(state, m, t, g, r0)
    except SingularPosition:
        return Escape("the orbit meets the wall only at the removed center")


def _conic_crossing(state: PlanarState, m: float, wall, c: float):
    """The universal variable s of the first forward crossing out of the
    domain along the conic of mass m through a planar state, the kernel
    there, and the start's r0 and sigma0 = x.v: (s, kernel, r0, sigma0),
    or the Escape of a conic that has none. The wall may be any whose
    function side*(alpha r + n.x - level) is c at the start; its alpha,
    normal, side and scale are read.
    """
    xi, eta, xi_dot, eta_dot = state
    r0 = math.hypot(xi, eta)
    sigma0 = xi * xi_dot + eta * eta_dot
    v2 = xi_dot**2 + eta_dot**2
    alpha = 2.0 * m / r0 - v2
    # r(s) = r0 + sigma0 G1 + (m - alpha r0) G2, x(s) = (1 - m G2/r0) x0 + (r0 G1 + sigma0 G2) v0
    a_w, (n1, n2), side = wall.alpha, wall.normal, wall.side
    nx, nv = n1 * xi + n2 * eta, n1 * xi_dot + n2 * eta_dot
    P = side * (a_w * sigma0 + r0 * nv)
    Q = side * (a_w * (r0 * v2 - m) + sigma0 * nv - m * nx / r0)
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
            s, g, F = s - F / dF, g_new, F_new
    if abs(F) > ON_WALL_TOL * wall.scale:  # a root at s = infinity
        return Escape("the orbit meets the wall only at infinity")
    return s, g, r0, sigma0


# A bound march that meets no wall within this many turns of its conic gives up.
_MAX_TURNS = 10**5


def _revolving_crossing(state: PlanarState, params: SystemParams, wall: Wall, t_max: float):
    """_exact_crossing at beta != 0, for L^2 + beta > 0: (flight time, state)
    or an Escape.

    Newton's theorem of revolving orbits (Principia I, Props. 43-44): under
    r'' = (L^2 + beta)/r^3 - m/r^2 the orbit is the Kepler conic of the same
    start with L_eff = sign(L) sqrt(L^2 + beta), which has the same r, r_dot
    and energy, turned by psi = (kappa - 1) phi, kappa = L/L_eff, where phi
    is the signed angle the conic has swept. _march finds p = |phi| at the
    crossing; the time is the conic's t(s) at the universal variable of p,
    and the state the conic's there, turned by psi, with the tangential
    speed L/r.

    Raises:
        ConfigError: if L^2 + beta <= 0, an orbit that falls into the center.
        Undetermined: if the crossing comes more than t_max after the start.
    """
    m = params.m
    xi, eta, xi_dot, eta_dot = state
    r0 = math.hypot(xi, eta)
    ell = xi * eta_dot - eta * xi_dot
    if ell * ell + params.beta <= 0.0:
        raise ConfigError("the exact map requires L^2 + beta > 0")
    ell_eff = math.copysign(math.sqrt(ell * ell + params.beta), ell)
    kappa = ell / ell_eff
    dv = (ell_eff - ell) / (r0 * r0)
    conic = PlanarState(xi, eta, xi_dot - dv * eta, eta_dot + dv * xi)
    sigma0 = xi * conic.xi_dot + eta * conic.eta_dot
    alpha = 2.0 * m / r0 - conic.speed**2
    p = _march(conic, m, wall, alpha, r0, sigma0, ell_eff, kappa, t_max)
    if isinstance(p, Escape):
        return p
    s = _universal_of_angle(p, alpha, r0, sigma0, abs(ell_eff))
    if s is None:
        return Escape("the orbit meets the wall only at infinity")
    g = universal_kernel(alpha, s)
    t_hit = time_of_flight(r0, sigma0, m, g)
    if t_hit > t_max:
        raise Undetermined(f"no hit within t_max = {t_max}")
    x, y, vx, vy = universal_state(conic, m, t_hit, g, r0)
    psi = (kappa - 1.0) * math.copysign(p, ell_eff)
    cos, sin = math.cos(psi), math.sin(psi)
    dv = (ell - ell_eff) / (x * x + y * y)
    vx, vy = vx - dv * y, vy + dv * x
    return t_hit, PlanarState(cos * x - sin * y, sin * x + cos * y,
                              cos * vx - sin * vy, sin * vx + cos * vy)


def _march(conic: PlanarState, m: float, wall: Wall, alpha: float, r0: float, sigma0: float,
           ell_eff: float, kappa: float, t_max: float):
    """The swept angle p = |phi| of _revolving_crossing's first crossing
    out of the domain, or its Escape.

    With A the conic's Laplace-Runge-Lenz vector, r (m + A.e) = L_eff^2
    along the conic, so (m + A.e) > 0 times the wall function side (alpha r
    + n.x - level) is
    H(p) = side (alpha L_eff^2 + L_eff^2 n.e(theta0 + kappa phi)
                 - level (m + A.e(theta0 + phi))),
    and |H''| <= M = L^2 |n| + |level| |A|. From each p the march steps by
    the first root of the lower bound H + H' d - M d^2/2, which no root of
    H precedes, until the upper bound H + H' d + M d^2/2 brackets a root,
    where H decreases, and a bracketed Newton finds it. Where H and
    H'^2/2M are both within H's rounding of zero, which a double root
    resolves only to sqrt(eps) in p, the leg grazes: a Newton on H' goes
    to H's minimum, which ends the march if H is within rounding of zero
    there (_hit_or_tangency then judges the graze by TANGENCY_REL), and
    which the march passes otherwise, or bracket-refines where H dips
    below. The march returns an Escape where H's constant term exceeds
    its two amplitudes, and at the asymptote of an unbound conic; it
    raises Undetermined after the turns of a bound conic that take longer
    than t_max, or _MAX_TURNS of them.
    """
    xi, eta = conic.xi / r0, conic.eta / r0  # e(theta0), and e(theta0 + pi/2) in the sweep
    sweep = math.copysign(1.0, ell_eff)
    (n1, n2), level, side = wall.normal, wall.level, wall.side
    n_par, n_perp = n1 * xi + n2 * eta, sweep * (n2 * xi - n1 * eta)
    le2, n_len = ell_eff * ell_eff, math.hypot(n1, n2)
    a_par, a_perp = le2 / r0 - m, -abs(ell_eff) * sigma0 / r0  # A.e(theta0), A.e(theta0 + pi/2)
    a_len = math.hypot(a_par, a_perp)
    big_m = kappa * kappa * le2 * n_len + abs(level) * a_len
    if side * (wall.alpha * le2 - level * m) > n_len * le2 + abs(level) * a_len or not big_m:
        return Escape("the orbit does not reach the wall")
    if alpha > 0.0:
        period = 2.0 * math.pi * m / alpha**1.5
        p_end = 2.0 * math.pi * (math.floor(min(t_max / period, _MAX_TURNS)) + 1.0)
    else:  # the asymptote, where m + A.e = 0
        p_end = math.atan2(a_perp, a_par) + math.acos(max(-1.0, min(1.0, -m / a_len)))
    tol = 4.0 * math.ulp(le2 * (wall.alpha + n_len) + abs(level) * (abs(m) + a_len))

    def wall_fn(p):  # H, H' and H''
        ck, sk, cp, sp = math.cos(kappa * p), math.sin(kappa * p), math.cos(p), math.sin(p)
        n_e, a_e = n_par * ck + n_perp * sk, a_par * cp + a_perp * sp
        df = le2 * kappa * (n_perp * ck - n_par * sk) - level * (a_perp * cp - a_par * sp)
        d2f = level * a_e - le2 * kappa * kappa * n_e
        return side * (le2 * (wall.alpha + n_e) - level * (m + a_e)), side * df, side * d2f

    def newton(p, lo, hi, order):
        """The root in [lo, hi] of H (order 0), which decreases there, or of
        H' (order 1), which increases: Newton, bisecting where it leaves
        the bracket."""
        for _ in range(_MAX_ITER):
            f = wall_fn(p)
            y, dy = f[order], f[order + 1]
            if order == 0 and abs(y) <= tol:
                return p
            if (y > 0.0) == (order == 0):
                lo = p
            else:
                hi = p
            p_new = p - y / dy if dy else math.nan
            if not lo <= p_new <= hi:
                p_new = 0.5 * (lo + hi)
            if abs(p_new - p) <= 4.0 * math.ulp(p):
                return p_new
            p = p_new
        raise NonConvergence("the crossing of a revolving orbit did not converge")

    p = 0.0
    while True:
        f, df, d2f = wall_fn(p)
        f = max(f, 0.0)
        if f <= tol and df <= 0.0 and df * df <= 2.0 * big_m * tol:
            # H and its slope are within rounding of a touch: go to H's minimum
            if d2f <= 0.0:
                return p
            p_min = newton(p, p, p - 4.0 * df / d2f + 4.0 * math.ulp(p), 1)
            f_min = wall_fn(p_min)[0]
            if f_min < -tol:  # a dip across the wall
                return newton(0.5 * (p + p_min), p, p_min, 0)
            if f_min <= tol:  # a graze, which _hit_or_tangency judges
                return p_min
            p = p_min
        elif df < 0.0 and df * df >= 4.0 * big_m * f:
            # the bounds' roots bracket the crossing, and H decreases between them
            hi = p + 2.0 * f / (math.sqrt(df * df - 2.0 * big_m * f) - df)
            return newton(p + 2.0 * f / (math.sqrt(df * df + 2.0 * big_m * f) - df), p, hi, 0)
        else:
            p += (df + math.sqrt(df * df + 2.0 * big_m * f)) / big_m
        if p >= p_end:
            if alpha > 0.0:
                raise Undetermined(f"no hit within t_max = {t_max}")
            return Escape("the orbit has no forward crossing out of the domain")


def _universal_of_angle(p: float, alpha: float, r0: float, sigma0: float, ell: float):
    """The universal variable s at which a Kepler conic from (r0, sigma0),
    of angular momentum ell > 0, has swept the angle p >= 0; None beyond
    the asymptote. With T = G1(s/2)/G0(s/2), tan(p/2) = ell T/(r0 + sigma0 T)
    (from sqrt(r0 r) e^(i p/2) = r0 G0(s/2) + sigma0 G1(s/2) + i ell G1(s/2));
    T is tan(w s/2)/w, s/2 or tanh(w s/2)/w (w = sqrt|alpha|), and on an
    ellipse w s/2 lies in the half-turn of p/2."""
    half = 0.5 * p
    y, x = r0 * math.sin(half), ell * math.cos(half) - sigma0 * math.sin(half)
    if alpha > 0.0:
        w = math.sqrt(alpha)
        return 2.0 * (math.pi * math.floor(half / math.pi) + math.atan2(w * y, x) % math.pi) / w
    if x <= 0.0:
        return None
    if alpha == 0.0:
        return 2.0 * y / x
    u = math.sqrt(-alpha) * y / x
    return 2.0 * math.atanh(u) / math.sqrt(-alpha) if u < 1.0 else None


# A spherical wall's image in the gnomonic chart of the attracting pole, read by
# _conic_crossing and wall_signed_distance as a planar Wall is.
_ChartWall = namedtuple("_ChartWall", "alpha normal level side scale")


def _chart_wall(wall: Wall, turn) -> Optional[_ChartWall]:
    """The image of a spherical wall in the chart of turn (_pole_chart),
    whose wall function has the sphere's sign over the pole's open
    hemisphere, where it is affine in (1, G1, G2) along a chart conic; None
    for a wall with no such image. With n' = turn n, q.n = (n'_1 x_1 +
    n'_2 x_2 - n'_3)/lambda, lambda = sqrt(1 + |x|^2):

    - a great circle, q.n = 0, is the line n'_1 x_1 + n'_2 x_2 = n'_3;
    - a circle q.n = c about the pole (n'_1 = n'_2 = 0, n = -n'_3 P) is
      1/lambda = -n'_3 c: for -n'_3 c > 0 the centered circle |x| = tan(rho),
      cos(rho) = |c|, of side n'_3 side; otherwise the wall misses the
      hemisphere, and a positive constant stands for it.
    """
    n1, n2, n3 = (turn @ np.asarray(wall.normal)).tolist()
    c = wall.level
    if c == 0.0:
        return _ChartWall(0.0, (n1, n2), n3, wall.side, 1.0)
    if abs(n1) + abs(n2) > 1e-14:  # n' is (0, 0, +-1) to rounding for a circle about the pole
        return None
    if n3 * c >= 0.0:
        return _ChartWall(0.0, (0.0, 0.0), -1.0, 1, 1.0)
    radius = math.sqrt((1.0 - c) * (1.0 + c)) / abs(c)
    return _ChartWall(1.0, (0.0, 0.0), radius, int(math.copysign(1.0, n3)) * wall.side,
                      max(1.0, radius))


def _chart_hit(state: SphericalState, model: Model, pole, turn, chart_wall: _ChartWall,
               chart: PlanarState, clock, t_max: float, t0: float, inward: bool) -> HitOutcome:
    """The exact hit of a spherical leg bound in the chart of its attracting
    pole, whose chart state and clock tau(s) _chart_conic gives: the conic
    never leaves the pole's hemisphere, where the wall is chart_wall, so
    the crossing is the planar exact leg's (_exact_crossing, of mass |m'|:
    the polished root of _conic_crossing, then the f and g functions at
    t(s)), timed by tau(s). The chart state goes to the sphere on plain
    floats. The tangency test and the reflection are the sphere's
    (_hit_or_tangency). A start on the wall takes next_hit_numeric's
    rules; a crossing at the pole itself is no hit, as a planar one at the
    center is not.

    Raises:
        Undetermined: if the hit comes more than t_max after the start, or
            the start runs along a great-circle wall through the pole.
    """
    params, wall = model.params, model.wall
    g = _wall_value(state, wall)
    outward = _outward_start(state, params, wall, g, t0, inward)
    if outward is not None:
        return outward
    _along_pole_circle(state, wall, g, pole)
    crossing = _exact_crossing(chart, abs(params.m_prime), chart_wall,
                               wall_signed_distance(chart, chart_wall), t_max, clock)
    if isinstance(crossing, Escape):
        return crossing
    tau, hit = crossing
    q, v = (np.array(_chart_to_sphere(*hit)) @ turn).tolist()  # turn.T q and turn.T v
    return _hit_or_tangency(t0 + tau, SphericalState.project(q, v), params, wall)


# ---------------------------------------------------------------------------
# Numerical hit search
# ---------------------------------------------------------------------------

def _escape_event(state: PlanarState, params: SystemParams, wall: Wall, g: float, form):
    """The escape certificate of an unbound planar leg as a terminal event
    on its form, rising through zero where it comes to hold: beyond 1e3
    wall scales and receding, and for an unbounded wall (|n| >= alpha, the
    line) a conic that misses it ahead (beta = 0) or a speed away from it,
    side n.v, above what the force can still turn, (|m|/r + |beta|/(2 r^2))
    over the least radial speed to come, min(sqrt(2E), v_r); None for a
    bound leg or a conic that meets an unbounded wall (_exact_crossing from
    the start, whose wall function is g)."""
    two_e = 2.0 * planar_energy(state, params.m, params.beta)
    n1, n2 = wall.normal
    bounded = wall.alpha > math.hypot(n1, n2)
    exact = not bounded and params.beta == 0.0
    if two_e < 0.0 or exact and not isinstance(
            _exact_crossing(state, params.m, wall, g, math.inf), Escape):
        return None
    r_escape = 1e3 * wall.scale
    m, beta = abs(params.m), abs(params.beta)

    def escape(s, y):
        q1, q2, w1, w2 = form.phase(y)  # w = dq/ds = r v
        r = _radius(y)
        value = min(r - r_escape, q1 * w1 + q2 * w2)
        if bounded or exact:
            return value
        v_min = math.sqrt(min(two_e, ((q1 * w1 + q2 * w2) / (r * r)) ** 2))
        away = wall.side * (n1 * w1 + n2 * w2) / r * v_min
        return min(value, away - m / r - beta / (2.0 * r * r))

    escape.terminal = True
    escape.direction = 1.0
    return escape


def _along_pole_circle(state: SphericalState, wall: Wall, g: float, pole) -> None:
    """Raise Undetermined for a start on a great-circle wall through the
    attracting pole, given its wall function g, with normal speed at most
    TANGENCY_REL of the speed: it runs along that invariant circle."""
    on_wall = max(abs(g), abs(wall_signed_distance(pole, wall)))
    if on_wall <= ON_WALL_TOL and abs(_normal(state, wall)[1]) <= TANGENCY_REL * state.speed:
        raise Undetermined("the orbit runs along a great-circle wall through the pole")


def next_hit_numeric(
    state,
    model: Model,
    integ: IntegratorConfig = IntegratorConfig(),
    t_max: float = 1000.0,
    t0: float = 0.0,
    inward: bool = False,
) -> HitOutcome:
    """Integrate the flow to the first wall crossing and refine the hit.

    One engine serves the plane and the sphere. Near a force center it
    runs Levi-Civita's field (levi_civita_rhs) in the fictitious time s,
    with the clock as a fifth component: that field is regular through the
    center, so radial and near-radial legs pass it by the elastic bounce.
    A planar leg runs in that form throughout, with dt/ds = r. A spherical
    leg runs in it in the gnomonic chart of its attracting pole (see
    kcbilliards.spherical) from |x| = 1 (45 degrees off the pole) until
    |x| = 2, elsewhere the embedded flow in t.

    Each form runs in one integration from s = 0, with integ.max_step a
    span of s through dt/ds at the form's start, as for flows, until a
    terminal event ends it:

    - the wall crossing;
    - the clock reaching t_max (_clock_end), which raises Undetermined;
    - on the sphere, the switch at either chart radius, after which the
      leg goes on in the other form;
    - for a planar leg with E >= 0, its escape certificate (_escape_event)
      coming to hold, which returns Escape, as does a start where it holds.

    Both wall events read the model's wall function and its rate at the
    form's phase, a position and its s-derivative: the planar point, or the
    sphere point q, which the pole chart maps its own point to.
    A crossing whose step ends outside the domain is refined on that
    step's interpolant by bracketed root-finding. A step whose ends both
    lie inside hides a crossing only where g has an interior minimum below
    zero, so each step also watches the wall rate cross zero upwards; at
    the first such minimum with g < 0 the step is integrated again from
    its start to the minimum, which brackets the crossing. A crossing at a
    force center (dt/ds below R_MIN), which is removed from the wall,
    raises Undetermined; so does a bound conic (planar at beta = 0, or in
    the chart) with no hit in its first period of s, and a spherical leg
    off its chart's parabola with no hit within one period of its orbit
    (_chart_conic), since each repeats. A start on the wall moving into
    the domain that its form reads at or below zero lifts the wall event
    by that depth plus 4 ulps of the wall's scale, so that a first step
    spanning a whole short excursion, whose ends both lie below zero
    around a maximum of g, still brackets the return.

    Before any integration, a start in the other domain than the wall's is a
    ConfigError, a start on the wall moving out of the domain bounces at
    once unless inward marks it a non-tangent bounce's state_out (see the
    module docstring), and a spherical start on a great-circle wall through
    the attracting pole, with normal speed at most TANGENCY_REL of the
    speed, runs along that invariant circle and raises Undetermined
    (_along_pole_circle). The record's t_hit counts from t0, the clock at
    the start.
    """
    params = model.params
    wall = model.wall
    g = _wall_value(state, wall)
    outward = _outward_start(state, params, wall, g, t0, inward)
    if outward is not None:
        return outward
    escape, t_end = None, t_max
    if isinstance(state, SphericalState):
        pole, c_in, sphere_form, _ = _spherical_forms(params)
        _along_pole_circle(state, wall, g, pole)
        conic = _chart_conic(state, params, _pole_chart(params)[1], 0.0)
        if conic is not None and conic.period < t_max:  # the orbit repeats after its period
            t_end = conic.period
        form = sphere_form(state, 0.0, float(state.q @ pole) >= c_in)
    else:
        form = _planar_form(state, params)
        escape = _escape_event(state, params, wall, g, form)
        if escape is not None and escape(0.0, form.y) > 0.0:
            return Escape("unbound, receding beyond the escape radius")
    # the lift of the wall event for a start on the wall moving in (see above)
    lift = -wall_signed_distance(form.phase(form.y), wall)
    if lift < 0.0 or abs(g) > ON_WALL_TOL * wall.scale or (
            _normal(state, wall)[1] <= TANGENCY_REL * state.speed):
        lift = 0.0
    else:
        lift += 4.0 * math.ulp(wall.scale)

    def g_event(s, y):
        return wall_signed_distance(form.phase(y), wall) + lift

    g_event.terminal = True
    g_event.direction = -1.0

    def minimum_event(s, y):
        return _wall_rate(form.phase(y), wall)

    minimum_event.direction = 1.0

    def hit(s_hit, y_hit):
        if form.rate(y_hit) < R_MIN:  # dt/ds vanishes only at a force center
            raise Undetermined("the orbit meets the wall only at the removed center")
        t_hit = t0 + float(form.clock(s_hit, y_hit))
        return _hit_or_tangency(t_hit, form.state(y_hit), params, wall)

    def integrate(s0, s1, y0, event_fns):
        sol = solve_ivp(form.rhs, (s0, s1), y0, method="DOP853", rtol=integ.rtol, atol=integ.atol,
                        max_step=integ.max_step / form.rate(form.y), events=event_fns)
        if not sol.success:
            raise StepFailure(f"integration failed: {sol.message}")
        return sol

    while True:
        ends = [_clock_end(form, t_end)] + [e for e in (form.switch, escape) if e]
        sol = integrate(0.0, form.repeat, form.y, [g_event, minimum_event] + ends)
        # every minimum recorded here comes before any terminal event; one
        # whose dip the step's re-integration does not confirm lies within
        # the tolerances and is passed over
        for s_min, y_min in zip(sol.t_events[1], sol.y_events[1]):
            k = int(np.searchsorted(sol.t, s_min, side="right")) - 1
            if g_event(s_min, y_min) >= 0.0 or s_min <= sol.t[k]:
                continue
            sub = integrate(sol.t[k], s_min, sol.y[:, k], [g_event])
            if sub.status == 1:
                return hit(sub.t_events[0][0], sub.y_events[0][0])
        if sol.t_events[0].size:
            return hit(sol.t_events[0][0], sol.y_events[0][0])
        if sol.status == 0 or sol.t_events[2].size and t_end < t_max:
            raise Undetermined("the bound conic missed the wall for a whole period")
        if sol.t_events[2].size:
            raise Undetermined(f"no hit within t_max = {t_max}")
        if not form.switch:  # the escape event
            return Escape("unbound, receding beyond the escape radius")
        # the switch event: the leg goes on in the other form
        y = sol.y[:, -1]
        t = float(form.clock(sol.t[-1], y))
        form = sphere_form(form.state(y), t, form.switch is not _leave_chart)


# ---------------------------------------------------------------------------
# Billiard map
# ---------------------------------------------------------------------------

def _choose_leg(state, model: Model, mode: str, integ: IntegratorConfig):
    """The leg billiard_map runs from state, as leg(t_max, t0, inward) ->
    HitOutcome, and its solver label. Under mode="analytic" it is the exact
    leg wherever one exists: "exact-planar" (next_hit_analytic_line) on a
    planar wall, unless L^2 + beta <= 0 (beta < 0) draws the orbit into the
    center, and "exact-chart" (_chart_hit) for a spherical start whose
    orbit is bound in its attracting pole's chart (_chart_conic's ellipse:
    chart energy below zero, a start in the pole's hemisphere, alpha r0/mu
    at least _BOUND_MARGIN), against a wall with a chart image (_chart_wall).
    Every other leg, and every leg under mode="numeric", is "numeric"
    (next_hit_numeric), the only one that reads integ."""
    params, wall = model.params, model.wall
    if mode == "analytic" and wall.is_planar:
        if params.beta >= 0.0 or (
                state.xi * state.eta_dot - state.eta * state.xi_dot) ** 2 + params.beta > 0.0:
            return functools.partial(next_hit_analytic_line, state, params, wall), "exact-planar"
    elif mode == "analytic":
        pole, turn = _pole_chart(params)
        conic = _chart_conic(state, params, turn, 0.0)
        chart_wall = _chart_wall(wall, turn)
        if conic is not None and conic.clock is not None and chart_wall is not None:
            leg = functools.partial(_chart_hit, state, model, pole, turn, chart_wall, conic.chart,
                                    conic.clock)
            return leg, "exact-chart"
    return functools.partial(next_hit_numeric, state, model, integ), "numeric"


@dataclass(frozen=True)
class BilliardRun:
    """Result of iterating the billiard map.

    outcome is "completed", "escape" or "tangency", or, when a leg raised
    a DynamicsError, that error's outcome ("undetermined", "step-failure",
    "pole-singularity" or "singular-position"); error then holds that
    error, and records the bounces computed before the failed leg. On
    "escape", reason holds the reason of the leg's Escape.
    """

    records: List[BounceRecord]
    outcome: str
    final_state: object
    error: Optional[DynamicsError] = None
    reason: Optional[str] = None

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
    an absolute hit time: each leg starts at the run's clock.
    ``mode="numeric"`` runs every leg on next_hit_numeric. ``mode="analytic"``
    takes each leg's exact hit wherever one exists (_choose_leg): on a
    planar wall that of :func:`next_hit_analytic_line`, for every beta
    with L^2 + beta > 0, and on the sphere that of a leg bound in its
    attracting pole's chart; any other leg runs numerically. Both maps share one t_max_per_leg rule: a leg whose hit
    comes more than t_max_per_leg after its start raises Undetermined. A
    leg that raises a DynamicsError ends the run with that error's outcome
    and keeps the bounces before it.

    Raises:
        ConfigError: the start and the wall lie in different domains, or
            the start lies outside the domain, its wall function below
            -ON_WALL_TOL times the wall's scale.
    """
    if mode not in ("numeric", "analytic"):
        raise ValueError("mode must be 'numeric' or 'analytic'")
    g = _wall_value(state, model.wall)
    if g < -ON_WALL_TOL * model.wall.scale:
        raise ConfigError(f"the start lies outside the domain: wall function {g:.6g}")
    records: List[BounceRecord] = []
    clock = 0.0
    outcome = "completed"
    error = None
    reason = None
    current = state
    for _ in range(n):
        try:
            leg, _ = _choose_leg(current, model, mode, integ)
            # every leg after the first starts from a non-tangent bounce
            out = leg(t_max_per_leg, clock, bool(records))
        except DynamicsError as exc:
            outcome, error = exc.outcome, exc
            break
        if isinstance(out, Escape):
            outcome, reason = "escape", out.reason
            break
        clock = out.t_hit
        records.append(out)
        current = out.state_out
        if out.tangent:
            outcome = "tangency"
            break
    return BilliardRun(records=records, outcome=outcome, final_state=current, error=error,
                       reason=reason)
