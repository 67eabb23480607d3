"""Wall geometry, reflection operators, hit detection and the billiard map.

Every wall is a level set of one wall function alpha |x| + n.x: a Wall
is that function, its level and its side. Hits are located either
numerically (adaptive integration, one per form of a leg, ended by events,
with bracketed root refinement on the step interpolant, any wall and beta;
each step's minima of the wall function are tracked, so a crossing that
enters and leaves within one step is found) or exactly on the planar walls
(beta = 0), whose wall function is affine in the planar kernel's
(1, G1, G2) along a conic, so that a crossing is one closed-form root.
Radial orbits aimed at an attractive center pass the collision by the
elastic bounce: the numeric map integrates Levi-Civita's regularized
field (q = u^2, dt/ds = r), regular through the center, in the plane and,
on the sphere, near the attracting pole in its gnomonic chart (see
kcbilliards.spherical); the exact map passes the center in the universal
variable.

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

import math
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .errors import (
    BilliardError,
    ConfigError,
    DynamicsError,
    SingularPosition,
    StepFailure,
    Undetermined,
)
from .integrals import integral_set, planar_energy
from .model import (BounceRecord, IntegralSet, IntegratorConfig, Model, PlanarState,
                    SphericalState, SystemParams, Wall, solve_ivp)
from .planar import (R_MIN, _clock_end, _planar_form, _radius, crossing_root, time_of_flight,
                     universal_kernel, universal_state)
from .spherical import _leave_chart, _spherical_forms, sphere_to_planar, spherical_energy_embedded

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
    f = float(np.dot(point[:3], n)) if len(n) == 3 else n[0] * point[0] + n[1] * point[1]
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
    and normalized on the sphere), and the velocity along it. A varying n
    takes np.dot, whose last bits differ from a plain sum; the line's n
    takes plain floats, exact there."""
    side, alpha, n = wall.side, wall.alpha, wall.normal
    if isinstance(state, SphericalState):
        n = np.asarray(n) - float(np.dot(state.q, n)) * state.q
        n = side * (n / np.linalg.norm(n))
        return n, float(np.dot(state.v, n))
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
        return SphericalState(state.q, state.v - 2.0 * vn * n)
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


def _outward_start(state, params: SystemParams, wall: Wall, g: float,
                   t0: float) -> Optional[BounceRecord]:
    """Zero-time bounce, at the clock t0, for a start on the wall moving out
    of the domain, given its wall function g; None for a start off the wall
    (beyond the reflect tolerance), moving into the domain or grazing it,
    which the hit search then takes."""
    if abs(g) > ON_WALL_TOL * wall.scale:
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
# Exact planar hit
# ---------------------------------------------------------------------------

def next_hit_analytic_line(
    state: PlanarState,
    params: SystemParams,
    wall: Wall,
    t_max: float = math.inf,
    t0: float = 0.0,
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
    A crossing at the center itself is no hit (the center is removed from
    the wall), and a start on the wall moving out of the domain bounces
    at t = 0. Agrees with the numerical hit search to 1e-8. As in
    next_hit_numeric, the record's t_hit counts from t0, the clock at the
    start.

    Raises:
        ConfigError: if params.beta != 0, or the wall or the state is not
            planar.
        Undetermined: if the hit comes more than t_max after the start.
    """
    if params.beta != 0.0:
        raise ConfigError("the analytic billiard map requires beta = 0")
    if not wall.is_planar:
        raise ConfigError("analytic hit search supports only the planar walls")
    c = _wall_value(state, wall)  # F(0) below, to the bit; checks the domain
    outward = _outward_start(state, params, wall, c, t0)
    if outward is not None:
        return outward
    m = params.m
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
            g, F = g_new, F_new
    if abs(F) > ON_WALL_TOL * wall.scale:  # a root at s = infinity
        return Escape("the orbit meets the wall only at infinity")
    t_hit = time_of_flight(r0, sigma0, m, g)
    if t_hit > t_max:
        raise Undetermined(f"no hit within t_max = {t_max}")
    try:
        hit = universal_state(state, m, t_hit, g, r0)
    except SingularPosition:
        return Escape("the orbit meets the wall only at the removed center")
    return _hit_or_tangency(t0 + t_hit, hit, params, wall)


# ---------------------------------------------------------------------------
# Numerical hit search
# ---------------------------------------------------------------------------

def _escape_event(state: PlanarState, params: SystemParams, wall: Wall, form):
    """The escape certificate of an unbound planar leg as a terminal event
    on its form, rising through zero where it comes to hold: beyond 1e3
    wall scales and receding, and for an unbounded wall (|n| >= alpha, the
    line) a conic that misses it ahead (beta = 0) or a speed away from it,
    side n.v, above what the force can still turn, (|m|/r + |beta|/(2 r^2))
    over the least radial speed to come, min(sqrt(2E), v_r); None for a
    bound leg or a conic that meets an unbounded wall."""
    two_e = 2.0 * planar_energy(state, params.m, params.beta)
    n1, n2 = wall.normal
    bounded = wall.alpha > math.hypot(n1, n2)
    exact = not bounded and params.beta == 0.0
    if two_e < 0.0 or exact and not isinstance(next_hit_analytic_line(state, params, wall), Escape):
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


def next_hit_numeric(
    state,
    model: Model,
    integ: IntegratorConfig = IntegratorConfig(),
    t_max: float = 1000.0,
    t0: float = 0.0,
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
    the chart) with no hit in its first period of s, since it repeats.

    Before any integration, a start in the other domain than the wall's is a
    ConfigError, a start on the wall moving out of the domain bounces at
    once (see the module docstring), and a spherical start on a great-circle
    wall through the attracting pole, with normal speed at most
    TANGENCY_REL of the speed, runs along that invariant circle and raises
    Undetermined. The record's t_hit counts from t0, the clock at the start.
    """
    params = model.params
    wall = model.wall
    g = _wall_value(state, wall)
    outward = _outward_start(state, params, wall, g, t0)
    if outward is not None:
        return outward
    escape = None
    if isinstance(state, SphericalState):
        pole, c_in, sphere_form, _ = _spherical_forms(params)
        on_wall = max(abs(g), abs(wall_signed_distance(pole, wall)))
        if on_wall <= ON_WALL_TOL and abs(_normal(state, wall)[1]) <= TANGENCY_REL * state.speed:
            raise Undetermined("the orbit runs along a great-circle wall through the pole")
        form = sphere_form(state, 0.0, float(state.q @ pole) >= c_in)
    else:
        form = _planar_form(state, params)
        escape = _escape_event(state, params, wall, form)
        if escape is not None and escape(0.0, form.y) > 0.0:
            return Escape("unbound, receding beyond the escape radius")

    def g_event(s, y):
        return wall_signed_distance(form.phase(y), wall)

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
        ends = [_clock_end(form, t_max)] + [e for e in (form.switch, escape) if e]
        sol = integrate(0.0, form.repeat, form.y, [g_event, minimum_event] + ends)
        # every minimum recorded here comes before any terminal event; one
        # whose dip the step's re-integration does not confirm lies within
        # the tolerances and is passed over
        for s_min, y_min in zip(sol.t_events[1], sol.y_events[1]):
            k = int(np.searchsorted(sol.t, s_min, side="right")) - 1
            if wall_signed_distance(form.phase(y_min), wall) >= 0.0 or s_min <= sol.t[k]:
                continue
            sub = integrate(sol.t[k], s_min, sol.y[:, k], [g_event])
            if sub.status == 1:
                return hit(sub.t_events[0][0], sub.y_events[0][0])
        if sol.t_events[0].size:
            return hit(sol.t_events[0][0], sol.y_events[0][0])
        if sol.status == 0:
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
    an absolute hit time: each leg starts at the run's clock. ``mode="analytic"``
    takes the exact hit of :func:`next_hit_analytic_line`, whose first leg
    raises ConfigError unless the wall is planar and beta = 0. Both maps
    share one t_max_per_leg rule: a leg whose hit comes more than
    t_max_per_leg after its start raises Undetermined. A leg that raises a
    DynamicsError ends the run with that error's outcome and keeps the
    bounces before it.

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
            if mode == "analytic":
                out = next_hit_analytic_line(current, model.params, model.wall, t_max_per_leg, clock)
            else:
                out = next_hit_numeric(current, model, integ, t_max_per_leg, clock)
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
