"""Planar Kepler-Coulomb flow in the normalized chart.

Provides Levi-Civita's map both ways (a Kepler state to its root u with
u^2 = q, and back), the flow (with the optional centrifugal
perturbation) in that regularized form with the clock as a component,
the one planar field that legs and flows integrate, and the universal-variable
kernel: the conic through a state, for either mass sign and any energy,
in Goodyear's s (dt/ds = r), with its flight time t(s) in closed form.
One Newton on t(s) serves exact propagation and the anomaly equations
(eccentric, Barker, hyperbolic), each t(s) from a pericentre; one
crossing root on the kernel times the exact wall hit. The exact flight
and hit pass a radial orbit's collision by the elastic bounce.

Sign convention: the acceleration is -m*q/r^3 + beta*q/r^4, so m > 0
attracts and m < 0 repels; beta > 0 is an outward force beta/r^3 with
potential term beta/(2 r^2).
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from typing import Optional

import numpy as np

from .errors import (
    CollisionInsideInterval,
    NonConvergence,
    OriginSingularity,
    PerturbedModel,
    SingularPosition,
)
from .integrals import planar_energy
from .model import PlanarState, SystemParams

R_MIN = 1e-12
_MAX_ITER = 200
# a discriminant this far below zero, relative to its terms, is a tangency
_DISC_ROUNDING = 1e-15


def levi_civita_rhs(energy: float, beta: float):
    """The flow at energy E in Levi-Civita form: q = u^2, fictitious time s
    with dt/ds = |u|^2 = r, y = (u1, u2, u1', u2', t), u'' = (E/2) u +
    beta u/(4 |u|^4) and t' = r. At beta = 0 it is a harmonic oscillator,
    regular through the center, where the orbit bounces elastically.

    Raises:
        SingularPosition: for beta != 0, if r < R_MIN (1e-12).
    """
    half_e, quarter_beta = 0.5 * energy, 0.25 * beta

    def rhs(s, y):
        r = y[0] * y[0] + y[1] * y[1]
        c = half_e
        if quarter_beta != 0.0:
            if r < R_MIN:
                raise SingularPosition(f"r = {r} below the singular-position guard {R_MIN}")
            c += quarter_beta / (r * r)
        return (y[2], y[3], c * y[0], c * y[1], r)

    return rhs


def kepler_to_hooke_point(z: complex, z_dot: complex) -> tuple:
    """Levi-Civita's map of one Kepler phase point, the inverse of
    _levi_civita_to_planar: (w, w') with w = sqrt(z) on the principal
    branch, z the position as a complex number (origin at the center), and
    w' = z_dot |w|^2 / (2 w) the velocity in the fictitious time s with
    dt/ds = |w|^2, z_dot = dz/dt.

    Raises:
        OriginSingularity: at z = 0.
    """
    if z == 0:
        raise OriginSingularity("Levi-Civita's map is singular at the origin")
    w = cmath.sqrt(z)
    return w, z_dot * (abs(w) ** 2) / (2.0 * w)


def _squared(y):
    """q = u^2 and dq/ds = 2 u u' (= r v) of y = (u1, u2, u1', u2', t)."""
    u1, u2, w1, w2 = y[0], y[1], y[2], y[3]
    return (u1 * u1 - u2 * u2, 2.0 * u1 * u2,
            2.0 * (u1 * w1 - u2 * w2), 2.0 * (u1 * w2 + u2 * w1))


def _radius(y):
    """r = |u|^2 = dt/ds of a Levi-Civita state y, or of such states one per column."""
    return y[0] * y[0] + y[1] * y[1]


def _levi_civita_to_planar(y):
    """The planar position and velocity q = u^2, v = 2 u'/conj(u) of a
    Levi-Civita state y, or of such states one per column."""
    q1, q2, p1, p2 = _squared(y)
    r = _radius(y)
    return q1, q2, p1 / r, p2 / r


# A leg's or flow's form, integrated in s from 0 in one call: field, state y, wall
# (None for a flow); y's position and its s-derivative; clock (s, y) -> t and dt/ds,
# both elementwise on columns of states; the span of s after which the orbit
# repeats; the State of y; the event where the form changes.
_Form = namedtuple("_Form", "rhs y wall phase clock rate repeat state switch")


def _levi_civita(c: PlanarState, energy: float, rhs, rate, wall, t: float, state,
                 conic: bool, switch=None) -> _Form:
    """The Levi-Civita form of the Kepler state c at time t, whose clock is
    the fifth component of rhs; a bound conic repeats after one period
    pi/sqrt(|E|/2) of the oscillator."""
    u, u_prime = kepler_to_hooke_point(complex(c.xi, c.eta), complex(c.xi_dot, c.eta_dot))
    repeat = math.pi / math.sqrt(-0.5 * energy) if conic and energy < 0.0 else math.inf
    y = np.array([u.real, u.imag, u_prime.real, u_prime.imag, t])
    return _Form(rhs, y, wall, _squared, lambda s, y: y[4], rate, repeat, state, switch)


def _planar_form(state: PlanarState, params: SystemParams, wall=None) -> _Form:
    """The form of a planar leg on wall, or of a free flow (wall None), from
    the state at t = 0; at beta = 0 a bound conic repeats after one period."""
    energy = planar_energy(state, params.m, params.beta)
    return _levi_civita(state, energy, levi_civita_rhs(energy, params.beta), _radius, wall, 0.0,
                        lambda y: PlanarState(*_levi_civita_to_planar(y)), params.beta == 0.0)


def _clock_end(form: _Form, t_end: float):
    """The terminal event where the form's clock rises through t_end."""
    def at_end(s, y):
        return form.clock(s, y) - t_end

    at_end.terminal = True
    at_end.direction = 1.0
    return at_end


def _clock_samples(sol, form: _Form, ts: np.ndarray) -> np.ndarray:
    """The dense-output states of sol, one per column, where the form's
    monotone clock (dt/ds = form.rate(y)) reads the times ts. Newton runs
    from the interpolant of the step clocks inside the step that brackets
    each time, bisecting where it leaves the bracket or does not halve its
    step, until the clock is within 4 ulps of its time or the bracket
    closes; on a linear clock such as the embedded t + s the first guess
    holds. It raises NonConvergence past _MAX_ITER iterations."""
    clocks = form.clock(sol.t, sol.y)
    k = np.searchsorted(clocks, ts).clip(1, sol.t.size - 1)
    lo, hi, s = sol.t[k - 1], sol.t[k], np.interp(ts, clocks, sol.t)
    todo, step = np.arange(ts.size), np.full_like(s, np.inf)
    out = np.empty((sol.y.shape[0], ts.size))
    for _ in range(_MAX_ITER):
        if not todo.size:
            return out
        y = sol.sol(s)
        f = form.clock(s, y) - ts[todo]
        done = (np.abs(f) <= 4.0 * np.spacing(np.abs(ts[todo]))) | (
            hi - lo <= 4.0 * np.spacing(np.abs(s)))
        out[:, todo[done]] = y[:, done]
        todo, s, f, y, lo, hi, step = (x[..., ~done] for x in (todo, s, f, y, lo, hi, step))
        lo, hi = np.where(f < 0.0, s, lo), np.where(f > 0.0, s, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_new = s - f / form.rate(y)
        newton = (lo <= s_new) & (s_new <= hi) & (np.abs(s_new - s) < 0.5 * np.abs(step))
        s_new = np.where(newton, s_new, 0.5 * (lo + hi))
        step, s = s_new - s, s_new
    raise NonConvergence("a flow sample's clock did not converge")


# ---------------------------------------------------------------------------
# Universal-variable kernel (either sign of m)
# ---------------------------------------------------------------------------

# c3(z) = sum_k (-z)^k / (2k+3)!, through the term below 1e-17 relative at |z| = 1
_C3_SERIES = tuple((-1.0) ** k / math.factorial(2 * k + 3) for k in range(9))[::-1]


def _stumpff_c(z: float) -> float:
    """c2(z) = (1 - cos sqrt(z))/z in half-angle form, to a few ulps."""
    if abs(z) < 1e-5:
        return 1.0 / 2.0 - z / 24.0 + z * z / 720.0 - z**3 / 40320.0
    if z > 0.0:
        return 2.0 * math.sin(0.5 * math.sqrt(z)) ** 2 / z
    return 2.0 * math.sinh(0.5 * math.sqrt(-z)) ** 2 / -z


def _stumpff_s(z: float) -> float:
    """c3(z) = (sqrt(z) - sin sqrt(z))/z^(3/2); the closed form cancels for
    small |z|, so |z| < 1 takes the series."""
    if abs(z) < 1.0:
        acc = 0.0
        for coef in _C3_SERIES:
            acc = acc * z + coef
        return acc
    if z > 0.0:
        s = math.sqrt(z)
        return (s - math.sin(s)) / (z * s)
    s = math.sqrt(-z)
    return (math.sinh(s) - s) / (-z * s)


def universal_kernel(alpha: float, s: float):
    """(G0, G1, G2, G3) at the universal variable s, G_k = s^k c_k(alpha s^2).

    alpha = 2m/r0 - |v0|^2. G_k' = G_(k-1), and G0 = 1 - alpha G2, so along
    the conic x(s) = f x0 + g x0_dot with f = 1 - m G2/r0, g = r0 G1 +
    sigma0 G2 (sigma0 = q0.v0), and r(s) = r0 + sigma0 G1 + (m - alpha r0) G2:
    both coordinates and the radius are affine in (1, G1, G2).
    """
    z = alpha * s * s
    g2 = s * s * _stumpff_c(z)
    g3 = s * s * s * _stumpff_s(z)
    return 1.0 - alpha * g2, s - alpha * g3, g2, g3


def time_of_flight(r0: float, sigma0: float, m: float, g) -> float:
    """Flight time t(s) = r0 G1 + sigma0 G2 + m G3 to the universal variable
    of the kernel g = universal_kernel(alpha, s); dt/ds = r(s) > 0."""
    return r0 * g[1] + sigma0 * g[2] + m * g[3]


def universal_state(state: PlanarState, m: float, t: float, g) -> PlanarState:
    """The state a time t = time_of_flight(...) along the conic through state,
    from the f and g functions of the kernel g.

    Raises:
        CollisionInsideInterval: if that point lies within R_MIN of the center.
    """
    r0 = state.r
    f = 1.0 - m * g[2] / r0
    gg = t - m * g[3]
    xi = f * state.xi + gg * state.xi_dot
    eta = f * state.eta + gg * state.eta_dot
    r1 = math.hypot(xi, eta)
    if r1 < R_MIN:
        raise CollisionInsideInterval("the orbit point lies at the center")
    f_dot = -m * g[1] / (r1 * r0)
    g_dot = 1.0 - m * g[2] / r1
    return PlanarState(
        xi, eta,
        f_dot * state.xi + g_dot * state.xi_dot,
        f_dot * state.eta + g_dot * state.eta_dot,
    )


def _solve_flight(r0: float, sigma0: float, alpha: float, m: float, dt: float):
    """The universal variable s where the flight time t(s) = r0 G1 +
    sigma0 G2 + m G3 reaches dt, and the kernel there: (s, kernel).

    t(s) is increasing (dt/ds = r > 0), so Newton keeps a bracket on s and
    bisects whenever a step leaves it or is longer than half the step
    before (near a pericentre r, the slope, is small; on a hyperbola t(s)
    is exponential); an infinite side of the bracket is widened by
    doubling. It stops at |t(s) - dt| <= 1e-14 max(1, |dt|).

    Raises:
        NonConvergence: if the bracket does not close within _MAX_ITER steps.
    """
    lo, hi = (0.0, math.inf) if dt > 0.0 else (-math.inf, 0.0)
    s = alpha * dt / m if alpha > 1e-12 * abs(m) else dt / r0
    step = math.inf
    tol = 1e-14 * max(1.0, abs(dt))
    for _ in range(_MAX_ITER):
        try:
            g = universal_kernel(alpha, s)
            F = time_of_flight(r0, sigma0, m, g) - dt
            r = r0 * g[0] + sigma0 * g[1] + m * g[2]
        except OverflowError:
            F = r = math.nan
        if not math.isfinite(F):  # t(s) overflowed, so s lies past the target
            F = math.copysign(math.inf, s)
        elif abs(F) <= tol or hi - lo <= 4e-16 * abs(s):
            return s, g
        if F > 0.0:
            hi = s
        else:
            lo = s
        s_new = s - F / r if r > 0.0 else math.nan
        if not (lo < s_new < hi and abs(s_new - s) <= 0.5 * abs(step)):
            s_new = 2.0 * s if math.isinf(lo) or math.isinf(hi) else 0.5 * (lo + hi)
        step, s = s_new - s, s_new
    raise NonConvergence(f"universal Kepler equation did not converge for dt = {dt}")


def solve_kepler_equation(mean_anomaly: float, e: float) -> float:
    """Anomaly from mean anomaly: eccentric (e<1), Barker (e=1), hyperbolic (e>1).

    From a pericentre (sigma0 = 0) at unit mean motion the flight time t(s)
    is the anomaly equation itself, and s the anomaly: s - e sin s for
    alpha = 1, r0 = 1 - e, m = 1; s + s^3/3 for alpha = 0, r0 = 1, m = 2;
    e sinh s - s for alpha = -1, r0 = e - 1, m = 1. An ellipse's anomaly
    gains 2 pi per turn, so there M is reduced to [-pi, pi) and the turns
    added back: its residual is about 1e-14 plus the rounding of M; that of
    the other two is about 1e-14 max(1, |M|).
    """
    if e < 0.0:
        raise ValueError("eccentricity must be >= 0")
    if e == 1.0:
        alpha, r0, m = 0.0, 1.0, 2.0
    else:
        alpha, r0, m = math.copysign(1.0, 1.0 - e), abs(1.0 - e), 1.0
    turns = 0.0
    if e < 1.0:
        turns = 2.0 * math.pi * math.floor((mean_anomaly + math.pi) / (2.0 * math.pi))
    return turns + _solve_flight(r0, 0.0, alpha, m, mean_anomaly - turns)[0]


def crossing_root(alpha: float, c: float, P: float, Q: float) -> Optional[float]:
    """First s > 0 where F(s) = c + P G1(s) + Q G2(s) reaches zero without
    increasing, G_k = universal_kernel(alpha, s)[k].

    Along the conic the wall functions and sigma = q.v = dr/ds all take
    this form. In y = 2 G1/(1 + G0) (y = s on a parabola, (2/w) tan(w s/2)
    on an ellipse and (2/w) tanh(w s/2) on a hyperbola, w = sqrt|alpha|),
    F is the quadratic (Q/2 + alpha c/4) y^2 + P y + c times a positive
    factor. Its root where it does not increase (grazing roots included)
    is taken as num/den, free of cancellation, and mapped back to s; on an
    ellipse it recurs once per period, and the first one with s > 0 is
    taken.

    Returns:
        s; None when F has no real root (the discriminant is below zero
        beyond rounding), and math.inf when its root lies in the past or
        beyond the asymptote of a hyperbola, so F never reaches it.
    """
    a2 = 0.5 * Q + 0.25 * alpha * c
    disc = P * P - 4.0 * a2 * c
    if disc < -_DISC_ROUNDING * (P * P + abs(4.0 * a2 * c)):
        return None
    root = math.sqrt(max(disc, 0.0))
    num, den = (-0.5 * (P + root), a2) if P >= 0.0 else (c, -0.5 * (P - root))
    if alpha > 0.0:
        w = math.sqrt(alpha)
        return 2.0 * (math.atan2(w * num, 2.0 * den) % math.pi or math.pi) / w
    y = num / den if den != 0.0 else -1.0
    u = 0.5 * math.sqrt(-alpha) * y
    if not (y > 0.0 and u < 1.0):
        return math.inf
    return 2.0 * math.atanh(u) / math.sqrt(-alpha) if alpha < 0.0 else y


# ---------------------------------------------------------------------------
# Exact propagation
# ---------------------------------------------------------------------------

def propagate_analytic(state: PlanarState, dt: float, params: SystemParams) -> PlanarState:
    """Propagate a state exactly along its conic by time dt.

    One universal-variable code path serves elliptic, parabolic and
    hyperbolic motion, attractive (m > 0) and repulsive (m < 0) alike. A
    radial orbit of an attracting center passes the collision by the
    elastic bounce, as in the billiard maps.

    Raises:
        PerturbedModel: if params.beta != 0.
        CollisionInsideInterval: if the state at dt lies within R_MIN of the center.
        NonConvergence: if the universal Kepler equation does not converge.
    """
    if params.beta != 0.0:
        raise PerturbedModel("analytic propagation requires beta = 0")
    if dt == 0.0:
        return state
    m, r0 = params.m, state.r
    sigma0 = state.xi * state.xi_dot + state.eta * state.eta_dot
    _, g = _solve_flight(r0, sigma0, 2.0 * m / r0 - state.speed**2, m, dt)
    return universal_state(state, m, dt, g)
