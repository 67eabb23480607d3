"""Planar Kepler-Coulomb flow in the normalized chart.

Provides the vector field (with the optional centrifugal perturbation),
conic orbit elements, anomaly-equation solvers, exact conic propagation
for either mass sign, and time-of-flight helpers used by the analytic
billiard map.

Sign convention: the acceleration is -m*q/r^3 + beta*q/r^4, so m > 0
attracts and m < 0 repels; beta > 0 is an outward force beta/r^3 with
potential term beta/(2 r^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    CollisionInsideInterval,
    NonConvergence,
    PerturbedModel,
    SingularPosition,
)
from .integrals import angular_momentum, lrl_eta, lrl_xi, planar_energy
from .model import PlanarState, SystemParams

R_MIN = 1e-12
L_TOL = 1e-10
_ANOMALY_TOL = 1e-14
_MAX_ITER = 200


def flow_rhs(t, y, params: SystemParams):
    """Right-hand side of the first-order system for solve_ivp.

    The acceleration is -m*q/r^3 + beta*q/r^4.

    Raises:
        SingularPosition: if r < R_MIN (1e-12).
    """
    r = math.hypot(y[0], y[1])
    if r < R_MIN:
        raise SingularPosition(f"r = {r} below the singular-position guard {R_MIN}")
    coeff = -params.m / r**3
    if params.beta != 0.0:
        coeff += params.beta / r**4
    return (y[2], y[3], coeff * y[0], coeff * y[1])


def collision_tolerance(state: PlanarState) -> float:
    """Angular-momentum threshold below which an orbit counts as radial."""
    return L_TOL * max(1e-30, state.speed * state.r)


@dataclass(frozen=True)
class ConicElements:
    """Keplerian elements of the conic through a state (beta = 0 only)."""

    E_pl: float
    L: float
    A_xi: float
    A_eta: float
    e: float
    p: float


def orbit_elements(state: PlanarState, params: SystemParams) -> ConicElements:
    """Conic elements from a state; requires the unperturbed field.

    Raises:
        PerturbedModel: if params.beta != 0.
    """
    if params.beta != 0.0:
        raise PerturbedModel("orbit elements are Keplerian only (beta must be 0)")
    m = params.m
    E = planar_energy(state, m)
    L = angular_momentum(state)
    A_xi = lrl_xi(state, m)
    A_eta = lrl_eta(state, m)
    return ConicElements(
        E_pl=E,
        L=L,
        A_xi=A_xi,
        A_eta=A_eta,
        e=math.hypot(A_xi, A_eta) / abs(m),
        p=L * L / abs(m),
    )


# ---------------------------------------------------------------------------
# Anomaly equations
# ---------------------------------------------------------------------------

def solve_kepler_elliptic(mean_anomaly: float, e: float) -> float:
    """Solve E - e*sin(E) = M for the eccentric anomaly, 0 <= e < 1.

    Newton iteration with a bisection safeguard on the bracket
    [M - e, M + e]; residual below 1e-13 for any e bounded away from 1.
    """
    M = mean_anomaly
    # reduce to [-pi, pi] and restore the multiple of 2*pi afterwards
    k = math.floor((M + math.pi) / (2.0 * math.pi))
    Mr = M - 2.0 * math.pi * k
    lo, hi = Mr - e, Mr + e
    E = Mr + e * math.sin(Mr) if e < 0.8 else math.copysign(math.pi, Mr) if Mr else 0.0
    for _ in range(_MAX_ITER):
        f = E - e * math.sin(E) - Mr
        if abs(f) <= _ANOMALY_TOL:
            break
        fp = 1.0 - e * math.cos(E)
        if f > 0.0:
            hi = E
        else:
            lo = E
        step = f / fp if fp > 1e-300 else 0.0
        E_new = E - step
        if not lo <= E_new <= hi:
            E_new = 0.5 * (lo + hi)
        E = E_new
    else:
        raise NonConvergence(f"elliptic anomaly solver stalled at M={M}, e={e}")
    return E + 2.0 * math.pi * k


def solve_kepler_hyperbolic(mean_anomaly: float, e: float) -> float:
    """Solve e*sinh(H) - H = M, e > 1. Monotone Newton with safeguard."""
    M = mean_anomaly
    H = math.asinh(M / e) if e > 1.5 else math.copysign(
        math.log(2.0 * abs(M) / e + 1.8), M
    ) if M != 0.0 else 0.0
    lo, hi = -math.inf, math.inf
    for _ in range(_MAX_ITER):
        f = e * math.sinh(H) - H - M
        if abs(f) <= _ANOMALY_TOL * max(1.0, abs(M)):
            return H
        if f > 0.0:
            hi = H
        else:
            lo = H
        fp = e * math.cosh(H) - 1.0
        H_new = H - f / fp if fp > 1e-300 else H
        if not lo < H_new < hi:
            H_new = 0.5 * (lo + hi) if math.isfinite(lo) and math.isfinite(hi) else H_new
        H = H_new
    raise NonConvergence(f"hyperbolic anomaly solver stalled at M={M}, e={e}")


def solve_barker(mean_anomaly: float) -> float:
    """Solve B + B^3/3 = M in closed form (parabolic case)."""
    M = mean_anomaly
    s = math.sqrt(9.0 * M * M + 4.0)
    w = (3.0 * M + s) / 2.0
    c = math.copysign(abs(w) ** (1.0 / 3.0), w)
    B = c - 1.0 / c if c != 0.0 else 0.0
    # one Newton polish step
    B -= (B + B**3 / 3.0 - M) / (1.0 + B * B)
    return B


def solve_kepler_equation(mean_anomaly: float, e: float) -> float:
    """Anomaly from mean anomaly: eccentric (e<1), Barker (e=1), hyperbolic (e>1).

    Residual of the corresponding equation is below 1e-13; inputs with
    0 < |e - 1| < 1e-9 may raise NonConvergence.
    """
    if e < 0.0:
        raise ValueError("eccentricity must be >= 0")
    if e < 1.0:
        return solve_kepler_elliptic(mean_anomaly, e)
    if e == 1.0:
        return solve_barker(mean_anomaly)
    return solve_kepler_hyperbolic(mean_anomaly, e)


# ---------------------------------------------------------------------------
# Universal-variable propagation (either sign of m)
# ---------------------------------------------------------------------------

def _stumpff_c(z: float) -> float:
    if abs(z) < 1e-5:
        return 1.0 / 2.0 - z / 24.0 + z * z / 720.0 - z**3 / 40320.0
    if z > 0.0:
        return (1.0 - math.cos(math.sqrt(z))) / z
    s = math.sqrt(-z)
    return (math.cosh(s) - 1.0) / (-z)


def _stumpff_s(z: float) -> float:
    if abs(z) < 1e-5:
        return 1.0 / 6.0 - z / 120.0 + z * z / 5040.0 - z**3 / 362880.0
    if z > 0.0:
        s = math.sqrt(z)
        return (s - math.sin(s)) / (z * s)
    s = math.sqrt(-z)
    return (math.sinh(s) - s) / (-z * s)


def _universal_propagate(state: PlanarState, dt: float, m: float) -> PlanarState:
    """f-and-g propagation in Goodyear's universal variable s, dt/ds = r.

    With beta = 2m/r0 - |v0|^2 and G_k = s^k c_k(beta s^2), the flight time
    is t(s) = r0 G1 + sigma0 G2 + m G3 (sigma0 = q0.v0) and the radius is
    r(s) = dt/ds = r0 G0 + sigma0 G1 + m G2 > 0, for either sign of m.
    """
    q0 = state.position
    v0 = state.velocity
    r0 = state.r
    sigma0 = float(np.dot(q0, v0))
    beta = 2.0 * m / r0 - float(np.dot(v0, v0))

    def g_funcs(s):
        z = beta * s * s
        g2 = s * s * _stumpff_c(z)
        g3 = s**3 * _stumpff_s(z)
        return 1.0 - beta * g2, s - beta * g3, g2, g3

    s = beta * dt / m if beta > 1e-12 * abs(m) else dt / r0
    tol = 1e-13 * max(1.0, abs(dt))
    for _ in range(_MAX_ITER):
        g0, g1, g2, g3 = g_funcs(s)
        F = r0 * g1 + sigma0 * g2 + m * g3 - dt
        if abs(F) <= tol:
            break
        s -= F / max(r0 * g0 + sigma0 * g1 + m * g2, 1e-300)
    else:
        raise NonConvergence("universal Kepler equation did not converge")

    q1 = (1.0 - m * g2 / r0) * q0 + (dt - m * g3) * v0
    r1 = math.hypot(q1[0], q1[1])
    if r1 < R_MIN:
        raise CollisionInsideInterval("propagation interval ends at the center")
    v1 = (-m * g1 / (r1 * r0)) * q0 + (1.0 - m * g2 / r1) * v0
    return PlanarState(q1[0], q1[1], v1[0], v1[1])


# ---------------------------------------------------------------------------
# Radial motion
# ---------------------------------------------------------------------------

def radial_collision_time(state: PlanarState, m: float) -> Optional[float]:
    """Time until a radial (L = 0) orbit reaches the center, or None.

    Returns the first t > 0 with r(t) = 0; None when the orbit never
    reaches the center (m <= 0, or unbound and already receding).
    """
    if m <= 0.0:
        return None
    E = planar_energy(state, m)
    r0 = state.r
    qv = state.xi * state.xi_dot + state.eta * state.eta_dot
    e_scale = m / r0 + 0.5 * state.speed**2
    if E < -_PARABOLIC_REL * e_scale:
        a = -m / (2.0 * E)
        n = math.sqrt(m / a**3)
        # radial orbits have e = 1; collision at eccentric anomaly 0 (mod 2*pi)
        cosE = 1.0 - r0 / a
        sinE = qv / math.sqrt(m * a)
        E0 = math.atan2(sinE, cosE)
        M0 = E0 - math.sin(E0)
        dM = (-M0) % (2.0 * math.pi)
        return dM / n
    if qv >= 0.0:
        return None  # receding and unbound: never returns
    if abs(E) <= _PARABOLIC_REL * e_scale:
        d0 = qv / math.sqrt(m)
        return -(d0**3) / (6.0 * math.sqrt(m))
    aabs = m / (2.0 * E)
    n = math.sqrt(m / aabs**3)
    sinhH = qv / math.sqrt(m * aabs)
    H0 = math.asinh(sinhH)
    M0 = math.sinh(H0) - H0
    return (0.0 - M0) / n


# ---------------------------------------------------------------------------
# Exact propagation and time of flight
# ---------------------------------------------------------------------------

def propagate_analytic(state: PlanarState, dt: float, params: SystemParams) -> PlanarState:
    """Propagate a state exactly along its conic by time dt.

    One universal-variable code path serves elliptic, parabolic and
    hyperbolic motion, attractive (m > 0) and repulsive (m < 0) alike.

    Raises:
        PerturbedModel: if params.beta != 0.
        CollisionInsideInterval: if the orbit is radial and meets the
            center within (0, dt]; the radial branch of the billiard map
            continues such orbits through the center.
    """
    if params.beta != 0.0:
        raise PerturbedModel("analytic propagation requires beta = 0")
    if dt == 0.0:
        return state
    m = params.m
    if abs(angular_momentum(state)) <= collision_tolerance(state):
        t_c = radial_collision_time(state, m)
        if t_c is not None and 0.0 < t_c <= dt:
            raise CollisionInsideInterval(
                f"radial orbit reaches the center at t = {t_c} <= dt"
            )
    return _universal_propagate(state, dt, m)


def kepler_period(state: PlanarState, m: float) -> Optional[float]:
    """Orbital period for bound motion (m > 0, E < 0); None otherwise."""
    E = planar_energy(state, m)
    if m <= 0.0 or E >= 0.0:
        return None
    a = -m / (2.0 * E)
    return 2.0 * math.pi * math.sqrt(a**3 / m)


_PARABOLIC_REL = 1e-11


def time_of_flight(
    m: float,
    E: float,
    e: float,
    p: float,
    r0: float,
    qv0: float,
    r1: float,
    qv1: float,
) -> Optional[float]:
    """Time along the flow from orbit point (r0, qv0) to (r1, qv1).

    Points are identified by radius and radial direction (qv = q.v = r*rdot),
    which pins them uniquely on the conic regardless of orientation. Returns
    a nonnegative time; for open orbits None means the target lies in the
    past. Elliptic results are reduced modulo the period, so a same-point
    target returns 0.
    """
    e_scale = max(abs(E), abs(m) / max(r0, 1e-300))
    if m > 0.0 and abs(E) <= _PARABOLIC_REL * e_scale:
        sqm = math.sqrt(m)
        d0 = qv0 / sqm
        d1 = qv1 / sqm
        dt = (p * (d1 - d0) + (d1**3 - d0**3) / 3.0) / (2.0 * sqm)
        return dt if dt >= 0.0 else None
    if E < 0.0:
        a = -m / (2.0 * E)
        n = math.sqrt(m / a**3)
        if e < 1e-12:
            return None  # circular orbits carry no radial information
        sqma = math.sqrt(m * a)

        def mean(r, qv):
            ce = (1.0 - r / a) / e
            se = qv / (e * sqma)
            ea = math.atan2(se, max(min(ce, 1.0), -1.0))
            return ea - e * math.sin(ea)

        dM = (mean(r1, qv1) - mean(r0, qv0)) % (2.0 * math.pi)
        return dM / n
    # unbound: e sinh H - H = M attracting, e sinh H + H = M repelling
    mu = abs(m)
    sign = math.copysign(1.0, m)
    aabs = mu / (2.0 * E)
    n = math.sqrt(mu / aabs**3)
    sqma = math.sqrt(mu * aabs)

    def mean_h(qv):
        H = math.asinh(qv / (e * sqma))
        return e * math.sinh(H) - sign * H

    dt = (mean_h(qv1) - mean_h(qv0)) / n
    return dt if dt >= -1e-15 else None
