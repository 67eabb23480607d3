"""Independent oracles used to derive expected values in tests.

These deliberately avoid the code paths they check: the flow oracle is a
plain high-accuracy ODE integration of the raw vector field, the anomaly
oracle is bisection, the collision oracle integrates the regularized
equations (z = w^2, dt = |w|^2 ds), which are smooth through the center,
and the radial fall time is Kepler's equation on the degenerate conic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from kcbilliards.model import PlanarState, SystemParams


def ode_propagate(
    state: PlanarState,
    dt: float,
    params: SystemParams,
    rtol: float = 1e-12,
    atol: float = 1e-12,
) -> PlanarState:
    """High-accuracy direct integration of the planar field."""

    def rhs(t, y):
        r = math.hypot(y[0], y[1])
        c = -params.m / r**3
        if params.beta != 0.0:
            c += params.beta / r**4
        return [y[2], y[3], c * y[0], c * y[1]]

    sol = solve_ivp(
        rhs,
        (0.0, dt),
        state.as_array(),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    assert sol.success, sol.message
    return PlanarState.from_array(sol.y[:, -1])


def ode_trajectory(state, t_eval, params, rtol=1e-12, atol=1e-12) -> np.ndarray:
    def rhs(t, y):
        r = math.hypot(y[0], y[1])
        c = -params.m / r**3
        if params.beta != 0.0:
            c += params.beta / r**4
        return [y[2], y[3], c * y[0], c * y[1]]

    t_eval = np.asarray(t_eval, dtype=float)
    sol = solve_ivp(
        rhs,
        (float(t_eval[0]), float(t_eval[-1])),
        state.as_array(),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
    )
    assert sol.success, sol.message
    return sol.y.T


def bisection_kepler_elliptic(M: float, e: float, lo: float, hi: float) -> float:
    """Bisection on E - e sin(E) - M over a bracketing interval."""
    flo = lo - e * math.sin(lo) - M
    fhi = hi - e * math.sin(hi) - M
    assert flo <= 0.0 <= fhi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = mid - e * math.sin(mid) - M
        if fm <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def radial_fall_time(r0: float, speed: float, m: float) -> float:
    """Time a radial infall from r0 at the given speed takes to reach an
    attracting center (m > 0), in closed form on the degenerate conic:
    r = a (1 - cos u), t = sqrt(a^3/m) (u - sin u) when bound (a = m/(2|E|),
    u = 0 at the center), r = a (cosh u - 1), t = sqrt(a^3/m) (sinh u - u)
    when unbound. u - sin u and sinh u - u lose about 1e-16/u^2 relative,
    so these serve |E| r0/m above about 1e-3; an energy within rounding of
    zero takes the parabolic t = sqrt(2 r0^3/m)/3.
    """
    assert m > 0.0
    energy = 0.5 * speed * speed - m / r0
    if abs(energy) <= 1e-14 * m / r0:
        return math.sqrt(2.0 * r0**3 / m) / 3.0
    a = m / (2.0 * abs(energy))
    if energy < 0.0:
        u = 2.0 * math.asin(math.sqrt(0.5 * r0 / a))
        return math.sqrt(a**3 / m) * (u - math.sin(u))
    u = 2.0 * math.asinh(math.sqrt(0.5 * r0 / a))
    return math.sqrt(a**3 / m) * (math.sinh(u) - u)


def levi_civita_through_collision(state: PlanarState, params: SystemParams):
    """Integrate a radial infall through the collision in regularized form.

    Variables (w, w') with z = w^2 and fictitious time ds = dt/|w|^2; the
    regularized equation w'' = (E/2) w is smooth at the center. Returns a
    callable mapping physical time t to a PlanarState on the continued
    orbit, plus the collision time.
    """
    m = params.m
    z0 = complex(state.xi, state.eta)
    zd0 = complex(state.xi_dot, state.eta_dot)
    E = 0.5 * abs(zd0) ** 2 - m / abs(z0)
    w0 = np.sqrt(complex(z0))
    wp0 = zd0 * abs(w0) ** 2 / (2.0 * w0)

    def rhs(s, y):
        w = complex(y[0], y[1])
        wp = complex(y[2], y[3])
        wpp = 0.5 * E * w
        r = abs(w) ** 2
        return [wp.real, wp.imag, wpp.real, wpp.imag, r]

    # integrate far enough in fictitious time to pass the collision and return
    r0 = abs(z0)
    s_span = 8.0 * math.sqrt(r0 / max(abs(E), m / r0))
    sol = solve_ivp(
        rhs,
        (0.0, s_span),
        [w0.real, w0.imag, wp0.real, wp0.imag, 0.0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-13,
        dense_output=True,
    )
    assert sol.success

    def state_at_time(t: float) -> PlanarState:
        from scipy.optimize import brentq

        s_hi = sol.t[-1]
        assert sol.sol(s_hi)[4] >= t, "fictitious-time span too short"
        s_t = brentq(lambda s: sol.sol(s)[4] - t, 0.0, s_hi, xtol=1e-14)
        y = sol.sol(s_t)
        w = complex(y[0], y[1])
        wp = complex(y[2], y[3])
        z = w * w
        zd = 2.0 * w * wp / (abs(w) ** 2)
        return PlanarState(z.real, z.imag, zd.real, zd.imag)

    # collision: the first zero of |w(s)|^2 with s > 0 (a bound orbit has
    # one per period), bracketed by the first sample where |w| stops
    # falling and starts growing, refined on the dense output
    from scipy.optimize import minimize_scalar

    step = np.diff(np.abs(sol.y[0] + 1j * sol.y[1]))
    turns = np.flatnonzero((step[:-1] <= 0.0) & (step[1:] > 0.0))
    assert turns.size, "fictitious-time span ends before the collision"
    lo, hi = sol.t[turns[0]], sol.t[turns[0] + 2]
    res = minimize_scalar(
        lambda s: sol.sol(s)[0] ** 2 + sol.sol(s)[1] ** 2,
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-14},
    )
    t_coll = float(sol.sol(res.x)[4])
    return state_at_time, t_coll
