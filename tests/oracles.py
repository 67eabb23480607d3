"""Independent oracles used to derive expected values in tests.

These deliberately avoid the code paths they check: the flow oracle is a
plain high-accuracy ODE integration of the raw vector field, the anomaly
oracle is bisection, the collision oracle integrates the regularized
equations (z = w^2, dt = |w|^2 ds), which are smooth through the center,
and the radial fall time is Kepler's equation on the degenerate conic. On
the sphere the leg oracle integrates the raw embedded field, the radial
fall time is a closed-form integral, and the pole-chart oracle takes the
oscillator of the gnomonic chart in closed form and its clock by
quadrature. The pole-chart clock oracle samples a whole flow the same
way: chart time from the scalar exact propagator, and tau by quadrature
inverted by brentq. The flow sampler oracle runs the package's clock
Newton through scipy's own dense output, sol.sol.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from kcbilliards.errors import NonConvergence
from kcbilliards.model import PlanarState, SystemParams
from kcbilliards.planar import propagate_analytic


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
    return PlanarState(*sol.y[:, -1])


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


def spherical_radial_fall_time(E: float, mu: float, u=None) -> float:
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


def embedded_hit(q, v, m_prime: float, z1, wall_fn, t_max: float = 50.0, tol: float = 1e-13):
    """First crossing of wall_fn(q) from positive to negative along the raw
    embedded spherical field (force m' cot(theta) about z1, constraint term
    -|v|^2 q), with no projection: (t, q, v) at the crossing, or None."""
    z1 = np.asarray(z1, dtype=float)

    def rhs(t, y):
        q, v = y[:3], y[3:]
        c = float(np.dot(q, z1))
        k = m_prime / (1.0 - c * c) ** 1.5
        return np.concatenate([v, k * (z1 - c * q) - np.dot(v, v) * q])

    def g(t, y):
        return wall_fn(y[:3])

    g.terminal = True
    g.direction = -1.0
    sol = solve_ivp(rhs, (0.0, t_max), np.concatenate([q, v]), method="DOP853",
                    rtol=tol, atol=tol, events=g)
    assert sol.success, sol.message
    if not sol.t_events[0].size:
        return None
    y = sol.y_events[0][0]
    return float(sol.t_events[0][0]), y[:3], y[3:]


def pole_chart_hit(q, v, pole, mu: float, radius: float):
    """Where a spherical orbit that starts inside the circle |x| = radius of
    the gnomonic chart at its attracting pole (x = q/(q.P) - P) first
    leaves it: (tau, q, v).

    In the chart the orbit is planar Kepler motion of mass mu with
    w = v (q.P) - q (v.P) = dx/dt and d tau/dt = 1/(1 + |x|^2). In
    Levi-Civita's form (x = u^2, dt/ds = |u|^2) it is the oscillator
    u'' = (E/2) u, taken in closed form, u = u0 cos(k s) + u0' sin(k s)/k
    with k = sqrt(-E/2) (complex for E > 0), so the orbit passes the pole
    by the elastic bounce; the exit is a root of |u(s)|^2 - radius, and
    tau = int r/(1 + r^2) ds by adaptive quadrature. The start must move,
    at a chart energy other than zero.
    """
    pole = np.asarray(pole, dtype=float)
    e1 = np.cross(pole, [0.0, 1.0, 0.0] if abs(pole[0]) > 0.5 else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(pole, e1)
    c = float(np.dot(q, pole))
    xv = q / c - pole
    wv = v * c - q * float(np.dot(v, pole))
    z = complex(np.dot(xv, e1), np.dot(xv, e2))
    zd = complex(np.dot(wv, e1), np.dot(wv, e2))
    E = 0.5 * abs(zd) ** 2 - mu / abs(z)
    u0 = cmath.sqrt(z)
    up0 = zd * abs(u0) ** 2 / (2.0 * u0)
    k = cmath.sqrt(-0.5 * E)

    def u(s):
        return u0 * cmath.cos(k * s).real + up0 * (cmath.sin(k * s) / k).real

    def u_prime(s):
        return -u0 * (k * cmath.sin(k * s)).real + up0 * cmath.cos(k * s).real

    def r(s):
        return abs(u(s)) ** 2

    # the first s where r climbs through the radius, bracketed on a grid fine
    # against both the start's own scale and the oscillator's half period
    ds = 1e-3 * min(abs(u0) / abs(up0), math.pi / abs(k))
    s0 = 0.0
    while not (r(s0) < radius <= r(s0 + ds)):
        s0 += ds
        assert s0 < 1e6, "no exit found"
    s_hit = brentq(lambda s: r(s) - radius, s0, s0 + ds, xtol=1e-16, rtol=1e-15, maxiter=200)
    tau, _ = quad(lambda s: r(s) / (1.0 + r(s) ** 2), 0.0, s_hit, epsabs=0.0, epsrel=1e-13,
                  limit=500)
    uh, uph = u(s_hit), u_prime(s_hit)
    x = uh * uh
    w = 2.0 * uh * uph / abs(uh) ** 2
    x3 = x.real * e1 + x.imag * e2
    w3 = w.real * e1 + w.imag * e2
    lam = math.sqrt(1.0 + abs(x) ** 2)
    qh = (pole + x3) / lam
    vh = w3 * lam - qh * float(np.dot(x3, w3))
    return tau, qh, vh


def pole_chart_clock(q, v, pole, mu: float, taus) -> np.ndarray:
    """The spherical flow from (q, v) at the ascending times taus (taus[0]
    = 0, the start) of the sphere's clock, through the gnomonic chart at
    its attracting pole P, x = q/(q.P) - P, in a basis of P's plane of its
    own, with w = dx/dt = v (q.P) - q (v.P): the (q, v) rows.

    The chart orbit is planar Kepler motion of mass mu, taken at each chart
    time t by propagate_analytic (the scalar universal-variable Newton, not
    the columns or the clock Newton of the code under test). The sphere's
    clock tau(t) = int_0^t dt'/(1 + |x(t')|^2) (Albouy's d tau/dt =
    1/lambda^2) is adaptive quadrature on 40 subintervals of each span
    between samples, inverted by brentq. The start lies in P's hemisphere,
    and every sample before the chart orbit reaches P's equator.
    """
    pole = np.asarray(pole, dtype=float)
    e1 = np.cross(pole, [0.0, 1.0, 0.0] if abs(pole[0]) > 0.5 else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(pole, e1)
    c = float(np.dot(q, pole))
    xv, wv = q / c - pole, v * c - q * float(np.dot(v, pole))
    start = PlanarState(float(xv @ e1), float(xv @ e2), float(wv @ e1), float(wv @ e2))
    chart_params = SystemParams(m=mu, a=0.0)

    def rate(t):
        s = propagate_analytic(start, t, chart_params)
        return 1.0 / (1.0 + s.xi * s.xi + s.eta * s.eta)

    def clock(t0, t1):  # tau(t1) - tau(t0)
        edges = np.linspace(t0, t1, 41)
        return math.fsum(quad(rate, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                         for lo, hi in zip(edges[:-1], edges[1:]))

    rows, t, tau = [np.concatenate([q, v])], 0.0, 0.0
    for target in taus[1:]:
        step = target - tau  # d tau/dt <= 1, so the chart time runs at least this far
        while clock(t, t + step) < target - tau:
            step *= 2.0
        t_new = brentq(lambda t1: clock(t, t1) - (target - tau), t, t + step, xtol=1e-15,
                       rtol=4.0 * np.finfo(float).eps, maxiter=200)
        t, tau = t_new, target
        s = propagate_analytic(start, t, chart_params)
        x3, w3 = s.xi * e1 + s.eta * e2, s.xi_dot * e1 + s.eta_dot * e2
        lam = math.sqrt(1.0 + s.xi * s.xi + s.eta * s.eta)
        qh = (pole + x3) / lam
        rows.append(np.concatenate([qh, w3 * lam - qh * float(np.dot(x3, w3))]))
    return np.array(rows)


def clock_samples_through_sol(sol, form, ts: np.ndarray, max_iter: int = 200) -> np.ndarray:
    """planar._clock_samples, the Newton of _invert_clock, with each
    iteration's states read from scipy's OdeSolution, sol.sol(s): the same
    start, bracket and stopping rule, so the two agree to the bit while
    scipy's interpolant keeps its arithmetic."""
    clocks = form.clock(sol.t, sol.y)
    k = np.searchsorted(clocks, ts).clip(1, sol.t.size - 1)
    lo, hi, s = sol.t[k - 1], sol.t[k], np.interp(ts, clocks, sol.t)
    todo, step = np.arange(ts.size), np.full_like(s, np.inf)
    out = np.empty((sol.y.shape[0], ts.size))
    for _ in range(max_iter):
        if not todo.size:
            return out
        y = sol.sol(s)
        f = form.clock(s, y) - ts[todo]
        done = (np.abs(f) <= 4.0 * np.spacing(np.abs(ts[todo]))) & (form.rate(y) > 0.0) | (
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
