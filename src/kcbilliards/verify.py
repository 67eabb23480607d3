"""Seeded property checks shared by the CLI ``verify`` command and tests.

Each check draws pseudo-random states from a seeded generator, measures
the worst violation of one structural property, and reports it against
the property's tolerance. The properties are the algebraic heart of the
package: reflection invariance of D at the wall line, the identity
between the spherical energy and (1+a^2)(E_pl + D/2), agreement of the
analytic and numeric billiard maps, and the plane-sphere trajectory
correspondence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List

import numpy as np

from .billiard import Escape, next_hit_analytic_line, next_hit_numeric, reflect
from .errors import ConfigError, StepFailure
from .integrals import gj_integral, planar_columns, planar_energy, spherical_energy_chart
from .model import (
    IntegratorConfig,
    PlanarState,
    SphericalState,
    SystemParams,
    Wall,
    solve_ivp,
    validate_config,
)
from .planar import propagate_analytic
from .spherical import flow_rhs as spherical_flow_rhs
from .spherical import planar_to_sphere, spherical_energy_embedded


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_err: float
    tol: float
    cases: int


def geodesic_distance(q1, q2) -> float:
    """Great-circle distance between unit vectors, accurate at small angles."""
    chord = float(np.linalg.norm(np.asarray(q1) - np.asarray(q2)))
    return 2.0 * math.asin(min(chord / 2.0, 1.0))


def random_states(rng: np.random.Generator, n: int) -> np.ndarray:
    """n random chart states (xi, eta, xi_dot, eta_dot) with r > 0.1."""
    out = np.empty((n, 4))
    filled = 0
    while filled < n:
        batch = rng.uniform(-3.0, 3.0, size=(n - filled, 4))
        batch[:, 2:] *= 2.0 / 3.0
        keep = np.hypot(batch[:, 0], batch[:, 1]) > 0.1
        k = int(np.count_nonzero(keep))
        out[filled : filled + k] = batch[keep]
        filled += k
    return out


def check_reflection_d_invariance(seed: int, cases: int) -> CheckResult:
    """D is exactly invariant under reflect at the wall line."""
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = 0.0
    total = 0
    for a in (0.0, 0.5, 1.0, 3.0):
        for m in (-1.0, 1.0):
            h = SystemParams(m, a).h
            wall = Wall.line(h)
            n = max(1, cases // 8)
            xi = rng.uniform(-3.0, 3.0, n)
            xd = rng.uniform(-2.0, 2.0, n)
            ed = rng.uniform(-2.0, 2.0, n)
            y_in = np.column_stack((xi, np.full(n, h), xd, ed))[(xi != 0.0) | (h != 0.0)]
            y_out = np.array([reflect(PlanarState(*y), wall) for y in y_in.tolist()]).reshape(-1, 4)
            d_in = gj_integral(planar_columns(y_in), m, h)
            d_out = gj_integral(planar_columns(y_out), m, h)
            err = np.abs(d_out - d_in) / np.maximum(1.0, np.abs(d_in))
            worst = max(worst, float(np.max(err, initial=0.0)))
            total += len(y_in)
    return CheckResult("reflection-D-invariance", worst <= tol, worst, tol, total)


def check_spherical_energy_identity(seed: int, cases: int) -> CheckResult:
    """E_sph from the chart expression equals (1+a^2)(E_pl + D/2)."""
    rng = np.random.default_rng(seed)
    tol = 1e-12
    worst = 0.0
    total = 0
    for a in (0.0, 0.5, 1.0, 3.0):
        for m in (-1.0, 1.0):
            h = SystemParams(m, a).h
            s = planar_columns(random_states(rng, max(1, cases // 8)))
            e_sph = spherical_energy_chart(s, m, a)
            rhs = (1.0 + a * a) * (planar_energy(s, m) + 0.5 * gj_integral(s, m, h))
            err = np.abs(e_sph - rhs) / np.maximum(1.0, np.abs(e_sph))
            worst = max(worst, float(np.max(err)))
            total += len(err)
    return CheckResult("spherical-energy-identity", worst <= tol, worst, tol, total)


def bound_wall_states(
    rng: np.random.Generator, n: int, params: SystemParams
) -> List[PlanarState]:
    """States on the wall line moving into the bound side (E < 0 arcs,
    with the beta term beta/(2 r^2) in E)."""
    h = params.h
    out: List[PlanarState] = []
    while len(out) < n:
        xi = float(rng.uniform(-1.5, 1.5))
        if xi == 0.0 and h == 0.0:
            continue
        r = math.hypot(xi, h)
        v_esc = math.sqrt(2.0 * (params.m / r - params.beta / (2.0 * r * r)))
        speed = float(rng.uniform(0.3, 0.9)) * v_esc
        phi = float(rng.uniform(math.pi + 0.15, 2.0 * math.pi - 0.15))
        out.append(
            PlanarState(xi, h, speed * math.cos(phi), speed * math.sin(phi))
        )
    return out


def check_analytic_vs_numeric(seed: int, cases: int) -> CheckResult:
    """Analytic and numeric line-wall hits (the latter at rtol = atol =
    1e-12) agree in position, velocity and time to 1e-8: half the cases
    at a = 0.5, and at a = 1 the other half, split between beta = 0 and
    beta = 0.3 (the revolving conic of the exact map)."""
    rng = np.random.default_rng(seed)
    agree_tol = 1e-8
    worst = 0.0
    total = 0
    integ = IntegratorConfig(rtol=1e-12, atol=1e-12)
    half = max(1, cases // 2)
    for a, beta, n in ((0.5, 0.0, half), (1.0, 0.0, half - half // 2), (1.0, 0.3, half // 2)):
        params = SystemParams(m=1.0, a=a, beta=beta)
        wall = Wall.line(params.h, side=-1)
        model = validate_config(params, wall)
        for s in bound_wall_states(rng, n, params):
            out_a = next_hit_analytic_line(s, params, wall)
            out_n = next_hit_numeric(s, model, integ)
            if isinstance(out_a, Escape) or isinstance(out_n, Escape):
                # both certify the same outcome or the case is skipped
                if type(out_a) is not type(out_n):
                    worst = math.inf
                total += 1
                continue
            sa = out_a.state_in.as_array()
            sn = out_n.state_in.as_array()
            err = float(np.max(np.abs(sa - sn)))
            err = max(err, abs(out_a.t_hit - out_n.t_hit))
            worst = max(worst, err)
            total += 1
    return CheckResult("analytic-vs-numeric-hit", worst <= agree_tol, worst, agree_tol, total)


def correspondence_deviation(
    state0: PlanarState,
    params: SystemParams,
    t_end: float,
    n_samples: int = 50,
):
    """Deviation between a projected planar arc and the spherical flow.

    Takes exact planar samples on the conic (propagate_analytic, so
    params.beta = 0), maps them to the sphere, and compares them pointwise
    with the spherical trajectory integrated at rtol = atol = 1e-12 from
    the mapped initial state. The spherical field is scaled by
    d tau / d t = q_z^2, so that trajectory runs on the planar clock and
    is sampled at the same times. A failed integration raises StepFailure.

    Returns:
        (max geodesic distance, relative spherical-energy drift).
    """
    ts = np.linspace(0.0, t_end, n_samples)
    s_sph0 = planar_to_sphere(state0, params)
    rhs_sph = spherical_flow_rhs(params)

    def rhs_planar_clock(t, y):
        qz2 = y[2] * y[2]
        return [qz2 * d for d in rhs_sph(t, y)]

    sol_sph = solve_ivp(
        rhs_planar_clock,
        (0.0, t_end),
        s_sph0.as_array(),
        method="DOP853",
        t_eval=ts,
        rtol=1e-12,
        atol=1e-12,
    )
    if not sol_sph.success:
        raise StepFailure(f"spherical oracle integration failed: {sol_sph.message}")
    max_dist = 0.0
    e0 = spherical_energy_embedded(s_sph0, params)
    e_drift = 0.0
    for t_k, y_sph in zip(ts, sol_sph.y.T):
        q_mapped = planar_to_sphere(propagate_analytic(state0, t_k, params), params).q
        s_k = SphericalState.project(y_sph[:3], y_sph[3:])
        max_dist = max(max_dist, geodesic_distance(s_k.q, q_mapped))
        e_k = spherical_energy_embedded(s_k, params)
        e_drift = max(e_drift, abs(e_k - e0) / max(1.0, abs(e0)))
    return max_dist, e_drift


def check_projection_correspondence() -> CheckResult:
    """A planar Kepler arc maps onto the spherical trajectory pointwise."""
    params = SystemParams(m=1.0, a=0.5)
    state0 = PlanarState(1.0, 0.2, -0.1, 0.9)
    dist, _ = correspondence_deviation(state0, params, t_end=3.0, n_samples=50)
    tol = 1e-8
    return CheckResult("projection-correspondence", dist <= tol, dist, tol, 50)


def run_suite(seed: int, cases: int, inject_fault: bool = False) -> dict:
    """Run every check; deterministic for a fixed (seed, cases). ConfigError
    if seed < 0 or cases < 1."""
    if seed < 0 or cases < 1:
        raise ConfigError(f"verify needs seed >= 0 and cases >= 1, not {seed} and {cases}")
    anv_cases = max(6, min(60, cases // 100))
    results = [
        check_reflection_d_invariance(seed, cases),
        check_spherical_energy_identity(seed + 1, cases),
        check_analytic_vs_numeric(seed + 2, anv_cases),
        check_projection_correspondence(),
    ]
    if inject_fault:
        results.append(
            CheckResult("injected-fault", False, math.inf, 0.0, 1)
        )
    return {
        "seed": seed,
        "cases": cases,
        "passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
