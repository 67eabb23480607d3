"""Acceptance suite: one test per criterion, each printing a PASS line;
criterion 6 runs on both maps.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines. Tolerances are pinned here and never relaxed at runtime.

The integrable line-wall billiard runs (criteria 3, 6, 7) use the bound
configuration: attractive center (m = +1), offset a = 1, dynamics on the
wall side away from the center, where negative-energy arcs guarantee
repeated wall hits. See the project notes for why a repulsive center
admits no 100-bounce bound orbit.
"""

import math
import time

import numpy as np

from oracles import ode_propagate

from kcbilliards.billiard import (
    billiard_map,
    next_hit_analytic_line,
    next_hit_numeric,
)
from kcbilliards.conformal import (
    hooke_invariant,
    line_image_wall,
    transport_trajectory,
)
from kcbilliards.integrals import gj_integral, planar_energy, spherical_energy_chart
from kcbilliards.model import (
    BounceRecord,
    IntegratorConfig,
    PlanarState,
    SystemParams,
    Wall,
    validate_config,
)
from kcbilliards.planar import propagate_analytic, solve_kepler_equation
from kcbilliards.spherical import planar_to_sphere
from kcbilliards.verify import bound_wall_states, correspondence_deviation

TIGHT = IntegratorConfig(rtol=1e-12, atol=1e-12)

# bound billiard configuration shared by criteria 3, 6 and 7
BILLIARD_PARAMS = SystemParams(m=1.0, a=1.0)
BILLIARD_START = PlanarState(0.5, BILLIARD_PARAMS.h, 0.3, -0.8)

# regression level for criterion 7, measured once at rtol = atol = 1e-12
D_VARIATION_REGRESSION = 9.1625e-2


def report(name: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_criterion_1_reflection_d_invariance():
    tol = 1e-12
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for a in (0.0, 0.5, 1.0, 3.0):
        h = -a / math.sqrt(1.0 + a * a)
        for m in (-1.0, 1.0):
            n = 1250
            xi = rng.uniform(-3.0, 3.0, n)
            xd = rng.uniform(-2.0, 2.0, n)
            ed = rng.uniform(-2.0, 2.0, n)
            for i in range(n):
                if xi[i] == 0.0 and h == 0.0:
                    continue
                s = PlanarState(xi[i], h, xd[i], ed[i])
                s_ref = PlanarState(xi[i], h, xd[i], -ed[i])
                d0 = gj_integral(s, m, h)
                d1 = gj_integral(s_ref, m, h)
                worst = max(worst, abs(d1 - d0) / max(1.0, abs(d0)))
                count += 1
    elapsed = time.perf_counter() - t0
    report(
        "1 reflection-D-invariance",
        worst <= tol and elapsed < 1.0,
        f"max |dD| = {worst:.2e} <= {tol}, {count} states, {elapsed:.2f}s < 1s",
    )


def test_criterion_2_spherical_energy_identity():
    tol = 1e-12
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for a in (0.0, 0.5, 1.0, 3.0):
        h = -a / math.sqrt(1.0 + a * a)
        for m in (-1.0, 1.0):
            for _ in range(1250):
                xi, eta = rng.uniform(-3, 3, size=2)
                if math.hypot(xi, eta) < 0.1:
                    continue
                xd, ed = rng.uniform(-2, 2, size=2)
                s = PlanarState(xi, eta, xd, ed)
                e_sph = spherical_energy_chart(s, m, a)
                ident = (1 + a * a) * (
                    planar_energy(s, m) + 0.5 * gj_integral(s, m, h)
                )
                worst = max(
                    worst, abs(e_sph - ident) / max(1.0, abs(e_sph))
                )
                count += 1
    elapsed = time.perf_counter() - t0
    report(
        "2 spherical-energy-identity",
        worst <= tol and elapsed < 1.0,
        f"max residual = {worst:.2e} <= {tol}, {count} states, {elapsed:.2f}s < 1s",
    )


def test_criterion_3_billiard_conservation():
    tol = 1e-8
    model = validate_config(
        BILLIARD_PARAMS, Wall.line(BILLIARD_PARAMS.h, side=-1)
    )
    t0 = time.perf_counter()
    run = billiard_map(BILLIARD_START, 100, model, mode="numeric", integ=TIGHT)
    elapsed = time.perf_counter() - t0
    assert run.n_bounces == 100, f"expected 100 bounces, got {run.n_bounces}"
    E = [r.integrals_in.E_pl for r in run.records]
    D = [r.integrals_in.D for r in run.records]
    drift_e = max(abs(e - E[0]) for e in E) / max(1.0, abs(E[0]))
    drift_d = max(abs(d - D[0]) for d in D) / max(1.0, abs(D[0]))
    report(
        "3 billiard-conservation",
        drift_e <= tol and drift_d <= tol and elapsed < 10.0,
        f"E_pl drift {drift_e:.2e}, D drift {drift_d:.2e} <= {tol}, "
        f"100 bounces, {elapsed:.1f}s < 10s",
    )


def test_criterion_4_analytic_vs_numeric():
    tol = 1e-8
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for a in (0.5, 1.0):
        params = SystemParams(m=1.0, a=a)
        wall = Wall.line(params.h, side=-1)
        model = validate_config(params, wall)
        for s in bound_wall_states(rng, 50, params):
            out_a = next_hit_analytic_line(s, params, wall)
            out_n = next_hit_numeric(s, model, TIGHT)
            assert all(isinstance(o, BounceRecord) and not o.tangent for o in (out_a, out_n))
            diff = np.max(
                np.abs(out_a.state_in.as_array() - out_n.state_in.as_array())
            )
            worst = max(worst, float(diff))
            count += 1
    elapsed = time.perf_counter() - t0
    report(
        "4 analytic-vs-numeric",
        worst <= tol and count >= 100 and elapsed < 30.0,
        f"max state diff {worst:.2e} <= {tol}, {count} states, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_5_projection_correspondence():
    t0 = time.perf_counter()
    dist, e_drift = correspondence_deviation(
        PlanarState(1.0, 0.2, -0.1, 0.9),
        SystemParams(m=1.0, a=0.5),
        t_end=3.0,
        n_samples=50,
    )
    elapsed = time.perf_counter() - t0
    report(
        "5 projection-correspondence",
        dist <= 1e-8 and e_drift <= 1e-9 and elapsed < 5.0,
        f"max geodesic distance {dist:.2e} <= 1e-8, "
        f"E_sph drift {e_drift:.2e} <= 1e-9, {elapsed:.1f}s < 5s",
    )


def test_criterion_6_spherical_billiard():
    tol = 1e-8
    wall = Wall.great_circle((0.0, 1.0, 0.0), side=-1)
    model = validate_config(BILLIARD_PARAMS, wall)
    s0 = planar_to_sphere(BILLIARD_START, BILLIARD_PARAMS)
    run = billiard_map(s0, 100, model, mode="numeric", integ=TIGHT)
    assert run.n_bounces == 100
    es = [r.integrals_in.E_sph for r in run.records]
    ep = [r.integrals_in.E_pl for r in run.records]
    drift_s = max(abs(e - es[0]) for e in es) / max(1.0, abs(es[0]))
    drift_p = max(abs(e - ep[0]) for e in ep) / max(1.0, abs(ep[0]))
    report(
        "6 spherical-billiard",
        drift_s <= tol and drift_p <= tol,
        f"E_sph drift {drift_s:.2e}, projected E_pl drift {drift_p:.2e} <= {tol}, "
        "100 bounces",
    )


def test_criterion_6_spherical_billiard_on_exact_chart_legs(monkeypatch):
    # the same run on billiard_map(mode="analytic"): every leg is bound in
    # the attracting pole's chart, so none integrates
    import kcbilliards.billiard

    def no_integration(*args, **kwargs):
        raise AssertionError("a leg integrated")

    tol = 1e-8
    monkeypatch.setattr(kcbilliards.billiard, "solve_ivp", no_integration)
    wall = Wall.great_circle((0.0, 1.0, 0.0), side=-1)
    model = validate_config(BILLIARD_PARAMS, wall)
    s0 = planar_to_sphere(BILLIARD_START, BILLIARD_PARAMS)
    start = time.perf_counter()
    run = billiard_map(s0, 100, model, mode="analytic", integ=TIGHT)
    elapsed = time.perf_counter() - start
    assert run.n_bounces == 100
    es = [r.integrals_in.E_sph for r in run.records]
    ep = [r.integrals_in.E_pl for r in run.records]
    drift_s = max(abs(e - es[0]) for e in es) / max(1.0, abs(es[0]))
    drift_p = max(abs(e - ep[0]) for e in ep) / max(1.0, abs(ep[0]))
    report(
        "6 spherical-billiard (exact chart legs)",
        drift_s <= tol and drift_p <= tol,
        f"E_sph drift {drift_s:.2e}, projected E_pl drift {drift_p:.2e} <= {tol}, "
        f"100 bounces in {elapsed * 1e3:.0f} ms, no integration",
    )


def test_criterion_7_nonintegrable_contrast():
    params = SystemParams(m=BILLIARD_PARAMS.m, a=BILLIARD_PARAMS.a, beta=0.3)
    model = validate_config(params, Wall.line(params.h, side=-1))
    run = billiard_map(BILLIARD_START, 100, model, mode="numeric", integ=TIGHT)
    assert run.n_bounces == 100
    E = [r.integrals_in.E_pl for r in run.records]
    D = [r.integrals_in.D for r in run.records]
    drift_e = max(abs(e - E[0]) for e in E) / max(1.0, abs(E[0]))
    var_d = max(abs(d - D[0]) for d in D)
    in_band = abs(var_d - D_VARIATION_REGRESSION) <= 0.05 * D_VARIATION_REGRESSION
    report(
        "7 nonintegrable-contrast",
        var_d > 1e-3 and drift_e <= 1e-8 and in_band,
        f"D variation {var_d:.4e} > 1e-3 (regression {D_VARIATION_REGRESSION}), "
        f"E_pl drift {drift_e:.2e} <= 1e-8",
    )


def test_criterion_7_nonintegrable_contrast_on_exact_legs(monkeypatch):
    # the same run on billiard_map(mode="analytic"): every leg is a Kepler
    # conic turned as it is swept (Newton's revolving orbits), so none integrates
    import kcbilliards.billiard

    def no_integration(*args, **kwargs):
        raise AssertionError("a leg integrated")

    monkeypatch.setattr(kcbilliards.billiard, "solve_ivp", no_integration)
    params = SystemParams(m=BILLIARD_PARAMS.m, a=BILLIARD_PARAMS.a, beta=0.3)
    model = validate_config(params, Wall.line(params.h, side=-1))
    start = time.perf_counter()
    run = billiard_map(BILLIARD_START, 100, model, mode="analytic")
    elapsed = time.perf_counter() - start
    assert run.n_bounces == 100
    E = [r.integrals_in.E_pl for r in run.records]
    D = [r.integrals_in.D for r in run.records]
    drift_e = max(abs(e - E[0]) for e in E) / max(1.0, abs(E[0]))
    var_d = max(abs(d - D[0]) for d in D)
    in_band = abs(var_d - D_VARIATION_REGRESSION) <= 0.05 * D_VARIATION_REGRESSION
    report(
        "7 nonintegrable-contrast (exact revolving legs)",
        var_d > 1e-3 and drift_e <= 1e-8 and in_band,
        f"D variation {var_d:.4e} > 1e-3 (regression {D_VARIATION_REGRESSION}), "
        f"E_pl drift {drift_e:.2e} <= 1e-8, 100 bounces in {elapsed * 1e3:.0f} ms, "
        "no integration",
    )


def test_criterion_8_conformal_transport():
    params = BILLIARD_PARAMS
    model = validate_config(params, Wall.line(params.h, side=-1))
    run = billiard_map(BILLIARD_START, 6, model, mode="analytic")
    E = planar_energy(BILLIARD_START, params.m)
    zs, zds = [], []
    hit_idx = []
    state = BILLIARD_START
    t_prev = 0.0
    for rec in run.records:
        leg = rec.t_hit - t_prev
        for k in range(30):
            s = propagate_analytic(state, leg * k / 30.0, params)
            zs.append(complex(s.xi, s.eta))
            zds.append(complex(s.xi_dot, s.eta_dot))
        zs.append(complex(rec.state_in.xi, rec.state_in.eta))
        zds.append(complex(rec.state_in.xi_dot, rec.state_in.eta_dot))
        hit_idx.append(len(zs) - 1)
        state = rec.state_out
        t_prev = rec.t_hit
    ws = transport_trajectory(zs, zds)
    inv_worst = max(abs(hooke_invariant(w, wp, E) - params.m) for w, wp in ws)
    wall_img = line_image_wall(params.h)
    wall_worst = max(abs(wall_img.implicit(ws[i][0])) for i in hit_idx)
    report(
        "8 conformal-transport",
        inv_worst <= 1e-10 and wall_worst <= 1e-10,
        f"Hooke invariant residual {inv_worst:.2e} <= 1e-10, "
        f"wall-image residual {wall_worst:.2e} <= 1e-10, {len(ws)} samples",
    )


def test_criterion_9_kepler_solver_suite():
    res_tol = 1e-13
    worst = 0.0
    for e in (0.0, 0.3, 0.9, 0.999, 1.0, 1.5, 5.0):
        for M in (-7.3, -1.1, -0.2, 0.0, 0.15, 0.9, 2.4, 12.0):
            x = solve_kepler_equation(M, e)
            if e < 1.0:
                r = abs(x - e * math.sin(x) - M)
            elif e == 1.0:
                r = abs(x + x**3 / 3.0 - M)
            else:
                r = abs(e * math.sinh(x) - x - M)
            worst = max(worst, r / max(1.0, abs(M)))
    assert worst <= res_tol

    # analytic propagator against the ODE oracle over one period or arc
    prop_tol = 1e-9
    cases = [
        (SystemParams(m=1.0), PlanarState(1.2, 0.3, -0.2, 0.8), None),  # ellipse
        (SystemParams(m=1.0), PlanarState(1.0, 0.0, 0.0, math.sqrt(2.0)), 2.0),
        (SystemParams(m=1.0), PlanarState(1.5, -0.4, 0.9, 1.1), 2.0),  # hyperbola
        (SystemParams(m=-1.0), PlanarState(1.0, -0.8, 0.3, 0.9), 2.0),  # repulsive
    ]
    prop_worst = 0.0
    for params, s0, dt in cases:
        if dt is None:  # one period 2 pi a^(3/2) / sqrt(m) of the ellipse
            a = -params.m / (2.0 * planar_energy(s0, params.m))
            dt = 2.0 * math.pi * math.sqrt(a**3 / params.m)
        got = propagate_analytic(s0, dt, params)
        want = ode_propagate(s0, dt, params, rtol=1e-13, atol=1e-13)
        prop_worst = max(
            prop_worst, float(np.max(np.abs(got.as_array() - want.as_array())))
        )
    report(
        "9 kepler-solver-suite",
        worst <= res_tol and prop_worst <= prop_tol,
        f"anomaly residual {worst:.2e} <= {res_tol}, "
        f"propagator vs oracle {prop_worst:.2e} <= {prop_tol}",
    )
