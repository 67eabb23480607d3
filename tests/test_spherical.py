import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import pole_chart_clock, spherical_radial_fall_time

from kcbilliards.billiard import next_hit_numeric
from kcbilliards.errors import ConfigError, PoleSingularity, WrongHalfPlane
from kcbilliards.model import (
    POLE_GUARD,
    IntegratorConfig,
    Model,
    PlanarState,
    SphericalState,
    SystemParams,
    Wall,
    spherical_center,
)
import kcbilliards.spherical
from kcbilliards.spherical import (
    _chart_conic,
    _chart_to_sphere,
    _pole_chart,
    _sphere_to_chart,
    _spherical_forms,
    integrate_spherical,
    planar_to_sphere,
    flow_rhs,
    sphere_to_planar,
    spherical_energy_embedded,
    time_change_density,
)
from kcbilliards.verify import correspondence_deviation, geodesic_distance


def tangent_state(q, v_raw):
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q)
    v = np.asarray(v_raw, dtype=float)
    v = v - np.dot(q, v) * q
    return SphericalState(q, v)


def chart_start(params, alpha_r0, r0, angle, psi=0.0, far=False):
    """A spherical start built in the chart of its attracting pole P: at
    radius r0 and azimuth psi, with the speed of alpha r0/mu (alpha = -2E,
    mu = |m'|) at angle off the outward radial; far=True takes the antipode
    (-q, -v) of that start, beyond P's equator."""
    _, turn = _pole_chart(params)
    speed = math.sqrt((2.0 - alpha_r0) * abs(params.m_prime) / r0)
    q, v = _chart_to_sphere(r0 * math.cos(psi), r0 * math.sin(psi),
                            speed * math.cos(psi + angle), speed * math.sin(psi + angle))
    sign = -1.0 if far else 1.0
    return SphericalState.project(sign * (turn.T @ q), sign * (turn.T @ v))


def chart_integrals(ys, params):
    """Whether each sample row (q, v) lies in its attracting pole P's
    hemisphere, and its chart's E, L, A1, A2 (A = (w2 L, -w1 L) - m x/r):
    in P's chart of mass mu = |m'|, or of its antipode (-q, -v), of mass -mu."""
    _, turn = _pole_chart(params)
    q, v = turn @ ys[:, :3].T, turn @ ys[:, 3:].T
    near = q[2] < 0.0
    sign = np.where(near, 1.0, -1.0)
    x1, x2, w1, w2 = _sphere_to_chart(sign * q, sign * v)
    m, r = sign * abs(params.m_prime), np.hypot(x1, x2)
    ell = x1 * w2 - x2 * w1
    return near, np.array([0.5 * (w1 * w1 + w2 * w2) - m / r, ell,
                           w2 * ell - m * x1 / r, -w1 * ell - m * x2 / r])


def rhs_accel(s, params):
    """Acceleration of the embedded spherical flow, read off its RHS."""
    return np.array(flow_rhs(params)(0.0, s.as_array())[3:])


class TestSphericalAccel:
    def test_equator_force_magnitude(self):
        # theta = pi/2 from the center: |force| = m'
        params = SystemParams(m=1.0, a=0.0)  # m' = 1, Z1 = south pole
        s = tangent_state([1.0, 0.0, 0.0], [0.0, 0.3, 0.0])
        acc = rhs_accel(s, params)
        force = acc + s.speed**2 * s.q
        assert np.linalg.norm(force) == pytest.approx(1.0, rel=1e-12)
        # pointing toward Z1 = (0, 0, -1)
        assert force[2] < 0.0
        assert abs(force[0]) < 1e-14 and abs(force[1]) < 1e-14

    def test_free_motion_is_constraint_only(self):
        params = SystemParams(m=1e-300, a=0.0)  # effectively geodesic
        s = tangent_state([0.0, 1.0, 0.0], [1.0, 0.0, 1.0])
        acc = rhs_accel(s, params)
        np.testing.assert_allclose(acc, -s.speed**2 * s.q, atol=1e-12)

    def test_quarter_angle_magnitude(self):
        # theta = pi/4, m' = 2: |force| = 2 / sin^2(pi/4) = 4
        params = SystemParams(m=2.0, a=0.0)
        z1 = spherical_center(params)
        # point at angle pi/4 from Z1
        q = np.array([math.sin(math.pi / 4), 0.0, -math.cos(math.pi / 4)])
        s = tangent_state(q, [0.0, 1.0, 0.0])
        force = rhs_accel(s, params) + s.speed**2 * s.q
        assert np.linalg.norm(force) == pytest.approx(4.0, rel=1e-12)
        assert math.acos(float(np.dot(q, z1))) == pytest.approx(math.pi / 4)

    def test_pole_guard(self):
        params = SystemParams(m=1.0, a=0.0)
        q = np.array([1e-6, 0.0, -1.0])
        s = tangent_state(q, [0.0, 1.0, 0.0])
        with pytest.raises(PoleSingularity):
            rhs_accel(s, params)

    def test_repulsive_points_away(self):
        params = SystemParams(m=-1.0, a=0.0)
        s = tangent_state([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        force = rhs_accel(s, params)
        assert force[2] > 0.0  # away from the south-pole center


def numpy_scalar_flow(params, y):
    """The embedded field evaluated on the numpy scalars of arrays: Z1 and y."""
    z1, q, v = spherical_center(params), y[:3], y[3:]
    c = q[0] * z1[0] + q[1] * z1[1] + q[2] * z1[2]
    sin2 = 1.0 - c * c
    k = params.m_prime / (sin2 * math.sqrt(sin2))
    v2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
    return (v[0], v[1], v[2], k * (z1[0] - c * q[0]) - v2 * q[0],
            k * (z1[1] - c * q[1]) - v2 * q[1], k * (z1[2] - c * q[2]) - v2 * q[2])


def same_bits(got, want) -> bool:
    return np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


class TestFieldsOnPlainFloats:
    def test_embedded_field_keeps_the_numpy_scalar_bits(self):
        rng = np.random.default_rng(24)
        for m, a in [(1.0, 0.5), (-0.7, 1.3)]:
            params = SystemParams(m=m, a=a)
            rhs = flow_rhs(params)
            for _ in range(100):
                s = tangent_state(rng.normal(size=3), rng.normal(size=3) * rng.uniform(0.1, 3.0))
                got = rhs(0.0, s.as_array())
                assert all(type(x) is float for x in got)
                assert same_bits(got, numpy_scalar_flow(params, s.as_array())), s

    def test_chart_field_keeps_the_numpy_scalar_bits(self):
        # the chart field is Levi-Civita's at the chart energy E, with the clock
        # r/(1 + r^2); its third component at u = (1, 0) is E/2 exactly
        params = SystemParams(m=1.0, a=0.5)
        pole, _, sphere_form, _ = _spherical_forms(params)
        rhs = sphere_form(planar_to_sphere(PlanarState(0.5, params.h, 0.3, -0.8), params),
                          0.0, True).rhs
        half_e = rhs(0.0, [1.0, 0.0, 0.0, 0.0, 0.0])[2]
        rng = np.random.default_rng(24)
        for _ in range(200):
            y = rng.normal(size=5) * rng.uniform(0.1, 10.0)
            r = y[0] * y[0] + y[1] * y[1]
            want = (y[2], y[3], half_e * y[0], half_e * y[1], r / (1.0 + r * r))
            got = rhs(0.0, y)
            assert all(type(x) is float for x in got)
            assert same_bits(got, want), y

    @pytest.mark.parametrize("as_array", [False, True])
    def test_pole_guard(self, as_array):
        params = SystemParams(m=1.0, a=0.5)
        z1 = spherical_center(params)
        for q in (z1, -z1):  # both poles lie inside the guard
            # a point inside the guard band, just off the pole
            q = q + 0.1 * math.sqrt(POLE_GUARD) * np.array([1.0, 0.0, 0.0])
            y = np.concatenate([q / np.linalg.norm(q), [0.0, 0.1, 0.0]])
            with pytest.raises(PoleSingularity):
                flow_rhs(params)(0.0, y if as_array else y.tolist())


class TestChartMaps:
    def test_tangency_point(self):
        # the south pole is the wall-chart point (0, h), both ways
        for a in (0.5, 1.0, 3.0):
            params = SystemParams(m=1.0, a=a)
            s = planar_to_sphere(PlanarState(0.0, params.h, 0.0, 0.0), params)
            np.testing.assert_allclose(s.q, [0.0, 0.0, -1.0], atol=1e-15)
            p = sphere_to_planar(SphericalState([0.0, 0.0, -1.0], [0.0, 0.0, 0.0]), params)
            assert p.xi == 0.0
            assert p.eta == pytest.approx(params.h, abs=1e-15)

    def test_normalization(self):
        s = planar_to_sphere(PlanarState(1.0, 0.0, 0.0, 0.0), SystemParams(m=1.0, a=0.0))
        np.testing.assert_allclose(
            s.q, np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0), atol=1e-15
        )

    def test_velocity_at_tangency_is_identity(self):
        params = SystemParams(m=1.0, a=1.0)
        s = planar_to_sphere(PlanarState(0.0, params.h, 1.0, 0.0), params)
        np.testing.assert_allclose(s.v, [1.0, 0.0, 0.0], atol=1e-15)

    def test_inverse_examples(self):
        params = SystemParams(m=1.0, a=1.0)
        p = sphere_to_planar(
            SphericalState(np.array([0.0, 0.0, -1.0]), np.array([0.0, 1.0, 0.0])), params
        )
        assert (p.xi, p.xi_dot) == (0.0, 0.0)
        assert (p.eta, p.eta_dot) == pytest.approx((params.h, 1.0 / math.sqrt(2.0)))
        p2 = sphere_to_planar(SphericalState.project([1.0, 0.0, -1.0], [0.0, 0.0, 0.0]), params)
        assert (p2.xi, p2.eta) == pytest.approx((1.0, params.h))

    def test_round_trip_random(self, rng):
        # the sphere side of the round trip; the planar side is TestNormalizeChart's
        for a in (0.0, 0.5, 1.0, 3.0):
            params = SystemParams(m=1.0, a=a)
            for _ in range(25):
                q = rng.normal(size=3)
                q[2] = -abs(q[2]) - 0.3
                s0 = tangent_state(q, rng.normal(size=3))
                s1 = planar_to_sphere(sphere_to_planar(s0, params), params)
                np.testing.assert_allclose(s1.q, s0.q, rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(s1.v, s0.v, rtol=1e-12, atol=1e-12)

    def test_north_hemisphere_rejected(self):
        params = SystemParams(m=1.0, a=0.5)
        # q_z = -0.0 lies on the boundary as q_z = 0.0 does
        for q in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, -0.0]):
            s = SphericalState.project(q, [0.0, 1.0, 0.0])
            assert math.copysign(1.0, s.q[2]) == math.copysign(1.0, q[2])
            with pytest.raises(WrongHalfPlane):
                sphere_to_planar(s, params)

    def test_time_change_density(self):
        s = planar_to_sphere(PlanarState(1.0, 2.0, 0.0, 0.0), SystemParams(m=1.0, a=0.0))
        assert time_change_density(s) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_kinetic_energy_matches_gnomonic_form(self, rng):
        # embedded |v|^2/2 equals (v^2 + (x yd - y xd)^2)/2 in the a=0 chart
        params = SystemParams(m=1.0, a=0.0)
        for _ in range(50):
            x, y = rng.uniform(-2, 2, size=2)
            xd, yd = rng.uniform(-2, 2, size=2)
            s = planar_to_sphere(PlanarState(x, y, xd, yd), params)
            want = 0.5 * ((xd**2 + yd**2) + (x * yd - y * xd) ** 2)
            assert 0.5 * s.speed**2 == pytest.approx(want, rel=1e-11, abs=1e-12)


class TestNormalizeChart:
    """The affine normalization inside the chart pair of kcbilliards.spherical."""

    def test_identity_at_zero_offset(self, rng):
        # at a = 0 sphere_to_planar is the bare chart map onto z = -1, to the bit
        params = SystemParams(m=1.0, a=0.0)
        for _ in range(25):
            q = rng.normal(size=3)
            q[2] = -abs(q[2]) - 0.3
            s = tangent_state(q, rng.normal(size=3))
            want = [float(c) for c in _sphere_to_chart(s.q, s.v)]
            assert sphere_to_planar(s, params).as_array().tolist() == want

    def test_wall_line_maps_to_h(self, rng):
        # the wall line eta = h and the great circle q_y = 0 are one set
        for a in (0.5, 1.0, 3.0):
            params = SystemParams(m=1.0, a=a)
            for xi in rng.uniform(-3, 3, size=10):
                s = planar_to_sphere(PlanarState(xi, params.h, 0.3, -0.2), params)
                assert abs(s.q[1]) <= 1e-15
                s = SphericalState.project([xi, 0.0, -1.0], [0.1, 0.0, 0.2])
                assert sphere_to_planar(s, params).eta == pytest.approx(params.h, abs=1e-15)

    def test_velocity_scaling(self):
        # at the tangency point the embedded velocity is the chart velocity
        s = SphericalState([0.0, 0.0, -1.0], [0.0, math.sqrt(2.0), 0.0])
        p = sphere_to_planar(s, SystemParams(m=1.0, a=1.0))
        assert p.eta_dot == pytest.approx(1.0)
        assert p.xi_dot == 0.0

    def test_round_trip(self, rng):
        for a in (0.0, 0.5, 1.0, 3.0):
            params = SystemParams(m=1.0, a=a)
            for _ in range(25):
                st = PlanarState(*rng.uniform(-3, 3, size=4))
                back = sphere_to_planar(planar_to_sphere(st, params), params)
                np.testing.assert_allclose(
                    back.as_array(), st.as_array(), rtol=1e-13, atol=1e-13
                )

    def test_metric_norm_becomes_euclidean(self, rng):
        # the chart's transported norm sqrt(xd^2 + yd^2/(1+a^2)) becomes
        # the Euclidean speed of the normalized chart
        for a in (0.5, 2.0):
            params = SystemParams(m=1.0, a=a)
            for _ in range(25):
                xd, yd = rng.uniform(-2, 2, size=2)
                p = sphere_to_planar(SphericalState([0.0, 0.0, -1.0], [xd, yd, 0.0]), params)
                assert math.sqrt(xd * xd + yd * yd / (1.0 + a * a)) == pytest.approx(
                    math.hypot(p.xi_dot, p.eta_dot), rel=1e-13
                )


class TestEmbeddedEnergy:
    def test_equator_state(self):
        params = SystemParams(m=1.0, a=0.0)
        s = tangent_state([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert spherical_energy_embedded(s, params) == pytest.approx(0.5)

    def test_geodesic(self):
        params = SystemParams(m=1e-300, a=0.0)
        s = tangent_state([0.0, 1.0, 0.0], [math.sqrt(2.0), 0.0, 0.0])
        assert spherical_energy_embedded(s, params) == pytest.approx(1.0)

    def test_projected_circular_state(self):
        # planar circular state at a = 0 has zero spherical energy
        params = SystemParams(m=1.0, a=0.0)
        s = planar_to_sphere(PlanarState(1.0, 0.0, 0.0, 1.0), params)
        assert spherical_energy_embedded(s, params) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_matches_chart_expression(self, rng):
        from kcbilliards.integrals import spherical_energy_chart

        for a in (0.0, 0.7, 1.5):
            params = SystemParams(m=1.2, a=a)
            for _ in range(40):
                y = rng.uniform(-2, 2, size=4)
                if math.hypot(y[0], y[1]) < 0.2:
                    continue
                st = PlanarState(*y)
                emb = spherical_energy_embedded(planar_to_sphere(st, params), params)
                chart = spherical_energy_chart(st, params.m, a)
                assert abs(emb - chart) <= 1e-11 * max(1.0, abs(chart))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["Z1", "antipode"])
    def test_pole_is_a_pole_singularity(self, sign):
        # cot(theta) is infinite at either pole of the center's axis
        params = SystemParams(m=1.0, a=0.5)
        s = SphericalState(sign * spherical_center(params), [1.0, 0.0, 0.0])
        with pytest.raises(PoleSingularity, match="inside the pole guard"):
            spherical_energy_embedded(s, params)

    def test_one_state_and_columns_in_either_order_give_the_same_bits(self):
        # test_spherical_run's flow, which passes close to the pole: every
        # sum runs over the last axis elementwise, so the memory layout of
        # the stacked samples does not change a bit
        params = SystemParams(m=1.0, a=1.0)
        s0 = planar_to_sphere(PlanarState(0.5, params.h, 0.3, -0.8), params)
        _, ys = integrate_spherical(s0, np.linspace(0.0, 50.0, 1001), params,
                                    IntegratorConfig(rtol=1e-11, atol=1e-11, max_step=1.0))
        each = [spherical_energy_embedded(SphericalState(y[:3], y[3:]), params) for y in ys]
        for order in "CF":
            rows = np.array(ys, order=order)
            cols = spherical_energy_embedded(SimpleNamespace(q=rows[:, :3], v=rows[:, 3:]), params)
            assert cols.tolist() == each, order


class TestIntegration:
    def test_constraints_with_renormalization(self):
        params = SystemParams(m=1.0, a=0.5)
        s0 = planar_to_sphere(PlanarState(1.0, 0.2, -0.1, 0.9), params)
        ts, ys = integrate_spherical(
            s0, np.linspace(0.0, 100.0, 201), params, IntegratorConfig(rtol=1e-10, atol=1e-10)
        )
        y_end = ys[-1]
        assert abs(np.linalg.norm(y_end[:3]) - 1.0) < 1e-14
        assert abs(np.dot(y_end[:3], y_end[3:])) < 1e-14

    def test_energy_drift_over_long_run(self):
        # DOP853 at rtol 1e-10 leaves ~5e-9 drift over time 100 for this
        # orbit; one decade tighter comfortably meets the 1e-9 bound.
        params = SystemParams(m=1.0, a=0.5)
        s0 = planar_to_sphere(PlanarState(1.0, 0.2, -0.1, 0.9), params)
        e0 = spherical_energy_embedded(s0, params)
        ts, ys = integrate_spherical(
            s0, np.linspace(0.0, 100.0, 201), params, IntegratorConfig(rtol=1e-11, atol=1e-13)
        )
        worst = 0.0
        for y in ys:
            s = SphericalState.project(y[:3], y[3:])
            worst = max(worst, abs(spherical_energy_embedded(s, params) - e0))
        assert worst / max(1.0, abs(e0)) < 1e-9


    def test_samples_match_the_embedded_field_across_both_chart_radii(self):
        # at a = 0 the planar radius is the pole chart's |x|: the orbit runs
        # from 25 to 72 degrees off the pole, across both chart radii of the
        # integrated forms; it is an ellipse of the chart, sampled in closed form
        params = SystemParams(m=1.0, a=0.0)
        s0 = planar_to_sphere(PlanarState(3.0, 0.0, 0.0, 0.3), params)
        want = np.linspace(0.0, 12.5, 401)
        ts, ys = integrate_spherical(s0, want, params, IntegratorConfig(rtol=1e-11, atol=1e-11))
        angle = np.arccos(ys[:, :3] @ spherical_center(params))
        assert angle.min() < math.atan(1.0) and angle.max() > math.atan(2.0)
        assert angle.min() > 0.4
        ref = solve_ivp(flow_rhs(params), (0.0, 12.5), s0.as_array(), method="DOP853",
                        rtol=1e-13, atol=1e-13, t_eval=want)
        assert np.array_equal(ts, want)
        np.testing.assert_allclose(ys, ref.y.T, rtol=0.0, atol=1e-8)
        # with only the two ends sampled, most forms run without a sample
        ts, ends = integrate_spherical(s0, want[[0, -1]], params,
                                       IntegratorConfig(rtol=1e-11, atol=1e-11))
        np.testing.assert_allclose(ends, ref.y.T[[0, -1]], rtol=0.0, atol=1e-8)

    def test_radial_fall_passes_the_pole(self):
        # from rest, the orbit falls into the pole at T, passes it in the
        # chart, and is back at the start at 2T and 4T
        params = SystemParams(m=1.0, a=0.5)
        s0 = planar_to_sphere(PlanarState(1.0, 0.2, 0.0, 0.0), params)
        fall = spherical_radial_fall_time(float(spherical_energy_embedded(s0, params)),
                                          params.m_prime)
        want = fall * np.arange(17) / 4
        ts, ys = integrate_spherical(s0, want, params, IntegratorConfig(rtol=1e-10, atol=1e-10))
        assert np.isfinite(ys).all()
        assert ts[4] == fall
        assert geodesic_distance(ys[4, :3], spherical_center(params)) < 1e-6
        np.testing.assert_allclose(ys[-1], s0.as_array(), rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("alpha_r0, r0, angle, closed", [
        (0.3, 0.5, 0.5, True),     # 5.8 degrees off the pole at its pericentre
        (0.02, 2.0, 1.2, True),    # just above the margin
        (0.005, 2.0, 1.2, False),  # just below it: integrated
        (-0.2, 0.5, 1.2, True),    # unbound in the chart: from 24 degrees off the pole
                                   # it crosses P's equator onto the far branch
    ])
    def test_flow_matches_the_embedded_field_on_either_path(self, monkeypatch, alpha_r0, r0,
                                                             angle, closed):
        # an orbit off the chart's parabola is sampled on its conic and
        # integrates nothing
        params = SystemParams(m=1.0, a=0.5)
        s0 = chart_start(params, alpha_r0, r0, angle)
        calls = []
        monkeypatch.setattr(kcbilliards.spherical, "solve_ivp",
                            lambda *args, **kwargs: calls.append(1) or solve_ivp(*args, **kwargs))
        want = np.linspace(0.0, 5.0, 401)
        _, ys = integrate_spherical(s0, want, params, IntegratorConfig(rtol=1e-12, atol=1e-12))
        assert (not calls) == closed
        ref = solve_ivp(flow_rhs(params), (0.0, 5.0), s0.as_array(), method="DOP853",
                        rtol=1e-13, atol=1e-13, t_eval=want)
        np.testing.assert_allclose(ys, ref.y.T, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("m", [1.0, -1.0])
    def test_unbound_flows_run_both_branches_of_their_chart_hyperbola(self, monkeypatch, m):
        # seeded orbits unbound in P's chart, from either side of P's
        # equator, over 2.2 periods: closed form on the near branch (mass
        # mu) and the far one (the antipodes, mass -mu), with no integration
        calls = []
        monkeypatch.setattr(kcbilliards.spherical, "solve_ivp",
                            lambda *args, **kwargs: calls.append(1) or solve_ivp(*args, **kwargs))
        rng = np.random.default_rng(38 if m > 0 else 39)
        branches = set()
        for k in range(6):
            params = SystemParams(m=m, a=float(rng.uniform(0.0, 1.5)))
            s0 = chart_start(params, -float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.5, 2.0)),
                             float(rng.uniform(0.6, 2.5)), float(rng.uniform(0.0, 2.0 * math.pi)),
                             far=k % 2 == 1)
            period = _chart_conic(s0, params, _pole_chart(params)[1], 0.0).period
            want = np.linspace(0.0, 2.2 * period, 601)
            _, ys = integrate_spherical(s0, want, params)
            ref = solve_ivp(flow_rhs(params), (0.0, want[-1]), s0.as_array(), method="DOP853",
                            rtol=1e-13, atol=1e-13, t_eval=want)
            np.testing.assert_allclose(ys, ref.y.T, rtol=0.0, atol=1e-8)
            near, ints = chart_integrals(ys, params)
            _, start = chart_integrals(s0.as_array()[None], params)
            scale = abs(params.m_prime) + math.hypot(start[2, 0], start[3, 0]) + start[1, 0] ** 2
            np.testing.assert_allclose(ints, np.broadcast_to(start, ints.shape), rtol=0.0,
                                       atol=1e-10 * scale)
            branches |= set(near.tolist())
        assert not calls and branches == {True, False}

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_radial_unbound_flow_passes_the_pole(self, sign):
        # L = 0, so the near branch's pericentre is the pole itself: the
        # closed form passes it by the elastic bounce, as the integrated
        # chart form does, falling in first or rising to the equator first
        params = SystemParams(m=1.0, a=0.0)
        _, turn = _pole_chart(params)
        q, v = _chart_to_sphere(0.8, 0.0, sign * math.sqrt(2.7 / 0.8), 0.0)  # alpha r0/mu = -0.7
        s0 = SphericalState.project(turn.T @ q, turn.T @ v)
        want = np.linspace(0.0, 6.0, 601)
        with np.errstate(all="raise"):
            _, ys = integrate_spherical(s0, want, params)
        ref = kcbilliards.spherical._integrated_samples(s0, want, params,
                                                         IntegratorConfig(rtol=1e-13, atol=1e-13))
        np.testing.assert_allclose(ys[:, :3], (ref[:3] / np.linalg.norm(ref[:3], axis=0)).T,
                                   rtol=0.0, atol=1e-8)
        assert (ys[:, :3] @ _pole_chart(params)[0]).min() < 0.0

    @pytest.mark.parametrize("alpha_r0", [0.5, -1.0])
    def test_samples_lie_on_the_cone_of_their_chart_conic(self, alpha_r0):
        # the chart conic mu r + A.x = L^2, projected centrally, is the cone
        # mu sin(theta) + A.q = L^2 cos(theta) through the sphere's center
        # (theta from P, A in P's plane), on either branch of a hyperbola
        params = SystemParams(m=1.0, a=0.5)
        pole, turn = _pole_chart(params)
        s0 = chart_start(params, alpha_r0, 0.5, 1.2)
        _, ys = integrate_spherical(s0, np.linspace(0.0, 10.0, 1001), params)
        _, (_, ell, a1, a2) = chart_integrals(s0.as_array()[None], params)
        mu, big_a = abs(params.m_prime), turn.T @ np.array([a1[0], a2[0], 0.0])
        q = ys[:, :3]
        cos = q @ pole
        residual = mu * np.linalg.norm(np.cross(q, pole), axis=1) + q @ big_a - ell**2 * cos
        assert np.abs(residual).max() <= 1e-12 * (mu + np.linalg.norm(big_a) + ell[0] ** 2)
        assert (cos < 0.0).any() == (alpha_r0 < 0.0)

    @pytest.mark.parametrize("alpha_r0", [0.5, -1.0])
    def test_samples_near_the_pole_match_the_timing_oracle(self, alpha_r0):
        # an ellipse and a hyperbola's near branch, whose pericentres lie
        # 0.05 and 0.09 degrees off the pole: the closed-form samples within
        # 1 degree of it against chart time by propagate_analytic and tau by
        # quadrature, inverted by brentq (oracles.pole_chart_clock)
        params = SystemParams(m=1.0, a=0.5)
        pole, _ = _pole_chart(params)
        s0 = chart_start(params, alpha_r0, 0.3, math.pi - 0.05)
        want = np.linspace(0.0, 0.3, 3001)
        _, ys = integrate_spherical(s0, want, params)
        close = np.flatnonzero(np.degrees(np.arccos(np.clip(ys[:, :3] @ pole, -1.0, 1.0))) < 1.0)
        assert close.size >= 12
        close = close[::4]  # speeds up to 51 there: scaled by max(1, |value|)
        oracle = pole_chart_clock(s0.q, s0.v, pole, abs(params.m_prime),
                                  np.concatenate([[0.0], want[close]]))
        np.testing.assert_allclose(ys[close], oracle[1:], rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("entry", ["flow", "leg"])
    def test_the_sphere_refuses_beta(self, entry):
        # the spherical force has no beta term, so a flow or a billiard leg
        # called with one would run the beta = 0 sphere under another name
        params = SystemParams(m=1.0, a=0.5, beta=0.3)
        s0 = planar_to_sphere(PlanarState(1.0, 0.2, -0.1, 0.9), params)
        with pytest.raises(ConfigError, match="the spherical flow requires beta = 0"):
            if entry == "flow":
                integrate_spherical(s0, [0.0, 1.0], params)
            else:
                next_hit_numeric(s0, Model(params, Wall.great_circle((0.0, 1.0, 0.0), side=-1)))


class TestCorrespondence:
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
    def test_planar_arc_maps_onto_spherical_flow(self, a):
        params = SystemParams(m=1.0, a=a)
        dist, e_drift = correspondence_deviation(
            PlanarState(1.0, 0.2, -0.1, 0.9), params, t_end=3.0, n_samples=50
        )
        assert dist <= 1e-8
        assert e_drift <= 1e-9

    def test_round_trip_states(self, rng):
        params = SystemParams(m=1.0, a=1.3)
        for _ in range(50):
            y = rng.uniform(-2, 2, size=4)
            if math.hypot(y[0], y[1]) < 0.2:
                continue
            st = PlanarState(*y)
            back = sphere_to_planar(planar_to_sphere(st, params), params)
            np.testing.assert_allclose(
                back.as_array(), st.as_array(), rtol=1e-12, atol=1e-12
            )


def test_geodesic_distance_small_angles():
    q1 = np.array([1.0, 0.0, 0.0])
    q2 = np.array([math.cos(1e-9), math.sin(1e-9), 0.0])
    assert geodesic_distance(q1, q2) == pytest.approx(1e-9, rel=1e-6)
    assert geodesic_distance(q1, q1) == 0.0
