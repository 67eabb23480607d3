import hashlib
import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from oracles import (
    embedded_hit,
    ode_propagate,
    pole_chart_hit,
    radial_fall_time,
    spherical_radial_fall_time,
)
from test_acceptance import BILLIARD_PARAMS, BILLIARD_START

import kcbilliards.billiard
from kcbilliards.billiard import (
    ON_WALL_TOL,
    Escape,
    _normal,
    _wall_rate,
    billiard_map,
    next_hit_analytic_line,
    next_hit_numeric,
    reflect,
    wall_signed_distance,
)
from kcbilliards.errors import BilliardError, ConfigError, DynamicsError, StepFailure, Undetermined
from kcbilliards.integrals import integral_set, planar_energy
from kcbilliards.model import (
    BounceRecord,
    IntegratorConfig,
    Model,
    PlanarState,
    SphericalState,
    SystemParams,
    Wall,
    spherical_center,
    validate_config,
)
from kcbilliards.planar import (
    time_of_flight,
    universal_kernel,
    universal_state,
)
from kcbilliards.spherical import planar_to_sphere, spherical_energy_embedded

S3 = math.sqrt(3.0)
FAST = IntegratorConfig(rtol=1e-12, atol=1e-12)
TIGHT = IntegratorConfig(rtol=1e-13, atol=1e-13)
H05 = SystemParams(m=1.0, a=0.5).h


def is_hit(out):
    """A leg outcome that is a bounce and not a graze."""
    return isinstance(out, BounceRecord) and not out.tangent


@pytest.fixture
def seam_calls(monkeypatch):
    """Counts of the calls of billiard's module attributes reflect and
    integral_set, the names a traced run wraps."""
    calls = {"reflect": 0, "integral_set": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in calls:
        fn = getattr(kcbilliards.billiard, name)
        monkeypatch.setattr(kcbilliards.billiard, name, counting(name, fn))
    return calls


@pytest.fixture
def ivp_calls(monkeypatch):
    """A list that grows by one at each solve_ivp call of the numeric engine."""
    calls = []
    solve = kcbilliards.billiard.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(kcbilliards.billiard, "solve_ivp", counting_solve_ivp)
    return calls


def circle_wall_params():
    params = SystemParams(m=1.0, a=1.0 / S3)  # h = -1/2
    wall = Wall.line(params.h, side=1)
    return params, wall


class TestSignedDistance:
    def test_line(self):
        assert wall_signed_distance((1.0, 0.5), Wall.line(0.0)) == 0.5

    def test_circle(self):
        assert wall_signed_distance((0.0, 1.0), Wall.centered_circle(2.0)) == -1.0

    def test_great_circle_on_wall(self):
        w = Wall.great_circle((1.0, 0.0, 0.0))
        assert wall_signed_distance(np.array([0.0, 0.0, -1.0]), w) == 0.0

    def test_side_flips_sign(self):
        assert wall_signed_distance((1.0, 0.5), Wall.line(0.0, side=-1)) == -0.5

    def test_small_circle(self):
        z1 = (0.0, 0.0, -1.0)
        w = Wall.centered_small_circle(math.pi / 3, z1)
        q = np.array([0.0, 0.0, -1.0])
        assert wall_signed_distance(q, w) == pytest.approx(1.0 - 0.5)


class TestReflect:
    def test_line_normal_flip(self):
        wall = Wall.line(0.0)
        s = PlanarState(1.0, 0.0, 0.3, -0.7)
        out = reflect(s, wall)
        assert (out.xi_dot, out.eta_dot) == (0.3, 0.7)

    def test_circle_radial_flip(self):
        wall = Wall.centered_circle(2.0)
        s = PlanarState(2.0, 0.0, -1.0, 0.2)
        out = reflect(s, wall)
        np.testing.assert_allclose(
            [out.xi_dot, out.eta_dot], [1.0, 0.2], atol=1e-15
        )

    def test_great_circle_example(self):
        wall = Wall.great_circle((1.0, 0.0, 0.0))
        s = SphericalState(np.array([0.0, 0.0, -1.0]), np.array([0.5, 0.2, 0.0]))
        out = reflect(s, wall)
        np.testing.assert_allclose(out.v, [-0.5, 0.2, 0.0], atol=1e-15)

    def test_line_involution_is_exact(self):
        wall = Wall.line(-0.5)
        s = PlanarState(0.7, -0.5, 1.1, -0.4)
        out = reflect(reflect(s, wall), wall)
        assert out == s

    def test_circle_involution(self, rng):
        wall = Wall.centered_circle(1.5)
        for _ in range(30):
            th = rng.uniform(0, 2 * math.pi)
            s = PlanarState(
                1.5 * math.cos(th), 1.5 * math.sin(th), *rng.uniform(-2, 2, 2)
            )
            out = reflect(reflect(s, wall), wall)
            np.testing.assert_allclose(out.as_array(), s.as_array(), atol=1e-15)

    def test_kinetic_energy_preserved(self, rng):
        wall = Wall.centered_circle(1.0)
        for _ in range(50):
            th = rng.uniform(0, 2 * math.pi)
            s = PlanarState(math.cos(th), math.sin(th), *rng.uniform(-3, 3, 2))
            out = reflect(s, wall)
            k0 = s.xi_dot**2 + s.eta_dot**2
            k1 = out.xi_dot**2 + out.eta_dot**2
            assert abs(k1 - k0) <= 1e-15 * k0

    def test_not_on_wall_rejected(self):
        with pytest.raises(BilliardError, match="exceeds the on-wall tolerance"):
            reflect(PlanarState(1.0, 0.5, 0.0, -1.0), Wall.line(0.0))

    def test_line_d_invariance_property(self, rng):
        from kcbilliards.integrals import gj_integral

        for a in (0.0, 0.5, 1.0, 3.0):
            h = -a / math.sqrt(1 + a * a)
            wall = Wall.line(h)
            for m in (-1.0, 1.0):
                for _ in range(200):
                    xi = rng.uniform(-3, 3)
                    if xi == 0.0 and h == 0.0:
                        continue
                    s = PlanarState(xi, h, *rng.uniform(-2, 2, 2))
                    out = reflect(s, wall)
                    d0 = gj_integral(s, m, h)
                    d1 = gj_integral(out, m, h)
                    assert abs(d1 - d0) <= 1e-12 * max(1.0, abs(d0))

    def test_circle_preserves_l_and_energy(self, rng):
        wall = Wall.centered_circle(2.0)
        for _ in range(100):
            th = rng.uniform(0, 2 * math.pi)
            s = PlanarState(
                2 * math.cos(th), 2 * math.sin(th), *rng.uniform(-2, 2, 2)
            )
            out = reflect(s, wall)
            assert integral_set(out, SystemParams(m=1.0)).L == pytest.approx(
                integral_set(s, SystemParams(m=1.0)).L, abs=1e-14
            )
            assert planar_energy(out, 1.0) == pytest.approx(
                planar_energy(s, 1.0), abs=1e-14
            )

    def test_spherical_reflect_preserves_energy(self, rng):
        params = SystemParams(m=1.0, a=0.8)
        wall = Wall.great_circle((0.0, 1.0, 0.0))
        for _ in range(50):
            # random point on the wall circle {q_y = 0}
            th = rng.uniform(0.2, math.pi - 0.2)
            q = np.array([math.sin(th), 0.0, -math.cos(th)])
            v = rng.uniform(-1, 1, 3)
            v -= np.dot(q, v) * q
            s = SphericalState(q, v)
            out = reflect(s, wall)
            e0 = spherical_energy_embedded(s, params)
            e1 = spherical_energy_embedded(out, params)
            assert abs(e1 - e0) <= 1e-12 * max(1.0, abs(e0))


def d_wall(state, wall, params):
    """The wall's own invariant (alpha^2 - |n|^2) L^2 + 2 level n.A, from the
    wall's (alpha, n, level) and the state's L and Laplace-Runge-Lenz A."""
    ints = integral_set(state, params)
    (n1, n2), level = wall.normal, wall.level
    return ((wall.alpha**2 - n1 * n1 - n2 * n2) * ints.L**2
            + 2.0 * level * (n1 * ints.A_xi + n2 * ints.A_eta))


def planar_wall_states(rng, wall, n):
    """n random states on a planar wall: its points at a drawn xi or angle."""
    for _ in range(n):
        if wall.alpha:  # the centered circle r = level
            th = rng.uniform(0.0, 2.0 * math.pi)
            xi, eta = wall.level * math.cos(th), wall.level * math.sin(th)
        else:  # the line eta = level
            xi, eta = rng.uniform(-3.0, 3.0), wall.level
            if xi == 0.0 and eta == 0.0:
                continue
        yield PlanarState(xi, eta, *rng.uniform(-2.0, 2.0, 2))


class TestWallInvariant:
    """reflect keeps D_wall = (alpha^2 - |n|^2) L^2 + 2 level n.A of every
    planar wall alpha r + n.x = level: -D on the line, L^2 on the circle."""

    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("m", [1.0, -1.0])
    def test_line(self, m, a, side, rng):
        params = SystemParams(m=m, a=a)
        wall = Wall.line(params.h, side=side)
        for s in planar_wall_states(rng, wall, 200):
            d0 = d_wall(s, wall, params)
            assert abs(d0 + integral_set(s, params).D) <= 1e-14 * max(1.0, abs(d0))
            d1 = d_wall(reflect(s, wall), wall, params)
            assert abs(d1 - d0) <= 1e-12 * max(1.0, abs(d0))

    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("radius", [0.5, 2.0])
    @pytest.mark.parametrize("m", [1.0, -1.0])
    def test_centered_circle(self, m, radius, side, rng):
        params = SystemParams(m=m)
        wall = Wall.centered_circle(radius, side=side)
        for s in planar_wall_states(rng, wall, 200):
            d0 = d_wall(s, wall, params)
            assert d0 == integral_set(s, params).L ** 2
            d1 = d_wall(reflect(s, wall), wall, params)
            assert abs(d1 - d0) <= 1e-12 * max(1.0, abs(d0))


def on_wall_states(rng, wall, n):
    """n random states on any wall; on the sphere, points q with q.axis =
    level and tangent velocities."""
    if wall.is_planar:
        yield from planar_wall_states(rng, wall, n)
        return
    axis = np.array(wall.normal)
    e1 = np.cross(axis, (1.0, 0.0, 0.0) if abs(axis[0]) < 0.9 else (0.0, 1.0, 0.0))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    sin_rho = math.sqrt(1.0 - wall.level**2)
    for _ in range(n):
        th = rng.uniform(0.0, 2.0 * math.pi)
        q = wall.level * axis + sin_rho * (math.cos(th) * e1 + math.sin(th) * e2)
        yield SphericalState.project(q, rng.uniform(-1.5, 1.5, 3))


ALL_WALLS = [
    Wall.line(-0.6, side=1),
    Wall.line(0.4, side=-1),
    Wall.centered_circle(1.5, side=1),
    Wall.centered_circle(0.7, side=-1),
    Wall.great_circle((0.3, -1.0, 0.5), side=1),
    Wall.great_circle((0.0, 1.0, 0.0), side=-1),
    Wall.centered_small_circle(1.1, (0.0, 0.4, -1.0), side=1),
    Wall.centered_small_circle(0.4, (0.2, 0.0, 1.0), side=-1),
]


def wall_name(wall):
    """The config schema's name of a wall, read from its (alpha, normal, level)."""
    if wall.is_planar:
        return "planar-centered-circle" if wall.alpha else "planar-line"
    return "spherical-centered-circle" if wall.level else "spherical-great-circle"


@pytest.mark.parametrize("wall", ALL_WALLS, ids=lambda w: f"{wall_name(w)}{w.side:+d}")
def test_normal_is_the_wall_function_gradient(wall, rng):
    # along the velocity, the wall function changes at the rate v.n times
    # the length of its gradient (tangential on the sphere: sin of the
    # circle's angular radius); _wall_rate has the same sign, as r times
    # that rate on the circle (alpha = 1) and equal to it elsewhere
    eps = 1e-6
    grad = 1.0 if wall.is_planar else math.sqrt(1.0 - wall.level**2)
    for s in on_wall_states(rng, wall, 50):
        if wall.is_planar:
            x, v = np.array(s[:2]), np.array(s[2:])
        else:
            x, v = s.q, s.v
        rate = (wall_signed_distance(x + eps * v, wall)
                - wall_signed_distance(x - eps * v, wall)) / (2.0 * eps)
        n, vn = _normal(s, wall)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
        assert vn == pytest.approx(float(np.dot(v, n)), abs=1e-15)
        assert vn * grad == pytest.approx(rate, abs=1e-6)
        factor = np.linalg.norm(x) if wall.alpha else 1.0
        assert _wall_rate((*x, *v), wall) == pytest.approx(factor * rate, abs=1e-6)


class TestAnalyticLineHit:
    def test_circular_orbit_example(self):
        params, wall = circle_wall_params()
        s = PlanarState(S3 / 2, -0.5, 0.5, S3 / 2)
        out = next_hit_analytic_line(s, params, wall)
        assert is_hit(out)
        np.testing.assert_allclose(
            out.state_in.as_array(),
            [-S3 / 2, -0.5, 0.5, -S3 / 2],
            atol=1e-12,
        )
        assert out.t_hit == pytest.approx(2.0 * math.pi * 2.0 / 3.0)
        # reflection flips the normal component
        np.testing.assert_allclose(
            out.state_out.as_array(),
            [-S3 / 2, -0.5, 0.5, S3 / 2],
            atol=1e-12,
        )

    def test_disjoint_ellipse_escapes(self):
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        s = PlanarState(0.3, 0.0, 0.0, 1.9)  # small ellipse above the wall
        out = next_hit_analytic_line(s, params, wall)
        assert isinstance(out, Escape)

    def test_circular_orbit_above_wall_escapes(self):
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        v_circ = math.sqrt(1.0 / 0.3)
        out = next_hit_analytic_line(
            PlanarState(0.3, 0.0, 0.0, v_circ), params, wall
        )
        assert isinstance(out, Escape)

    def test_parabolic_apex_on_line_is_tangent(self):
        # e = 1 conic with apex exactly on the wall line, built from its
        # elements: A = (0, -1), L^2 = 2|h|, point at r = 2 approaching.
        # The grazing double root sits at the edge of representability, so
        # either a flagged tangency or a no-intersection escape is legal.
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        L = (2.0 * abs(params.h)) ** 0.5
        r = 2.0
        eta = r - L * L
        xi = -math.sqrt(r * r - eta * eta)
        xd = -(-1.0 + eta / r) / L
        ed = (xi / r) / L
        s0 = PlanarState(xi, eta, xd, ed)
        assert abs(planar_energy(s0, 1.0)) < 1e-14
        out = next_hit_analytic_line(s0, params, wall)
        assert isinstance(out, Escape) or out.tangent
        if not isinstance(out, Escape):
            assert abs(out.state_in.eta_dot) <= 1e-8 * out.state_in.speed
            assert out.state_out == out.state_in

    def test_circular_grazing_is_tangent(self):
        # circle of radius |h| touches the wall line at exactly one point
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        r = abs(params.h)
        v_c = math.sqrt(1.0 / r)
        s0 = PlanarState(r, 0.0, 0.0, v_c)
        rec = next_hit_analytic_line(s0, params, wall)
        assert isinstance(rec, BounceRecord) and rec.tangent
        assert rec.state_out == rec.state_in  # map acts as the identity
        assert rec.state_in.eta == pytest.approx(params.h, abs=1e-12)

    def test_grazing_start_is_not_its_own_hit(self):
        # the circle r = |h| touches the line at the start: that grazing
        # crossing comes back after one period, not at t = 0
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        r = abs(params.h)
        s0 = PlanarState(0.0, params.h, math.sqrt(1.0 / r), 0.0)
        out = next_hit_analytic_line(s0, params, wall)
        assert isinstance(out, BounceRecord) and out.tangent
        assert out.t_hit == pytest.approx(2.0 * math.pi * r**1.5, rel=1e-12)

    def test_repulsive_escape(self):
        params = SystemParams(m=-1.0, a=1.0)
        wall = Wall.line(params.h, side=-1)
        s = PlanarState(0.0, -2.0, 0.0, -1.0)  # below the wall, receding
        out = next_hit_analytic_line(s, params, wall)
        assert isinstance(out, Escape)

    def test_repulsive_hit_from_center_side(self):
        # bouncing under a repulsive center: hyperbola arc returns to the wall
        params = SystemParams(m=-1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        s = PlanarState(0.0, params.h, 0.05, 0.4)
        out = next_hit_analytic_line(s, params, wall)
        assert is_hit(out)
        want = ode_propagate(s, out.t_hit, params)
        np.testing.assert_allclose(
            out.state_in.as_array(), want.as_array(), atol=1e-9
        )

    def test_radial_orbit_bounces_through_center(self):
        # radial launch from the wall toward the center: collision, elastic
        # bounce, then the retraced ray hits the wall at the start point
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        r0 = math.hypot(0.3, params.h)
        qhat = np.array([0.3, params.h]) / r0
        speed = 0.5
        s = PlanarState(0.3, params.h, -speed * qhat[0], -speed * qhat[1])
        t_c = radial_fall_time(r0, speed, 1.0)
        rec = next_hit_analytic_line(s, params, wall)
        assert is_hit(rec)
        assert rec.t_hit == pytest.approx(2.0 * t_c, rel=1e-10)
        np.testing.assert_allclose(
            rec.state_in.as_array(),
            [0.3, params.h, speed * qhat[0], speed * qhat[1]],
            atol=1e-10,
        )

    def test_wall_through_center_radial_escapes(self):
        # the center is removed from a wall line through it
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.line(0.0, side=1)
        s = PlanarState(0.0, 1.0, 0.0, -0.5)
        out = next_hit_analytic_line(s, params, wall)
        assert isinstance(out, Escape)

    @pytest.mark.parametrize("start", [(2.1, 0.0, 2.0, 0.0), (2.1, 0.0, -2.0, 0.0)])
    def test_unbound_radial_orbit_parallel_to_the_line_escapes(self, start):
        # the orbit runs along eta = 0, outward or through the bounce at the
        # center, and never meets eta = h; the quadratic's root at the end
        # of the hyperbola (s -> infinity) is no hit
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        assert isinstance(next_hit_analytic_line(PlanarState(*start), params, wall), Escape)

    def test_only_exit_crossings_count(self):
        # start off the wall on the outer side: the first crossing enters
        # the domain and is no hit; the numeric event ignores it as well
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=-1)
        s = PlanarState(0.5, 0.0, 0.3, -1.6)
        out_a = next_hit_analytic_line(s, params, wall)
        out_n = next_hit_numeric(s, validate_config(params, wall), FAST)
        assert is_hit(out_a) and is_hit(out_n)
        assert out_a.state_in.eta_dot > 0.0
        np.testing.assert_allclose(
            out_a.state_in.as_array(), out_n.state_in.as_array(),
            atol=1e-8,
        )
        assert out_a.t_hit == pytest.approx(out_n.t_hit, abs=1e-8)

    def test_near_radial_start_is_not_its_own_hit(self):
        # |L| ~ 7e-5: the conic root at the start point carries a time of
        # flight of ~5e-9, above the skip threshold; it is an entry
        # crossing, so the hit is the exit one more than a second later
        params = SystemParams(m=1.0, a=0.7705378367530828)
        wall = Wall.line(params.h, side=-1)
        s = PlanarState(
            -0.6394684320158801, params.h, -0.4708137498403941, -0.44928073572685706
        )
        out_a = next_hit_analytic_line(s, params, wall)
        out_n = next_hit_numeric(s, validate_config(params, wall), FAST)
        assert is_hit(out_a) and is_hit(out_n)
        assert out_a.state_in.eta_dot > 0.0
        assert out_a.t_hit == pytest.approx(out_n.t_hit, abs=1e-6)

    def test_near_radial_hit_velocity_keeps_energy(self):
        # a thin ellipse (|L| ~ 1e-5 at the hit): dividing A + m q_hat by L
        # there loses E_pl; the exact hit must still match the numeric one
        params = SystemParams(m=1.0, a=0.5)
        wall = Wall.line(params.h, side=-1)
        s = PlanarState(
            0.20872219722905028, params.h, 0.45653500761726235, -0.9780968194095451
        )
        out_a = next_hit_analytic_line(s, params, wall)
        out_n = next_hit_numeric(s, validate_config(params, wall), FAST)
        assert is_hit(out_a) and is_hit(out_n)
        np.testing.assert_allclose(
            out_a.state_in.as_array(), out_n.state_in.as_array(),
            atol=1e-8,
        )
        assert out_a.t_hit == pytest.approx(out_n.t_hit, abs=1e-8)

    def test_perturbed_rejected(self):
        params = SystemParams(m=1.0, a=1.0, beta=0.1)
        with pytest.raises(ConfigError, match="requires beta = 0"):
            next_hit_analytic_line(
                PlanarState(0.0, -1.0, 0.3, 0.0), params, Wall.line(params.h)
            )

    def test_spherical_wall_rejected(self):
        params = SystemParams(m=1.0, a=1.0)
        start = planar_to_sphere(PlanarState(0.5, params.h, 0.3, -0.8), params)
        with pytest.raises(ConfigError, match="analytic hit search supports only the planar walls"):
            next_hit_analytic_line(start, params, Wall.great_circle((0.0, 1.0, 0.0), side=-1))

    def test_near_radial_uses_conic_machinery(self):
        # |L| below the collision tolerance but nonzero: the thin-ellipse
        # whip around the center is the elastic-bounce limit
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        s = PlanarState(0.3, params.h, -0.2, 0.47)
        L = integral_set(s, params).L
        assert abs(L) > 0  # generic state, sanity
        out = next_hit_analytic_line(s, params, wall)
        assert isinstance(out, (BounceRecord, Escape))


def exact_numeric_gap(s, params, wall):
    """Relative time gap and largest state gap of the exact and numeric hits."""
    out_a = next_hit_analytic_line(s, params, wall)
    out_n = next_hit_numeric(s, validate_config(params, wall), TIGHT)
    assert is_hit(out_a) and is_hit(out_n)
    gap = np.abs(out_a.state_in.as_array() - out_n.state_in.as_array())
    return abs(out_a.t_hit - out_n.t_hit) / max(1.0, out_n.t_hit), float(np.max(gap))


class TestExactHitEdgeOrbits:
    """Orbits on which the anomaly-based exact hit lost accuracy."""

    def test_near_parabolic_bound_orbit_takes_no_extra_period(self):
        # alpha = 2m/r - v^2 ~ 1e-6, period 6.3e9: a start window of 1e-9 periods
        # exceeded the 0.87 flight, and the hit slipped a whole period
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        s = PlanarState(
            -0.8287016657127513, -0.7071067811865475, 0.8402620948485197, 1.0629520589138741
        )
        dt, ds = exact_numeric_gap(s, params, wall)
        assert dt <= 1e-10 and ds <= 1e-10

    def test_near_circular_orbit(self):
        # e = 2e-10: an anomaly read off (1 - r/a)/e drifts in time
        params = SystemParams(m=1.0, a=0.5)
        wall = Wall.line(params.h, side=1)
        dt, ds = exact_numeric_gap(PlanarState(1.0, 0.0, 0.0, 1.0 + 1e-10), params, wall)
        assert dt <= 1e-10 and ds <= 1e-10

    def test_near_radial_orbit_stays_on_its_ray(self):
        # L = -2.8e-17: the hit lies on the start's ray at eta = h, and the
        # flow itself reaches it at t_hit
        params = SystemParams(m=1.0, a=0.5)
        wall = Wall.line(params.h, side=-1)
        s = PlanarState(0.6, -0.8944271909999159, -0.18, 0.2683281572999747)
        rec = next_hit_analytic_line(s, params, wall)
        assert is_hit(rec)
        assert rec.state_in.xi == pytest.approx(params.h * s.xi / s.eta, abs=1e-12)
        want = ode_propagate(s, rec.t_hit, params, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(rec.state_in.as_array(), want.as_array(), atol=1e-10)


def exit_start(rng, wall, m, kind):
    """A start inside the domain whose orbit leaves it at a drawn wall point.

    A wall point and a velocity out of the domain fix the orbit. kind is
    "ellipse", "hyperbola", "near-circular" (e in [1e-12, 1e-6]),
    "near-radial" (|L| in [1e-13, 1e-5]) or a value of alpha = 2m/r - v^2.
    The start is the wall point taken back along the conic by 0.1 to 1.5
    in s.
    """
    while True:
        if not wall.alpha:  # the line eta = level
            q = (math.copysign(rng.uniform(0.2, 1.5), rng.uniform(-1, 1)), wall.level)
            normal = (0.0, wall.side)
        else:
            phi = rng.uniform(0.0, 2.0 * math.pi)
            q = (wall.level * math.cos(phi), wall.level * math.sin(phi))
            normal = (wall.side * math.cos(phi), wall.side * math.sin(phi))
        r = math.hypot(*q)
        qhat = (q[0] / r, q[1] / r)
        if kind == "near-circular":
            e = 10.0 ** rng.uniform(-12, -6)
            speed = math.sqrt(m / r) * (1.0 + 0.5 * e * rng.choice([-1.0, 1.0]))
            d = (-qhat[1], qhat[0])
        elif kind == "near-radial":
            speed = math.sqrt(rng.uniform(0.3, 2.5) * 2.0 * abs(m) / r)
            psi = 10.0 ** rng.uniform(-13, -5) * rng.choice([-1.0, 1.0]) / (r * speed)
            d = (qhat[0] - psi * qhat[1], qhat[1] + psi * qhat[0])
        else:
            if kind == "ellipse":
                v2 = rng.uniform(0.3, 0.9) * 2.0 * m / r
            elif kind == "hyperbola":
                v2 = rng.uniform(1.2, 3.0) * 2.0 / r if m > 0.0 else rng.uniform(0.3, 4.0)
            else:
                v2 = 2.0 * m / r - kind
            speed = math.sqrt(v2)
            th = rng.uniform(0.0, 2.0 * math.pi)
            d = (math.cos(th), math.sin(th))
            if abs(d[0] * normal[0] + d[1] * normal[1]) < 0.1:
                continue
        sign = -1.0 if d[0] * normal[0] + d[1] * normal[1] > 0.0 else 1.0
        hit = PlanarState(q[0], q[1], sign * speed * d[0], sign * speed * d[1])
        sigma = hit.xi * hit.xi_dot + hit.eta * hit.eta_dot
        g = universal_kernel(2.0 * m / r - hit.speed**2, -rng.uniform(0.1, 1.5))
        start = universal_state(hit, m, time_of_flight(r, sigma, m, g), g)
        if start.r > 0.05 and wall_signed_distance((start.xi, start.eta), wall) > 0.02:
            return start


_CONICS = {
    1.0: ("ellipse", "near-circular", "near-radial", 0.0, 1e-9, -1e-9, 1e-6, -1e-6, "hyperbola"),
    -1.0: ("near-radial", "hyperbola"),  # a repulsive center has alpha <= -2|m|/r
}
EXACT_GRID = [
    (wall, m, kind) for wall in ("line", "circle") for m in (1.0, -1.0) for kind in _CONICS[m]
    if not (wall == "circle" and kind == "near-circular")  # it would only graze the circle
]


@pytest.mark.parametrize("wall_kind, m, kind", EXACT_GRID)
def test_exact_hit_matches_numeric(wall_kind, m, kind, rng):
    for side in (1, -1):
        if wall_kind == "line":
            params = SystemParams(m=m, a=1.0)
            wall = Wall.line(params.h, side=side)
        else:
            params = SystemParams(m=m, a=0.0)
            wall = Wall.centered_circle(1.0, side=side)
        for _ in range(4):
            dt, ds = exact_numeric_gap(exit_start(rng, wall, m, kind), params, wall)
            assert dt <= 1e-8 and ds <= 1e-8


H1 = SystemParams(m=1.0, a=1.0).h


@pytest.mark.parametrize("start, wall", [
    ((2.0, 0.0, 0.8, -0.6), Wall.line(H1, side=1)),
    ((0.0, -2.0, 0.6, 0.8), Wall.line(H1, side=-1)),
    ((1.2, -1.6, -0.8, -0.6), Wall.line(H1, side=-1)),
    ((2.0, 0.0, -0.8, -0.6), Wall.centered_circle(1.0, side=1)),
    ((1.2, 1.6, -0.8, -0.6), Wall.centered_circle(1.0, side=1)),
])
def test_exact_hit_on_a_parabola(start, wall):
    # r = 2 and |v| = 1 exactly: alpha = 2m/r - v^2 is exactly zero
    s = PlanarState(*start)
    assert 2.0 / s.r - s.speed**2 == 0.0
    params = SystemParams(m=1.0, a=0.0 if wall.alpha else 1.0)
    dt, ds = exact_numeric_gap(s, params, wall)
    assert dt <= 1e-8 and ds <= 1e-8


class TestNumericHit:
    def test_agrees_with_analytic_on_circular_example(self):
        params, wall = circle_wall_params()
        model = validate_config(params, wall)
        s = PlanarState(S3 / 2, -0.5, 0.5, S3 / 2)
        out = next_hit_numeric(s, model, FAST)
        assert is_hit(out)
        np.testing.assert_allclose(
            out.state_in.as_array(),
            [-S3 / 2, -0.5, 0.5, -S3 / 2],
            atol=1e-8,
        )

    def test_hit_lies_on_wall(self):
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=-1)
        model = validate_config(params, wall)
        s = PlanarState(0.5, params.h, 0.3, -0.8)
        out = next_hit_numeric(s, model, FAST)
        assert is_hit(out)
        assert abs(wall_signed_distance(
            (out.state_in.xi, out.state_in.eta), wall
        )) < 1e-10

    def test_escape_certificate_repulsive(self):
        params = SystemParams(m=-1.0, a=1.0)
        wall = Wall.line(params.h, side=-1)
        model = validate_config(params, wall)
        s = PlanarState(0.0, -2.0, 0.0, -1.0)
        out = next_hit_numeric(s, model, FAST, t_max=5000.0)
        assert isinstance(out, Escape)

    @pytest.mark.parametrize("params, wall, start", [
        # an unbound flyby outside the unit circle, a repulsive start on it,
        # and a start under a beta = 0.3 line
        (SystemParams(m=1.0), Wall.centered_circle(1.0, side=1), (5.0, 3.0, -0.5, 2.0)),
        (SystemParams(m=-1.0), Wall.centered_circle(1.0, side=1), (1.0, 0.0, 0.5, 0.1)),
        (SystemParams(m=1.0, a=0.5, beta=0.3), Wall.line(H05, side=-1), (0.5, H05, 2.0, -0.3)),
    ])
    def test_escape_certificate_off_the_line_wall(self, params, wall, start):
        # a centered circle or beta != 0 certifies an unbound leg receding
        # far from the wall without the forward conic test of the line
        model = validate_config(params, wall)
        assert isinstance(next_hit_numeric(PlanarState(*start), model, FAST), Escape)

    def test_hit_past_the_escape_radius(self, ivp_calls):
        # an unbound leg that meets the line at r = 4029, past 1e3 wall
        # scales: its conic crosses ahead, so no escape event is armed and
        # one integration reaches the hit
        params = SystemParams(m=1.0, a=1.0)
        model = validate_config(params, Wall.line(params.h, side=1))
        s = PlanarState(2.0, -0.5, 5.0, -0.012307692307692315)
        exact = next_hit_analytic_line(s, params, model.wall)
        assert exact.t_hit == pytest.approx(821.4627993558961, rel=1e-14)
        assert exact.state_in.r > 4e3
        out = next_hit_numeric(s, model, FAST)
        assert is_hit(out) and len(ivp_calls) == 1
        assert out.t_hit == pytest.approx(exact.t_hit, rel=1e-10)
        np.testing.assert_allclose(out.state_in[:2], exact.state_in[:2], rtol=1e-8)

    @pytest.mark.parametrize("m, start, t_hit", [
        # heading straight at the line 1 away, from beyond the radius or
        # just inside it
        (1.0, (2000.0, -1.0, 0.5, 1.0), 1.0),
        (1.0, (999.9, -1.0, 0.5, 0.5), 2.0),
        # 0.01 from the line and moving away from it at 1e-5, turned back
        # by the pull toward the center beyond the line
        (1e4, (1001.0, -0.01, 4.693396640810579, -1e-5), 80.57),
    ])
    def test_unbound_leg_near_the_line_beyond_the_escape_radius_hits(self, m, start, t_hit):
        # beta = 0.3 has no exact conic test; these legs are unbound and
        # receding at (or reaching) 1e3 wall scales, yet meet the line, so
        # no speed away from it that the force cannot turn certifies them
        params = SystemParams(m=m, a=0.5, beta=0.3)
        model = validate_config(params, Wall.line(params.h, side=-1))
        s = PlanarState(start[0], params.h + start[1], start[2], start[3])
        out = next_hit_numeric(s, model, FAST)
        assert is_hit(out) and out.t_hit == pytest.approx(t_hit, rel=1e-2)
        ref = ode_propagate(s, out.t_hit, params)
        np.testing.assert_allclose(ref.as_array(), out.state_in.as_array(), rtol=0.0, atol=1e-6)

    def test_start_beyond_the_escape_radius_escapes_without_integrating(self, ivp_calls):
        # unbound and receding at r = 2000 outside the unit circle
        model = validate_config(SystemParams(m=1.0, a=0.0), Wall.centered_circle(1.0, side=1))
        assert isinstance(next_hit_numeric(PlanarState(2000.0, 0.0, 1.0, 0.1), model, FAST), Escape)
        assert ivp_calls == []

    @pytest.mark.parametrize("domain", ["planar", "spherical"])
    def test_one_integration_per_bounce(self, ivp_calls, domain):
        # the acceptance runs of criteria 3 and 6: no leg switches form, so
        # each runs in one solve_ivp call that its wall crossing ends
        params = SystemParams(m=1.0, a=1.0)
        start = PlanarState(0.5, params.h, 0.3, -0.8)
        wall = Wall.line(params.h, side=-1)
        if domain == "spherical":
            wall = Wall.great_circle((0.0, 1.0, 0.0), side=-1)
            start = planar_to_sphere(start, params)
        run = billiard_map(start, 100, validate_config(params, wall), integ=FAST)
        assert run.n_bounces == 100 and len(ivp_calls) == 100

    def test_radial_collision_delegates_to_analytic(self):
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        model = validate_config(params, wall)
        r0 = math.hypot(0.3, params.h)
        qhat = np.array([0.3, params.h]) / r0
        s = PlanarState(0.3, params.h, -0.5 * qhat[0], -0.5 * qhat[1])
        out = next_hit_numeric(s, model, FAST)
        assert is_hit(out)
        np.testing.assert_allclose(
            out.state_in.as_array(),
            [0.3, params.h, 0.5 * qhat[0], 0.5 * qhat[1]],
            atol=1e-10,
        )

    @pytest.mark.parametrize("integ", [FAST, TIGHT])
    def test_near_radial_leg_above_the_radial_gate_takes_the_exact_hit(self, integ):
        # L = 2.5e-10 (the radial tolerance is 4.3e-11 here): the pericentre,
        # about L^2/2, is far shorter than DOP853 can step through in the
        # time t (that raised StepFailure); the Levi-Civita leg passes it
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.line(params.h, side=1)
        s = PlanarState(-3.758216991712641e-05, -0.08502305769733931,
                        0.0022278365136227593, 5.0400820550527285)
        out = next_hit_numeric(s, validate_config(params, wall), integ)
        assert is_hit(out)
        assert out.t_hit == pytest.approx(0.24989, abs=1e-5)
        exact = next_hit_analytic_line(s, params, wall)
        assert out.t_hit == pytest.approx(exact.t_hit, abs=1e-8)
        np.testing.assert_allclose(
            out.state_in.as_array(), exact.state_in.as_array(), rtol=0.0, atol=1e-8
        )

    @pytest.mark.parametrize("p_over_r", [1e-9, 1e-6])
    def test_near_radial_leg_at_loose_tolerance_takes_the_exact_hit(self, p_over_r):
        # integrated in the time t at rtol 1e-8, the first leg raised
        # StepFailure and the second hit with E_pl off by 3e-3 (at p/r = 3e-9
        # the passage threw the orbit into a bound one and the leg ran on for
        # minutes); the Levi-Civita leg meets the exact hit
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.centered_circle(2.0, side=-1)
        v = 1.03 * math.sqrt(2.0)
        phi = math.asin(math.sqrt(p_over_r) / v)
        s = PlanarState(1.0, 0.0, -v * math.cos(phi), v * math.sin(phi))
        loose = IntegratorConfig(rtol=1e-8, atol=1e-8)
        out = next_hit_numeric(s, validate_config(params, wall), loose)
        exact = next_hit_analytic_line(s, params, wall)
        assert is_hit(out)
        np.testing.assert_allclose(
            out.state_in.as_array(), exact.state_in.as_array(), rtol=0.0, atol=1e-8
        )

    def test_near_radial_leg_meeting_the_wall_first_is_integrated(self, ivp_calls):
        # L^2/(m r) ~ 6e-9, and the wall lies between the start and the
        # center: the leg is integrated, an independent check of the exact hit
        params = SystemParams(m=1.0, a=0.7705378367530828)
        wall = Wall.line(params.h, side=-1)
        s = PlanarState(
            -0.6394684320158801, params.h, -0.4708137498403941, -0.44928073572685706
        )
        out = next_hit_numeric(s, validate_config(params, wall), FAST)
        assert is_hit(out) and ivp_calls

    def test_near_radial_bound_orbit_missing_the_wall_is_undetermined(self):
        # the exact conic never meets the circle; like an integration that
        # exhausts t_max, the leg is Undetermined, not an escape
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.centered_circle(10.0, side=-1)
        s = PlanarState(1.0, 0.0, -0.5, 1e-6)
        assert isinstance(next_hit_analytic_line(s, params, wall), Escape)
        with pytest.raises(Undetermined):
            next_hit_numeric(s, validate_config(params, wall), FAST)

    @pytest.mark.parametrize("start", [
        (1e-8, 0.0, 0.0, 1e-3),  # a tiny bound orbit, period 2e-12
        (1.0, 0.0, 0.0, 0.0),  # the fall from rest through the center
        (1.0, 0.0, 0.0, 1.0),  # the circular orbit
    ])
    def test_bound_orbit_missing_the_wall_ends_after_one_period(self, start, monkeypatch):
        # at beta = 0 a bound conic repeats, so a leg with no hit in its
        # first period never meets the wall: Undetermined at once, not after
        # integrating on to t_max (the call cap stops such a crawl early)
        model = validate_config(SystemParams(m=1.0, a=0.0), Wall.centered_circle(10.0, side=-1))
        calls = []

        def capped_solve_ivp(*args, **kwargs):
            calls.append(1)
            assert len(calls) <= 2, "more than two solve_ivp calls"
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(kcbilliards.billiard, "solve_ivp", capped_solve_ivp)
        with pytest.raises(Undetermined):
            next_hit_numeric(PlanarState(*start), model, FAST)

    def test_near_radial_hit_after_t_max_is_undetermined(self):
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.centered_circle(10.0, side=-1)
        s = PlanarState(1.0, 0.0, -1.4, 1e-6)
        exact = next_hit_analytic_line(s, params, wall)
        assert is_hit(exact) and exact.t_hit > 16.0
        with pytest.raises(Undetermined):
            next_hit_numeric(s, validate_config(params, wall), FAST, t_max=1.0)
        out = next_hit_numeric(s, validate_config(params, wall), FAST, t_max=20.0)
        np.testing.assert_allclose(
            out.state_in.as_array(), exact.state_in.as_array(), rtol=0.0, atol=1e-8
        )

    @pytest.mark.parametrize("wall_kind", ["line", "circle"])
    def test_near_radial_grid_matches_the_exact_hit(self, wall_kind, rng):
        # starts aimed at the center, with L = 0 or |L| log-uniform in
        # [1e-12, 1e-5]: each leg passes the center, with no special case,
        # and meets the exact hit to 1e-8; a bound orbit that turns short of
        # the wall is Undetermined, and an unbound one cannot miss it (the
        # line lies across the start's ray)
        if wall_kind == "line":
            params = SystemParams(m=1.0, a=1.0)
            wall = Wall.line(params.h, side=1)
        else:
            params = SystemParams(m=1.0, a=0.0)
            wall = Wall.centered_circle(2.0, side=-1)
        model = validate_config(params, wall)
        hits = misses = 0
        for i in range(20):
            ell = 0.0 if i < 4 else 10.0 ** rng.uniform(-12, -5) * rng.choice([-1.0, 1.0])
            r0, phi = rng.uniform(0.1, 0.6), rng.uniform(math.pi, 2.0 * math.pi)
            speed = math.sqrt(rng.uniform(0.3, 2.5) * 2.0 * params.m / r0)
            v_r, v_t = -math.sqrt(speed**2 - (ell / r0) ** 2), ell / r0
            c, sn = math.cos(phi), math.sin(phi)
            s = PlanarState(r0 * c, r0 * sn, v_r * c - v_t * sn, v_r * sn + v_t * c)
            exact = next_hit_analytic_line(s, params, wall)
            if isinstance(exact, Escape):
                misses += 1
                assert planar_energy(s, params.m) < 0.0
                with pytest.raises(Undetermined):
                    next_hit_numeric(s, model, FAST, t_max=50.0)
                continue
            hits += 1
            out = next_hit_numeric(s, model, FAST)
            assert is_hit(out) and is_hit(exact)
            assert out.t_hit == pytest.approx(exact.t_hit, abs=1e-8)
            np.testing.assert_allclose(
                out.state_in.as_array(), exact.state_in.as_array(), rtol=0.0, atol=1e-8
            )
        assert hits >= 10 and misses >= 1

    def test_hit_after_t_max_inside_one_chunk_is_undetermined(self, ivp_calls):
        # one integration spans the whole leg, so the integrator reaches the
        # hit at t = 3.397 in one call; with t_max at half of that the clock
        # event ends that call and it is no hit
        params = SystemParams(m=1.0, a=0.0)
        model = validate_config(params, Wall.centered_circle(2.0, side=-1))
        s = PlanarState(1.0, 0.0, 0.0, 1.2)
        exact = next_hit_analytic_line(s, params, model.wall)
        out = next_hit_numeric(s, model, FAST)
        assert out.t_hit == pytest.approx(exact.t_hit, abs=1e-8) and len(ivp_calls) == 1
        with pytest.raises(Undetermined):
            next_hit_numeric(s, model, FAST, t_max=0.5 * exact.t_hit)
        assert len(ivp_calls) == 2

    @pytest.mark.parametrize("ell", [0.0, 1e-8, 1e-3])
    def test_boltzmann_leg_through_the_barrier_keeps_the_energy(self, ell):
        # beta = 0.3: a leg aimed at the center turns at the centrifugal
        # barrier (L^2 + beta > 0) and leaves along its ray to the line
        params = SystemParams(m=1.0, a=1.0, beta=0.3)
        model = validate_config(params, Wall.line(params.h, side=1))
        r0 = math.hypot(0.2, -0.5)
        qhat = np.array([0.2, -0.5]) / r0
        v = -1.5 * qhat + (ell / r0) * np.array([-qhat[1], qhat[0]])
        s = PlanarState(0.2, -0.5, v[0], v[1])
        out = next_hit_numeric(s, model, FAST)
        assert is_hit(out)
        e0 = planar_energy(s, params.m, params.beta)
        e1 = planar_energy(out.state_in, params.m, params.beta)
        assert abs(e1 - e0) <= 1e-10 * max(1.0, abs(e0))
        if ell == 0.0:  # a radial leg comes back out along its ray
            assert out.state_in.xi == pytest.approx(-0.4 * params.h, abs=1e-8)

    def test_centered_circle_wall(self):
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.centered_circle(2.0, side=-1)
        model = validate_config(params, wall)
        s = PlanarState(1.0, 0.0, 0.0, 1.2)  # apoapsis beyond the wall
        rec = next_hit_numeric(s, model, FAST)
        assert is_hit(rec)
        assert rec.state_in.r == pytest.approx(2.0, abs=1e-10)
        assert rec.integrals_out.E_pl == pytest.approx(rec.integrals_in.E_pl)
        assert rec.integrals_out.L == pytest.approx(rec.integrals_in.L, abs=1e-13)

    def test_boltzmann_field_hits(self):
        params = SystemParams(m=1.0, a=1.0, beta=0.3)
        wall = Wall.line(params.h, side=-1)
        model = validate_config(params, wall)
        s = PlanarState(0.5, params.h, 0.3, -0.8)
        out = next_hit_numeric(s, model, FAST)
        assert is_hit(out)
        # flow energy including the centrifugal term is conserved to the hit
        e0 = planar_energy(s, params.m, params.beta)
        e1 = planar_energy(out.state_in, params.m, params.beta)
        assert abs(e1 - e0) <= 1e-10 * max(1.0, abs(e0))

    def test_bound_orbit_short_of_the_circle_is_undetermined(self):
        # a circular orbit at r = 1 inside the wall r = 2: no hit, and a
        # bound orbit carries no escape certificate
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.centered_circle(2.0, side=-1)
        model = validate_config(params, wall)
        with pytest.raises(Undetermined):
            next_hit_numeric(PlanarState(1.0, 0.0, 0.0, 1.0), model, FAST, t_max=3.0)

    @pytest.mark.parametrize("v_inf", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
    def test_thin_crossing_of_centered_circle(self, v_inf, eps):
        # a hyperbolic flyby from r = 5 whose pericenter R (1 - eps) dips
        # just inside the wall r = R: the orbit leaves the domain r > R for
        # a short arc that a single step can span
        params = SystemParams(m=1.0, a=0.0)
        model = validate_config(params, Wall.centered_circle(1.0, side=1))
        r_p = 1.0 - eps
        L = r_p * math.sqrt(v_inf**2 + 2.0 / r_p)
        r0 = 5.0
        v_t = L / r0
        v_r = -math.sqrt(v_inf**2 + 2.0 / r0 - v_t**2)
        s = PlanarState(r0, 0.0, v_r, v_t)
        exact = next_hit_analytic_line(s, params, model.wall)
        out = next_hit_numeric(s, model, FAST)
        assert is_hit(out) and is_hit(exact)
        assert out.t_hit == pytest.approx(exact.t_hit, abs=1e-8)
        assert abs(out.state_in.r - 1.0) <= ON_WALL_TOL

    def test_line_run_evaluation_count(self, monkeypatch):
        # this run's RHS evaluations with every step capped at a quarter of
        # (|g| + 0.05 wall scales) over the speed
        capped_nfev = 4907
        counted = []
        solve = kcbilliards.billiard.solve_ivp

        def counting_solve_ivp(*args, **kwargs):
            sol = solve(*args, **kwargs)
            counted.append(sol.nfev)
            return sol

        monkeypatch.setattr(kcbilliards.billiard, "solve_ivp", counting_solve_ivp)
        params = SystemParams(m=1.0, a=1.0)
        model = validate_config(params, Wall.line(params.h, side=-1))
        run = billiard_map(PlanarState(0.5, params.h, 0.3, -0.8), 5, model, integ=FAST)
        assert run.outcome == "completed" and run.n_bounces == 5
        assert sum(counted) <= capped_nfev / 2


class TestBilliardMap:
    def test_zero_bounces(self):
        params = SystemParams(m=1.0, a=1.0)
        model = validate_config(params, Wall.line(params.h, side=-1))
        run = billiard_map(PlanarState(0.5, params.h, 0.3, -0.8), 0, model)
        assert run.records == []
        assert run.outcome == "completed"
        assert run.reason is None

    def test_escape_keeps_its_reason(self):
        # the circular orbit r = 1 never reaches the line eta = -2
        model = Model(params=SystemParams(m=1.0, a=0.0), wall=Wall.line(-2.0, side=1))
        run = billiard_map(PlanarState(1.0, 0.0, 0.0, 1.0), 5, model, mode="analytic")
        assert run.records == []
        assert (run.outcome, run.reason) == ("escape", "the orbit does not reach the wall")

    def test_integrable_run_conserves_invariants(self):
        params = SystemParams(m=1.0, a=1.0)
        model = validate_config(params, Wall.line(params.h, side=-1))
        run = billiard_map(
            PlanarState(0.5, params.h, 0.3, -0.8), 100, model, mode="analytic"
        )
        assert run.n_bounces == 100
        E = [r.integrals_in.E_pl for r in run.records]
        D = [r.integrals_in.D for r in run.records]
        assert max(abs(e - E[0]) for e in E) / max(1, abs(E[0])) < 1e-10
        assert max(abs(d - D[0]) for d in D) / max(1, abs(D[0])) < 1e-10
        # time strictly increases
        ts = [r.t_hit for r in run.records]
        assert all(t1 > t0 for t0, t1 in zip(ts, ts[1:]))

    def test_analytic_matches_numeric_run(self):
        params = SystemParams(m=1.0, a=1.0)
        model = validate_config(params, Wall.line(params.h, side=-1))
        s0 = PlanarState(0.5, params.h, 0.3, -0.8)
        run_a = billiard_map(s0, 5, model, mode="analytic")
        run_n = billiard_map(s0, 5, model, mode="numeric", integ=FAST)
        for ra, rn in zip(run_a.records, run_n.records):
            np.testing.assert_allclose(
                ra.state_in.as_array(), rn.state_in.as_array(), atol=1e-8
            )
            assert ra.t_hit == pytest.approx(rn.t_hit, abs=1e-8)

    def test_failed_leg_keeps_earlier_bounces(self):
        # legs after the first take 6.79 > t_max, and the orbit is bound
        params = SystemParams(m=1.0, a=0.0)
        model = validate_config(params, Wall.centered_circle(2.0, side=-1))
        run = billiard_map(
            PlanarState(1.0, 0.0, 0.0, 1.2), 4, model, integ=FAST, t_max_per_leg=5.0
        )
        assert run.n_bounces == 1
        assert run.outcome == "undetermined"
        assert isinstance(run.error, Undetermined)
        assert run.final_state == run.records[0].state_out

    def test_failed_integration_keeps_earlier_bounces(self, fail_solve_ivp):
        # one solve_ivp call per leg (test_one_integration_per_bounce): the
        # third call is the third leg's
        params = SystemParams(m=1.0, a=1.0)
        model = validate_config(params, Wall.line(params.h, side=-1))
        start = PlanarState(0.5, params.h, 0.3, -0.8)
        clean = billiard_map(start, 5, model, integ=FAST)
        sols = fail_solve_ivp(kcbilliards.billiard, 3)
        run = billiard_map(start, 5, model, integ=FAST)
        assert (run.outcome, len(sols)) == ("step-failure", 3)
        assert isinstance(run.error, StepFailure)
        assert str(run.error).startswith("integration failed: ")
        assert run.records == clean.records[:2]
        assert run.final_state == clean.records[1].state_out

    @pytest.mark.parametrize("mode, wall, message", [
        ("exact", Wall.line(H05, side=-1), "mode must be 'numeric' or 'analytic'"),
        ("analytic", Wall.great_circle((0.0, 1.0, 0.0), side=-1),
         "analytic hit search supports only the planar walls"),
    ])
    def test_mode_is_checked(self, mode, wall, message):
        # an unknown mode is a ValueError; the exact map rejects a spherical
        # start, on the image of the line, at its first leg
        params = SystemParams(m=1.0, a=0.5)
        start = PlanarState(0.5, params.h, 0.3, -0.8)
        if not wall.is_planar:
            start = planar_to_sphere(start, params)
        with pytest.raises(ValueError if mode == "exact" else ConfigError, match=message):
            billiard_map(start, 1, validate_config(params, wall), mode=mode)

    @pytest.mark.parametrize("mode", ["numeric", "analytic"])
    @pytest.mark.parametrize("domain", ["planar", "spherical"])
    def test_start_in_the_other_domain_is_a_config_error(self, domain, mode):
        # only a Model built directly pairs a planar start with a spherical
        # wall, or a spherical start with a planar one
        params = SystemParams(m=1.0, a=0.5)
        start = PlanarState(0.5, params.h, 0.3, -0.8)
        if domain == "planar":
            wall = Wall.great_circle((0.0, 1.0, 0.0), side=-1)
            message = "a PlanarState state against a spherical wall"
        else:
            start = planar_to_sphere(start, params)
            wall, message = Wall.line(params.h, side=-1), "a SphericalState state against a planar wall"
        with pytest.raises(ConfigError, match=message):
            billiard_map(start, 1, Model(params, wall), mode=mode)

    @pytest.mark.parametrize("domain, entry", [
        ("planar", "numeric"), ("spherical", "numeric"), ("spherical", "analytic"),
        ("planar", "reflect"), ("spherical", "reflect"),
    ])
    def test_every_entry_checks_the_start_domain(self, domain, entry):
        # called directly, each leg and reflect refuse a start in the other
        # domain, as billiard_map does, rather than read its point in the
        # wall's domain (the exact leg refuses a spherical wall first)
        params = SystemParams(m=1.0, a=0.5)
        start = PlanarState(0.5, params.h, 0.3, -0.8)
        if domain == "planar":
            wall = Wall.great_circle((0.0, 1.0, 0.0), side=-1)
            message = "a PlanarState state against a spherical wall"
        else:
            start = planar_to_sphere(start, params)
            wall, message = Wall.line(params.h, side=-1), "a SphericalState state against a planar wall"
        with pytest.raises(ConfigError, match=message):
            if entry == "numeric":
                next_hit_numeric(start, Model(params, wall), FAST)
            elif entry == "analytic":
                next_hit_analytic_line(start, params, wall)
            else:
                reflect(start, wall)

    @pytest.mark.parametrize("mode", ["numeric", "analytic"])
    def test_start_outside_the_domain_is_a_config_error(self, mode):
        # eta = 0.5 lies above the line, outside the side = -1 wall's domain,
        # where no billiard orbit starts
        params = SystemParams(m=1.0, a=0.5)
        model = validate_config(params, Wall.line(params.h, side=-1))
        start = PlanarState(1.0, 0.5, 0.3, 0.2)
        assert wall_signed_distance(start, model.wall) == pytest.approx(-0.947, abs=1e-3)
        with pytest.raises(ConfigError, match="outside the domain"):
            billiard_map(start, 1, model, mode=mode, integ=FAST)

    def test_start_outside_a_spherical_cap_is_a_config_error(self):
        # the cap about e_x of test_chart_reads_a_cap_about_another_axis, with
        # the other side, so that its start lies outside the domain
        params = SystemParams(m=1.0, a=0.5)
        model = Model(params, Wall(0.0, (1.0, 0.0, 0.0), 0.3, side=-1))
        start = planar_to_sphere(PlanarState(1.0, 0.2, -0.1, 0.9), params)
        assert wall_signed_distance(start.q, model.wall) < 0.0
        with pytest.raises(ConfigError, match="outside the domain"):
            billiard_map(start, 1, model, integ=FAST)

    @pytest.mark.parametrize("mode", ["numeric", "analytic"])
    def test_start_on_the_wall_within_its_tolerance_runs(self, mode):
        # half the on-wall tolerance beyond the line, moving into the domain
        params = SystemParams(m=1.0, a=0.5)
        model = validate_config(params, Wall.line(params.h, side=-1))
        start = PlanarState(0.5, params.h + 0.5 * ON_WALL_TOL, 0.3, -0.8)
        assert wall_signed_distance(start, model.wall) < 0.0
        run = billiard_map(start, 3, model, mode=mode, integ=FAST)
        assert (run.outcome, run.n_bounces) == ("completed", 3)

    def test_grazing_orbit_ends_in_tangency(self):
        # the circular orbit of radius -h touches the line after a quarter period
        params = SystemParams(m=1.0, a=0.5)
        model = validate_config(params, Wall.line(params.h, side=1))
        R = -params.h
        run = billiard_map(PlanarState(R, 0.0, 0.0, -1.0 / math.sqrt(R)), 5, model,
                           mode="analytic")
        assert run.outcome == "tangency"
        assert run.n_bounces == 1
        rec = run.records[0]
        assert rec.tangent
        assert rec.t_hit == pytest.approx(0.5 * math.pi * R**1.5, rel=1e-12)
        assert run.final_state == rec.state_in

    def test_perturbed_d_varies(self):
        params = SystemParams(m=1.0, a=1.0, beta=0.3)
        model = validate_config(params, Wall.line(params.h, side=-1))
        run = billiard_map(
            PlanarState(0.5, params.h, 0.3, -0.8), 20, model, integ=FAST
        )
        assert run.n_bounces == 20
        D = [r.integrals_in.D for r in run.records]
        E = [r.integrals_in.E_pl for r in run.records]
        assert max(abs(d - D[0]) for d in D) > 1e-3
        assert max(abs(e - E[0]) for e in E) < 1e-9

    def test_analytic_circle_run_matches_numeric(self):
        params = SystemParams(m=1.0, a=0.0)
        model = validate_config(params, Wall.centered_circle(2.0, side=-1))
        s0 = PlanarState(1.0, 0.0, 0.0, 1.2)
        run_a = billiard_map(s0, 5, model, mode="analytic")
        run_n = billiard_map(s0, 5, model, integ=TIGHT)
        assert run_a.n_bounces == run_n.n_bounces == 5
        for ra, rn in zip(run_a.records, run_n.records):
            np.testing.assert_allclose(
                ra.state_in.as_array(), rn.state_in.as_array(), atol=1e-8
            )
            assert ra.t_hit == pytest.approx(rn.t_hit, abs=1e-8)

    def test_exact_runs_keep_their_bits(self):
        # sha256 over float.hex of every record field of 1000 exact line
        # bounces and 200 exact centered-circle bounces: any change of an
        # output bit on the exact path shows here. The circle's a = 0.5 makes
        # 1 + a^2 no power of two, so a regrouped E_sph changes its bits too
        line = validate_config(BILLIARD_PARAMS, Wall.line(BILLIARD_PARAMS.h, side=-1))
        circle = validate_config(SystemParams(m=1.0, a=0.5), Wall.centered_circle(2.0, side=-1))
        runs = (billiard_map(BILLIARD_START, 1000, line, mode="analytic"),
                billiard_map(PlanarState(1.0, 0.0, 0.0, 1.2), 200, circle, mode="analytic"))
        assert [(run.outcome, run.n_bounces) for run in runs] == [("completed", 1000),
                                                                 ("completed", 200)]
        states = ("xi", "eta", "xi_dot", "eta_dot")
        digest = hashlib.sha256()
        for rec in runs[0].records + runs[1].records:
            values = (rec.t_hit, *(getattr(rec.state_in, k) for k in states),
                      *(getattr(rec.state_out, k) for k in states),
                      *rec.integrals_in, *rec.integrals_out, float(rec.tangent))
            digest.update(" ".join(map(float.hex, values)).encode())
        assert digest.hexdigest() == (
            "911ed25d82fa46c53247d0f16f53c9c2c5b6d9c952260321648f6b355db1b335")

    @pytest.mark.parametrize("wall", [Wall.line(H05, side=-1), Wall.line(H05, side=1),
                                      Wall.centered_circle(1.5, side=-1),
                                      Wall.centered_circle(0.7, side=1)],
                             ids=lambda w: f"{wall_name(w)}{w.side:+d}")
    def test_exact_records_are_one_reflection_and_two_integral_sets(self, wall, rng):
        # each exact record, built in one pass over its hit, holds to the bit
        # what reflect and integral_set give for its states; the circular
        # orbit of radius -h grazes the side = +1 line, a tangent record
        params = SystemParams(m=1.0, a=0.5)
        model = validate_config(params, wall)
        starts = list(planar_wall_states(rng, wall, 40))
        grazed = not wall.alpha and wall.side == 1
        if grazed:
            starts.append(PlanarState(-H05, 0.0, 0.0, -1.0 / math.sqrt(-H05)))
        records = [rec for s in starts
                   for rec in billiard_map(s, 20, model, mode="analytic").records]
        assert len(records) >= 100
        assert any(rec.tangent for rec in records) == grazed

        def bits(values):
            return [float.hex(float(v)) for v in values]

        for rec in records:
            out = rec.state_in if rec.tangent else reflect(rec.state_in, wall)
            assert bits(rec.state_out) == bits(out)
            assert bits(rec.integrals_in) == bits(integral_set(rec.state_in, params))
            assert bits(rec.integrals_out) == bits(integral_set(rec.state_out, params))

    @pytest.mark.parametrize("case", ["line-1", "line+1", "circle-1", "circle+1",
                                      "numeric-line", "numeric-great-circle"])
    def test_each_bounce_reflects_once_through_reflect(self, case, rng, seam_calls):
        # every record reflects its hit through the module attribute reflect,
        # once unless it is a graze, and a planar record reads integral_set
        # twice; the numeric line run is bound, so that no escape
        # certificate runs an exact leg of its own
        if case == "numeric-line":
            model = validate_config(BILLIARD_PARAMS, Wall.line(BILLIARD_PARAMS.h, side=-1))
            assert planar_energy(BILLIARD_START, 1.0, 0.0) < 0.0
            runs = [billiard_map(BILLIARD_START, 10, model, integ=FAST)]
        elif case == "numeric-great-circle":
            params = SystemParams(m=1.0, a=1.0)
            model = validate_config(params, Wall.great_circle((0.0, 1.0, 0.0), side=-1))
            s0 = planar_to_sphere(PlanarState(0.5, params.h, 0.3, -0.8), params)
            runs = [billiard_map(s0, 10, model, integ=FAST)]
        else:
            side = 1 if case.endswith("+1") else -1
            wall = (Wall.line(H05, side=side) if case.startswith("line")
                    else Wall.centered_circle(0.7 if side == 1 else 1.5, side=side))
            model = validate_config(SystemParams(m=1.0, a=0.5), wall)
            runs = [billiard_map(s, 10, model, mode="analytic")
                    for s in planar_wall_states(rng, wall, 10)]
        records = [rec for run in runs for rec in run.records]
        assert len(records) >= 10
        assert seam_calls["reflect"] == sum(not rec.tangent for rec in records)
        if model.wall.is_planar:
            assert seam_calls["integral_set"] == 2 * len(records)

    @pytest.mark.parametrize("mode", ["numeric", "analytic"])
    @pytest.mark.parametrize("t_max, n_bounces", [(0.05, 0), (0.81, 2)])
    def test_both_maps_share_the_leg_time_limit(self, t_max, n_bounces, mode):
        # the three legs take 0.803, 0.671 and 0.817: a leg longer than
        # t_max_per_leg is Undetermined in either map
        params = SystemParams(m=1.0, a=0.5)
        model = validate_config(params, Wall.line(params.h, side=-1))
        start = PlanarState(0.3, params.h, 0.2, -0.9)
        assert billiard_map(start, 3, model, mode=mode, integ=FAST).n_bounces == 3
        run = billiard_map(start, 3, model, mode=mode, integ=FAST, t_max_per_leg=t_max)
        assert (run.outcome, run.n_bounces) == ("undetermined", n_bounces)
        assert isinstance(run.error, Undetermined)
        assert str(run.error) == f"no hit within t_max = {t_max}"

    @pytest.mark.parametrize("mode", ["numeric", "analytic"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", range(4))
    def test_non_finite_start_is_a_config_error(self, k, value, mode):
        # PlanarState refuses NaN and inf, so no map of either mode can
        # receive a non-finite start
        params = SystemParams(m=1.0, a=0.5)
        model = validate_config(params, Wall.line(params.h, side=-1))
        start = [0.3, params.h - 0.1, 0.2, -0.9]
        start[k] = value
        with pytest.raises(ConfigError, match="a planar state must be finite"):
            billiard_map(PlanarState(*start), 3, model, mode=mode, integ=FAST)

    def test_repulsive_pocket_escapes(self):
        # documented contrast: with a repulsive center the bouncing pocket
        # under the center is unstable and generic orbits escape quickly
        params = SystemParams(m=-1.0, a=1.0)
        model = validate_config(params, Wall.line(params.h, side=1))
        run = billiard_map(
            PlanarState(0.0, params.h, 0.2, 0.7), 100, model, mode="analytic"
        )
        assert run.outcome == "escape"
        assert run.n_bounces < 20

    def test_spherical_great_circle_run(self):
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.great_circle((0.0, 1.0, 0.0), side=-1)
        model = validate_config(params, wall)
        s0 = planar_to_sphere(PlanarState(0.5, params.h, 0.3, -0.8), params)
        run = billiard_map(s0, 10, model, integ=FAST)
        assert run.n_bounces == 10
        es = [r.integrals_in.E_sph for r in run.records]
        ep = [r.integrals_in.E_pl for r in run.records]
        assert max(abs(e - es[0]) for e in es) / max(1, abs(es[0])) < 1e-10
        assert max(abs(e - ep[0]) for e in ep) / max(1, abs(ep[0])) < 1e-10

    def test_spherical_centered_circle_run(self):
        params = SystemParams(m=1.0, a=0.0)
        z1 = spherical_center(params)
        wall = Wall.centered_small_circle(2.0 * math.pi / 5.0, z1, side=-1)
        model = validate_config(params, wall)
        # start on the wall moving toward the center cap, which side = -1
        # leaves out of the domain: the first record is the zero-time
        # reflection, the other seven are flights outside the cap
        th = 2.0 * math.pi / 5.0
        q = np.array([math.sin(th), 0.0, -math.cos(th)])
        v = np.array([-0.6, 0.4, 0.0])
        v -= np.dot(q, v) * q
        s0 = SphericalState.project(q, v)
        g0 = wall_signed_distance(s0.q, wall)
        assert abs(g0) < 1e-12
        run = billiard_map(s0, 8, model, integ=FAST)
        assert run.n_bounces == 8
        assert run.records[0].t_hit == 0.0
        es = [r.integrals_in.E_sph for r in run.records]
        assert max(abs(e - es[0]) for e in es) / max(1, abs(es[0])) < 1e-10


def outcome_class(leg) -> str:
    """The class of a leg's outcome: "hit", "tangency", "escape", or the
    outcome of the DynamicsError it raised."""
    try:
        out = leg()
    except DynamicsError as exc:
        return exc.outcome
    if isinstance(out, Escape):
        return "escape"
    return "tangency" if out.tangent else "hit"


# A beta = 0 bound conic that never reaches the wall: the exact map returns
# an Escape, the numeric map raises Undetermined after one period. Which
# class is right is left to a graze rule shared by both maps.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the maps class a bound conic that misses the wall apart")
@pytest.mark.parametrize("start, level", [
    ((1.0, 0.0, 0.0, 1.0), -2.0),     # the circle r = 1 below the line
    ((0.3, 0.4, -0.3, -0.4), 0.0),    # radial, through the center on the line
])
def test_both_maps_class_a_bound_conic_missing_the_wall_alike(start, level):
    params = SystemParams(m=1.0, a=0.0)
    wall = Wall.line(level, side=1)
    s = PlanarState(*start)
    exact = outcome_class(lambda: next_hit_analytic_line(s, params, wall))
    numeric = outcome_class(lambda: next_hit_numeric(s, Model(params=params, wall=wall), FAST))
    assert exact == numeric


# The circle r = -h touches the line after a quarter period: the exact map
# returns that graze (test_grazing_orbit_ends_in_tangency), the numeric map
# raises Undetermined("the bound conic missed the wall for a whole period").
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the numeric map misses the graze the exact map returns")
@pytest.mark.parametrize("rtol", [1e-10, 1e-12])
def test_both_maps_return_the_graze_of_a_circle_touching_the_line(rtol):
    params = SystemParams(m=1.0, a=0.5)
    wall = Wall.line(params.h, side=1)
    R = -params.h
    s = PlanarState(R, 0.0, 0.0, -1.0 / math.sqrt(R))
    integ = IntegratorConfig(rtol=rtol, atol=rtol)
    legs = {"exact": lambda: next_hit_analytic_line(s, params, wall),
            "numeric": lambda: next_hit_numeric(s, Model(params=params, wall=wall), integ)}
    classes = {name: outcome_class(leg) for name, leg in legs.items()}
    assert classes == {"exact": "tangency", "numeric": "tangency"}
    for leg in legs.values():
        assert leg().t_hit == pytest.approx(0.4697776745639036, rel=1e-8)


@pytest.mark.parametrize("mode, tol", [("analytic", 1e-12), ("numeric", 1e-8)])
def test_the_center_side_runs_the_far_side_billiard_backwards(mode, tol):
    # the paper's side reversal: from the far side's last arrival, the map
    # on the center side of the same line visits the far side's earlier
    # hits in reverse, each with the normal velocity eta_dot reversed
    far = billiard_map(BILLIARD_START, 50, validate_config(
        BILLIARD_PARAMS, Wall.line(BILLIARD_PARAMS.h, side=-1)), mode="analytic")
    assert far.n_bounces == 50
    center = billiard_map(far.records[-1].state_in, 49, validate_config(
        BILLIARD_PARAMS, Wall.line(BILLIARD_PARAMS.h, side=1)), mode=mode, integ=FAST)
    assert center.n_bounces == 49
    for j, rec in enumerate(center.records):
        want = far.records[50 - 2 - j].state_in.as_array() * [1.0, 1.0, 1.0, -1.0]
        np.testing.assert_allclose(rec.state_in.as_array(), want, rtol=0.0, atol=tol)


class TestOnWallStart:
    """A start on the wall moving out of the domain is reflected at once."""

    def setup_method(self):
        self.params = SystemParams(m=1.0, a=1.0)
        self.wall = Wall.line(self.params.h, side=-1)  # domain eta < h
        self.model = validate_config(self.params, self.wall)
        self.start = PlanarState(0.5, self.params.h, 0.3, 0.8)  # leaving

    def test_both_maps_reflect_at_time_zero(self):
        outs = [
            next_hit_analytic_line(self.start, self.params, self.wall),
            next_hit_numeric(self.start, self.model, FAST),
        ]
        for out in outs:
            assert is_hit(out)
            assert out.t_hit == 0.0
            assert out.state_in == self.start
            assert out.state_out == reflect(self.start, self.wall)

    @pytest.mark.parametrize("mode", ["analytic", "numeric"])
    def test_every_hit_leaves_the_domain(self, mode):
        run = billiard_map(self.start, 3, self.model, mode=mode, integ=FAST)
        assert run.n_bounces == 3
        assert run.records[0].t_hit == 0.0
        assert all(r.state_in.eta_dot > 0.0 for r in run.records)


class TestSphericalRecordsBeyondChart:
    def test_north_states_carry_nan_planar_fields(self):
        from kcbilliards.billiard import _spherical_integrals

        params = SystemParams(m=1.0, a=0.5)
        q = np.array([0.0, math.sin(0.4), math.cos(0.4)])  # northern point
        v = np.array([1.0, 0.0, 0.0])
        v -= np.dot(q, v) * q
        s = SphericalState.project(q, v)
        ints = _spherical_integrals(s, params)
        assert math.isnan(ints.E_pl) and math.isnan(ints.D)
        assert math.isfinite(ints.E_sph)


class TestSphericalPoleCollision:
    def test_radial_orbit_mirrors_through_center(self):
        # radial spherical orbit from the equator wall into the attractive
        # center: elastic continuation retraces to the start, energy kept.
        # side = +1 keeps the hemisphere that contains Z1, so the start
        # moves into the domain.
        params = SystemParams(m=1.0, a=0.0)  # center at the south pole
        wall = Wall.centered_small_circle(
            math.pi / 2.0, spherical_center(params), side=1
        )
        model = validate_config(params, wall)
        q = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, -0.4])  # along the meridian, toward the pole
        s0 = SphericalState(q, v)
        rec = next_hit_numeric(s0, model, FAST, t_max=100.0)
        assert is_hit(rec)
        np.testing.assert_allclose(rec.state_in.q, q, atol=1e-10)
        np.testing.assert_allclose(rec.state_in.v, -v, atol=1e-10)
        e0 = spherical_energy_embedded(s0, params)
        e1 = rec.integrals_in.E_sph
        assert abs(e1 - e0) <= 1e-10 * max(1.0, abs(e0))
        # down to the pole from cot(theta) = 0 and back
        fall = spherical_radial_fall_time(e0, 1.0, 0.0)
        assert rec.t_hit == pytest.approx(2.0 * fall, rel=1e-10)

    def test_near_radial_orbit_passes_the_pole_and_hits(self):
        # |(q x v).att| = 1e-10: the orbit passes the pole in the chart by
        # the elastic bounce and comes back to the equator wall, where the
        # radial orbit's fall time, down and back, times the hit
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.centered_small_circle(
            math.pi / 2.0, spherical_center(params), side=1
        )
        model = validate_config(params, wall)
        s0 = SphericalState(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1e-10, -0.4]))
        out = next_hit_numeric(s0, model, FAST, t_max=100.0)
        assert is_hit(out)
        assert out.t_hit == pytest.approx(2.46196882581, abs=1e-10)
        e0 = spherical_energy_embedded(s0, params)
        fall = spherical_radial_fall_time(e0, 1.0, 0.0)
        assert out.t_hit == pytest.approx(2.0 * fall, rel=1e-10)

    def test_radial_orbit_leaving_the_domain_reflects_at_once(self):
        # the same start with side = -1 (the hemisphere away from Z1)
        # points out of the domain: a hit at t = 0
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.centered_small_circle(
            math.pi / 2.0, spherical_center(params), side=-1
        )
        model = validate_config(params, wall)
        s0 = SphericalState(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -0.4]))
        out = next_hit_numeric(s0, model, FAST, t_max=100.0)
        assert is_hit(out)
        assert out.t_hit == 0.0
        np.testing.assert_array_equal(out.state_in.v, s0.v)
        np.testing.assert_array_equal(out.state_out.v, reflect(s0, wall).v)

    @staticmethod
    def _radial_setup(thdot0, theta_wall):
        # repulsive m, so the attracting pole is -Z1; the wall is the
        # circle at angle theta_wall from it, the domain holds the start
        params = SystemParams(m=-1.0, a=0.7)
        att = -spherical_center(params)
        wall = Wall.centered_small_circle(
            math.pi - theta_wall, spherical_center(params), side=-1
        )
        e = np.array([1.0, 0.0, 0.0])  # orthogonal to att
        th0 = 0.6
        q = math.cos(th0) * att + math.sin(th0) * e
        v = thdot0 * (math.cos(th0) * e - math.sin(th0) * att)
        s0 = SphericalState.project(q, v)
        return params, att, e, wall, s0

    def test_radial_orbit_away_from_pole_matches_integration(self):
        # outward from theta = 0.6 to the wall at 1.2, short of the turning point
        params, att, e, wall, s0 = self._radial_setup(2.0, 1.2)
        model = validate_config(params, wall)
        out = next_hit_numeric(s0, model, FAST)
        assert is_hit(out)
        t, q, v = embedded_hit(s0.q, s0.v, params.m_prime, spherical_center(params),
                               lambda q: wall_signed_distance(q, wall), t_max=10.0)
        assert out.t_hit == pytest.approx(t, rel=1e-10)
        np.testing.assert_allclose(out.state_in.as_array(), np.concatenate([q, v]), atol=1e-10)
        mu = abs(params.m_prime)
        energy = spherical_energy_embedded(s0, params)
        want = (spherical_radial_fall_time(energy, mu, 1.0 / math.tan(1.2))
                - spherical_radial_fall_time(energy, mu, 1.0 / math.tan(0.6)))
        assert out.t_hit == pytest.approx(want, rel=1e-10)
        self._check_radial_hit(out, energy, mu, att, e)

    def test_radial_orbit_through_pole_matches_fall_time(self):
        params, att, e, wall, s0 = self._radial_setup(-2.0, 1.2)
        model = validate_config(params, wall)
        out = next_hit_numeric(s0, model, FAST)
        assert is_hit(out)
        mu = abs(params.m_prime)
        energy = spherical_energy_embedded(s0, params)
        # down to the pole, bounce, out to the wall
        want = (spherical_radial_fall_time(energy, mu, 1.0 / math.tan(0.6))
                + spherical_radial_fall_time(energy, mu, 1.0 / math.tan(1.2)))
        assert out.t_hit == pytest.approx(want, rel=1e-10)
        self._check_radial_hit(out, energy, mu, att, e)

    @staticmethod
    def _check_radial_hit(out, energy, mu, att, e):
        # the hit lies at theta = 1.2 on the start's half meridian, moving out
        thdot = math.sqrt(2.0 * (energy + mu / math.tan(1.2)))
        np.testing.assert_allclose(
            out.state_in.q, math.cos(1.2) * att + math.sin(1.2) * e, atol=1e-10,
        )
        np.testing.assert_allclose(
            out.state_in.v, thdot * (math.cos(1.2) * e - math.sin(1.2) * att), atol=1e-10,
        )
        assert abs(out.integrals_in.E_sph - energy) <= 1e-10

    def test_radial_orbit_short_of_the_wall_is_undetermined(self):
        # turning point cot(theta_max) = -E/|m'| lies inside the wall
        params, att, e, wall, s0 = self._radial_setup(0.5, 1.2)
        energy = spherical_energy_embedded(s0, params)
        assert math.atan2(abs(params.m_prime), -energy) < 1.2
        model = validate_config(params, wall)
        with pytest.raises(Undetermined):
            next_hit_numeric(s0, model, FAST)

    @pytest.mark.parametrize(
        "energy, mu, theta",
        [(0.08, 1.0, math.pi / 2), (-3.0, 1.0, 0.2), (5.0, 1.0, 2.0),
         (0.3, 1e-3, 2.5), (-1.0, 1.0, None)],
    )
    def test_fall_time_closed_form(self, energy, mu, theta):
        # smooth form of the fall-time integral, s^2 = E + mu cot(theta)
        s = 0.0 if theta is None else math.sqrt(energy + mu / math.tan(theta))
        want, _ = quad(
            lambda x: 1.0 / ((x * x - energy) ** 2 + mu * mu), s, math.inf,
            epsabs=0.0, epsrel=1e-13, limit=200,
        )
        want *= math.sqrt(2.0) * mu
        u = None if theta is None else 1.0 / math.tan(theta)
        assert spherical_radial_fall_time(energy, mu, u) == pytest.approx(want, rel=1e-12)

    def test_radial_orbit_along_the_wall_is_undetermined(self):
        # the meridian of the orbit is the great-circle wall itself
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.great_circle((0.0, 1.0, 0.0), side=1)
        model = validate_config(params, wall)
        q = np.array([math.sin(1.0), 0.0, -math.cos(1.0)])
        v = -0.5 * np.array([math.cos(1.0), 0.0, math.sin(1.0)])  # toward Z1
        with pytest.raises(Undetermined):
            next_hit_numeric(SphericalState.project(q, v), model, FAST)

    def test_wall_through_pole_skips_center_hit(self):
        # a great-circle wall containing the centers: the center point is
        # removed from the wall, so a radial infall mirrors instead of
        # registering a hit at the pole
        params = SystemParams(m=1.0, a=0.0)
        wall = Wall.great_circle((0.0, 1.0, 0.0), side=1)  # contains both poles
        model = validate_config(params, wall)
        th = 1.0
        q = np.array([math.sin(th) * 0.6, math.sin(th) * 0.8, -math.cos(th)])
        q = q / np.linalg.norm(q)
        # velocity along the meridian through q and the pole, inward
        z1 = spherical_center(params)
        merid = z1 - float(np.dot(q, z1)) * q
        merid = merid / np.linalg.norm(merid)
        s0 = SphericalState(q, 0.5 * merid)
        # the radial orbit oscillates through the center forever and its
        # only wall crossing is the removed center point
        with pytest.raises(Undetermined):
            next_hit_numeric(s0, model, FAST, t_max=20.0)


def _attracting_pole(params):
    return math.copysign(1.0, params.m_prime) * spherical_center(params)


def _on_circle(pole, rho, psi):
    """The point at angle rho from the pole, azimuth psi, and the unit
    vectors along increasing rho and psi there."""
    e1 = np.array([1.0, 0.0, 0.0])  # normal to every Z1
    e2 = np.cross(pole, e1)
    d = math.cos(psi) * e1 + math.sin(psi) * e2
    q = math.cos(rho) * pole + math.sin(rho) * d
    return q, math.cos(rho) * d - math.sin(rho) * pole, np.cross(pole, d)


class TestSphericalChartLegs:
    """Spherical legs near the attracting pole run in its gnomonic chart."""

    def test_pole_grid_matches_the_chart_oracle(self):
        # radial and near-radial legs from a circle about the attracting
        # pole through the pole and back; walls beyond |x| = 2 make the
        # leg cross both switch radii on the way in and out
        rng = np.random.default_rng(16)
        ells = [0.0] + list(10.0 ** rng.uniform(-12.0, -5.0, 23))
        for k, ell in enumerate(ells):
            m = 1.0 if k % 2 else -1.0
            params = SystemParams(m=m, a=float(rng.uniform(0.0, 1.5)))
            pole = _attracting_pole(params)
            rho = float(rng.uniform(0.3, 1.4))
            wall = Wall.centered_small_circle(
                rho if m > 0 else math.pi - rho, spherical_center(params), side=int(m)
            )
            q, e_rho, e_psi = _on_circle(pole, rho, float(rng.uniform(0.0, 2.0 * math.pi)))
            speed = float(rng.uniform(0.2, 3.0))
            v = -speed * e_rho + (math.copysign(ell, rng.uniform(-1, 1)) / math.sin(rho)) * e_psi
            s0 = SphericalState.project(q, v)
            out = next_hit_numeric(s0, validate_config(params, wall), FAST)
            assert is_hit(out)
            tau, qh, vh = pole_chart_hit(s0.q, s0.v, pole, abs(params.m_prime), math.tan(rho))
            assert out.t_hit == pytest.approx(tau, abs=1e-8), (k, ell)
            np.testing.assert_allclose(out.state_in.q, qh, atol=1e-8)
            np.testing.assert_allclose(out.state_in.v, vh, atol=1e-8 * max(1.0, speed))

    @pytest.mark.parametrize("kind", ["cap", "great-circle"])
    def test_switch_grid_matches_the_embedded_oracle(self, kind):
        # non-radial legs that run in and out of the chart: from the
        # circle rho about the pole outward and back (some beyond |x| = 2,
        # 63 degrees off the pole), or from a great circle 0.45-1.2 rad off
        # the pole past the pole and back; closer passes are left to the
        # chart oracle, as the embedded oracle loses digits there
        rng = np.random.default_rng(17)
        for k in range(16):
            m = 1.0 if k % 2 else -1.0
            params = SystemParams(m=m, a=float(rng.uniform(0.0, 1.5)))
            pole = _attracting_pole(params)
            mu = abs(params.m_prime)
            if kind == "cap":
                rho = float(rng.uniform(0.3, 0.7))
                wall = Wall.centered_small_circle(
                    rho if m > 0 else math.pi - rho, spherical_center(params), side=-int(m)
                )
                q, e_rho, e_psi = _on_circle(pole, rho, float(rng.uniform(0.0, 2.0 * math.pi)))
                phi = float(rng.uniform(-0.8, 0.8))
                speed = float(rng.uniform(0.8, 0.99)) * math.sqrt(2.0 * mu / math.tan(rho))
                v = speed * (math.cos(phi) * e_rho + math.sin(phi) * e_psi)
            else:
                delta = float(rng.uniform(0.45, 1.2))  # the wall's distance from the pole
                n, e_n, _ = _on_circle(pole, 0.5 * math.pi - delta, float(rng.uniform(0, 6.3)))
                wall = Wall.great_circle(n, side=1)  # the side of the pole
                t_off = float(rng.uniform(-0.6, 0.6))
                q = -math.cos(t_off) * e_n + math.sin(t_off) * np.cross(n, e_n)
                to_pole = pole - float(np.dot(pole, q)) * q
                to_pole /= np.linalg.norm(to_pole)
                across = np.cross(q, to_pole)
                across *= math.copysign(1.0, float(np.dot(across, n)))  # into the domain
                phi = float(rng.uniform(0.7, 1.3))
                speed = float(rng.uniform(0.3, 1.5))
                v = speed * (math.cos(phi) * to_pole + math.sin(phi) * across)
            s0 = SphericalState.project(q, v)
            model = validate_config(params, wall)
            want = embedded_hit(s0.q, s0.v, params.m_prime, spherical_center(params),
                                lambda q: wall_signed_distance(q, wall), t_max=30.0)
            out = next_hit_numeric(s0, model, FAST, t_max=30.0)
            assert is_hit(out)
            assert out.t_hit == pytest.approx(want[0], abs=1e-8), k
            np.testing.assert_allclose(out.state_in.q, want[1], atol=1e-8)
            np.testing.assert_allclose(out.state_in.v, want[2], atol=1e-8 * max(1.0, speed))

    def test_inside_cap_runs_keep_the_spherical_energy(self):
        # 30 runs inside the cap about Z1 (side = +1) from states on it
        # moving toward Z1 at 0.3-0.9 of the speed that reaches its equator;
        # the embedded field lost E_sph by up to 6e-7 on these or stopped
        # at the pole guard
        rng = np.random.default_rng(5)
        for k in range(30):
            a = float(rng.uniform(0.3, 1.5))
            colatitude = float(rng.uniform(0.4, 1.2))
            params = SystemParams(m=1.0, a=a)
            z1 = spherical_center(params)
            q, e_rho, e_psi = _on_circle(z1, colatitude, float(rng.uniform(0.0, 2.0 * math.pi)))
            phi = float(rng.uniform(-math.pi / 2 + 0.15, math.pi / 2 - 0.15))
            v_equator = math.sqrt(2.0 * params.m_prime / math.tan(colatitude))
            speed = float(rng.uniform(0.3, 0.9)) * v_equator
            v = speed * (-math.cos(phi) * e_rho + math.sin(phi) * e_psi)
            wall = Wall.centered_small_circle(colatitude, z1, side=1)
            run = billiard_map(SphericalState.project(q, v), 5, validate_config(params, wall),
                               integ=FAST, t_max_per_leg=50.0)
            assert run.outcome == "completed" and run.n_bounces == 5, k
            es = [e for r in run.records for e in (r.integrals_in.E_sph, r.integrals_out.E_sph)]
            assert max(abs(e - es[0]) for e in es) <= 1e-8 * max(1.0, abs(es[0])), k

    def test_chart_reads_a_cap_about_another_axis(self):
        # a cap about e_x, not about the pole (built directly: validate_config
        # takes caps about Z1 only); the leg starts in the pole chart, which
        # must read the cap's own wall function and not one about the pole
        params = SystemParams(m=1.0, a=0.5)
        wall = Wall(0.0, (1.0, 0.0, 0.0), 0.3)
        s0 = planar_to_sphere(PlanarState(1.0, 0.2, -0.1, 0.9), params)
        assert float(s0.q @ spherical_center(params)) > 1.0 / math.sqrt(2.0)  # in the chart
        out = next_hit_numeric(s0, Model(params, wall), FAST)
        assert is_hit(out)
        t, q, v = embedded_hit(s0.q, s0.v, params.m_prime, spherical_center(params),
                               lambda q: wall_signed_distance(q, wall))
        assert out.t_hit == pytest.approx(t, abs=1e-8)
        np.testing.assert_allclose(out.state_in.q, q, atol=1e-8)
        np.testing.assert_allclose(out.state_in.v, v, atol=1e-8)


def test_repulsive_outward_radial_escapes_analytically():
    params = SystemParams(m=-1.0, a=1.0)
    wall = Wall.line(params.h, side=1)
    out = next_hit_analytic_line(
        PlanarState(0.0, 1.0, 0.0, 1.0), params, wall
    )
    assert isinstance(out, Escape)
