import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    bisection_kepler_elliptic,
    levi_civita_through_collision,
    ode_propagate,
    ode_trajectory,
    radial_fall_time,
)

from kcbilliards.errors import (
    CollisionInsideInterval,
    NonConvergence,
    PerturbedModel,
    SingularPosition,
)
from kcbilliards.integrals import integral_set, planar_energy
from kcbilliards.model import PlanarState, SystemParams
from kcbilliards.planar import (
    _stumpff_c,
    _stumpff_s,
    levi_civita_rhs,
    propagate_analytic,
    solve_kepler_equation,
    time_of_flight,
    universal_kernel,
    universal_state,
)


class TestLeviCivitaRhs:
    def test_singular_guard(self):
        # |u|^2 = 1e-14 < R_MIN: with beta != 0 the field is singular there
        with pytest.raises(SingularPosition):
            levi_civita_rhs(-1.0, 0.5)(0.0, [1e-7, 0.0, 0.0, 0.0, 0.0])


class TestKeplerEquation:
    def test_zero_eccentricity(self):
        assert solve_kepler_equation(0.7, 0.0) == pytest.approx(0.7, abs=1e-14)

    def test_apoapsis_symmetry(self):
        assert solve_kepler_equation(math.pi, 0.5) == pytest.approx(math.pi)

    def test_against_bisection_oracle(self):
        want = bisection_kepler_elliptic(0.2, 0.9, 0.0, math.pi)
        got = solve_kepler_equation(0.2, 0.9)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("e", [0.0, 0.3, 0.9, 0.999, 1.0 - 1e-9, 1.0 - 1e-12])
    @pytest.mark.parametrize("M", [-2.5, -0.3, 0.0, 0.2, 1.0, 3.0, 9.0])
    def test_elliptic_residuals(self, e, M):
        E = solve_kepler_equation(M, e)
        assert abs(E - e * math.sin(E) - M) <= 1e-13

    @pytest.mark.parametrize("e", [0.3, 0.9, 0.999, 1.0 - 1e-9, 1.0 - 1e-12])
    def test_elliptic_residuals_at_large_mean_anomaly(self, e):
        # the ellipse is solved on M reduced to [-pi, pi), so the residual
        # stays at the rounding of M; (E - M) is exact, as |E - M| <= e
        Ms = np.random.default_rng(11).uniform(-1e5, 1e5, size=60)
        for M in [-1e3, 1e3, *Ms]:
            E = solve_kepler_equation(M, e)
            assert abs((E - M) - e * math.sin(E)) <= 4.0 * math.ulp(M), M

    @pytest.mark.parametrize("e", [1.0 + 1e-12, 1.0 + 1e-9, 1.5, 5.0])
    @pytest.mark.parametrize("M", [-20.0, -1.0, 0.0, 0.4, 2.0, 50.0])
    def test_hyperbolic_residuals(self, e, M):
        H = solve_kepler_equation(M, e)
        assert abs(e * math.sinh(H) - H - M) <= 1e-13 * max(1.0, abs(M))

    @pytest.mark.parametrize("M", [-8.0, -0.5, 0.0, 0.1, 2.0, 40.0])
    def test_barker_residuals(self, M):
        B = solve_kepler_equation(M, 1.0)
        assert abs(B + B**3 / 3.0 - M) <= 1e-13 * max(1.0, abs(M))


class TestPropagateAnalytic:
    def test_quarter_circle(self):
        s = propagate_analytic(
            PlanarState(1, 0, 0, 1), math.pi / 2.0, SystemParams(m=1.0)
        )
        np.testing.assert_allclose(
            s.as_array(), [0.0, 1.0, -1.0, 0.0], atol=1e-13
        )

    def test_full_period(self):
        s = propagate_analytic(
            PlanarState(1, 0, 0, 1), 2.0 * math.pi, SystemParams(m=1.0)
        )
        np.testing.assert_allclose(s.as_array(), [1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_parabolic_against_ode_oracle(self):
        params = SystemParams(m=1.0)
        s0 = PlanarState(1, 0, 0, math.sqrt(2.0))
        got = propagate_analytic(s0, 1.0, params)
        want = ode_propagate(s0, 1.0, params)
        np.testing.assert_allclose(got.as_array(), want.as_array(), atol=1e-10)

    @pytest.mark.parametrize("m", [1.0, -1.0])
    def test_random_states_against_ode_oracle(self, rng, m):
        params = SystemParams(m=m)
        checked = 0
        while checked < 25:
            y = rng.uniform(-2, 2, size=4)
            r = math.hypot(y[0], y[1])
            if r < 0.5:
                continue
            s0 = PlanarState(*y)
            if abs(integral_set(s0, params).L) < 1e-3:
                continue
            dt = float(rng.uniform(0.1, 3.0))
            if m > 0 and planar_energy(s0, m) < 0:
                pass  # bound, any dt fine
            try:
                got = propagate_analytic(s0, dt, params)
            except CollisionInsideInterval:
                continue
            want = ode_propagate(s0, dt, params)
            np.testing.assert_allclose(
                got.as_array(), want.as_array(), rtol=1e-9, atol=1e-9
            )
            checked += 1

    # 50-digit references: mpmath at 50 digits solves the universal Kepler
    # equation t(s) = r0 G1 + sigma0 G2 + m G3 = dt with findroot, the
    # Stumpff functions in closed trigonometric form (both orbits are
    # bound), and applies the f and g functions there.
    @pytest.mark.parametrize(
        "start, want",
        [
            (
                (0.11882839647950139, 0.22961216025334252,
                 -0.38774738497643213, 1.0526678932833606),
                (0.06171089424306873, 0.0017836457538056901,
                 3.625109138513078, 3.574478472706728),
            ),
            (
                (-0.6227568720615579, -0.43011418126697976,
                 -1.0990575104679527, -0.047444848184317046),
                (-0.18872117619442483, 0.27477061793355995,
                 2.0432616775467523, -0.626610431826193),
            ),
        ],
    )
    def test_long_flight_against_high_precision_reference(self, start, want):
        got = propagate_analytic(PlanarState(*start), 1000.0, SystemParams(m=1.0))
        for x, w in zip(got.as_array(), want):
            assert abs(x - w) <= 1e-10 * max(1.0, abs(w))

    def test_conserves_all_integrals(self, rng):
        params = SystemParams(m=1.0)
        for _ in range(50):
            y = rng.uniform(-2, 2, size=4)
            if math.hypot(y[0], y[1]) < 0.5:
                continue
            s0 = PlanarState(*y)
            i0 = integral_set(s0, params)
            if abs(i0.L) < 1e-3:
                continue
            try:
                s1 = propagate_analytic(s0, float(rng.uniform(0.05, 2.0)), params)
            except CollisionInsideInterval:
                continue
            i1 = integral_set(s1, params)
            for f1, f0 in zip(i1[:4], i0[:4]):  # E_pl, L, A_xi, A_eta
                assert abs(f1 - f0) <= 1e-11 * max(1.0, abs(f0))

    def test_time_reversibility(self, rng):
        params = SystemParams(m=1.0)
        for _ in range(30):
            y = rng.uniform(-2, 2, size=4)
            if math.hypot(y[0], y[1]) < 0.5:
                continue
            s0 = PlanarState(*y)
            if abs(integral_set(s0, params).L) < 1e-3:
                continue
            dt = float(rng.uniform(0.1, 2.0))
            try:
                s1 = propagate_analytic(s0, dt, params)
                s2 = propagate_analytic(s1, -dt, params)
            except CollisionInsideInterval:
                continue
            np.testing.assert_allclose(
                s2.as_array(), s0.as_array(), rtol=1e-10, atol=1e-10
            )

    def test_repulsive_round_trip(self):
        params = SystemParams(m=-1.0)
        s0 = PlanarState(1.0, -0.8, 0.3, 0.9)
        s1 = propagate_analytic(s0, 1.7, params)
        s2 = propagate_analytic(s1, -1.7, params)
        np.testing.assert_allclose(s2.as_array(), s0.as_array(), atol=1e-11)

    def test_collision_inside_interval(self):
        # radial infall from r0 = 1 at speed 0.1: the elastic bounce at the
        # center retraces the fall, so at 2 t_c the orbit is back at the
        # start moving out, and it repeats with the period 2 pi a^(3/2)
        params = SystemParams(m=1.0)
        s0 = PlanarState(0.0, 1.0, 0.0, -0.1)
        t_c = radial_fall_time(1.0, 0.1, 1.0)
        np.testing.assert_allclose(
            propagate_analytic(s0, 2.0 * t_c, params).as_array(), [0.0, 1.0, 0.0, 0.1],
            atol=1e-12,
        )
        period = 2.0 * math.pi * (1.0 / 1.99) ** 1.5
        np.testing.assert_allclose(
            propagate_analytic(s0, 10.0, params).as_array(),
            propagate_analytic(s0, 10.0 - 4.0 * period, params).as_array(),
            atol=1e-10,
        )

    def test_repulsive_radial_orbit_turns_without_collision(self):
        # m < 0: the radial infall turns at r = 1/3, a pericentre but no collision
        params = SystemParams(m=-1.0)
        s0 = PlanarState(0.0, 1.0, 0.0, -2.0)
        s1 = propagate_analytic(s0, 1.0, params)
        np.testing.assert_allclose(
            s1.as_array(), ode_propagate(s0, 1.0, params).as_array(), atol=1e-9
        )

    @pytest.mark.parametrize("rel", [1e-9, 1e-6])
    def test_collision_just_beyond_interval(self, rel):
        # radial infall from r0 = 1 at speed 0.1: the state rel t_c past the
        # collision mirrors the one rel t_c before it, the velocity reversed;
        # the closed-form t_c and the kernel's collision time differ by a
        # few ulps, which moves r by about (2/3) 1e-16/rel relative
        params = SystemParams(m=1.0)
        s0 = PlanarState(0.0, 1.0, 0.0, -0.1)
        t_c = radial_fall_time(1.0, 0.1, 1.0)
        before = propagate_analytic(s0, t_c * (1.0 - rel), params)
        after = propagate_analytic(s0, t_c * (1.0 + rel), params)
        assert 0.0 < before.r < 1e-2 and before.eta_dot < 0.0 < after.eta_dot
        mirror = [after.xi, after.eta, -after.xi_dot, -after.eta_dot]
        np.testing.assert_allclose(mirror, before.as_array(), rtol=1e-14 / rel, atol=0.0)
        for s1 in (before, after):
            assert abs(planar_energy(s1, 1.0) - planar_energy(s0, 1.0)) <= 1e-9 * s1.speed**2

    def test_perturbed_rejected(self):
        with pytest.raises(PerturbedModel):
            propagate_analytic(
                PlanarState(1, 0, 0, 1), 0.5, SystemParams(m=1.0, beta=0.1)
            )

    def test_period_vs_ode(self):
        params = SystemParams(m=1.0)
        s0 = PlanarState(1.2, 0.3, -0.2, 0.8)
        a = -1.0 / (2.0 * planar_energy(s0, 1.0))  # semi-major axis, m = 1
        T = 2.0 * math.pi * math.sqrt(a**3)
        got = propagate_analytic(s0, T, params)
        np.testing.assert_allclose(got.as_array(), s0.as_array(), atol=1e-10)


class TestUniversalKernel:
    @staticmethod
    def stumpff_series(z, k):
        """c_k(z) = sum_n (-z)^n / (2n + k)!, summed in exact rationals."""
        zf, total, n = Fraction(z), Fraction(0), 0
        while True:
            term = (-zf) ** n / math.factorial(2 * n + k)
            total += term
            if abs(term) < Fraction(1, 10**40) * abs(total):
                return float(total)
            n += 1

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_stumpff_against_rational_series(self, sign):
        for z in sign * np.logspace(-7.0, 1.0, 81):
            z = float(z)
            assert abs(_stumpff_c(z) / self.stumpff_series(z, 2) - 1.0) <= 1e-14
            assert abs(_stumpff_s(z) / self.stumpff_series(z, 3) - 1.0) <= 1e-14

    def test_near_radial_ellipse_over_a_dt_grid(self):
        # e = 0.99984, period 4.77: unguarded Newton left t(s) = dt near the
        # pericentre; two half steps must land where one full step does
        params = SystemParams(m=1.0)
        s0 = PlanarState(
            0.983054153359944, -0.2887210315396259, 0.8358933193415339, -0.2287340427888203
        )
        for dt in np.linspace(0.01, 10.0, 1000):
            dt = float(dt)
            full = propagate_analytic(s0, dt, params).as_array()
            half = propagate_analytic(propagate_analytic(s0, 0.5 * dt, params), 0.5 * dt, params)
            err = np.max(np.abs(half.as_array() - full)) / max(1.0, np.max(np.abs(full)))
            assert err <= 1e-9

    def test_random_sweep_converges(self, rng):
        failed = []
        for _ in range(3000):
            y = rng.uniform(-2.0, 2.0, size=4)
            while math.hypot(y[0], y[1]) < 0.2:
                y = rng.uniform(-2.0, 2.0, size=4)
            m = float(rng.choice([-1.0, 1.0]))
            dt = float(rng.uniform(0.1, 20.0))
            try:
                propagate_analytic(PlanarState(*y), dt, SystemParams(m=m))
            except (NonConvergence, ValueError, OverflowError) as exc:
                failed.append((y.tolist(), m, dt, exc))
        assert failed == []


class TestCollision:
    def test_parabolic_infall_against_levi_civita_oracle(self):
        # E = 0 infall from (0, 1): speed sqrt(2) toward the center
        params = SystemParams(m=1.0)
        s0 = PlanarState(0.0, 1.0, 0.0, -math.sqrt(2.0))
        state_at, t_coll_oracle = levi_civita_through_collision(s0, params)
        t_coll = radial_fall_time(1.0, math.sqrt(2.0), 1.0)
        assert t_coll == pytest.approx(t_coll_oracle, rel=1e-6)

        # after passing through, the regularized orbit retraces to (0, 1)
        back = [0.0, 1.0, 0.0, math.sqrt(2.0)]
        np.testing.assert_allclose(state_at(2.0 * t_coll).as_array(), back, atol=1e-9)
        np.testing.assert_allclose(
            propagate_analytic(s0, 2.0 * t_coll, params).as_array(), back, atol=1e-12
        )

    def test_bound_infall_against_levi_civita_oracle(self):
        params = SystemParams(m=1.0)
        s0 = PlanarState(0.0, 1.0, 0.0, -0.5)  # E = -7/8, radial
        state_at, _ = levi_civita_through_collision(s0, params)
        t_c = radial_fall_time(1.0, 0.5, 1.0)
        back = [0.0, 1.0, 0.0, 0.5]
        np.testing.assert_allclose(state_at(2.0 * t_c).as_array(), back, atol=1e-9)
        np.testing.assert_allclose(
            propagate_analytic(s0, 2.0 * t_c, params).as_array(), back, atol=1e-12
        )

    @pytest.mark.parametrize("speed", [0.5, 2.0])
    def test_oracles_agree_on_the_first_collision(self, speed):
        # bound (E = -7/8, period 2.714) and unbound radial infalls from
        # (0, 1): the regularized oracle times the first collision, not a
        # later one, as Kepler's equation on the degenerate conic does
        _, t_coll = levi_civita_through_collision(
            PlanarState(0.0, 1.0, 0.0, -speed), SystemParams(m=1.0))
        assert t_coll == pytest.approx(radial_fall_time(1.0, speed, 1.0), rel=1e-9)

    @pytest.mark.parametrize("speed", [0.5, math.sqrt(2.0), 2.0])
    def test_radial_propagation_through_the_center(self, speed):
        # bound, parabolic and hyperbolic infalls from r0 = 1 along
        # (0.6, -0.8), propagated past the collision: the universal-variable
        # kernel passes it by the elastic bounce, as the regularized oracle
        params = SystemParams(m=1.0)
        s0 = PlanarState(0.6, -0.8, -0.6 * speed, 0.8 * speed)
        state_at, _ = levi_civita_through_collision(s0, params)
        t_c = radial_fall_time(1.0, speed, 1.0)
        for dt in np.linspace(1.3, 1.7, 9) * t_c:
            want = state_at(float(dt)).as_array()
            got = propagate_analytic(s0, float(dt), params).as_array()
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("ell", [0.0, 1e-12, 0.5e-10, 1e-9])
    def test_continuous_in_angular_momentum_through_the_pericentre(self, ell):
        # |L| = 0, 1e-12, 1e-10 r |v| (r = 1, |v| = 0.5) and 1e-9: past the
        # pericentre r and speed match the radial orbit's to rounding, and
        # the state turns by an angle of order |L|
        params = SystemParams(m=1.0)
        t_c = radial_fall_time(1.0, 0.5, 1.0)

        def start(l):
            v_r, v_t = -math.sqrt(0.25 - l * l), l
            return PlanarState(0.6, -0.8, 0.6 * v_r + 0.8 * v_t, -0.8 * v_r + 0.6 * v_t)

        radial = propagate_analytic(start(0.0), 1.5 * t_c, params)
        got = propagate_analytic(start(ell), 1.5 * t_c, params)
        assert got.r == pytest.approx(radial.r, rel=1e-13)
        assert got.speed == pytest.approx(radial.speed, rel=1e-13)
        np.testing.assert_allclose(
            got.as_array(), radial.as_array(), rtol=0.0, atol=10.0 * ell + 1e-13
        )


class TestTimeOfFlight:
    def test_against_ode_oracle_elliptic(self, rng):
        # t(s) from the kernel, and the f-g state there, against the ODE flow
        params = SystemParams(m=1.0)
        checked = 0
        while checked < 20:
            y = rng.uniform(-1.5, 1.5, size=4)
            if math.hypot(y[0], y[1]) < 0.5:
                continue
            s0 = PlanarState(*y)
            if planar_energy(s0, 1.0) >= -0.05 or abs(integral_set(s0, params).L) < 0.05:
                continue
            r0 = s0.r
            sigma0 = s0.xi * s0.xi_dot + s0.eta * s0.eta_dot
            alpha = 2.0 / r0 - s0.speed**2
            g = universal_kernel(alpha, float(rng.uniform(0.1, 1.5)))
            dt = time_of_flight(r0, sigma0, 1.0, g)
            want = ode_propagate(s0, dt, params)
            got = universal_state(s0, 1.0, dt, g)
            np.testing.assert_allclose(got.as_array(), want.as_array(), atol=1e-9)
            checked += 1


class TestPerturbedFlow:
    def test_energy_and_l_conserved_lrl_not(self):
        """Documented sample: m=-1, beta=0.3, drift of A_eta over time 100.

        The regression level 0.18042 was measured once with the ODE oracle
        at rtol 1e-12 and frozen here.
        """
        params = SystemParams(m=-1.0, beta=0.3)
        s0 = PlanarState(1.0, -1.0, 0.3, 0.9)
        ts = np.linspace(0.0, 100.0, 2001)
        Y = ode_trajectory(s0, ts, params)
        r = np.hypot(Y[:, 0], Y[:, 1])
        L = Y[:, 0] * Y[:, 3] - Y[:, 1] * Y[:, 2]
        A_eta = -L * Y[:, 2] - params.m * Y[:, 1] / r
        E = 0.5 * (Y[:, 2] ** 2 + Y[:, 3] ** 2) - params.m / r + params.beta / (
            2.0 * r * r
        )
        drift_A = float(np.max(np.abs(A_eta - A_eta[0])))
        assert drift_A > 1e-3
        assert drift_A == pytest.approx(0.18042, rel=2e-3)
        assert float(np.max(np.abs(E - E[0]))) < 1e-10
        assert float(np.max(np.abs(L - L[0]))) < 1e-10


class TestNumericFlowConservation:
    def test_all_four_integrals_drift_slowly(self):
        # numeric flow at rtol 1e-12: relative drift below 1e-10 per unit time
        from oracles import ode_trajectory

        params = SystemParams(m=1.0)
        s0 = PlanarState(1.1, 0.4, -0.3, 0.75)
        T = 20.0
        ts = np.linspace(0.0, T, 400)
        Y = ode_trajectory(s0, ts, params, rtol=1e-12, atol=1e-12)
        r = np.hypot(Y[:, 0], Y[:, 1])
        L = Y[:, 0] * Y[:, 3] - Y[:, 1] * Y[:, 2]
        E = 0.5 * (Y[:, 2] ** 2 + Y[:, 3] ** 2) - 1.0 / r
        A_xi = L * Y[:, 3] - Y[:, 0] / r
        A_eta = -L * Y[:, 2] - Y[:, 1] / r
        for series in (E, L, A_xi, A_eta):
            drift = np.max(np.abs(series - series[0]))
            rel = drift / max(1.0, abs(series[0]))
            assert rel < 1e-10 * T


def test_negative_eccentricity_rejected():
    with pytest.raises(ValueError):
        solve_kepler_equation(0.3, -0.1)
