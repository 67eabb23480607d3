import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oracles import (
    bisection_kepler_elliptic,
    levi_civita_through_collision,
    ode_propagate,
    ode_trajectory,
)

from kcbilliards.errors import (
    CollisionInsideInterval,
    NonConvergence,
    PerturbedModel,
    SingularPosition,
)
from kcbilliards.integrals import (
    angular_momentum,
    lrl_eta,
    lrl_xi,
    planar_energy,
)
from kcbilliards.model import PlanarState, SystemParams
from kcbilliards.planar import (
    _stumpff_c,
    _stumpff_s,
    flow_rhs,
    pericentre_time,
    propagate_analytic,
    solve_kepler_equation,
    time_of_flight,
    universal_kernel,
    universal_state,
)


def rhs_accel(position, params):
    """Acceleration -m q/r^3 + beta q/r^4, read off the flow RHS."""
    y = [position[0], position[1], 0.0, 0.0]
    return flow_rhs(0.0, y, params)[2:]


class TestKeplerAccel:
    def test_attractive_unit(self):
        np.testing.assert_allclose(
            rhs_accel([1.0, 0.0], SystemParams(m=1.0)), [-1.0, 0.0]
        )

    def test_repulsive(self):
        np.testing.assert_allclose(
            rhs_accel([0.0, 2.0], SystemParams(m=-1.0)), [0.0, 0.25]
        )

    def test_centrifugal_term(self):
        # radial magnitude -m/r^2 + beta/r^3 at r = 1
        np.testing.assert_allclose(
            rhs_accel([1.0, 0.0], SystemParams(m=1.0, beta=0.5)), [-0.5, 0.0]
        )

    def test_singular_guard(self):
        with pytest.raises(SingularPosition):
            rhs_accel([1e-13, 0.0], SystemParams(m=1.0))


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
            if abs(angular_momentum(s0)) < 1e-3:
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
            if abs(angular_momentum(s0)) < 1e-3:
                continue
            try:
                s1 = propagate_analytic(s0, float(rng.uniform(0.05, 2.0)), params)
            except CollisionInsideInterval:
                continue
            for f in (
                lambda s: planar_energy(s, 1.0),
                angular_momentum,
                lambda s: lrl_xi(s, 1.0),
                lambda s: lrl_eta(s, 1.0),
            ):
                assert abs(f(s1) - f(s0)) <= 1e-11 * max(1.0, abs(f(s0)))

    def test_time_reversibility(self, rng):
        params = SystemParams(m=1.0)
        for _ in range(30):
            y = rng.uniform(-2, 2, size=4)
            if math.hypot(y[0], y[1]) < 0.5:
                continue
            s0 = PlanarState(*y)
            if abs(angular_momentum(s0)) < 1e-3:
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
        params = SystemParams(m=1.0)
        s0 = PlanarState(0.0, 1.0, 0.0, -0.1)  # radial infall
        with pytest.raises(CollisionInsideInterval):
            propagate_analytic(s0, 10.0, params)

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
        # radial infall from r0 = 1 at speed 0.1: on r = a (1 - cos u),
        # t = sqrt(a^3/m) (u - sin u), the fall takes as long as the rise to r0
        params = SystemParams(m=1.0)
        s0 = PlanarState(0.0, 1.0, 0.0, -0.1)
        a = 1.0 / (2.0 - 0.01)
        u0 = math.acos(1.0 - 1.0 / a)
        t_c = math.sqrt(a**3) * (u0 - math.sin(u0))
        s1 = propagate_analytic(s0, t_c * (1.0 - rel), params)
        assert 0.0 < s1.r < 1e-2 and s1.eta_dot < 0.0
        assert abs(planar_energy(s1, 1.0) - planar_energy(s0, 1.0)) <= 1e-9 * s1.speed**2
        with pytest.raises(CollisionInsideInterval):
            propagate_analytic(s0, t_c * (1.0 + rel), params)

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

        t_coll = pericentre_time(s0, 1.0)
        assert t_coll == pytest.approx(math.sqrt(2.0) / 3.0, rel=1e-13)
        assert t_coll == pytest.approx(t_coll_oracle, rel=1e-6)

        # after passing through, the regularized orbit retraces to (0, 1)
        s_back = state_at(2.0 * t_coll)
        np.testing.assert_allclose(
            s_back.as_array(), [0.0, 1.0, 0.0, math.sqrt(2.0)], atol=1e-9
        )

    def test_bound_infall_against_levi_civita_oracle(self):
        params = SystemParams(m=1.0)
        s0 = PlanarState(0.0, 1.0, 0.0, -0.5)  # E = -7/8, radial
        state_at, _ = levi_civita_through_collision(s0, params)
        t_c = pericentre_time(s0, 1.0)
        s_back = state_at(2.0 * t_c)
        np.testing.assert_allclose(
            s_back.as_array(), [0.0, 1.0, 0.0, 0.5], atol=1e-9
        )


class TestPericentreTime:
    def test_against_ode_pericentre_event(self, rng):
        # the first upward crossing of q.v = 0 of the integrated flow;
        # None exactly when the flow has no such crossing
        seen = set()
        checked = 0
        while checked < 120:
            m = float(rng.choice([-1.0, 1.0]))
            r0 = float(rng.uniform(0.5, 2.0))
            th, phi = rng.uniform(0.0, 2.0 * math.pi, size=2)
            speed = float(rng.uniform(0.3, 1.7)) * math.sqrt(2.0 * abs(m) / r0)
            s0 = PlanarState(r0 * math.cos(th), r0 * math.sin(th),
                             speed * math.cos(phi), speed * math.sin(phi))
            sigma0 = s0.xi * s0.xi_dot + s0.eta * s0.eta_dot
            # near-radial orbits pass a pericentre the integrator cannot resolve
            if angular_momentum(s0) ** 2 < 0.05 * abs(m) * r0 or abs(sigma0) < 1e-3:
                continue
            params = SystemParams(m=m)
            t_p = pericentre_time(s0, m)
            horizon = 60.0 if t_p is None else t_p + 1.0

            def event(t, y):
                return y[0] * y[2] + y[1] * y[3]

            event.direction = 1.0
            sol = solve_ivp(lambda t, y: flow_rhs(t, y, params), (0.0, horizon),
                            s0.as_array(), method="DOP853", rtol=1e-12, atol=1e-12,
                            events=event)
            assert sol.success
            found = sol.t_events[0]
            if t_p is None:
                assert found.size == 0
            else:
                assert found.size and abs(found[0] - t_p) <= 1e-9 * max(1.0, t_p)
            bound = planar_energy(s0, m) < 0.0
            seen.add((m > 0.0, bound, sigma0 > 0.0, t_p is None))
            checked += 1
        # both signs of m and of sigma0, bound and unbound, and None cases
        assert {(True, True, False, False), (True, True, True, False),
                (True, False, False, False), (True, False, True, True),
                (False, False, False, False), (False, False, True, True)} <= seen


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
            if planar_energy(s0, 1.0) >= -0.05 or abs(angular_momentum(s0)) < 0.05:
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
