import math

import numpy as np
import pytest

from oracles import (
    bisection_kepler_elliptic,
    levi_civita_through_collision,
    ode_propagate,
    ode_trajectory,
)

from kcbilliards.errors import (
    CollisionInsideInterval,
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
    flow_rhs,
    kepler_period,
    orbit_elements,
    propagate_analytic,
    radial_collision_time,
    solve_barker,
    solve_kepler_equation,
    time_of_flight,
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


class TestOrbitElements:
    def test_circular(self):
        el = orbit_elements(PlanarState(1, 0, 0, 1), SystemParams(m=1.0))
        assert el.E_pl == pytest.approx(-0.5)
        assert el.L == pytest.approx(1.0)
        assert el.e == pytest.approx(0.0, abs=1e-15)
        assert el.p == pytest.approx(1.0)

    def test_parabolic(self):
        el = orbit_elements(
            PlanarState(1, 0, 0, math.sqrt(2.0)), SystemParams(m=1.0)
        )
        assert el.E_pl == pytest.approx(0.0, abs=1e-15)
        assert el.e == pytest.approx(1.0)

    def test_oblique_sample(self):
        s3 = math.sqrt(3.0)
        el = orbit_elements(
            PlanarState(s3 / 2, -0.5, 0.5, s3 / 2), SystemParams(m=1.0)
        )
        assert el.L == pytest.approx(1.0)
        assert el.A_eta == pytest.approx(0.0, abs=1e-15)

    def test_invariants_random(self, rng):
        for _ in range(200):
            m = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            y = rng.uniform(-3, 3, size=4)
            if math.hypot(y[0], y[1]) < 0.2:
                continue
            s = PlanarState(*y)
            el = orbit_elements(s, SystemParams(m=m))
            assert el.e == pytest.approx(
                math.hypot(el.A_xi, el.A_eta) / abs(m), rel=1e-12
            )
            assert el.p == pytest.approx(el.L**2 / abs(m), rel=1e-12)
            # A^2 = m^2 + 2 E L^2
            a2 = el.A_xi**2 + el.A_eta**2
            rhs = m * m + 2.0 * el.E_pl * el.L**2
            assert abs(a2 - rhs) <= 1e-10 * max(1.0, abs(a2))

    def test_perturbed_rejected(self):
        with pytest.raises(PerturbedModel):
            orbit_elements(PlanarState(1, 0, 0, 1), SystemParams(m=1.0, beta=0.1))


class TestKeplerEquation:
    def test_zero_eccentricity(self):
        assert solve_kepler_equation(0.7, 0.0) == pytest.approx(0.7, abs=1e-14)

    def test_apoapsis_symmetry(self):
        assert solve_kepler_equation(math.pi, 0.5) == pytest.approx(math.pi)

    def test_against_bisection_oracle(self):
        want = bisection_kepler_elliptic(0.2, 0.9, 0.0, math.pi)
        got = solve_kepler_equation(0.2, 0.9)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("e", [0.0, 0.3, 0.9, 0.999])
    @pytest.mark.parametrize("M", [-2.5, -0.3, 0.0, 0.2, 1.0, 3.0, 9.0])
    def test_elliptic_residuals(self, e, M):
        E = solve_kepler_equation(M, e)
        assert abs(E - e * math.sin(E) - M) <= 1e-13

    @pytest.mark.parametrize("e", [1.5, 5.0])
    @pytest.mark.parametrize("M", [-20.0, -1.0, 0.0, 0.4, 2.0, 50.0])
    def test_hyperbolic_residuals(self, e, M):
        H = solve_kepler_equation(M, e)
        assert abs(e * math.sinh(H) - H - M) <= 1e-13 * max(1.0, abs(M))

    @pytest.mark.parametrize("M", [-8.0, -0.5, 0.0, 0.1, 2.0, 40.0])
    def test_barker_residuals(self, M):
        B = solve_barker(M)
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

    def test_perturbed_rejected(self):
        with pytest.raises(PerturbedModel):
            propagate_analytic(
                PlanarState(1, 0, 0, 1), 0.5, SystemParams(m=1.0, beta=0.1)
            )

    def test_period_vs_ode(self):
        params = SystemParams(m=1.0)
        s0 = PlanarState(1.2, 0.3, -0.2, 0.8)
        T = kepler_period(s0, 1.0)
        assert T is not None
        got = propagate_analytic(s0, T, params)
        np.testing.assert_allclose(got.as_array(), s0.as_array(), atol=1e-10)


class TestCollision:
    def test_parabolic_infall_against_levi_civita_oracle(self):
        # E = 0 infall from (0, 1): speed sqrt(2) toward the center
        params = SystemParams(m=1.0)
        s0 = PlanarState(0.0, 1.0, 0.0, -math.sqrt(2.0))
        state_at, t_coll_oracle = levi_civita_through_collision(s0, params)

        t_coll = radial_collision_time(s0, 1.0)
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
        t_c = radial_collision_time(s0, 1.0)
        s_back = state_at(2.0 * t_c)
        np.testing.assert_allclose(
            s_back.as_array(), [0.0, 1.0, 0.0, 0.5], atol=1e-9
        )


class TestTimeOfFlight:
    def test_against_ode_oracle_elliptic(self, rng):
        params = SystemParams(m=1.0)
        for _ in range(20):
            y = rng.uniform(-1.5, 1.5, size=4)
            if math.hypot(y[0], y[1]) < 0.5:
                continue
            s0 = PlanarState(*y)
            el_m = 1.0
            E = planar_energy(s0, el_m)
            L = angular_momentum(s0)
            if E >= -0.05 or abs(L) < 0.05:
                continue
            dt = float(rng.uniform(0.1, 1.5))
            s1 = ode_propagate(s0, dt, params)
            e = math.hypot(lrl_xi(s0, el_m), lrl_eta(s0, el_m)) / el_m
            p = L * L / el_m
            qv0 = s0.xi * s0.xi_dot + s0.eta * s0.eta_dot
            qv1 = s1.xi * s1.xi_dot + s1.eta * s1.eta_dot
            got = time_of_flight(el_m, E, e, p, s0.r, qv0, s1.r, qv1)
            assert got == pytest.approx(dt, abs=1e-8)


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
