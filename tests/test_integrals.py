import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kcbilliards.integrals import (
    gj_integral,
    integral_set,
    planar_columns,
    planar_energy,
    spherical_energy_chart,
)
from kcbilliards.errors import SingularPosition
from kcbilliards.model import PlanarState, SystemParams

S3 = math.sqrt(3.0)
P1 = SystemParams(m=1.0)


class TestPlanarEnergy:
    def test_circular(self):
        assert planar_energy(PlanarState(1, 0, 0, 1), 1.0) == pytest.approx(-0.5)

    def test_arithmetic(self):
        assert planar_energy(PlanarState(3, 4, 1, 0), 1.0) == pytest.approx(0.3)

    def test_parabolic(self):
        e = planar_energy(PlanarState(1, 0, 0, math.sqrt(2.0)), 1.0)
        assert e == pytest.approx(0.0, abs=1e-15)

    def test_beta_term(self):
        e = planar_energy(PlanarState(1, 0, 0, 1), 1.0, beta=0.4)
        assert e == pytest.approx(-0.5 + 0.2)


class TestAngularMomentum:
    def test_circular(self):
        assert integral_set(PlanarState(1, 0, 0, 1), P1).L == 1.0

    def test_radial(self):
        assert integral_set(PlanarState(1, 0, 1, 0), P1).L == 0.0

    def test_oblique(self):
        s = PlanarState(S3 / 2, -0.5, 0.5, S3 / 2)
        assert integral_set(s, P1).L == pytest.approx(1.0)


class TestLRL:
    def test_circular_zero(self):
        ints = integral_set(PlanarState(1, 0, 0, 1), P1)
        assert ints.A_eta == pytest.approx(0.0)
        assert ints.A_xi == pytest.approx(0.0)

    def test_oblique_eta_component(self):
        s = PlanarState(S3 / 2, -0.5, 0.5, S3 / 2)
        # A_eta = -L*xi_dot - m*eta/r = -1/2 + 1/2
        assert integral_set(s, P1).A_eta == pytest.approx(0.0, abs=1e-15)

    def test_parabolic_xi_component(self):
        s = PlanarState(1, 0, 0, math.sqrt(2.0))
        # A_xi = L*eta_dot - m*xi/r = 2 - 1
        assert integral_set(s, P1).A_xi == pytest.approx(1.0)

    def test_invariants_random(self, rng):
        # |A|^2 = m^2 + 2 E L^2 on every state, either sign of m
        for _ in range(200):
            m = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            y = rng.uniform(-3, 3, size=4)
            if math.hypot(y[0], y[1]) < 0.2:
                continue
            ints = integral_set(PlanarState(*y), SystemParams(m=m))
            a2 = ints.A_xi ** 2 + ints.A_eta ** 2
            rhs = m * m + 2.0 * ints.E_pl * ints.L ** 2
            assert abs(a2 - rhs) <= 1e-10 * max(1.0, abs(a2))


class TestGJIntegral:
    def test_reduces_to_l_squared(self):
        s = PlanarState(0.3, -1.2, 0.7, 0.1)
        assert gj_integral(s, 1.0, 0.0) == pytest.approx(integral_set(s, P1).L ** 2)

    def test_oblique_sample(self):
        s = PlanarState(S3 / 2, -0.5, 0.5, S3 / 2)
        assert gj_integral(s, 1.0, -0.5) == pytest.approx(1.0)

    def test_exact_reflection_invariance_of_sample(self):
        s = PlanarState(S3 / 2, -0.5, 0.5, -S3 / 2)
        # reflected oblique sample: L = -1/2, A_eta = 3/4
        assert integral_set(s, P1).L == pytest.approx(-0.5)
        assert integral_set(s, P1).A_eta == pytest.approx(0.75)
        assert gj_integral(s, 1.0, -0.5) == pytest.approx(1.0)


class TestSphericalEnergyChart:
    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_circular_state_gives_zero(self, a):
        s = PlanarState(1, 0, 0, 1)
        assert spherical_energy_chart(s, 1.0, a) == pytest.approx(0.0, abs=1e-14)

    def test_free_motion(self):
        # m = 0: kinetic plus half the squared angular momentum
        s = PlanarState(1, 0, 0, 1)
        assert spherical_energy_chart(s, 0.0, 0.0) == pytest.approx(1.0)

    def test_identity_random(self, rng):
        for _ in range(500):
            a = float(rng.uniform(0.0, 3.0))
            m = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            xi, eta = rng.uniform(-3, 3, size=2)
            if math.hypot(xi, eta) < 0.1:
                continue
            xd, ed = rng.uniform(-2, 2, size=2)
            s = PlanarState(xi, eta, xd, ed)
            h = -a / math.sqrt(1 + a * a)
            lhs = spherical_energy_chart(s, m, a)
            rhs = (1 + a * a) * (planar_energy(s, m) + gj_integral(s, m, h) / 2)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestIntegralSet:
    def test_fields_consistent(self):
        params = SystemParams(m=1.0, a=1.0)
        s = PlanarState(1, 0, 0, 1)
        ints = integral_set(s, params)
        assert ints.E_pl == planar_energy(s, 1.0)
        assert ints.D == gj_integral(s, 1.0, params.h)
        assert ints.E_sph == spherical_energy_chart(s, 1.0, 1.0)

    def test_beta_energy_is_flow_energy(self):
        params = SystemParams(m=1.0, a=0.5, beta=0.3)
        s = PlanarState(2.0, 0.0, 0.0, 0.5)
        ints = integral_set(s, params)
        assert ints.E_pl == pytest.approx(0.125 - 0.5 + 0.3 / 8.0)


_COORD = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestIntegralSetBitwise:
    @settings(max_examples=300, deadline=None)
    @given(
        y=st.tuples(_COORD, _COORD, _COORD, _COORD),
        m=st.floats(min_value=0.1, max_value=3.0),
        sign=st.sampled_from([-1.0, 1.0]),
        a=st.floats(min_value=0.0, max_value=3.0),
        beta=st.sampled_from([0.0, 0.3, -0.2, 1.7]),
    )
    def test_integral_set_is_bitwise_the_single_functions(self, y, m, sign, a, beta):
        assume(math.hypot(y[0], y[1]) > 1e-3)
        s = PlanarState(*y)
        m *= sign
        params = SystemParams(m=m, a=a, beta=beta)
        ints = integral_set(s, params)
        assert ints.E_pl == planar_energy(s, m, beta)
        assert ints.D == gj_integral(s, m, params.h)
        assert ints.E_sph == spherical_energy_chart(s, m, a)

    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_columns_are_bitwise_the_per_state_set(self, rng, beta):
        params = SystemParams(m=1.3, a=0.8, beta=beta)
        ys = rng.uniform(-3.0, 3.0, size=(500, 4))
        cols = integral_set(planar_columns(ys), params)
        for k, y in enumerate(ys):
            ints = integral_set(PlanarState.from_array(y), params)
            assert tuple(c[k] for c in cols._asdict().values()) == tuple(ints._asdict().values())


class TestPlanarColumns:
    @settings(max_examples=200, deadline=None)
    @given(
        ys=st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD), min_size=1, max_size=12),
        m=st.floats(min_value=0.1, max_value=3.0),
        sign=st.sampled_from([-1.0, 1.0]),
        a=st.floats(min_value=0.0, max_value=3.0),
        beta=st.sampled_from([0.0, 0.3, -0.2]),
    )
    def test_rows_are_bitwise_their_planar_states(self, ys, m, sign, a, beta):
        ys = [y for y in ys if math.hypot(y[0], y[1]) > 1e-3]
        assume(ys)
        params = SystemParams(m=sign * m, a=a, beta=beta)
        cols = planar_columns(np.array(ys))
        ints = integral_set(cols, params)
        for k, y in enumerate(ys):
            s = PlanarState(*y)
            assert cols.r[k] == s.r
            assert tuple(c[k] for c in ints._asdict().values()) == tuple(integral_set(s, params)._asdict().values())

    @given(x=_COORD)
    def test_a_row_at_the_center_is_singular(self, x):
        with pytest.raises(SingularPosition):
            planar_columns([[x, 1.0, 0.0, 1.0], [0.0, 0.0, x, 1.0]])


class TestGradients:
    def test_functional_independence(self, rng):
        # gradients of E_pl and E_sph span a 2-plane at generic states;
        # each gradient is a central difference in (xi, eta, xi_dot, eta_dot)
        m, a = 1.0, 1.0
        eps = 1e-6
        funcs = (lambda s: planar_energy(s, m), lambda s: spherical_energy_chart(s, m, a))

        def gradient(f, y):
            return np.array([(f(PlanarState(*(y + d))) - f(PlanarState(*(y - d)))) / (2 * eps)
                             for d in eps * np.eye(4)])

        found = 0
        for _ in range(50):
            y = rng.uniform(-2, 2, size=4)
            if math.hypot(y[0], y[1]) < 0.5:
                continue
            g = np.vstack([gradient(f, y) for f in funcs])
            # some 2x2 minor exceeds the threshold
            best = 0.0
            for i in range(4):
                for j in range(i + 1, 4):
                    best = max(best, abs(np.linalg.det(g[:, [i, j]])))
            assert best > 1e-6
            found += 1
        assert found > 30
