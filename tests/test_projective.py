import math

import numpy as np
import pytest

from kcbilliards.errors import WrongHalfPlane
from kcbilliards.model import PlanarState, SphericalState, SystemParams
from kcbilliards.projective import (
    plane_plane_project,
    plane_plane_push_velocity,
    push_force_field,
)
from kcbilliards.spherical import planar_to_sphere, sphere_to_planar


class TestPlanePlaneProject:
    def test_identity_when_already_on_target(self):
        q = np.array([0.0, 1.0, -1.0])
        np.testing.assert_allclose(plane_plane_project(q, (0.0, 1.0, 0.0)), q)

    def test_scales_by_lambda(self):
        q = np.array([0.0, 2.0, -1.0])
        out = plane_plane_project(q, (0.0, 1.0, 0.0))
        np.testing.assert_allclose(out, [0.0, 1.0, -0.5], atol=1e-15)

    def test_wrong_half_plane(self):
        with pytest.raises(WrongHalfPlane):
            plane_plane_project(np.array([0.0, -1.0, -1.0]), (0.0, 1.0, 0.0))

    def test_round_trip(self, rng):
        h1 = np.array([0.0, 0.3, -0.9])
        h2 = np.array([0.1, 0.0, -1.0])
        for _ in range(50):
            v = rng.normal(size=3)
            # put the point on V1: <h1, q> = 1
            denom = float(np.dot(h1, v))
            if abs(denom) < 1e-3:
                continue
            q1 = v / denom
            if float(np.dot(h2, q1)) <= 1e-6:
                continue
            q2 = plane_plane_project(q1, h2)
            back = plane_plane_project(q2, h1)
            np.testing.assert_allclose(back, q1, rtol=1e-13, atol=1e-13)


class TestNormalizeChart:
    """The affine normalization inside the chart pair of kcbilliards.spherical."""

    def test_identity_at_zero_offset(self):
        # at a = 0 sphere_to_planar is the bare projective pair onto z = -1
        s = SphericalState.project([0.3, -0.7, -1.0], [1.1, 0.2, 0.4])
        p = sphere_to_planar(s, SystemParams(m=1.0, a=0.0))
        h2 = (0.0, 0.0, -1.0)
        assert [p.xi, p.eta] == plane_plane_project(s.q, h2)[:2].tolist()
        assert [p.xi_dot, p.eta_dot] == plane_plane_push_velocity(s.q, s.v, h2)[:2].tolist()

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


class TestCentralForcePreservation:
    def test_pushed_field_is_central_in_target_metric(self, rng):
        """The projected Kepler field stays central with the transported mass."""
        for a in (0.5, 1.0):
            s = math.sqrt(1.0 + a * a)
            z1 = np.array([0.0, a / s, -1.0 / s])
            h1 = z1
            h2 = np.array([0.0, 0.0, -1.0])
            z2 = plane_plane_project(z1, h2)  # = (0, a, -1)
            np.testing.assert_allclose(z2, [0.0, a, -1.0], atol=1e-14)
            m1 = 1.3
            m2 = m1 / float(np.dot(h1, z2))
            count = 0
            while count < 100:
                # random point on V1 in the admissible half-plane
                v = rng.normal(size=3)
                denom = float(np.dot(h1, v))
                if abs(denom) < 1e-2:
                    continue
                q1 = v / denom
                if float(np.dot(h2, q1)) <= 0.05:
                    continue
                d1 = q1 - z1
                r1 = float(np.linalg.norm(d1))
                if r1 < 0.1:
                    continue
                f1 = -m1 * d1 / r1**3
                acc2 = push_force_field(q1, f1, h2)
                q2 = plane_plane_project(q1, h2)
                d2 = q2 - z2
                # metric-2 distance in the (x, y) chart of V
                dist2 = math.sqrt(d2[0] ** 2 + d2[1] ** 2 / (1.0 + a * a))
                want = -m2 * d2 / dist2**3
                np.testing.assert_allclose(acc2, want, rtol=1e-10, atol=1e-12)
                count += 1

    def test_velocity_pushforward_lands_on_target_plane(self, rng):
        h1 = np.array([0.0, 0.6, -0.8])
        h2 = np.array([0.0, 0.0, -1.0])
        for _ in range(20):
            v = rng.normal(size=3)
            denom = float(np.dot(h1, v))
            if abs(denom) < 1e-2:
                continue
            q1 = v / denom
            if float(np.dot(h2, q1)) <= 0.05:
                continue
            # tangent vectors of V1 satisfy <h1, w> = 0; <h1, q1> = 1
            vel = rng.normal(size=3)
            vel = vel - float(np.dot(h1, vel)) * q1
            out = plane_plane_push_velocity(q1, vel, h2)
            assert abs(float(np.dot(h2, out))) < 1e-10

