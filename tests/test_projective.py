import math

import numpy as np
import pytest

from kcbilliards.errors import WrongHalfPlane
from kcbilliards.projective import (
    denormalize_chart,
    metric2_norm,
    nonstandard_norm,
    normalize_chart,
    plane_plane_project,
    plane_plane_push_velocity,
    planar_energy_prenorm,
    push_force_field,
)
from kcbilliards.integrals import planar_energy


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


class TestMetric:
    def test_euclidean_at_zero_offset(self):
        assert metric2_norm(3.0, 4.0, 0.0) == pytest.approx(5.0)

    def test_compression_along_y(self):
        assert metric2_norm(0.0, math.sqrt(2.0), 1.0) == pytest.approx(1.0)

    def test_distance_to_center(self):
        # point (1, 1), center (0, a) with a = 1: displacement (1, 0)
        assert metric2_norm(1.0, 1.0 - 1.0, 1.0) == pytest.approx(1.0)

    def test_positive_definite(self, rng):
        for a in (0.0, 0.5, 2.0, 10.0):
            for _ in range(20):
                v = rng.normal(size=2)
                if np.linalg.norm(v) < 1e-12:
                    continue
                assert metric2_norm(v[0], v[1], a) > 0.0

    def test_nonstandard_norm_matches_chart_form(self, rng):
        # the 3-space decomposition against the closed (x, y) expression
        for a in (0.0, 0.7, 2.0):
            s = math.sqrt(1.0 + a * a)
            z1 = np.array([0.0, a / s, -1.0 / s])
            h1 = z1  # tangent plane covector
            for _ in range(20):
                x, y = rng.uniform(-3, 3, size=2)
                v = np.array([x, y, -1.0]) - np.array([0.0, a, -1.0])
                got = nonstandard_norm(v, h1, z1)
                want = math.sqrt(x * x + (y - a) ** 2 / (1.0 + a * a))
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestNormalizeChart:
    def test_identity_at_zero_offset(self):
        s = normalize_chart(0.3, -0.7, 1.1, 0.2, 0.0)
        assert (s.xi, s.eta, s.xi_dot, s.eta_dot) == (0.3, -0.7, 1.1, 0.2)

    def test_wall_line_maps_to_h(self):
        s = normalize_chart(0.0, 0.0, 0.0, 1.0, 1.0)
        assert s.eta == pytest.approx(-1.0 / math.sqrt(2.0))

    def test_velocity_scaling(self):
        s = normalize_chart(1.0, 0.0, 0.0, math.sqrt(2.0), 1.0)
        assert s.eta_dot == pytest.approx(1.0)
        assert s.xi_dot == 0.0

    def test_round_trip(self, rng):
        for a in (0.0, 0.5, 1.0, 3.0):
            for _ in range(25):
                x, y, xd, yd = rng.uniform(-3, 3, size=4)
                if x == 0 and abs(y - a) < 1e-12:
                    continue
                st = normalize_chart(x, y, xd, yd, a)
                back = denormalize_chart(st, a)
                np.testing.assert_allclose(
                    [back.x, back.y, back.x_dot, back.y_dot],
                    [x, y, xd, yd],
                    rtol=1e-14,
                    atol=1e-14,
                )

    def test_metric_norm_becomes_euclidean(self, rng):
        for a in (0.5, 2.0):
            for _ in range(25):
                xd, yd = rng.uniform(-2, 2, size=2)
                st = normalize_chart(1.0, 1.0, xd, yd, a)
                assert metric2_norm(xd, yd, a) == pytest.approx(
                    math.hypot(st.xi_dot, st.eta_dot), rel=1e-13
                )


class TestPrenormEnergy:
    def test_reduces_to_kepler_at_zero_offset(self):
        e = planar_energy_prenorm(1.0, 0.0, 0.0, 1.0, 1.0, 0.0)
        assert e == pytest.approx(-0.5)

    def test_unit_distance_sample(self):
        # a = 1, (x, y) = (1, 1): the metric distance to the center is 1
        e = planar_energy_prenorm(1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
        assert e == pytest.approx(-1.0)

    def test_kinetic_only_without_mass(self):
        e = planar_energy_prenorm(0.0, 1.0, 2.0, 0.0, 0.0, 3.0)
        assert e == pytest.approx(2.0)

    def test_conjugacy_with_normalized_energy(self, rng):
        for a in (0.0, 0.5, 1.0, 3.0):
            for _ in range(50):
                x, y, xd, yd = rng.uniform(-3, 3, size=4)
                if math.hypot(x, y - a) < 0.1:
                    continue
                st = normalize_chart(x, y, xd, yd, a)
                e1 = planar_energy_prenorm(x, y, xd, yd, 1.0, a)
                e2 = planar_energy(st, 1.0)
                assert abs(e1 - e2) <= 1e-13 * max(1.0, abs(e2))


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

