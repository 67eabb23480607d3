import cmath
import hashlib

import numpy as np
import pytest

from kcbilliards.billiard import billiard_map
from kcbilliards.conformal import (
    hooke_invariant,
    line_image_wall,
    transport_trajectory,
)
from kcbilliards.errors import SingularPosition
from kcbilliards.integrals import planar_energy
from kcbilliards.model import PlanarState, SystemParams, Wall, validate_config
from kcbilliards.planar import kepler_to_hooke_point, propagate_analytic


def transport_digest(ws):
    """sha256 over float.hex of every component of the transported (w, w')."""
    hexes = (x.hex() for w, wp in ws for x in (w.real, w.imag, wp.real, wp.imag))
    return hashlib.sha256(" ".join(hexes).encode()).hexdigest()


class TestPointMap:
    def test_circular_sample(self):
        w, wp = kepler_to_hooke_point(1.0 + 0.0j, 1.0j)
        assert w == pytest.approx(1.0)
        assert wp == pytest.approx(0.5j)
        assert hooke_invariant(w, wp, -0.5) == pytest.approx(1.0)

    def test_principal_branch(self):
        w, _ = kepler_to_hooke_point(-1.0 + 0.0j, 0.0j)
        assert w == pytest.approx(1.0j)

    def test_turning_point_relation(self):
        # z = 4 at rest: the invariant reads -4 E = m, so E = -m/4
        m = 1.0
        E = -m / 4.0
        w, wp = kepler_to_hooke_point(4.0 + 0.0j, 0.0j)
        assert w == pytest.approx(2.0)
        assert wp == 0.0
        assert hooke_invariant(w, wp, E) == pytest.approx(m)

    def test_origin_rejected(self):
        with pytest.raises(SingularPosition, match="singular at the origin"):
            kepler_to_hooke_point(0.0j, 1.0j)

    def test_branch_continuity(self):
        # walk down across the negative real axis without jumping sheets
        zs = [complex(-1.0, t) for t in np.linspace(0.3, -0.3, 25)]
        ws = transport_trajectory(zs, [-1j] * len(zs))
        assert ws[0][0] == cmath.sqrt(zs[0])
        for (w0, _), (w1, _) in zip(ws, ws[1:]):
            assert abs(w1 - w0) < 0.1
        # ended on the non-principal sheet below the cut, with w' on it too
        assert ws[-1][0].imag > 0.9
        for z, (w, wp) in zip(zs, ws):
            assert w * w == pytest.approx(z, abs=1e-15)
            assert 2.0 * w * wp == pytest.approx(-1j * abs(w) ** 2, abs=1e-15)


class TestLineImage:
    def test_wall_level(self):
        wall = line_image_wall(-0.5)
        assert wall.level == -0.5

    def test_degenerate_flagged(self):
        wall = line_image_wall(0.0)
        # still usable: the implicit locus is the axes pair
        assert wall.implicit(1.0 + 0.0j) == pytest.approx(0.0)

    def test_point_on_image(self):
        wall = line_image_wall(-0.5)
        assert wall.implicit(complex(1.0, -0.25)) == pytest.approx(0.0)

    def test_image_points_satisfy_conjugation(self, rng):
        # w on {2uv = h} iff w^2 has imaginary part h
        h = -0.7
        wall = line_image_wall(h)
        for _ in range(50):
            u = rng.uniform(0.1, 3.0)
            w = complex(u, h / (2 * u))
            assert wall.implicit(w) == pytest.approx(0.0, abs=1e-14)
            assert (w * w).imag == pytest.approx(h, rel=1e-12)


class TestTrajectoryTransport:
    def _billiard_samples(self, n_bounces=4, samples_per_leg=40):
        params = SystemParams(m=1.0, a=1.0)
        model = validate_config(params, Wall.line(params.h, side=-1))
        s0 = PlanarState(0.5, params.h, 0.3, -0.8)
        run = billiard_map(s0, n_bounces, model, mode="analytic")
        E = planar_energy(s0, 1.0)
        zs, zds = [], []
        hits = []
        state = s0
        t_prev = 0.0
        for rec in run.records:
            leg = rec.t_hit - t_prev
            for k in range(samples_per_leg):
                s = propagate_analytic(state, leg * k / samples_per_leg, params)
                zs.append(complex(s.xi, s.eta))
                zds.append(complex(s.xi_dot, s.eta_dot))
            zs.append(complex(rec.state_in.xi, rec.state_in.eta))
            zds.append(complex(rec.state_in.xi_dot, rec.state_in.eta_dot))
            hits.append(
                (
                    len(zs) - 1,
                    complex(rec.state_in.xi_dot, rec.state_in.eta_dot),
                    complex(rec.state_out.xi_dot, rec.state_out.eta_dot),
                )
            )
            state = rec.state_out
            t_prev = rec.t_hit
        return params, E, zs, zds, hits

    def test_invariant_constant_along_image(self):
        params, E, zs, zds, _ = self._billiard_samples()
        ws = transport_trajectory(zs, zds)
        vals = [hooke_invariant(w, wp, E) for w, wp in ws]
        assert max(abs(v - params.m) for v in vals) <= 1e-10

    def test_wall_hits_land_on_hyperbola(self):
        params, E, zs, zds, hits = self._billiard_samples()
        ws = transport_trajectory(zs, zds)
        wall = line_image_wall(params.h)
        for idx, _, _ in hits:
            assert abs(wall.implicit(ws[idx][0])) <= 1e-10

    def test_reflection_maps_to_hooke_reflection(self):
        _, _, zs, zds, hits = self._billiard_samples()
        ws = transport_trajectory(zs, zds)
        for idx, zd_in, zd_out in hits:
            w = ws[idx][0]
            r = abs(w) ** 2
            wp_in = zd_in * r / (2.0 * w)
            wp_out = zd_out * r / (2.0 * w)
            scale = max(abs(wp_in), 1.0)
            # specular reflection about the normal (2v, 2u) of {2uv = h} at w = u + iv
            n = complex(2.0 * w.imag, 2.0 * w.real)
            n /= abs(n)
            ref = wp_in - 2.0 * (wp_in.real * n.real + wp_in.imag * n.imag) * n
            assert abs(wp_out - ref) <= 1e-8 * scale

    def test_criterion_8_samples_keep_their_bits(self):
        # the digest that the transport's own square-root tracking gave; one map keeps these bits
        _, _, zs, zds, _ = self._billiard_samples(n_bounces=6, samples_per_leg=30)
        assert transport_digest(transport_trajectory(zs, zds)) == (
            "96524c7903b696e2637585aacfe04a7fbfe68054e7150c8d9845503e6d9d3c99")

    def test_winding_samples_keep_their_bits(self):
        # three turns of a circular orbit: 211 of the 400 roots on the flipped branch
        zs = [1.5 * cmath.exp(0.05j * k) for k in range(400)]
        ws = transport_trajectory(zs, [1j * z for z in zs])
        assert sum(w.real < 0.0 for w, _ in ws) == 211
        assert transport_digest(ws) == (
            "23c6cb3eb7df93c06647ce3c7c0d00c14e7d7e650727e835f5a161db6249d6d7")

    def test_branch_tracking_keeps_continuity(self):
        _, E, zs, zds, _ = self._billiard_samples()
        ws = transport_trajectory(zs, zds)
        for (w0, _), (w1, _) in zip(ws, ws[1:]):
            assert abs(w1 - w0) < 0.5
