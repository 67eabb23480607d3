import math

import numpy as np

from kcbilliards.billiard import _spherical_record, billiard_map
from kcbilliards.io import (
    PLANAR_BOUNCE_HEADER,
    SPHERICAL_BOUNCE_HEADER,
    write_bounces,
    write_rows,
)
from kcbilliards.model import Model, PlanarState, SystemParams, Wall
from kcbilliards.spherical import planar_to_sphere


def _format_join(row) -> str:
    """The per-value formatting every CSV used before write_rows."""
    return ",".join(format(float(x), ".17g") for x in row)


def _bounce_values(i, rec, planar):
    si, so, ii, io_ = rec.state_in, rec.state_out, rec.integrals_in, rec.integrals_out
    if planar:
        return [i, rec.t_hit, si.xi, si.eta, si.xi_dot, si.eta_dot, so.xi_dot, so.eta_dot,
                ii.E_pl, ii.L, ii.A_xi, ii.A_eta, ii.D, ii.E_sph,
                io_.E_pl, io_.L, io_.A_xi, io_.A_eta, io_.D, io_.E_sph, int(rec.tangent)]
    return [i, rec.t_hit, *si.q, *si.v, *so.v,
            ii.E_sph, io_.E_sph, ii.E_pl, io_.E_pl, ii.D, io_.D, int(rec.tangent)]


class TestWriteRows:
    def test_matches_format_join(self, rng, tmp_path):
        special = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310,
                   1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0]
        values = np.concatenate([
            special,
            rng.standard_normal(200) * 10.0 ** rng.integers(-30, 30, size=200),
        ])
        rows = [
            (i, float(values[i]), np.float64(values[-1 - i]), i % 2, 10**15 + i)
            for i in range(len(values))
        ]
        path = tmp_path / "rows.csv"
        write_rows(str(path), "i,a,b,tangent,n", rows)
        expected = "i,a,b,tangent,n\n" + "".join(_format_join(r) + "\n" for r in rows)
        assert path.read_bytes() == expected.encode()

    def test_empty_table_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_rows(str(path), "t,x", [])
        assert path.read_bytes() == b"t,x\n"

    def test_bounce_table_matches_format_join(self, tmp_path):
        params = SystemParams(m=1.0, a=1.0)
        model = Model(params=params, wall=Wall.line(params.h, side=-1))
        run = billiard_map(PlanarState(0.5, params.h, 0.3, -0.8), 25, model, mode="analytic")
        assert run.n_bounces == 25
        path = tmp_path / "bounces.csv"
        write_bounces(str(path), run.records, "planar")
        expected = PLANAR_BOUNCE_HEADER + "\n" + "".join(
            _format_join(_bounce_values(i, rec, True)) + "\n"
            for i, rec in enumerate(run.records)
        )
        assert path.read_bytes() == expected.encode()

    def test_spherical_bounce_table_matches_format_join(self, tmp_path):
        params = SystemParams(m=1.0, a=1.0)
        wall = Wall.great_circle([0.0, 1.0, 0.0], side=1)
        s = planar_to_sphere(PlanarState(0.4, params.h, 0.3, 0.5), params)
        records = [_spherical_record(0.5, s, params, wall),
                   _spherical_record(0.75, s, params, wall, tangent=True)]
        path = tmp_path / "bounces.csv"
        write_bounces(str(path), records, "spherical")
        expected = SPHERICAL_BOUNCE_HEADER + "\n" + "".join(
            _format_join(_bounce_values(i, rec, False)) + "\n"
            for i, rec in enumerate(records)
        )
        assert path.read_bytes() == expected.encode()
