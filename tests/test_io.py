import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcbilliards.billiard import _spherical_record, billiard_map, reflect
from kcbilliards.errors import ConfigError
from kcbilliards.io import (
    _TABLE_MIN,
    PLANAR_BOUNCE_HEADER,
    SPHERICAL_BOUNCE_HEADER,
    read_csv,
    svg_plot,
    write_bounces,
    write_rows,
)
from kcbilliards.model import BounceRecord, Model, PlanarState, SystemParams, Wall
from kcbilliards.spherical import planar_to_sphere


def _format_join(row) -> str:
    """The per-value formatting every CSV used before write_rows."""
    return ",".join(format(float(x), ".17g") for x in row)


def sweep_values(rng, n):
    """Seeded doubles of every kind "%.17g" prints, in blocks of one kind: n
    random mantissas at each binary exponent (subnormals included), the
    doubles at and one ulp either side of 10^k for k = -30..30, 25 n exact
    ties at the 17th significant digit, 500 n values log-uniform over
    1e-7..1e18, then +-0, subnormals, +-inf and NaN; each value has a
    random sign."""
    exponents = np.repeat(np.arange(-1074, 1024), n)
    tens = np.array([float(f"1e{k}") for k in range(-30, 31)])
    # M 2^-s with M odd and M 5^s of 18 digits has 18 significant digits,
    # the last a 5: a tie between two 17-digit decimals
    ties = []
    for s in range(2, 24):
        lo, hi = -(-10**17 // 5**s), min(2**53, 10**18 // 5**s)
        odd = 2 * rng.integers(lo // 2, (hi - 1) // 2, size=25 * n) + 1
        ties.append(np.ldexp(odd[odd >= lo].astype(np.float64), -s))
    values = np.concatenate([
        np.ldexp(1.0 + rng.random(exponents.size), exponents),
        np.stack([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)], axis=1).ravel(),
        *ties,
        10.0 ** rng.uniform(-7.0, 18.0, size=500 * n),
        [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, math.inf, math.nan],
    ])
    return values * rng.choice([-1.0, 1.0], size=values.size)


def _percent_rows(table) -> bytes:
    """The rows of a table as _format_join writes them, one line each."""
    return "".join(_format_join(row) + "\n" for row in table.tolist()).encode()


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

    def test_sweep_matches_format_join(self, tmp_path):
        # the tier-1 share of the CI step that checks a million such values
        values = sweep_values(np.random.default_rng(7), 4)
        digits = [Decimal(x).as_tuple().digits for x in values.tolist() if 1e-6 <= abs(x) < 1e17]
        assert sum(len(d) == 18 and d[-1] == 5 for d in digits) >= 1000  # exact ties
        path = tmp_path / "sweep.csv"
        # a row with a value the kernel does not cover goes to "%" whole,
        # so every value also gets a row of its own
        for header, table in (("a,b,c,d,e,f,g,h,i,j", np.resize(values, (-(-values.size // 10), 10))),
                              ("a", values[:, None])):
            write_rows(str(path), header, table)
            assert path.read_bytes() == (header + "\n").encode() + _percent_rows(table)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=_TABLE_MIN // 2))
    def test_any_float_on_either_side_of_the_table_size(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("rows") / "rows.csv"
        small = np.array(values)[:, None]
        big = np.resize(small, (_TABLE_MIN // 2, 2))
        for header, table in (("a", small), ("a,b", big)):
            write_rows(str(path), header, table)
            assert path.read_bytes() == (header + "\n").encode() + _percent_rows(table)

    @pytest.mark.parametrize("n_rows", [3, 200])
    @pytest.mark.parametrize("width", [2, 4])
    def test_a_row_of_the_wrong_width_is_refused_on_either_path(self, tmp_path, n_rows, width):
        # 9 values go through "%", 600 through the numpy kernel: both refuse
        # the table alike and write nothing
        assert (n_rows * 3 < _TABLE_MIN) == (n_rows == 3)
        path = tmp_path / "rows.csv"
        message = fr"^a table of shape \({n_rows}, {width}\) under 3 columns$"
        # every row of that width, as a list or an array, or only the last
        for rows in ([(1.0,) * width] * n_rows, np.ones((n_rows, width)),
                     [(1.0, 2.0, 3.0)] * (n_rows - 1) + [(1.0,) * width]):
            with pytest.raises(ValueError, match=message):
                write_rows(str(path), "a,b,c", rows)
        assert not path.exists()

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
        out = reflect(s, wall)
        records = [BounceRecord(0.5, s, out, *_spherical_record(s, out, params), False),
                   BounceRecord(0.75, s, s, *_spherical_record(s, s, params), True)]
        path = tmp_path / "bounces.csv"
        write_bounces(str(path), records, "spherical")
        expected = SPHERICAL_BOUNCE_HEADER + "\n" + "".join(
            _format_join(_bounce_values(i, rec, False)) + "\n"
            for i, rec in enumerate(records)
        )
        assert path.read_bytes() == expected.encode()


class TestReadCsv:
    def test_blank_line_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("t,x\n1,2\n\n3,4\n")
        assert read_csv(str(path)) == (["t", "x"], [[1.0, 2.0], [3.0, 4.0]])
        path.write_text("t,x\n1,2\n\n3\n")
        with pytest.raises(ConfigError, match="line 4: 1 values under 2 names"):
            read_csv(str(path))


def test_svg_plot_widens_a_flat_y_range(tmp_path):
    # the points and the origin all lie on y = 0: the view spans y in [-1, 1],
    # so the orbit runs at mid-height and the x-axis is drawn through it
    path = tmp_path / "flat.svg"
    svg_plot(str(path), [(1.0, 0.0), (2.0, 0.0)])
    svg = path.read_text()
    assert '<polyline points="300.000,300.000 560.000,300.000"' in svg
    assert '<line x1="40.000" y1="300.000" x2="560.000" y2="300.000" stroke="#cccccc"/>' in svg
