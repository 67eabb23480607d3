import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcbilliards.errors import (
    ConfigError,
    SingularPosition,
)
from kcbilliards.model import (
    BounceRecord,
    IntegralSet,
    PlanarState,
    SphericalState,
    SystemParams,
    Wall,
    parse_config,
    spherical_center,
    validate_config,
)


class TestSystemParams:
    def test_zero_mass_rejected(self):
        with pytest.raises(ConfigError, match="mass factor m must be nonzero"):
            SystemParams(m=0.0)

    def test_negative_offset_rejected(self):
        with pytest.raises(ConfigError):
            SystemParams(m=1.0, a=-0.5)

    def test_m_prime(self):
        p = SystemParams(m=2.0, a=1.0)
        assert p.m_prime == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_m_prime_reduces_at_zero_offset(self):
        assert SystemParams(m=-3.0, a=0.0).m_prime == -3.0

    def test_h_at_unit_offset(self):
        assert SystemParams(m=1.0, a=1.0).h == pytest.approx(-1.0 / math.sqrt(2.0))

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_h_range(self, a):
        h = SystemParams(m=1.0, a=a).h
        assert -1.0 < h <= 0.0

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=1e-2, max_value=10.0),
    )
    def test_h_monotone_decreasing(self, a, da):
        p1 = SystemParams(m=1.0, a=a)
        p2 = SystemParams(m=1.0, a=a + da)
        assert p2.h < p1.h
        assert SystemParams(m=1.0, a=0.0).h == 0.0

    def test_root_is_derived_once_and_left_out_of_the_value(self):
        p = SystemParams(m=-2.0, a=0.75, beta=0.1)
        assert (p.scale, p.h, p.m_prime) == (
            math.sqrt(1.0 + 0.75 * 0.75), -0.75 / math.sqrt(1.5625), -2.0 * math.sqrt(1.5625))
        assert p == SystemParams(m=-2.0, a=0.75, beta=0.1) != SystemParams(m=-2.0, a=0.5, beta=0.1)
        assert hash(p) == hash((-2.0, 0.75, 0.1))
        assert repr(p) == "SystemParams(m=-2.0, a=0.75, beta=0.1)"
        q = dataclasses.replace(p, a=2.0)
        assert (q.scale, q.h, q.m_prime) == (math.sqrt(5.0), -2.0 / math.sqrt(5.0),
                                             -2.0 * math.sqrt(5.0))

    @pytest.mark.parametrize("field", ["m", "a", "beta"])
    def test_nan_parameter_rejected(self, field):
        with pytest.raises(ConfigError, match="finite"):
            SystemParams(**{"m": 1.0, "a": 0.5, "beta": 0.0, field: math.nan})


class TestStates:
    def test_origin_rejected(self):
        with pytest.raises(SingularPosition):
            PlanarState(0.0, 0.0, 1.0, 0.0)

    def test_origin_rejected_after_coercion(self):
        with pytest.raises(SingularPosition):
            PlanarState(np.float64(0.0), -0.0, 1, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", range(4))
    def test_non_finite_component_rejected(self, k, value):
        # as SystemParams and Wall refuse theirs
        components = [0.3, -0.5, 0.2, -0.9]
        components[k] = value
        with pytest.raises(ConfigError, match=r"a planar state must be finite: \("):
            PlanarState(*components)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("build", ["_replace", "_make"])
    def test_replace_and_make_check_as_the_constructor(self, build, value):
        s = PlanarState(0.3, -0.5, 0.2, -0.9)
        with pytest.raises(ConfigError, match=r"a planar state must be finite: \("):
            if build == "_replace":
                s._replace(xi_dot=value)
            else:
                PlanarState._make([0.3, value, 0.2, -0.9])
        assert type(s._replace(xi=1)) is PlanarState and s._replace(xi=1).xi == 1.0

    def test_keyword_construction_gives_the_same_state(self):
        s = PlanarState(xi=1, eta=np.float64(-2.0), xi_dot=0.5, eta_dot=np.int64(0))
        assert s == PlanarState(1.0, -2.0, 0.5, 0.0)
        assert all(type(x) is float for x in s)

    def test_round_trip_array(self):
        s = PlanarState(1.0, -2.0, 0.5, 0.25)
        assert PlanarState(*s.as_array()) == s

    def test_planar_fields_are_plain_floats(self):
        s = PlanarState(1, np.float64(-2.0), np.int64(3), 0.25)
        assert all(type(getattr(s, k)) is float for k in ("xi", "eta", "xi_dot", "eta_dot"))
        assert s == PlanarState(1.0, -2.0, 3.0, 0.25)

    @pytest.mark.parametrize("q, v", [([0.6, -0.8], [0.8, 0.6, 0.0]),
                                      ([0.6, 0.0, -0.8], [[0.8, 0.0, 0.6]])])
    def test_spherical_state_needs_3_vectors(self, q, v):
        with pytest.raises(ValueError, match="q and v must be 3-vectors"):
            SphericalState(q, v)

    def test_spherical_constraints_enforced(self):
        with pytest.raises(ValueError):
            SphericalState(np.array([1.0, 0.0, 0.1]), np.zeros(3))
        with pytest.raises(ValueError):
            SphericalState(np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["q", "v"])
    def test_spherical_state_rejects_non_finite(self, bad, where):
        # a NaN passes every |q| = 1 and q.v = 0 comparison, and an infinite
        # velocity passes the tangency check scaled by |v|
        q, v = np.array([0.6, 0.0, -0.8]), np.array([0.8, 0.0, 0.6])
        (q if where == "q" else v)[2] = bad
        with pytest.raises(ValueError, match="finite"):
            SphericalState(q, v)

    def test_spherical_project(self):
        s = SphericalState.project([2.0, 0.0, 0.0], [0.5, 1.0, 0.0])
        assert np.linalg.norm(s.q) == pytest.approx(1.0, abs=1e-15)
        assert abs(np.dot(s.q, s.v)) < 1e-15

    def test_spherical_center_is_unit(self):
        for a in (0.0, 0.7, 3.0):
            z1 = spherical_center(SystemParams(m=1.0, a=a))
            assert np.linalg.norm(z1) == pytest.approx(1.0, abs=1e-12)
            s = math.sqrt(1.0 + a * a)
            np.testing.assert_allclose(z1, [0.0, a / s, -1.0 / s], atol=1e-15)


class TestImmutableValues:
    """The domain values cannot be assigned to; FrozenInstanceError, which a
    frozen dataclass raises, is an AttributeError like a named tuple's."""

    def test_fields_cannot_be_assigned(self):
        s = PlanarState(1.0, -2.0, 0.5, 0.25)
        ints = IntegralSet(-0.5, 1.0, 0.1, 0.2, 0.3, -0.4)
        rec = BounceRecord(1.5, s, s, ints, ints)
        for value, field in ((s, "xi"), (ints, "D"), (rec, "t_hit"), (rec, "integrals_in")):
            with pytest.raises(AttributeError):
                setattr(value, field, 0.0)

    def test_field_order(self):
        assert issubclass(PlanarState, tuple)
        assert PlanarState._fields == ("xi", "eta", "xi_dot", "eta_dot")
        assert IntegralSet._fields == ("E_pl", "L", "A_xi", "A_eta", "D", "E_sph")
        assert BounceRecord._fields == (
            "t_hit", "state_in", "state_out", "integrals_in", "integrals_out", "tangent")
        assert BounceRecord(1.5, None, None, None, None).tangent is False


class TestValidateConfig:
    def test_boltzmann_wall_through_center(self):
        # a = 0 forces h = 0: a line wall through the center is valid
        params = SystemParams(m=-1.0, a=0.0)
        model = validate_config(params, Wall.line(0.0))
        assert model.wall.domain == "planar"

    def test_line_level_matches_h(self):
        params = SystemParams(m=1.0, a=1.0)
        model = validate_config(params, Wall.line(-1.0 / math.sqrt(2.0)))
        assert model.wall.level == pytest.approx(params.h)

    def test_inconsistent_line_rejected(self):
        params = SystemParams(m=1.0, a=1.0)
        with pytest.raises(ConfigError, match="does not equal h"):
            validate_config(params, Wall.line(0.0))

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigError, match="circle wall radius must be positive"):
            Wall.centered_circle(-2.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_directly_built_circle_needs_a_positive_radius(self, radius):
        with pytest.raises(ConfigError, match="circle wall radius must be positive"):
            Wall(1.0, (0.0, 0.0), radius)

    def test_great_circle_needs_a_unit_normal(self):
        with pytest.raises(ConfigError, match="unit vector"):
            Wall(0.0, (0.0, 2.0, 0.0), 0.0)

    def test_small_circle_must_be_centred_on_z1(self):
        params = SystemParams(m=1.0, a=0.5)
        validate_config(params, Wall.centered_small_circle(0.5, spherical_center(params)))
        with pytest.raises(ConfigError, match="centred on Z1"):
            validate_config(params, Wall.centered_small_circle(0.5, (0.0, 0.0, -1.0)))

    def test_spherical_wall_off_level_zero_must_be_centred_on_z1(self):
        # a great circle of any normal is valid; off level 0, only a cap about Z1
        params = SystemParams(m=1.0, a=0.5)
        validate_config(params, Wall(0.0, (1.0, 0.0, 0.0), 0.0))
        with pytest.raises(ConfigError, match="centred on Z1"):
            validate_config(params, Wall(0.0, (1.0, 0.0, 0.0), 0.3))

    @pytest.mark.parametrize("alpha, normal, level, side", [
        (1.0, (0.0, 0.5), 2.0, 1),  # the ellipse r + eta/2 = 2, a focal conic
        (0.0, (0.0, 1.0), -0.5, 0),
    ], ids=["planar-ellipse-1", "planar-line-0"])
    def test_wall_kind_and_side_are_checked(self, alpha, normal, level, side):
        with pytest.raises(ConfigError):
            Wall(alpha, normal, level, side)

    @pytest.mark.parametrize("alpha, normal, level, message", [
        (0.0, (1.0, 0.0), 0.5, "neither the line"),  # the line xi = 0.5
        (2.0, (0.0, 0.0), 1.0, "neither the line"),  # the circle 2 r = 1
        (0.0, (0.0, 0.0), 1.0, "neither the line"),
        (0.0, (0.0, 1.0, 0.0, 0.0), 0.0, "neither the line"),
        (0.0, None, 0.0, "neither the line"),
        (1.0, (0.0, 0.0, 1.0), 0.5, "alpha = 0"),
    ], ids=["rotated-line", "scaled-circle", "zero-normal", "4-vector", "no-normal",
            "alpha-on-the-sphere"])
    def test_wall_is_one_the_engine_serves(self, alpha, normal, level, message):
        with pytest.raises(ConfigError, match=message):
            Wall(alpha, normal, level)

    def test_nan_line_level_rejected(self):
        with pytest.raises(ConfigError, match="does not equal h"):
            validate_config(SystemParams(m=1.0, a=0.5), Wall.line(math.nan))

    def test_nan_radius_rejected(self):
        with pytest.raises(ConfigError, match="circle wall radius must be positive"):
            Wall.centered_circle(math.nan)
        with pytest.raises(ConfigError, match="circle wall radius must be positive"):
            Wall(1.0, (0.0, 0.0), math.nan)

    def test_nan_great_circle_normal_rejected(self):
        with pytest.raises(ConfigError, match="nonzero"):
            Wall.great_circle((math.nan, 0.0, 0.0))
        with pytest.raises(ConfigError, match="unit vector"):
            Wall(0.0, (math.nan, 0.0, 0.0), 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (math.nan, 0.0, -1.0)])
    def test_small_circle_center_must_be_a_direction(self, center):
        with pytest.raises(ConfigError, match="center must be nonzero"):
            Wall.centered_small_circle(0.5, center)
        with pytest.raises(ConfigError, match="unit vector"):
            Wall(0.0, center, math.cos(0.5))

    @pytest.mark.parametrize("level", [2.0, 1.0, -1.0, -1.5, math.nan])
    def test_spherical_circle_level_must_meet_the_sphere(self, level):
        # no point of the sphere lies on q . Z1 = level outside (-1, 1)
        params = SystemParams(m=1.0, a=0.5)
        with pytest.raises(ConfigError, match=r"level in \(-1, 1\)"):
            Wall(0.0, spherical_center(params), level)

    @pytest.mark.parametrize("colatitude", [1e-9, math.pi - 1e-9])
    def test_small_circle_whose_cosine_rounds_to_one_is_rejected(self, colatitude):
        assert abs(math.cos(colatitude)) == 1.0
        with pytest.raises(ConfigError, match=r"level in \(-1, 1\)"):
            Wall.centered_small_circle(colatitude, spherical_center(SystemParams(m=1.0)))

    def test_each_kind_sets_its_wall_function(self):
        line, circle = Wall.line(-0.5), Wall.centered_circle(2.0)
        great = Wall.great_circle((0.0, 2.0, 0.0))
        cap = Wall.centered_small_circle(0.5, (0.0, 0.0, -1.0))
        assert (line.alpha, line.normal, line.level, line.scale) == (0.0, (0.0, 1.0), -0.5, 1.0)
        assert (circle.alpha, circle.normal, circle.level, circle.scale) == (1.0, (0.0, 0.0), 2.0, 2.0)
        assert (great.alpha, great.normal, great.level) == (0.0, (0.0, 1.0, 0.0), 0.0)
        assert (cap.alpha, cap.normal, cap.level) == (0.0, (0.0, 0.0, -1.0), math.cos(0.5))
        assert [w.is_planar for w in (line, circle, great, cap)] == [True, True, False, False]

    @pytest.mark.parametrize("normal", [(0.0, 1.0), [0, 1], np.array([0.0, 1.0])])
    def test_wall_is_its_four_fields(self, normal):
        # the normal becomes a tuple of floats, so any sequence gives the
        # same hashable value; scale and is_planar are derived, so left out
        # of ==, hash and repr
        wall = Wall(0.0, normal, -0.5)
        assert wall == Wall.line(-0.5) and hash(wall) == hash(Wall.line(-0.5))
        assert wall.normal == (0.0, 1.0) and all(type(x) is float for x in wall.normal)
        assert repr(wall) == "Wall(alpha=0.0, normal=(0.0, 1.0), level=-0.5, side=1)"
        assert [f.name for f in dataclasses.fields(Wall) if f.compare] == [
            "alpha", "normal", "level", "side"]

    def test_great_circle_normal_normalized(self):
        w = Wall.great_circle((0.0, 2.0, 0.0))
        assert np.linalg.norm(w.normal) == pytest.approx(1.0, abs=1e-15)


class TestParseConfig:
    def _doc(self, **over):
        doc = {
            "system": {"model": "kepler", "m": 1.0, "a": 1.0, "beta": 0.0},
            "wall": {"kind": "planar-line", "side": -1},
            "initial": {"state": [0.5, -1.0 / math.sqrt(2.0), 0.3, -0.8]},
            "integrator": {"rtol": 1e-10, "atol": 1e-10, "max_step": 1.0},
            "run": {"n_bounces": 10, "t_max": 100.0},
        }
        doc.update(over)
        return doc

    def test_valid(self):
        cfg = parse_config(self._doc())
        assert cfg.run.n_bounces == 10
        assert cfg.model.wall.side == -1

    def test_kepler_with_beta_rejected(self):
        doc = self._doc(system={"model": "kepler", "m": 1.0, "a": 1.0, "beta": 0.3})
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unknown_wall_kind(self):
        with pytest.raises(ConfigError, match="unknown wall kind 'planar-ellipse'"):
            parse_config(self._doc(wall={"kind": "planar-ellipse", "side": -1}))

    def test_wrong_state_length(self):
        doc = self._doc(initial={"state": [1.0, 2.0, 3.0]})
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_spherical_model(self):
        doc = self._doc(
            system={"model": "spherical", "m": 1.0, "a": 1.0, "beta": 0.0},
            wall={"kind": "spherical-great-circle", "side": -1},
            initial={"state": [0.4472135954999579, 0.0, -0.8944271909999159,
                               0.1, -0.5, 0.05]},
        )
        # tangency of v is enforced; build a legal one
        import numpy as np

        q = np.array(doc["initial"]["state"][:3])
        v = np.array([0.3, -0.7, 0.0])
        v = v - np.dot(q, v) * q
        doc["initial"]["state"] = [*q.tolist(), *v.tolist()]
        cfg = parse_config(doc)
        assert cfg.model.wall.domain == "spherical"

    def test_spherical_state_off_the_sphere(self):
        # six finite numbers, but |q| = 2: a ConfigError, not a ValueError
        doc = self._doc(
            system={"model": "spherical", "m": 1.0, "a": 1.0, "beta": 0.0},
            wall={"kind": "spherical-great-circle", "side": -1},
            initial={"state": [0.0, 0.0, -2.0, 1.0, 0.0, 0.0]},
        )
        with pytest.raises(ConfigError, match="invalid spherical state"):
            parse_config(doc)
