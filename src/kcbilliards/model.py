"""Core domain types: system parameters, states, walls, bounce records.

All types are immutable values and safe to share between threads. The
planar system always lives in the normalized (xi, eta) chart: the force
center sits at the origin, kinetic energy is Euclidean, and the line
wall is eta = h with h = -a/sqrt(1+a^2). The pre-normalization (x, y)
chart exists only inside the chart maps of :mod:`kcbilliards.spherical`.

A state is built by its constructor (or SphericalState.project).
PlanarState, IntegralSet and BounceRecord are named tuples: each equals a
plain tuple of its values, and _replace and _make skip PlanarState's checks.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    ConfigError,
    SingularPosition,
)

POLE_GUARD = 1e-10  # |q . Z1| beyond 1 - POLE_GUARD is at a pole of the sphere's center


@dataclass(frozen=True)
class SystemParams:
    """Parameters of the central force system.

    Attributes:
        m: mass factor of the center; m > 0 attracts, m < 0 repels.
        a: offset of the center along the eta-axis of the wall chart,
           a >= 0 by convention.
        beta: strength of the additional centrifugal force beta/r^3
           (potential term beta/(2 r^2)); beta = 0 is the pure
           Kepler-Coulomb case.

    Set once, and left out of ==, hash and repr: scale = sqrt(1+a^2), the
    factor of the normalization y = scale*eta + a; h = -a/scale, the level
    of the wall line; m_prime = m*scale, the spherical system's mass factor.
    """

    m: float
    a: float = 0.0
    beta: float = 0.0
    scale: float = field(init=False, repr=False, compare=False)
    h: float = field(init=False, repr=False, compare=False)
    m_prime: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.m, self.a, self.beta))):
            raise ConfigError("m, a and beta must be finite")
        if self.m == 0.0:
            raise ConfigError("mass factor m must be nonzero")
        if self.a < 0.0:
            raise ConfigError("offset a must be >= 0 by convention")
        object.__setattr__(self, "scale", math.sqrt(1.0 + self.a * self.a))
        object.__setattr__(self, "h", -self.a / self.scale)
        object.__setattr__(self, "m_prime", self.m * self.scale)


_PlanarFields = NamedTuple("_PlanarFields", [("xi", float), ("eta", float),
                                             ("xi_dot", float), ("eta_dot", float)])


class PlanarState(_PlanarFields):
    """Position and velocity in the normalized (xi, eta) chart: four finite floats."""

    __slots__ = ()

    def __new__(cls, xi: float, eta: float, xi_dot: float, eta_dot: float):
        xi, eta, xi_dot, eta_dot = float(xi), float(eta), float(xi_dot), float(eta_dot)
        if not (math.isfinite(xi) and math.isfinite(eta)
                and math.isfinite(xi_dot) and math.isfinite(eta_dot)):
            raise ConfigError(f"a planar state must be finite: {(xi, eta, xi_dot, eta_dot)}")
        if xi == 0.0 and eta == 0.0:
            raise SingularPosition("(xi, eta) = (0, 0) is the singular center")
        return tuple.__new__(cls, (xi, eta, xi_dot, eta_dot))

    @property
    def r(self) -> float:
        return math.hypot(self.xi, self.eta)

    @property
    def speed(self) -> float:
        return math.hypot(self.xi_dot, self.eta_dot)

    def as_array(self) -> np.ndarray:
        return np.array(self)


_UNIT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SphericalState:
    """Point on the unit sphere with a tangent velocity, both in embedded 3-space.

    Invariants |q| = 1 and q.v = 0 are enforced to 1e-12 on construction,
    and every component must be finite;
    use :meth:`project` to build a state from slightly off-constraint data.
    Pole avoidance (q != +-Z1) is checked where the center is known: by
    parse_config for a configured start, and by the embedded force.
    """

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", v)
        if q.shape != (3,) or v.shape != (3,):
            raise ValueError("q and v must be 3-vectors")
        if not (np.isfinite(q).all() and np.isfinite(v).all()):
            raise ValueError("q and v must be finite")
        if abs(np.linalg.norm(q) - 1.0) > _UNIT_TOL:
            raise ValueError("|q| must equal 1 within 1e-12")
        if abs(float(np.dot(q, v))) > _UNIT_TOL * max(1.0, float(np.linalg.norm(v))):
            raise ValueError("v must be tangent to the sphere within 1e-12")

    @classmethod
    def project(cls, q: Sequence[float], v: Sequence[float]) -> "SphericalState":
        """Renormalize q and remove the normal velocity component, then construct."""
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        q = q / np.linalg.norm(q)
        v = v - np.dot(q, v) * q
        return cls(q, v)

    @property
    def speed(self) -> float:
        return float(np.linalg.norm(self.v))

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.q, self.v])


State = Union[PlanarState, SphericalState]


def _unit(vector: Sequence[float], name: str) -> np.ndarray:
    """vector scaled to unit length; ConfigError if it is zero or not finite."""
    v = np.asarray(vector, dtype=float)
    norm = np.linalg.norm(v)
    if not 0.0 < norm < math.inf:
        raise ConfigError(f"{name} must be nonzero and finite")
    return v / norm


@dataclass(frozen=True)
class Wall:
    """A reflection wall: the level set f = ``level`` of its wall function
    f = alpha |x| + normal . x, with ``normal`` a tuple of floats. Derived,
    and left out of ==, hash and repr: ``scale`` = max(1, |level|), the
    wall's length scale, and ``is_planar``, a normal of length 2.
    ``side`` selects the half-space of the dynamics, where ``side * (f -
    level)`` (:func:`kcbilliards.billiard.wall_signed_distance`) is positive,
    read at q on the sphere in both forms of a leg, the pole chart included.
    The walls the engine serves, with the half-space of ``side = +1``:

    - the line ``(0, (0, 1), h)``: f = eta, any level; ``eta > h``.
    - the centered circle ``(1, (0, 0), R)``: f = r, R > 0; ``r > R``.
    - on the sphere ``(0, n, c)``: f = q . n, n a unit 3-vector, c in
      (-1, 1), where the plane meets the sphere; ``q . n > c``. A great
      circle is level 0. A cap about the center Z1 has the cap that
      contains Z1 on its ``+1`` side, which central projection takes to
      the region around the planar force center: the opposite of the
      planar circle's ``+1``.

    Anything else is a ConfigError.
    """

    alpha: float
    normal: tuple
    level: float
    side: int = 1
    scale: float = field(init=False, repr=False, compare=False)
    is_planar: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        normal = tuple(np.asarray(self.normal, dtype=float).reshape(-1).tolist())
        object.__setattr__(self, "normal", normal)
        _require(self.side in (-1, 1), "wall side must be +1 or -1")
        if len(normal) == 3:
            _require(self.alpha == 0.0, "a spherical wall has alpha = 0")
            _require(abs(math.hypot(*normal) - 1.0) <= _UNIT_TOL,
                     "a spherical wall's normal must be a unit vector")
            _require(abs(self.level) < 1.0, "a spherical wall lies at a level in (-1, 1)")
        elif (self.alpha, normal) == (1.0, (0.0, 0.0)):
            _require(self.level > 0.0, "circle wall radius must be positive")
        else:
            _require((self.alpha, normal) == (0.0, (0.0, 1.0)),
                     f"({self.alpha!r}, {normal!r}) is neither the line (0, (0, 1)), the "
                     "centered circle (1, (0, 0)) nor a spherical wall (0, a unit 3-vector)")
        object.__setattr__(self, "scale", max(1.0, abs(self.level)))
        object.__setattr__(self, "is_planar", len(normal) == 2)

    @property
    def domain(self) -> str:
        return "planar" if self.is_planar else "spherical"

    @classmethod
    def line(cls, h: float, side: int = 1) -> "Wall":
        """Planar line wall eta = h."""
        return cls(0.0, (0.0, 1.0), float(h), side)

    @classmethod
    def centered_circle(cls, radius: float, side: int = 1) -> "Wall":
        """Planar circle of given radius centered at the force center."""
        return cls(1.0, (0.0, 0.0), float(radius), side)

    @classmethod
    def great_circle(cls, normal: Sequence[float], side: int = 1) -> "Wall":
        """Spherical great circle; ``normal`` is the normal of its plane."""
        return cls(0.0, _unit(normal, "great-circle normal"), 0.0, side)

    @classmethod
    def centered_small_circle(
        cls, colatitude: float, center: Sequence[float], side: int = 1
    ) -> "Wall":
        """Spherical circle of given colatitude about the center direction."""
        if not 0.0 < colatitude < math.pi:
            raise ConfigError("colatitude must lie in (0, pi)")
        return cls(0.0, _unit(center, "small-circle center"), math.cos(colatitude), side)


class IntegralSet(NamedTuple):
    """Values of the six conserved quantities at one state.

    For beta = 0 these satisfy E_sph = (1+a^2)(E_pl + D/2); for
    beta != 0, E_pl is the flow energy including the centrifugal
    potential and D is generically not conserved.
    """

    E_pl: float
    L: float
    A_xi: float
    A_eta: float
    D: float
    E_sph: float


class BounceRecord(NamedTuple):
    """State and first integrals on both sides of one wall hit."""

    t_hit: float
    state_in: State
    state_out: State
    integrals_in: IntegralSet
    integrals_out: IntegralSet
    tangent: bool = False


def spherical_center(params: SystemParams) -> np.ndarray:
    """Unit-sphere position of the attractive (for m' > 0) center Z1."""
    return np.array([0.0, params.a / params.scale, -1.0 / params.scale])


@dataclass(frozen=True)
class Model:
    """A validated (params, wall) pair."""

    params: SystemParams
    wall: Wall


_H_TOL = 1e-12


def validate_config(params: SystemParams, wall: Wall) -> Model:
    """Check the wall against the params and return a model handle; the
    wall checked its own geometry when it was built.

    Raises:
        ConfigError: a line off eta = h(a), or a spherical wall off
            level 0 whose normal differs from Z1(a).
    """
    if wall.is_planar and wall.alpha == 0.0 and not abs(wall.level - params.h) <= _H_TOL:
        raise ConfigError(f"line level {wall.level!r} does not equal h(a) = {params.h!r}")
    if not wall.is_planar and wall.level != 0.0 and not (
        np.linalg.norm(np.subtract(wall.normal, spherical_center(params))) <= 1e-9
    ):
        raise ConfigError("a spherical wall off level 0 must be centred on Z1 of the params")
    return Model(params=params, wall=wall)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances for event-detecting numerical integration."""

    rtol: float = 1e-10
    atol: float = 1e-10
    max_step: float = math.inf


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported at the first call.

    The package's one import of scipy.integrate, which takes longer to
    load than the rest of the package together; the exact maps,
    ``project``, ``plot`` and configuration errors never need it.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class RunSpec:
    n_bounces: int = 0
    t_max: float = 100.0


@dataclass(frozen=True)
class RunConfig:
    """Fully parsed simulation configuration."""

    model: Model
    initial: State
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    run: RunSpec = field(default_factory=RunSpec)


def _require(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _finite(value, name: str) -> float:
    """A JSON number as a float; ConfigError for anything else, bools,
    NaN, infinities and integers beyond the float range included."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max, f"{name} must be a finite number")
    return float(value)


def _integer(value, name: str) -> int:
    """A finite JSON number of integral value (2 or 2.0, not 2.7) as an int."""
    x = _finite(value, name)
    _require(x.is_integer(), f"{name} must be an integer")
    return int(x)


def parse_config(doc: dict) -> RunConfig:
    """Parse and validate the JSON configuration document.

    Schema::

        {"system": {"model": "kepler"|"boltzmann"|"spherical",
                    "m": num, "a": num, "beta": num},
         "wall": {"kind": "planar-line"|"planar-centered-circle"
                          |"spherical-great-circle"|"spherical-centered-circle",
                  "radius"?: num, "colatitude"?: num, "side": +-1},
         "initial": {"state": [4 or 6 numbers]},
         "integrator": {"rtol": num, "atol": num, "max_step": num},
         "run": {"n_bounces": int, "t_max": num}}

    Every section is an object and every number finite (max_step defaults
    to infinity); side and n_bounces are integral, rtol > 0, atol >= 0,
    max_step > 0, n_bounces >= 0 and t_max > 0. The kepler and spherical
    models require beta = 0: neither force has a beta term. A start at the
    force center, or at either of its poles on the sphere, is a
    SingularPosition.
    """
    _require(isinstance(doc, dict), "config must be a JSON object")
    for key in ("system", "wall", "initial"):
        _require(key in doc, f"config is missing the {key!r} section")
    keys = ("system", "wall", "initial", "integrator", "run")
    for key in keys:
        _require(isinstance(doc.get(key, {}), dict), f"the {key!r} section must be an object")
    sys_sec, wall_sec, init_sec, integ_sec, run_sec = (doc.get(key, {}) for key in keys)

    name = sys_sec.get("model", "kepler")
    _require(
        name in ("kepler", "boltzmann", "spherical"),
        "system.model must be 'kepler', 'boltzmann' or 'spherical'",
    )
    beta = _finite(sys_sec.get("beta", 0.0), "system.beta")
    if name != "boltzmann":
        _require(beta == 0.0, f"{name} model requires beta = 0")
    params = SystemParams(
        m=_finite(sys_sec.get("m", 1.0), "system.m"),
        a=_finite(sys_sec.get("a", 0.0), "system.a"),
        beta=beta,
    )

    kind = wall_sec.get("kind")
    side = _integer(wall_sec.get("side", 1), "wall.side")
    if kind == "planar-line":
        wall = Wall.line(params.h, side=side)
    elif kind == "planar-centered-circle":
        _require("radius" in wall_sec, "planar circle wall requires 'radius'")
        wall = Wall.centered_circle(_finite(wall_sec["radius"], "wall.radius"), side=side)
    elif kind == "spherical-great-circle":
        # The canonical great circle corresponds to the planar line wall.
        wall = Wall.great_circle((0.0, 1.0, 0.0), side=side)
    elif kind == "spherical-centered-circle":
        _require("colatitude" in wall_sec, "centered circle wall requires 'colatitude'")
        wall = Wall.centered_small_circle(
            _finite(wall_sec["colatitude"], "wall.colatitude"), spherical_center(params), side=side
        )
    else:
        raise ConfigError(f"unknown wall kind {kind!r}")

    if name == "spherical":
        _require(not wall.is_planar, "spherical model requires a spherical wall")
    else:
        _require(wall.is_planar, f"{name} model requires a planar wall")

    model = validate_config(params, wall)

    state_vec = init_sec.get("state")
    _require(
        isinstance(state_vec, (list, tuple)) and len(state_vec) in (4, 6),
        "initial.state must hold 4 (planar) or 6 (spherical) numbers",
    )
    values = [_finite(x, "each initial.state value") for x in state_vec]
    if wall.is_planar:
        _require(len(values) == 4, "planar run requires a 4-number state")
        initial: State = PlanarState(*values)
    else:
        _require(len(values) == 6, "spherical run requires a 6-number state")
        try:
            initial = SphericalState(values[:3], values[3:])
        except ValueError as exc:
            raise ConfigError(f"invalid spherical state: {exc}") from exc
        if abs(float(initial.q @ spherical_center(params))) > 1.0 - POLE_GUARD:
            raise SingularPosition("the start lies at a pole of the force center")

    integ = IntegratorConfig(
        rtol=_finite(integ_sec.get("rtol", 1e-10), "integrator.rtol"),
        atol=_finite(integ_sec.get("atol", 1e-10), "integrator.atol"),
        max_step=_finite(integ_sec["max_step"], "integrator.max_step")
        if "max_step" in integ_sec else math.inf,
    )
    _require(integ.rtol > 0.0, "integrator.rtol must be positive")
    _require(integ.atol >= 0.0, "integrator.atol must be >= 0")
    _require(integ.max_step > 0.0, "integrator.max_step must be positive")

    run = RunSpec(
        n_bounces=_integer(run_sec.get("n_bounces", 0), "run.n_bounces"),
        t_max=_finite(run_sec.get("t_max", 100.0), "run.t_max"),
    )
    _require(run.n_bounces >= 0, "run.n_bounces must be >= 0")
    _require(run.t_max > 0, "run.t_max must be positive")

    return RunConfig(model=model, initial=initial, integrator=integ, run=run)


def load_config(path: str) -> RunConfig:
    """Read and parse a JSON configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc)
