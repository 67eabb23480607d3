"""Core domain types: system parameters, states, walls, bounce records.

All types are immutable values and safe to share between threads. The
planar system always lives in the normalized (xi, eta) chart: the force
center sits at the origin, kinetic energy is Euclidean, and the line
wall is eta = h with h = -a/sqrt(1+a^2). The pre-normalization (x, y)
chart exists only inside the chart maps of :mod:`kcbilliards.spherical`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigError,
    InconsistentWall,
    NegativeRadius,
    SingularPosition,
    ZeroMass,
)

PLANAR_LINE = "planar-line"
PLANAR_CENTERED_CIRCLE = "planar-centered-circle"
SPHERICAL_GREAT_CIRCLE = "spherical-great-circle"
SPHERICAL_CENTERED_CIRCLE = "spherical-centered-circle"

POLE_GUARD = 1e-10  # |q . Z1| beyond 1 - POLE_GUARD is at a pole of the sphere's center

WALL_KINDS = (
    PLANAR_LINE,
    PLANAR_CENTERED_CIRCLE,
    SPHERICAL_GREAT_CIRCLE,
    SPHERICAL_CENTERED_CIRCLE,
)


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
            raise ZeroMass("mass factor m must be nonzero")
        if self.a < 0.0:
            raise ConfigError("offset a must be >= 0 by convention")
        object.__setattr__(self, "scale", math.sqrt(1.0 + self.a * self.a))
        object.__setattr__(self, "h", -self.a / self.scale)
        object.__setattr__(self, "m_prime", self.m * self.scale)


@dataclass(frozen=True)
class PlanarState:
    """Position and velocity in the normalized (xi, eta) chart."""

    xi: float
    eta: float
    xi_dot: float
    eta_dot: float

    def __post_init__(self):
        for name in ("xi", "eta", "xi_dot", "eta_dot"):
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        if self.xi == 0.0 and self.eta == 0.0:
            raise SingularPosition("(xi, eta) = (0, 0) is the singular center")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.xi, self.eta])

    @property
    def velocity(self) -> np.ndarray:
        return np.array([self.xi_dot, self.eta_dot])

    @property
    def r(self) -> float:
        return math.hypot(self.xi, self.eta)

    @property
    def speed(self) -> float:
        return math.hypot(self.xi_dot, self.eta_dot)

    def as_array(self) -> np.ndarray:
        return np.array([self.xi, self.eta, self.xi_dot, self.eta_dot])

    @classmethod
    def from_array(cls, y: Sequence[float]) -> "PlanarState":
        return cls(float(y[0]), float(y[1]), float(y[2]), float(y[3]))


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

    @classmethod
    def from_array(cls, y: Sequence[float]) -> "SphericalState":
        y = np.asarray(y, dtype=float)
        return cls(y[:3].copy(), y[3:6].copy())


State = Union[PlanarState, SphericalState]


def _unit(vector: Sequence[float], name: str) -> tuple:
    """vector scaled to unit length; ConfigError if it is zero or not finite."""
    v = np.asarray(vector, dtype=float)
    norm = np.linalg.norm(v)
    if not 0.0 < norm < math.inf:
        raise ConfigError(f"{name} must be nonzero and finite")
    return tuple(v / norm)


@dataclass(frozen=True)
class Wall:
    """A reflection wall: the level set f = ``level`` of one wall function f.

    f is ``eta`` for the planar line (``level`` = h), the radius r for the
    planar centered circle (``level`` = R), and ``q . axis`` on the sphere,
    with ``axis`` the unit normal of the great circle's plane (``level`` =
    0) or the center Z1 of the small circle (``level`` = cos colatitude).
    ``axis`` is None for both planar walls.

    The ``side`` sign selects the half-space the dynamics occupies: the
    signed distance ``side * (f - level)`` of
    :func:`kcbilliards.billiard.wall_signed_distance` is positive there.
    ``side = +1`` selects

    - ``eta > h`` for the planar line;
    - ``r > R`` for the planar centered circle;
    - ``q . axis > 0`` for the spherical great circle;
    - the cap that contains Z1 for the spherical centered circle.

    Under central projection the cap around Z1 is the region around the
    planar force center, so the spherical centered circle's ``+1`` is the
    opposite of the planar circle's ``+1``.
    """

    kind: str
    side: int = 1
    level: float = 0.0
    axis: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in WALL_KINDS:
            raise ConfigError(f"unknown wall kind {self.kind!r}")
        if self.side not in (-1, 1):
            raise ConfigError("wall side must be +1 or -1")

    @classmethod
    def line(cls, h: float, side: int = 1) -> "Wall":
        """Planar line wall eta = h."""
        return cls(kind=PLANAR_LINE, side=side, level=float(h))

    @classmethod
    def centered_circle(cls, radius: float, side: int = 1) -> "Wall":
        """Planar circle of given radius centered at the force center."""
        if not radius > 0.0:
            raise NegativeRadius("circle wall radius must be positive")
        return cls(kind=PLANAR_CENTERED_CIRCLE, side=side, level=float(radius))

    @classmethod
    def great_circle(cls, normal: Sequence[float], side: int = 1) -> "Wall":
        """Spherical great circle; ``normal`` is the unit normal of its plane."""
        axis = _unit(normal, "great-circle normal")
        return cls(kind=SPHERICAL_GREAT_CIRCLE, side=side, axis=axis)

    @classmethod
    def centered_small_circle(
        cls, colatitude: float, center: Sequence[float], side: int = 1
    ) -> "Wall":
        """Spherical circle of given colatitude about the center direction."""
        if not 0.0 < colatitude < math.pi:
            raise ConfigError("colatitude must lie in (0, pi)")
        return cls(
            kind=SPHERICAL_CENTERED_CIRCLE,
            side=side,
            level=math.cos(colatitude),
            axis=_unit(center, "small-circle center"),
        )

    @property
    def is_planar(self) -> bool:
        return self.kind in (PLANAR_LINE, PLANAR_CENTERED_CIRCLE)


class IntegralSet(NamedTuple):
    """Values of the six conserved quantities at one state.

    For beta = 0 these satisfy E_sph = (1+a^2)(E_pl + D/2); for
    beta != 0, E_pl is the flow energy including the centrifugal
    potential and D is generically not conserved. A named tuple, as
    BounceRecord: both are built on every bounce.
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

    @property
    def domain(self) -> str:
        return "planar" if self.wall.is_planar else "spherical"


_H_TOL = 1e-12


def validate_config(params: SystemParams, wall: Wall) -> Model:
    """Check wall/params consistency and return a model handle.

    Raises:
        InconsistentWall: line level differs from h(a), or the small-circle
            center differs from Z1(a).
        NegativeRadius: nonpositive circle radius.
        ZeroMass: raised earlier by SystemParams itself.
    """
    if wall.kind == PLANAR_LINE and not abs(wall.level - params.h) <= _H_TOL:
        raise InconsistentWall(
            f"line level {wall.level!r} does not equal h(a) = {params.h!r}"
        )
    if wall.kind == PLANAR_CENTERED_CIRCLE and not wall.level > 0.0:
        raise NegativeRadius("circle wall radius must be positive")
    if wall.kind == SPHERICAL_GREAT_CIRCLE and not abs(np.linalg.norm(wall.axis) - 1) <= _UNIT_TOL:
        raise ConfigError("great-circle normal must be a unit vector")
    if wall.kind == SPHERICAL_CENTERED_CIRCLE and not (
        np.linalg.norm(np.subtract(wall.axis, spherical_center(params))) <= 1e-9
    ):
        raise InconsistentWall("small-circle center must be Z1 of the params")
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
         "wall": {"kind": str, "radius"?: num, "colatitude"?: num, "side": +-1},
         "initial": {"state": [4 or 6 numbers]},
         "integrator": {"rtol": num, "atol": num, "max_step": num},
         "run": {"n_bounces": int, "t_max": num}}

    Every section is an object and every number finite (max_step defaults
    to infinity); side and n_bounces are integral, rtol > 0, atol >= 0,
    max_step > 0, n_bounces >= 0 and t_max > 0. A start at the force
    center, or at either of its poles on the sphere, is a SingularPosition.
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
    if name == "kepler":
        _require(beta == 0.0, "kepler model requires beta = 0")
    params = SystemParams(
        m=_finite(sys_sec.get("m", 1.0), "system.m"),
        a=_finite(sys_sec.get("a", 0.0), "system.a"),
        beta=beta,
    )

    kind = wall_sec.get("kind")
    side = _integer(wall_sec.get("side", 1), "wall.side")
    if kind == PLANAR_LINE:
        wall = Wall.line(params.h, side=side)
    elif kind == PLANAR_CENTERED_CIRCLE:
        _require("radius" in wall_sec, "planar circle wall requires 'radius'")
        wall = Wall.centered_circle(_finite(wall_sec["radius"], "wall.radius"), side=side)
    elif kind == SPHERICAL_GREAT_CIRCLE:
        # The canonical great circle corresponds to the planar line wall.
        wall = Wall.great_circle((0.0, 1.0, 0.0), side=side)
    elif kind == SPHERICAL_CENTERED_CIRCLE:
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
    if model.domain == "planar":
        _require(len(values) == 4, "planar run requires a 4-number state")
        initial: State = PlanarState.from_array(values)
    else:
        _require(len(values) == 6, "spherical run requires a 6-number state")
        try:
            initial = SphericalState.from_array(values)
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
