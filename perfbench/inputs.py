"""Seeded task inputs: one JSON config (or verify seed) per task.

Task ``i`` of a workload is drawn from its own generator seeded by
``(seed, workload index, i)``, so the inputs of a run depend only on the
seed and the task index, never on how many tasks a run reaches.

Starts are drawn the way the acceptance suite draws them
(``kcbilliards.verify.bound_wall_states``): on the wall, moving into the
domain, at 0.3-0.9 of the speed that would leave the domain for good (on
the spherical cap: reach the equator of Z1), and at least 0.15 rad away
from grazing the wall and, on the centred circles, from the radial
direction. Every wall keeps the force centre on the far side of the wall,
as the line wall of the acceptance suite does, so no leg passes the
centre. Free-flow starts whose orbit comes within ``FLOW_MIN_PERICENTRE``
of the centre are redrawn: there the embedded spherical integrator loses
E_sph beyond the 1e-8 gate, and a single task can take seconds.
"""

from __future__ import annotations

import math

import numpy as np

M = 1.0
BETA = 0.3
TOL = 1e-12
LINE_EXACT_BOUNCES = 1000
WALLS_BOUNCES = 5
LEG_T_MAX = 1000.0
FLOW_T_MAX = 5.0
FLOW_MIN_PERICENTRE = 0.1
VERIFY_CASES = 2000
_MARGIN = 0.15

WALL_KINDS = (
    "planar-line",
    "planar-centered-circle",
    "boltzmann-line",
    "spherical-great-circle",
    "spherical-centered-circle",
)
FLOW_KINDS = ("planar", "boltzmann", "spherical")


def _h(a: float) -> float:
    return -a / math.sqrt(1.0 + a * a)


def _z1(a: float) -> np.ndarray:
    return np.array([0.0, a, -1.0]) / math.sqrt(1.0 + a * a)


def line_start(rng: np.random.Generator, a: float, beta: float = 0.0) -> list:
    """Planar state on eta = h(a) moving down into the side -1 domain."""
    h = _h(a)
    xi = float(rng.uniform(-1.5, 1.5))
    r = math.hypot(xi, h)
    v_bound = math.sqrt(2.0 * (M / r - beta / (2.0 * r * r)))
    speed = float(rng.uniform(0.3, 0.9)) * v_bound
    phi = float(rng.uniform(math.pi + _MARGIN, 2.0 * math.pi - _MARGIN))
    return [xi, h, speed * math.cos(phi), speed * math.sin(phi)]


def circle_start(rng: np.random.Generator, radius: float) -> list:
    """Planar state on the centred circle moving outwards (side +1)."""
    th = float(rng.uniform(0.0, 2.0 * math.pi))
    speed = float(rng.uniform(0.3, 0.9)) * math.sqrt(2.0 * M / radius)
    psi = float(rng.uniform(-math.pi / 2 + _MARGIN, math.pi / 2 - _MARGIN))
    c, s = math.cos(th), math.sin(th)
    vr, vt = speed * math.cos(psi), speed * math.sin(psi)
    return [radius * c, radius * s, vr * c - vt * s, vr * s + vt * c]


def planar_to_sphere(state: list, a: float) -> list:
    """Central projection of a normalized planar state onto the sphere.

    The map of ``kcbilliards.spherical.planar_to_sphere``, written out here
    so that the inputs do not change with the code under test.
    """
    xi, eta, xi_dot, eta_dot = state
    s = math.sqrt(1.0 + a * a)
    x, y = xi, s * eta + a
    lam2 = 1.0 + x * x + y * y
    lam = math.sqrt(lam2)
    xp, yp = lam2 * xi_dot, lam2 * s * eta_dot
    dd = (x * xp + y * yp) / lam2
    return [x / lam, y / lam, -1.0 / lam, (xp - x * dd) / lam, (yp - y * dd) / lam, dd / lam]


def pericentre(state: list) -> float:
    """Pericentre distance of the Kepler conic (beta = 0) through a state."""
    xi, eta, xi_dot, eta_dot = state
    energy = 0.5 * (xi_dot * xi_dot + eta_dot * eta_dot) - M / math.hypot(xi, eta)
    ell = xi * eta_dot - eta * xi_dot
    e = math.sqrt(max(0.0, 1.0 + 2.0 * energy * ell * ell / (M * M)))
    return ell * ell / M / (1.0 + e)


def cap_start(rng: np.random.Generator, a: float, colatitude: float) -> list:
    """Spherical state on the circle of given colatitude about Z1, moving
    away from Z1 (side -1); speed is 0.3-0.9 of the speed that reaches
    the equator of Z1."""
    z1 = _z1(a)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.cross(z1, e1)
    psi = float(rng.uniform(0.0, 2.0 * math.pi))
    q = math.cos(colatitude) * z1 + math.sin(colatitude) * (
        math.cos(psi) * e1 + math.sin(psi) * e2
    )
    n_in = z1 - float(np.dot(z1, q)) * q
    n_in /= np.linalg.norm(n_in)
    t_dir = np.cross(q, n_in)
    phi = float(rng.uniform(-math.pi / 2 + _MARGIN, math.pi / 2 - _MARGIN))
    m_prime = M * math.sqrt(1.0 + a * a)
    speed = float(rng.uniform(0.3, 0.9)) * math.sqrt(2.0 * m_prime / math.tan(colatitude))
    v = speed * (-math.cos(phi) * n_in + math.sin(phi) * t_dir)
    return [*q.tolist(), *v.tolist()]


def _config(model: str, a: float, wall: dict, state: list, n_bounces: int, t_max: float,
            beta: float = 0.0) -> dict:
    return {
        "system": {"model": model, "m": M, "a": a, "beta": beta},
        "wall": wall,
        "initial": {"state": state},
        "integrator": {"rtol": TOL, "atol": TOL},
        "run": {"n_bounces": n_bounces, "t_max": t_max},
    }


def wall_config(kind: str, rng: np.random.Generator, n_bounces: int, t_max: float) -> dict:
    """A billiard config of one run kind with a seeded a, wall and start."""
    a = float(rng.uniform(0.5, 1.5))
    if kind == "planar-line":
        return _config("kepler", a, {"kind": kind, "side": -1}, line_start(rng, a), n_bounces, t_max)
    if kind == "planar-centered-circle":
        radius = float(rng.uniform(0.8, 2.0))
        return _config("kepler", a, {"kind": kind, "radius": radius, "side": 1},
                       circle_start(rng, radius), n_bounces, t_max)
    if kind == "boltzmann-line":
        return _config("boltzmann", a, {"kind": "planar-line", "side": -1},
                       line_start(rng, a, BETA), n_bounces, t_max, beta=BETA)
    if kind == "spherical-great-circle":
        return _config("spherical", a, {"kind": kind, "side": -1},
                       planar_to_sphere(line_start(rng, a), a), n_bounces, t_max)
    if kind == "spherical-centered-circle":
        colatitude = float(rng.uniform(0.3, 0.5))
        return _config("spherical", a, {"kind": kind, "colatitude": colatitude, "side": -1},
                       cap_start(rng, a, colatitude), n_bounces, t_max)
    raise ValueError(f"unknown run kind {kind!r}")


def flow_config(kind: str, rng: np.random.Generator) -> dict:
    """A free-flow config (n_bounces = 0) whose orbit keeps off the centre."""
    a = float(rng.uniform(0.5, 1.5))
    state = line_start(rng, a)
    while pericentre(state) < FLOW_MIN_PERICENTRE:
        state = line_start(rng, a)
    if kind == "planar":
        return _config("kepler", a, {"kind": "planar-line", "side": -1}, state, 0, FLOW_T_MAX)
    if kind == "boltzmann":
        # the beta term only repels, so the orbit keeps even further off the centre
        return _config("boltzmann", a, {"kind": "planar-line", "side": -1}, state, 0, FLOW_T_MAX,
                       beta=BETA)
    return _config("spherical", a, {"kind": "spherical-great-circle", "side": -1},
                   planar_to_sphere(state, a), 0, FLOW_T_MAX)


def kind_order(kinds: tuple, seed: int, workload_index: int) -> list:
    """The fixed seeded order in which a workload rotates over its run kinds."""
    perm = np.random.default_rng([seed, workload_index]).permutation(len(kinds))
    return [kinds[k] for k in perm]


def task_input(workload: str, workload_index: int, seed: int, i: int):
    """Input of task ``i``: (run kind, config document or verify seed)."""
    rng = np.random.default_rng([seed, workload_index, i])
    if workload == "line-exact":
        return "planar-line", wall_config("planar-line", rng, LINE_EXACT_BOUNCES, LEG_T_MAX)
    if workload == "simulate-walls":
        kind = kind_order(WALL_KINDS, seed, workload_index)[i % len(WALL_KINDS)]
        return kind, wall_config(kind, rng, WALLS_BOUNCES, LEG_T_MAX)
    if workload == "simulate-flow":
        kind = kind_order(FLOW_KINDS, seed, workload_index)[i % len(FLOW_KINDS)]
        return kind, flow_config(kind, rng)
    if workload == "verify-suite":
        return "verify", 1000 * seed + i
    raise ValueError(f"unknown workload {workload!r}")
