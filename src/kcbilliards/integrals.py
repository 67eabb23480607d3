"""Conserved quantities of the planar flow in the normalized chart.

The six quantities reported everywhere are the planar energy E_pl, the
angular momentum L, the two Laplace-Runge-Lenz components (A_xi, A_eta),
the line-billiard invariant D = L^2 - 2 h A_eta, and the energy E_sph of
the corresponding spherical system. E_sph is computed from its own chart
expression, never via the identity E_sph = (1+a^2)(E_pl + D/2), so that
the identity remains an end-to-end test. Every formula is elementwise: the
same functions serve a single PlanarState and the columns of a stack of
states (planar_columns), which is how the CLI evaluates its trajectory
rows and verify its sampled states.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import SingularPosition
from .model import IntegralSet, PlanarState, SystemParams


def planar_energy(s: PlanarState, m: float, beta: float = 0.0) -> float:
    """Planar energy (1/2)(xi_dot^2 + eta_dot^2) - m/r.

    With beta != 0 the centrifugal potential beta/(2 r^2) is included, so
    the value is conserved along the perturbed flow as well.
    """
    r = s.r
    e = 0.5 * (s.xi_dot * s.xi_dot + s.eta_dot * s.eta_dot) - m / r
    if beta != 0.0:
        e += beta / (2.0 * r * r)
    return e


def angular_momentum(s: PlanarState) -> float:
    """L = xi*eta_dot - eta*xi_dot."""
    return s.xi * s.eta_dot - s.eta * s.xi_dot


def lrl_xi(s: PlanarState, m: float) -> float:
    """A_xi = L*eta_dot - m*xi/r."""
    return angular_momentum(s) * s.eta_dot - m * s.xi / s.r


def lrl_eta(s: PlanarState, m: float) -> float:
    """A_eta = -L*xi_dot - m*eta/r."""
    return -angular_momentum(s) * s.xi_dot - m * s.eta / s.r


def gj_integral(s: PlanarState, m: float, h: float) -> float:
    """Extra invariant of the line-wall billiard, D = L^2 - 2*h*A_eta."""
    lam = angular_momentum(s)
    return lam * lam - 2.0 * h * lrl_eta(s, m)


def spherical_energy_chart(s: PlanarState, m: float, a: float) -> float:
    """Energy of the corresponding spherical system, in chart variables.

    Implements the displayed chart expression

        (1+a^2) * ((1/2)(xi_dot^2+eta_dot^2) - m/r)
        + ((1+a^2)/2) * (L^2 - (2a/sqrt(1+a^2)) * (L*xi_dot + m*eta/r))

    independently of the identity (1+a^2)(E_pl + D/2).
    """
    one_a2 = 1.0 + a * a
    r = s.r
    lam = s.xi * s.eta_dot - s.eta * s.xi_dot
    kinetic = 0.5 * (s.xi_dot * s.xi_dot + s.eta_dot * s.eta_dot)
    coupling = lam * lam - (2.0 * a / math.sqrt(one_a2)) * (
        lam * s.xi_dot + m * s.eta / r
    )
    return one_a2 * (kinetic - m / r) + 0.5 * one_a2 * coupling


def planar_columns(y) -> SimpleNamespace:
    """The columns xi, eta, xi_dot, eta_dot and r of an (n, 4) stack of
    planar states, for the integral functions above.

    r is math.hypot per row, PlanarState.r's bits (np.hypot rounds some
    pairs differently), so each entry of a function of the columns is its
    value at that row's PlanarState, to the bit.

    Raises:
        SingularPosition: if a row lies at the center (0, 0).
    """
    y = np.asarray(y, dtype=float)
    xi, eta, xi_dot, eta_dot = y.T
    r = np.array(list(map(math.hypot, xi.tolist(), eta.tolist())))
    if (r == 0.0).any():
        raise SingularPosition("(xi, eta) = (0, 0) is the singular center")
    return SimpleNamespace(xi=xi, eta=eta, xi_dot=xi_dot, eta_dot=eta_dot, r=r)


def integral_set(s: PlanarState, params: SystemParams) -> IntegralSet:
    """Evaluate all six integrals at a planar state, or elementwise at the
    rows of planar_columns(y)."""
    return IntegralSet(
        E_pl=planar_energy(s, params.m, params.beta),
        L=angular_momentum(s),
        A_xi=lrl_xi(s, params.m),
        A_eta=lrl_eta(s, params.m),
        D=gj_integral(s, params.m, params.h),
        E_sph=spherical_energy_chart(s, params.m, params.a),
    )

