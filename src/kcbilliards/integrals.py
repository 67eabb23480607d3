"""Conserved quantities of the planar flow in the normalized chart.

The six quantities reported everywhere are the planar energy E_pl, the
angular momentum L, the two Laplace-Runge-Lenz components (A_xi, A_eta),
the line-billiard invariant D = L^2 - 2 h A_eta, and the energy E_sph of
the corresponding spherical system. E_sph is computed from its own chart
expression, never via the identity E_sph = (1+a^2)(E_pl + D/2), so that
the identity remains an end-to-end test. One kernel, _integrals, holds
each formula and evaluates the terms they share once per state;
integral_set and the three single-quantity views the acceptance suite
reads (planar_energy, gj_integral, spherical_energy_chart) are views of
it, and L, A_xi and A_eta are read off integral_set. Every
formula is elementwise: the same functions serve a single PlanarState and
the columns of a stack of states (planar_columns), which is how the CLI
evaluates its trajectory rows and verify its sampled states.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from .errors import SingularPosition
from .model import IntegralSet, PlanarState, SystemParams


def _integrals(s, m: float, beta: float, a: float, h: float, r=None) -> tuple:
    """The six integrals (E_pl, L, A_xi, A_eta, D, E_sph) at a planar state,
    or elementwise at the rows of planar_columns(y): the one place each
    formula is written, with r (s.r unless given), L, the kinetic term and
    m/r evaluated once. beta enters E_pl alone (the centrifugal potential
    beta/(2 r^2)); E_sph is the chart expression of spherical_energy_chart."""
    r = s.r if r is None else r
    xi, eta, xi_dot, eta_dot = s.xi, s.eta, s.xi_dot, s.eta_dot
    lam = xi * eta_dot - eta * xi_dot
    kepler = 0.5 * (xi_dot * xi_dot + eta_dot * eta_dot) - m / r
    e_pl = kepler + beta / (2.0 * r * r) if beta != 0.0 else kepler
    m_eta = m * eta / r
    a_eta = -lam * xi_dot - m_eta
    one_a2 = 1.0 + a * a
    coupling = lam * lam - (2.0 * a / math.sqrt(one_a2)) * (lam * xi_dot + m_eta)
    return (e_pl, lam, lam * eta_dot - m * xi / r, a_eta, lam * lam - 2.0 * h * a_eta,
            one_a2 * kepler + 0.5 * one_a2 * coupling)


def planar_energy(s: PlanarState, m: float, beta: float = 0.0) -> float:
    """Planar energy (1/2)(xi_dot^2 + eta_dot^2) - m/r, plus the centrifugal
    potential beta/(2 r^2) when beta != 0, so that the value is conserved
    along the perturbed flow as well."""
    return _integrals(s, m, beta, 0.0, 0.0)[0]


def gj_integral(s: PlanarState, m: float, h: float) -> float:
    """Extra invariant of the line-wall billiard, D = L^2 - 2*h*A_eta."""
    return _integrals(s, m, 0.0, 0.0, h)[4]


def spherical_energy_chart(s: PlanarState, m: float, a: float) -> float:
    """Energy of the corresponding spherical system, in chart variables:

        (1+a^2) * ((1/2)(xi_dot^2+eta_dot^2) - m/r)
        + ((1+a^2)/2) * (L^2 - (2a/sqrt(1+a^2)) * (L*xi_dot + m*eta/r))

    independently of the identity (1+a^2)(E_pl + D/2).
    """
    return _integrals(s, m, 0.0, a, 0.0)[5]


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


def integral_set(s: PlanarState, params: SystemParams, r=None) -> IntegralSet:
    """Evaluate all six integrals at a planar state, or elementwise at the
    rows of planar_columns(y); r is s.r where the caller has it."""
    return IntegralSet(*_integrals(s, params.m, params.beta, params.a, params.h, r))

