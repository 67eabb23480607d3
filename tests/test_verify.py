import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import kcbilliards.verify
from kcbilliards.billiard import Escape
from kcbilliards.integrals import gj_integral, planar_energy, spherical_energy_chart
from kcbilliards.model import PlanarState
from kcbilliards.verify import (
    check_analytic_vs_numeric,
    check_projection_correspondence,
    check_reflection_d_invariance,
    check_spherical_energy_identity,
    random_states,
    run_suite,
)

BLOCKS = [(a, m) for a in (0.0, 0.5, 1.0, 3.0) for m in (-1.0, 1.0)]


def test_individual_checks_pass():
    assert check_reflection_d_invariance(0, 2000).passed
    assert check_spherical_energy_identity(1, 2000).passed
    assert check_analytic_vs_numeric(2, 12).passed
    assert check_projection_correspondence().passed


@pytest.mark.parametrize("escaping, passed, max_err", [
    (("next_hit_numeric",), False, math.inf),
    (("next_hit_numeric", "next_hit_analytic_line"), True, 0.0),
])
def test_escapes_are_compared_by_outcome(monkeypatch, escaping, passed, max_err):
    # an Escape from one map where the other hits fails the check, and
    # an Escape from both is a case counted as agreeing
    for name in escaping:
        monkeypatch.setattr(kcbilliards.verify, name, lambda *args: Escape("patched"))
    got = check_analytic_vs_numeric(2, 6)
    assert (got.passed, got.max_err, got.cases) == (passed, max_err, 6)


def test_reflection_check_sees_a_broken_reflect(monkeypatch):
    # the check reflects through the package's reflect: one that shifts
    # xi_dot by 0.1 v.n and keeps eta_dot changes D, and the check fails
    def broken(state, wall):
        return state._replace(xi_dot=state.xi_dot + 0.1 * state.eta_dot)

    monkeypatch.setattr(kcbilliards.verify, "reflect", broken)
    got = check_reflection_d_invariance(0, 2000)
    assert not got.passed and got.max_err > got.tol


def test_suite_reports_all_checks():
    report = run_suite(seed=7, cases=1000)
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "reflection-D-invariance",
        "spherical-energy-identity",
        "analytic-vs-numeric-hit",
        "projection-correspondence",
    }


def test_suite_deterministic_for_seed():
    r1 = run_suite(seed=3, cases=800)
    r2 = run_suite(seed=3, cases=800)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_injected_fault_fails_suite():
    report = run_suite(seed=0, cases=200, inject_fault=True)
    assert not report["passed"]


def test_columnar_checks_match_a_per_state_loop():
    # the checks draw the same states and report the same worst error and
    # count as one PlanarState at a time
    seed, cases = 5, 400
    rng = np.random.default_rng(seed)
    worst, total = 0.0, 0
    for a, m in BLOCKS:
        h = -a / math.sqrt(1.0 + a * a)
        xi, xd, ed = (rng.uniform(-w, w, cases // 8) for w in (3.0, 2.0, 2.0))
        for x, u, v in zip(xi, xd, ed):
            d_in = gj_integral(PlanarState(x, h, u, v), m, h)
            d_out = gj_integral(PlanarState(x, h, u, -v), m, h)
            worst = max(worst, abs(d_out - d_in) / max(1.0, abs(d_in)))
            total += 1
    reflection = check_reflection_d_invariance(seed, cases)
    assert (reflection.max_err, reflection.cases) == (worst, total)

    rng = np.random.default_rng(seed)
    worst, total = 0.0, 0
    for a, m in BLOCKS:
        h = -a / math.sqrt(1.0 + a * a)
        for y in random_states(rng, cases // 8):
            s = PlanarState(*y)
            e_sph = spherical_energy_chart(s, m, a)
            rhs = (1.0 + a * a) * (planar_energy(s, m) + 0.5 * gj_integral(s, m, h))
            worst = max(worst, abs(e_sph - rhs) / max(1.0, abs(e_sph)))
            total += 1
    identity = check_spherical_energy_identity(seed, cases)
    assert (identity.max_err, identity.cases) == (worst, total)
    for got in (reflection, identity):  # plain floats and bools, so the report dumps
        assert type(got.passed) is bool and json.dumps(asdict(got))
