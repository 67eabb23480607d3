import json
import math
import os
import re
import shutil
import xml.dom.minidom

import numpy as np
import pytest

from oracles import ode_trajectory

import kcbilliards.cli
import kcbilliards.planar
import kcbilliards.spherical
import kcbilliards.verify
from kcbilliards.cli import _drift, main
from kcbilliards.integrals import integral_set
from kcbilliards.io import (PLANAR_BOUNCE_HEADER, PLANAR_HEADER, SPHERICAL_BOUNCE_HEADER,
                            SPHERICAL_HEADER, read_csv)
from kcbilliards.model import (IntegratorConfig, PlanarState, SphericalState, SystemParams,
                               spherical_center)
from kcbilliards.planar import propagate_analytic
from kcbilliards.spherical import integrate_spherical, spherical_energy_embedded

H1 = -1.0 / math.sqrt(2.0)


def write_config(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


@pytest.fixture
def billiard_config(tmp_path):
    doc = {
        "system": {"model": "kepler", "m": 1.0, "a": 1.0, "beta": 0.0},
        "wall": {"kind": "planar-line", "side": -1},
        "initial": {"state": [0.5, H1, 0.3, -0.8]},
        "integrator": {"rtol": 1e-11, "atol": 1e-11, "max_step": 1.0},
        "run": {"n_bounces": 8, "t_max": 50.0},
    }
    p = tmp_path / "config.json"
    write_config(p, doc)
    return str(p)


@pytest.fixture
def flow_config(tmp_path):
    doc = {
        "system": {"model": "kepler", "m": 1.0, "a": 0.5, "beta": 0.0},
        "wall": {"kind": "planar-line", "side": -1},
        "initial": {"state": [1.0, 0.2, -0.1, 0.9]},
        "integrator": {"rtol": 1e-10, "atol": 1e-10, "max_step": 1.0},
        "run": {"n_bounces": 0, "t_max": 3.0},
    }
    p = tmp_path / "flow.json"
    write_config(p, doc)
    return str(p)


# one run per kind of plotted file, like the runs the CI console-script step plots
PLOT_RUNS = {
    "line": {
        "system": {"model": "kepler", "m": 1.0, "a": 1.0, "beta": 0.0},
        "wall": {"kind": "planar-line", "side": -1},
        "initial": {"state": [0.5, H1, 0.3, -0.8]},
        "integrator": {"rtol": 1e-11, "atol": 1e-11, "max_step": 1.0},
        "run": {"n_bounces": 8, "t_max": 50.0},
    },
    "circle": {
        "system": {"model": "kepler", "m": 1.0, "a": 0.5, "beta": 0.0},
        "wall": {"kind": "planar-centered-circle", "radius": 1.0, "side": 1},
        "initial": {"state": [1.0, 0.0, 0.6, 0.5]},
        "integrator": {"rtol": 1e-10, "atol": 1e-10, "max_step": 1.0},
        "run": {"n_bounces": 5, "t_max": 100.0},
    },
    "spherical": {
        "system": {"model": "spherical", "m": 1.0, "a": 0.5, "beta": 0.0},
        "wall": {"kind": "spherical-great-circle", "side": -1},
        # planar_to_sphere of (1.0, 0.2, -0.1, 0.9) at a = 0.5
        "initial": {"state": [0.6294904643473184, 0.4555035791205103, -0.6294904643473184,
                              -0.5542512301683983, 1.312375480433712, 0.39539258867383]},
        "integrator": {"rtol": 1e-10, "atol": 1e-10, "max_step": 1.0},
        "run": {"n_bounces": 0, "t_max": 20.0},
    },
}


class TestSimulate:
    def test_billiard_run(self, billiard_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", billiard_config, "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert ",".join(header) == PLANAR_HEADER
        assert len(rows) == 9  # initial sample plus 8 bounces
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outcome"] == "completed"
        assert summary["n_bounces"] == 8
        assert summary["max_drift"]["E_pl"] < 1e-8
        assert summary["max_drift"]["D"] < 1e-8
        bh, brows = read_csv(out / "bounces.csv")
        assert len(brows) == 8

    def test_flow_run(self, flow_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", flow_config, "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert ",".join(header) == PLANAR_HEADER
        assert len(rows) == 1001
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outcome"] == "flow"
        assert summary["n_bounces"] == 0

    def test_escape_outcome(self, tmp_path):
        doc = {
            "system": {"model": "kepler", "m": -1.0, "a": 1.0, "beta": 0.0},
            "wall": {"kind": "planar-line", "side": -1},
            "initial": {"state": [0.0, -2.0, 0.0, -1.0]},
            "integrator": {"rtol": 1e-10, "atol": 1e-10, "max_step": 100.0},
            "run": {"n_bounces": 5, "t_max": 5000.0},
        }
        cfg = tmp_path / "esc.json"
        write_config(cfg, doc)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", cfg.as_posix(), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outcome"] == "escape"

    def test_deterministic_outputs(self, billiard_config, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", billiard_config, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", billiard_config, "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "bounces.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("model,beta", [("kepler", 0.0), ("boltzmann", 0.3)])
    def test_flow_rows_are_bitwise_the_per_sample_integrals(
        self, flow_config, tmp_path, model, beta
    ):
        doc = json.loads(open(flow_config).read())
        doc["system"].update(model=model, beta=beta)
        cfg = tmp_path / "flow_beta.json"
        write_config(cfg, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")  # %.17g round-trips doubles
        params = SystemParams(m=1.0, a=0.5, beta=beta)
        for row in rows:
            ints = integral_set(PlanarState(*row[1:5]), params)
            assert row[5:] == [ints.E_pl, ints.L, ints.A_eta, ints.D, ints.E_sph]

    @pytest.mark.parametrize("m,beta", [(1.0, 0.0), (-1.0, 0.0), (1.0, 0.3)])
    def test_flow_samples_follow_the_physical_time_field(self, flow_config, tmp_path, m, beta):
        # the flow runs in Levi-Civita's s and is sampled where its clock
        # reads each time; the oracle integrates the field in t
        doc = json.loads(open(flow_config).read())
        doc["system"].update(model="kepler" if beta == 0.0 else "boltzmann", m=m, beta=beta)
        doc["integrator"].update(rtol=1e-13, atol=1e-13)
        cfg = tmp_path / "flow_oracle.json"
        write_config(cfg, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = np.array(read_csv(out / "trajectory.csv")[1])
        ts = np.linspace(0.0, 3.0, 1001)
        assert np.array_equal(rows[:, 0], ts)
        ref = ode_trajectory(PlanarState(1.0, 0.2, -0.1, 0.9), ts,
                             SystemParams(m=m, a=0.5, beta=beta), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(rows[:, 1:5], ref, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("model,a,beta,state", [
        ("kepler", 0.5, 0.0, [0.7, -0.9, 0.31, 0.45]),
        ("boltzmann", 0.5, 0.3, [0.7, -0.9, 0.31, 0.45]),
        ("spherical", 0.5, 0.0, [0.6, 0.0, -0.8, 0.0, 0.9, 0.0]),
    ])
    def test_flow_row_zero_is_the_start_to_the_bit(self, tmp_path, model, a, beta, state):
        # the sample at t = 0 mapped back from the integrated form is off
        # by an ulp (eta_dot 0.45000000000000007 at beta = 0.3, qz
        # -0.80000000000000016 on the sphere); the row is the start itself
        wall = "spherical-great-circle" if model == "spherical" else "planar-line"
        doc = {
            "system": {"model": model, "m": 1.0, "a": a, "beta": beta},
            "wall": {"kind": wall, "side": -1},
            "initial": {"state": state},
            "integrator": {"rtol": 1e-10, "atol": 1e-10, "max_step": 1.0},
            "run": {"n_bounces": 0, "t_max": 3.0},
        }
        cfg = tmp_path / "start.json"
        write_config(cfg, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")  # %.17g round-trips doubles
        assert rows[0][:len(state) + 1] == [0.0, *state]

    def test_billiard_rows_are_bitwise_the_integrals_of_their_states(
        self, billiard_config, tmp_path
    ):
        # the rows after the start are the outgoing states of the bounces;
        # on the line wall L and A_eta change sign there
        out = tmp_path / "out"
        assert main(["simulate", "--config", billiard_config, "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        params = SystemParams(m=1.0, a=1.0)
        assert len(rows) == 9
        for row in rows:
            ints = integral_set(PlanarState(*row[1:5]), params)
            assert row[5:] == [ints.E_pl, ints.L, ints.A_eta, ints.D, ints.E_sph]

    def test_spherical_flow_rows_are_bitwise_the_integrator_samples(self, tmp_path):
        import kcbilliards as kb

        params = kb.SystemParams(m=1.0, a=0.5)
        s0 = kb.planar_to_sphere(kb.PlanarState(1.0, 0.2, -0.1, 0.9), params)
        doc = {
            "system": {"model": "spherical", "m": 1.0, "a": 0.5, "beta": 0.0},
            "wall": {"kind": "spherical-great-circle", "side": -1},
            "initial": {"state": [*s0.q.tolist(), *s0.v.tolist()]},
            "integrator": {"rtol": 1e-10, "atol": 1e-10, "max_step": 1.0},
            "run": {"n_bounces": 0, "t_max": 5.0},
        }
        cfg = tmp_path / "sph_flow.json"
        write_config(cfg, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")  # %.17g round-trips doubles
        ts, ys = integrate_spherical(s0, np.linspace(0.0, 5.0, 1001), params,
                                     IntegratorConfig(rtol=1e-10, atol=1e-10, max_step=1.0))
        # row 0 is the start itself, every later row the integrator's sample
        assert np.array_equal(np.array(rows)[1:, :7], np.column_stack((ts, ys))[1:])
        assert rows[0][1:7] == doc["initial"]["state"]

    def test_config_error_exit_code(self, tmp_path):
        doc = {
            "system": {"model": "kepler", "m": 0.0, "a": 1.0},
            "wall": {"kind": "planar-line", "side": -1},
            "initial": {"state": [0.5, H1, 0.3, -0.8]},
        }
        cfg = tmp_path / "bad.json"
        write_config(cfg, doc)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_unknown_wall_kind_exits_two(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PLOT_RUNS["line"]))
        doc["wall"]["kind"] = "planar-ellipse"
        cfg = tmp_path / "ellipse.json"
        write_config(cfg, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: unknown wall kind 'planar-ellipse'\n"

    @pytest.mark.parametrize("section, key, value", [
        ("integrator", "atol", -1),
        ("integrator", "max_step", 0),
        ("integrator", "max_step", -1),
        ("initial", "state", [0.5, math.nan, 0.3, -0.8]),
        ("integrator", "rtol", "tight"),
        ("run", "n_bounces", "eight"),
        ("system", "m", "one"),
        ("wall", None, ["planar-line", -1]),
        # json accepts Infinity; with no bounce asked the flow would never end
        ("run", None, {"n_bounces": 0, "t_max": math.inf}),
        # scipy would clamp these tolerances, and int() truncate the counts
        ("integrator", "rtol", -1),
        ("integrator", "rtol", 0),
        ("run", "n_bounces", 2.7),
        ("wall", "side", 1.5),
    ])
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, section, key, value):
        doc = {
            "system": {"model": "kepler", "m": 1.0, "a": 1.0, "beta": 0.0},
            "wall": {"kind": "planar-line", "side": -1},
            "initial": {"state": [0.5, H1, 0.3, -0.8]},
            "integrator": {"rtol": 1e-10, "atol": 1e-10},
            "run": {"n_bounces": 1, "t_max": 10.0},
        }
        if key is None:
            doc[section] = value
        else:
            doc[section][key] = value
        cfg = tmp_path / "bad.json"
        write_config(cfg, doc)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2 and "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize("t_max", [1e-16, 1e-15])
    @pytest.mark.parametrize("domain", ["planar", "spherical"])
    def test_tiny_t_max_flow_writes_every_sample(self, tmp_path, domain, t_max):
        doc = json.loads(json.dumps(PLOT_RUNS["spherical"]))
        if domain == "planar":
            doc.update(system={"model": "kepler", "m": 1.0, "a": 0.5, "beta": 0.0},
                       wall={"kind": "planar-line", "side": -1},
                       initial={"state": [1.0, 0.2, -0.1, 0.9]})
        doc["run"]["t_max"] = t_max
        cfg = tmp_path / "tiny.json"
        write_config(cfg, doc)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 1001 and rows[0][0] == 0.0 and rows[-1][0] == t_max

    def test_spherical_state_off_the_sphere_exits_two(self, tmp_path, capsys):
        doc = json.loads(json.dumps(PLOT_RUNS["spherical"]))
        doc["initial"]["state"] = [0.0, 0.0, -2.0, 1.0, 0.0, 0.0]
        cfg = tmp_path / "off.json"
        write_config(cfg, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "invalid spherical state" in capsys.readouterr().err

    def test_spherical_model_with_beta_exits_two(self, tmp_path, capsys):
        # no spherical field reads beta: the run would be the beta = 0 sphere
        doc = json.loads(json.dumps(PLOT_RUNS["spherical"]))
        doc["system"]["beta"] = 0.3
        cfg = tmp_path / "beta.json"
        write_config(cfg, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: spherical model requires beta = 0\n"
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("n_bounces", [5, 0])
    def test_spherical_run(self, tmp_path, n_bounces):
        # n_bounces = 0 is the spherical flow: 1001 samples and no bounce,
        # whose bounce table still has the spherical header
        import kcbilliards as kb

        params = kb.SystemParams(m=1.0, a=1.0)
        s0 = kb.planar_to_sphere(kb.PlanarState(0.5, params.h, 0.3, -0.8), params)
        doc = {
            "system": {"model": "spherical", "m": 1.0, "a": 1.0, "beta": 0.0},
            "wall": {"kind": "spherical-great-circle", "side": -1},
            "initial": {"state": [*s0.q.tolist(), *s0.v.tolist()]},
            "integrator": {"rtol": 1e-11, "atol": 1e-11, "max_step": 1.0},
            "run": {"n_bounces": n_bounces, "t_max": 50.0},
        }
        cfg = tmp_path / "sph.json"
        write_config(cfg, doc)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert ",".join(header) == SPHERICAL_HEADER
        assert len(rows) == (1001 if n_bounces == 0 else n_bounces + 1)
        bounce_header, _ = read_csv(out / "bounces.csv")
        assert ",".join(bounce_header) == SPHERICAL_BOUNCE_HEADER
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_bounces"] == n_bounces
        assert summary["max_drift"]["E_sph"] < 1e-8
        for row in rows:  # each row's E_sph is that of its own state, to the bit
            s = SphericalState(row[1:4], row[4:7])
            assert row[7] == spherical_energy_embedded(s, params)

    def test_spherical_billiard_drifts_follow_the_bounce_records(self, tmp_path):
        # drifts run over the start and each bounce's integrals on arrival;
        # spherical rows carry only E_sph, so E_pl and D skip the start
        import kcbilliards as kb

        params = kb.SystemParams(m=1.0, a=1.0)
        s0 = kb.planar_to_sphere(kb.PlanarState(0.5, params.h, 0.3, -0.8), params)
        doc = {
            "system": {"model": "spherical", "m": 1.0, "a": 1.0, "beta": 0.0},
            "wall": {"kind": "spherical-great-circle", "side": -1},
            "initial": {"state": [*s0.q.tolist(), *s0.v.tolist()]},
            "integrator": {"rtol": 1e-11, "atol": 1e-11, "max_step": 1.0},
            "run": {"n_bounces": 5, "t_max": 50.0},
        }
        cfg_path = tmp_path / "sph.json"
        write_config(cfg_path, doc)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        cfg = kb.load_config(str(cfg_path))
        run = kb.billiard_map(cfg.initial, 5, cfg.model, mode="numeric", integ=cfg.integrator,
                              t_max_per_leg=cfg.run.t_max)
        arrivals = [rec.integrals_in for rec in run.records]

        def drift(values):
            return max(abs(v - values[0]) for v in values) / max(1.0, abs(values[0]))

        assert summary["max_drift"] == {
            "D": drift([i.D for i in arrivals]),
            "E_pl": drift([i.E_pl for i in arrivals]),
            "E_sph": drift([spherical_energy_embedded(cfg.initial, params)]
                           + [i.E_sph for i in arrivals]),
        }

    def test_spherical_cap_run(self, tmp_path):
        # at a = 0 the planar circle r = 1 projects onto the circle of
        # colatitude pi/4 about Z1; a colatitude outside (0, pi) is no wall
        import kcbilliards as kb

        s0 = kb.planar_to_sphere(kb.PlanarState(1.0, 0.0, 0.6, 0.5), kb.SystemParams(m=1.0, a=0.0))
        doc = {
            "system": {"model": "spherical", "m": 1.0, "a": 0.0, "beta": 0.0},
            "wall": {"kind": "spherical-centered-circle", "colatitude": math.atan(1.0), "side": -1},
            "initial": {"state": [*s0.q.tolist(), *s0.v.tolist()]},
            "integrator": {"rtol": 1e-10, "atol": 1e-10, "max_step": 1.0},
            "run": {"n_bounces": 5, "t_max": 100.0},
        }
        cfg = tmp_path / "cap.json"
        write_config(cfg, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["n_bounces"] == 5 and summary["max_drift"]["E_sph"] < 1e-8
        doc["wall"]["colatitude"] = 4.0
        write_config(cfg, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "bad")]) == 2


# A reflection at a centered circle conserves L, and D and E_sph only at
# the line wall; the summary reports the drifts of D, E_pl and E_sph alone.
# The run and its L are preconditions: pytest.fail is no AssertionError, so
# this expected failure cannot hide a run that fails or stops conserving L.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a circle run's summary reports drifts of the line wall's integrals")
def test_circle_summary_drifts_are_those_the_circle_conserves(tmp_path):
    doc = {
        "system": {"model": "kepler", "m": 1.0, "a": 0.5, "beta": 0.0},
        "wall": {"kind": "planar-centered-circle", "radius": 3.0, "side": -1},
        "initial": {"state": [1.0, 0.3, 0.6, 1.1]},
        "integrator": {"rtol": 1e-12, "atol": 1e-12},
        "run": {"n_bounces": 20, "t_max": 100.0},
    }
    cfg = tmp_path / "circle.json"
    write_config(cfg, doc)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    header, rows = read_csv(tmp_path / "o" / "bounces.csv")
    L = np.array(rows)[:, [header.index("L_in"), header.index("L_out")]]
    start_L = integral_set(PlanarState(1.0, 0.3, 0.6, 1.1), SystemParams(m=1.0, a=0.5)).L
    drift = np.abs(L - start_L).max() / max(1.0, abs(start_L))
    if rc != 0 or len(rows) != 20 or drift > 1e-12:
        pytest.fail(f"exit {rc}, {len(rows)} bounces, L drifts by {drift:.3e} in bounces.csv")
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert all(drift <= 1e-8 for drift in summary["max_drift"].values()), summary["max_drift"]


def list_drift(values):
    """summary.json's drift as a loop over a Python list: NaNs are skipped,
    and fewer than two values give 0.0."""
    vals = [v for v in values if not math.isnan(v)]
    if len(vals) < 2:
        return 0.0
    ref = vals[0]
    return max(abs(v - ref) for v in vals) / max(1.0, abs(ref))


class TestDrift:
    def test_columns_give_the_list_loop_bits(self):
        rng = np.random.default_rng(24)
        nan = math.nan
        cases = [[], [0.3], [nan], [nan, nan, nan], [nan, 2.5], [nan, -4.0, nan, -4.0 + 1e-12],
                 [1.0, nan, 1.0 + 3e-9, 1.0 - 2e-9]]
        for n in (2, 17, 1001):
            for scale in (1e-3, 0.7, *rng.uniform(1.5, 1e4, size=6)):  # below and above 1
                col = scale * (1.0 + rng.normal(size=n) * 10.0 ** rng.uniform(-12, -6))
                col[1:][rng.random(n - 1) < 0.2] = nan
                cases.append(col.tolist())
        for values in cases:
            got = _drift(np.array(values, dtype=float))
            assert type(got) is float
            assert got.hex() == list_drift(values).hex(), values


class TestVerify:
    def test_passes_with_exit_zero(self, capsys):
        rc = main(["verify", "--seed", "1", "--cases", "500"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]

    def test_seed_stability(self, capsys):
        assert main(["verify", "--seed", "5", "--cases", "300"]) == 0
        out1 = capsys.readouterr().out
        assert main(["verify", "--seed", "5", "--cases", "300"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2

    def test_injected_fault_exit_code(self, capsys):
        rc = main(["verify", "--seed", "1", "--cases", "100", "--inject-fault"])
        assert rc == 4

    @pytest.mark.parametrize("args", [["--seed", "-1"], ["--cases", "0"], ["--cases", "-3"]])
    def test_negative_seed_or_no_case_exits_two(self, capsys, args):
        # refused before any check runs: no report, and no traceback
        assert main(["verify", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: verify needs seed >= 0 and cases >= 1, not ")

    def test_oracle_integration_failure_is_a_dynamics_error(self, capsys, fail_solve_ivp):
        # the projection check's spherical integration gives up: exit 3,
        # with the solver's message, and no report
        sols = fail_solve_ivp(kcbilliards.verify, 1)
        assert main(["verify", "--seed", "1", "--cases", "100"]) == 3
        out, err = capsys.readouterr()
        assert len(sols) == 1 and out == ""
        assert err == f"dynamics error: spherical oracle integration failed: {sols[0].message}\n"


class TestProject:
    def test_round_trip(self, flow_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", flow_config, "--out", str(out)]) == 0
        sph = tmp_path / "sph.csv"
        back = tmp_path / "back.csv"
        rc = main([
            "project", "--in", str(out / "trajectory.csv"), "--out", str(sph),
            "--direction", "plane-to-sphere", "--a", "0.5",
        ])
        assert rc == 0
        header, rows = read_csv(sph)
        assert header == ["t", "qx", "qy", "qz", "vx", "vy", "vz", "dtau_dt"]
        # density column is 1/lambda^2 = q_z^2
        for r in rows[:20]:
            assert r[7] == pytest.approx(r[3] ** 2, rel=1e-12)
        rc = main([
            "project", "--in", str(sph), "--out", str(back),
            "--direction", "sphere-to-plane", "--a", "0.5",
        ])
        assert rc == 0
        h0, rows0 = read_csv(out / "trajectory.csv")
        h1, rows1 = read_csv(back)
        assert len(rows0) == len(rows1)
        for r0, r1 in zip(rows0[:50], rows1[:50]):
            np.testing.assert_allclose(r1[1:5], r0[1:5], rtol=1e-12, atol=1e-12)

    def test_south_pole_rest_point_is_fixed(self, tmp_path):
        src = tmp_path / "s.csv"
        with open(src, "w") as fh:
            fh.write("t,xi,eta,xi_dot,eta_dot\n0,0,0,0,0\n")
        # (0, 0) in the a = 0 chart is the singular center; use a tiny offset
        with open(src, "w") as fh:
            fh.write("t,xi,eta,xi_dot,eta_dot\n0,1e-12,0,0,0\n")
        dst = tmp_path / "d.csv"
        rc = main(["project", "--in", str(src), "--out", str(dst),
                   "--direction", "plane-to-sphere", "--a", "0"])
        assert rc == 0
        _, rows = read_csv(dst)
        np.testing.assert_allclose(rows[0][1:4], [0.0, 0.0, -1.0], atol=1e-9)

    def test_north_rows_reported(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        with open(src, "w") as fh:
            fh.write("t,qx,qy,qz,vx,vy,vz,E_sph\n")
            fh.write("0,0,0,1,0,1,0,0\n")   # north pole: skipped
            fh.write("1,0,0,-1,0,1,0,0\n")  # south pole: kept
            fh.write("2,1,0,0,0,1,0,0\n")   # equator: skipped
        dst = tmp_path / "d.csv"
        rc = main(["project", "--in", str(src), "--out", str(dst),
                   "--direction", "sphere-to-plane", "--a", "0.5"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "row 0" in err and "row 2" in err
        _, rows = read_csv(dst)
        assert len(rows) == 1
        # the south pole maps to the wall-chart point (0, h)
        h = -0.5 / math.sqrt(1.25)
        assert rows[0][1] == pytest.approx(0.0)
        assert rows[0][2] == pytest.approx(h)


    @pytest.mark.parametrize("a", [0.0, 0.5])
    @pytest.mark.parametrize("direction", ["plane-to-sphere", "sphere-to-plane"])
    def test_force_center_row_is_skipped(self, tmp_path, capsys, direction, a):
        # the force center, (xi, eta) = (0, 0) in the plane and Z1 on the
        # sphere, has no image; both directions skip it and go on
        if direction == "plane-to-sphere":
            text = "t,xi,eta,xi_dot,eta_dot\n0,0,0,0.1,0\n1,0.5,0.2,0.1,0\n"
        else:
            z1 = ",".join(map(repr, spherical_center(SystemParams(m=1.0, a=a)).tolist()))
            text = f"t,qx,qy,qz,vx,vy,vz\n0,{z1},1,0,0\n1,0.6,0,-0.8,0,1,0\n"
        src, dst = tmp_path / "s.csv", tmp_path / "d.csv"
        src.write_text(text)
        rc = main(["project", "--in", str(src), "--out", str(dst),
                   "--direction", direction, "--a", str(a)])
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == ["row 0: at the force center, skipped"]
        _, rows = read_csv(dst)
        assert [r[0] for r in rows] == [1.0]

    @pytest.mark.parametrize("row", ["0,0,0,-1,0,1", "0,0,0,-1,0,x,0,0"])
    def test_malformed_rows_exit_two(self, tmp_path, row):
        src = tmp_path / "s.csv"
        src.write_text(f"{SPHERICAL_HEADER}\n{row}\n")
        rc = main(["project", "--in", str(src), "--out", str(tmp_path / "d.csv"),
                   "--direction", "sphere-to-plane", "--a", "0.5"])
        assert rc == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("direction, header, row", [
        ("plane-to-sphere", PLANAR_HEADER, "0.5,1,{},0,1,0,0,0,0,0"),
        ("sphere-to-plane", SPHERICAL_HEADER, "0.5,0,0,-1,{},1,0,0"),
    ], ids=["plane-to-sphere", "sphere-to-plane"])
    def test_non_finite_state_exits_two(self, tmp_path, capsys, direction, header, row, bad):
        # the error names the file's line: the header is line 1
        src = tmp_path / "s.csv"
        src.write_text(f"{header}\n{row.format(0)}\n{row.format(bad)}\n")
        dst = tmp_path / "d.csv"
        rc = main(["project", "--in", str(src), "--out", str(dst),
                   "--direction", direction, "--a", "0.5"])
        assert rc == 2 and not dst.exists()
        assert f"{src} line 3: a non-finite value" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # q / |q| at q = 0
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("direction, text", [
        ("sphere-to-plane", "t,qx,qy,qz,vx,vy,vz\n0,0,0,0,0,1,0\n"),   # q = 0
        ("plane-to-sphere", "t,xi,eta,xi_dot,eta_dot\n0,1e300,0,1,0\n"),  # lambda^2 overflows
        ("sphere-to-plane", "t,qx,qy,qz,vx,vy,vz\n0,1,0,-1e-320,0,1,0\n"),  # xi = 1/1e-320
    ], ids=["zero-q", "overflow", "planar-overflow"])
    def test_row_that_is_no_state_exits_two(self, tmp_path, capsys, direction, text):
        src = tmp_path / "s.csv"
        src.write_text(text)
        rc = main(["project", "--in", str(src), "--out", str(tmp_path / "d.csv"),
                   "--direction", direction, "--a", "0.5"])
        assert rc == 2 and "row 0" in capsys.readouterr().err

    @pytest.mark.parametrize("direction", ["plane-to-sphere", "sphere-to-plane"])
    def test_other_domain_input_exits_two(self, flow_config, tmp_path, capsys, direction):
        # the planar trajectory is the wrong input of sphere-to-plane, and
        # its projection onto the sphere that of plane-to-sphere
        out = tmp_path / "out"
        assert main(["simulate", "--config", flow_config, "--out", str(out)]) == 0
        src = out / "trajectory.csv"
        if direction == "plane-to-sphere":
            assert main(["project", "--in", str(src), "--out", str(tmp_path / "s.csv"),
                         "--direction", "plane-to-sphere", "--a", "0.5"]) == 0
            src = tmp_path / "s.csv"
        rc = main(["project", "--in", str(src), "--out", str(tmp_path / "d.csv"),
                   "--direction", direction, "--a", "0.5"])
        assert rc == 2 and "header does not begin with t," in capsys.readouterr().err

    def test_missing_input_exits_two(self, tmp_path):
        rc = main(["project", "--in", str(tmp_path / "nope.csv"), "--out",
                   str(tmp_path / "d.csv"), "--direction", "sphere-to-plane", "--a", "0.5"])
        assert rc == 2


class TestPlot:
    def test_svg_structure(self, flow_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", flow_config, "--out", str(out)]) == 0
        svg = tmp_path / "plot.svg"
        rc = main(["plot", "--in", str(out / "trajectory.csv"), "--out", str(svg),
                   "--config", flow_config])
        assert rc == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert "<polyline" in text and "</svg>" in text

    def test_empty_trajectory_draws_wall_only(self, tmp_path, billiard_config):
        src = tmp_path / "empty.csv"
        with open(src, "w") as fh:
            fh.write(PLANAR_HEADER + "\n")
        svg = tmp_path / "empty.svg"
        rc = main(["plot", "--in", str(src), "--out", str(svg),
                   "--config", billiard_config])
        assert rc == 0
        text = svg.read_text()
        assert "<line" in text  # the wall is drawn
        assert "</svg>" in text

    @pytest.mark.parametrize("row", ["0,1,-0.5", "0,1,x,0,0,-0.5,1,0,1,0"])
    def test_malformed_rows_exit_two(self, tmp_path, row):
        src = tmp_path / "s.csv"
        src.write_text(f"{PLANAR_HEADER}\n{row}\n")
        assert main(["plot", "--in", str(src), "--out", str(tmp_path / "p.svg")]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("header", [PLANAR_BOUNCE_HEADER, PLANAR_HEADER],
                             ids=["bounces", "trajectory"])
    def test_non_finite_point_exits_two(self, tmp_path, capsys, header, bad):
        # a NaN or infinite xi on line 3 would become "nan" pixels: exit 2,
        # the line named, and no SVG written
        rows = [["1"] * (header.count(",") + 1) for _ in range(3)]
        rows[1][header.split(",").index("xi")] = bad
        src, svg = tmp_path / "s.csv", tmp_path / "p.svg"
        src.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
        assert main(["plot", "--in", str(src), "--out", str(svg)]) == 2
        assert f"{src} line 3: a non-finite value under" in capsys.readouterr().err
        assert not svg.exists()

    def test_unknown_header_exits_two(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("x,y\n0,1\n")
        assert main(["plot", "--in", str(src), "--out", str(tmp_path / "p.svg")]) == 2

    def test_missing_input_exits_two(self, tmp_path):
        assert main(["plot", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "p.svg")]) == 2

    def test_title_is_escaped(self, flow_config, tmp_path):
        # the title is the input file's basename, which may hold & and <
        out, src, svg = tmp_path / "out", tmp_path / "a&b<c.csv", tmp_path / "p.svg"
        assert main(["simulate", "--config", flow_config, "--out", str(out)]) == 0
        shutil.copy(out / "trajectory.csv", src)
        assert main(["plot", "--in", str(src), "--out", str(svg)]) == 0
        assert "<title>a&amp;b&lt;c.csv</title>" in svg.read_text()
        title = xml.dom.minidom.parse(str(svg)).getElementsByTagName("title")[0]
        assert title.firstChild.data == "a&b<c.csv"

    def test_bounce_dots_lie_on_the_canvas(self, tmp_path):
        # plotted without a config, the view holds the dots themselves
        doc = {
            "system": {"model": "kepler", "m": 1.0, "a": 0.5, "beta": 0.0},
            "wall": {"kind": "planar-centered-circle", "radius": 3.0, "side": -1},
            "initial": {"state": [3.0, 0.0, 0.1, 0.5]},
            "integrator": {"rtol": 1e-10, "atol": 1e-10},
            "run": {"n_bounces": 3, "t_max": 100.0},
        }
        cfg, out, svg = tmp_path / "c.json", tmp_path / "out", tmp_path / "b.svg"
        write_config(cfg, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["plot", "--in", str(out / "bounces.csv"), "--out", str(svg)]) == 0
        dots = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="3"', svg.read_text())
        assert len(dots) == 3
        assert all(0.0 <= float(x) <= 800.0 and 0.0 <= float(y) <= 600.0 for x, y in dots)

    def test_byte_identical_for_identical_input(self, flow_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", flow_config, "--out", str(out)]) == 0
        s1, s2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        for s in (s1, s2):
            assert main(["plot", "--in", str(out / "trajectory.csv"),
                         "--out", str(s)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_golden_file_match(self, tmp_path):
        here = os.path.dirname(__file__)
        fixture = os.path.join(here, "data", "fixture_trajectory.csv")
        golden = os.path.join(here, "data", "golden_plot.svg")
        out = tmp_path / "out.svg"
        rc = main(["plot", "--in", fixture, "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == open(golden, "rb").read()

    @pytest.mark.parametrize("golden, run, infile", [
        ("line", "line", "trajectory.csv"),          # the wall line across the view
        ("circle", "circle", "trajectory.csv"),      # the wall circle as a polyline
        ("bounces", "circle", "bounces.csv"),        # hit dots, no orbit
        ("spherical", "spherical", "trajectory.csv"),  # (qx, qy); no spherical wall
    ])
    def test_golden_run_plots(self, tmp_path, golden, run, infile):
        # the plot of each run with its config, byte for byte
        cfg = tmp_path / "run.json"
        write_config(cfg, PLOT_RUNS[run])
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        svg = tmp_path / "plot.svg"
        assert main(["plot", "--in", str(out / infile), "--out", str(svg),
                     "--config", str(cfg)]) == 0
        expected = os.path.join(os.path.dirname(__file__), "data", f"golden_plot_{golden}.svg")
        assert svg.read_bytes() == open(expected, "rb").read()

    def test_bounce_plot_polyline_count(self, billiard_config, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", billiard_config, "--out", str(out)]) == 0
        svg = tmp_path / "b.svg"
        rc = main(["plot", "--in", str(out / "bounces.csv"), "--out", str(svg)])
        assert rc == 0
        text = svg.read_text()
        # one marker per bounce
        assert text.count('fill="#2ca02c"') == 8


@pytest.mark.parametrize("command", ["simulate", "project", "plot"])
def test_output_path_that_cannot_be_written_exits_two(flow_config, tmp_path, capsys, command):
    # simulate --out naming an existing file; project and plot --out in a
    # directory that does not exist
    out = tmp_path / "out"
    assert main(["simulate", "--config", flow_config, "--out", str(out)]) == 0
    traj, missing = str(out / "trajectory.csv"), str(tmp_path / "missing" / "x")
    argv = {"simulate": ["simulate", "--config", flow_config, "--out", traj],
            "project": ["project", "--in", traj, "--out", missing,
                        "--direction", "plane-to-sphere", "--a", "0.5"],
            "plot": ["plot", "--in", traj, "--out", missing]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert ("File exists" if command == "simulate" else "No such file or directory") in err


class TestDynamicsExitCode:
    def test_undetermined_returns_three(self, tmp_path):
        # t_max far too small for the first wall return, and the orbit is
        # bound so no escape certificate exists
        doc = {
            "system": {"model": "kepler", "m": 1.0, "a": 1.0, "beta": 0.0},
            "wall": {"kind": "planar-line", "side": -1},
            "initial": {"state": [0.5, H1, 0.3, -0.8]},
            "integrator": {"rtol": 1e-10, "atol": 1e-10, "max_step": 0.001},
            "run": {"n_bounces": 1, "t_max": 0.01},
        }
        cfg = tmp_path / "short.json"
        write_config(cfg, doc)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_failed_later_leg_keeps_earlier_bounces(self, tmp_path):
        # the first leg takes 3.40, every later one 6.79 > t_max, and the
        # orbit is bound, so the second leg is undetermined
        doc = {
            "system": {"model": "kepler", "m": 1.0, "a": 0.0, "beta": 0.0},
            "wall": {"kind": "planar-centered-circle", "radius": 2.0, "side": -1},
            "initial": {"state": [1.0, 0.0, 0.0, 1.2]},
            "integrator": {"rtol": 1e-11, "atol": 1e-11, "max_step": 1.0},
            "run": {"n_bounces": 4, "t_max": 5.0},
        }
        cfg = tmp_path / "short.json"
        write_config(cfg, doc)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["outcome"] == "undetermined"
        assert summary["n_bounces"] == 1
        _, rows = read_csv(str(out / "trajectory.csv"))
        assert len(rows) == 2
        _, bounces = read_csv(str(out / "bounces.csv"))
        assert len(bounces) == 1
        assert bounces[0][1] == pytest.approx(3.39732646848734, abs=1e-8)

    def test_radial_flow_passes_the_center_at_beta_zero(self, tmp_path):
        # a radial fall: Levi-Civita's field is regular through the center,
        # where the orbit bounces elastically, as propagate_analytic's does
        doc = {
            "system": {"model": "kepler", "m": 1.0, "a": 0.5, "beta": 0.0},
            "wall": {"kind": "planar-line", "side": -1},
            "initial": {"state": [1.0, 0.0, -0.2, 0.0]},
            "integrator": {"rtol": 1e-12, "atol": 1e-12},
            "run": {"n_bounces": 0, "t_max": 5.0},
        }
        cfg = tmp_path / "fall.json"
        write_config(cfg, doc)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["outcome"] == "flow"
        rows = np.array(read_csv(out / "trajectory.csv")[1])
        start, params = PlanarState(1.0, 0.0, -0.2, 0.0), SystemParams(m=1.0, a=0.5)
        ref = [propagate_analytic(start, t, params).as_array() for t in rows[:, 0]]
        np.testing.assert_allclose(rows[:, 1:5], ref, rtol=0.0, atol=1e-8)

    def test_flow_into_the_center_returns_three(self, tmp_path, capsys):
        # a radial fall at beta < 0, where the field is singular at the
        # center: levi_civita_rhs's guard ends the run with the dynamics error
        doc = {
            "system": {"model": "boltzmann", "m": 1.0, "a": 0.5, "beta": -0.01},
            "wall": {"kind": "planar-line", "side": -1},
            "initial": {"state": [1.0, 0.0, -0.2, 0.0]},
            "run": {"n_bounces": 0, "t_max": 5.0},
        }
        cfg = tmp_path / "fall.json"
        write_config(cfg, doc)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err.startswith("dynamics error: r = ")

    @pytest.mark.parametrize("n_bounces", [0, 3])
    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_spherical_start_at_a_pole_is_refused_at_load(self, tmp_path, capsys, pole,
                                                          n_bounces):
        # Z1 = (0, 0.6, -0.8) at a = 0.75, and its antipode: the config is
        # refused as a singular position before the output directory is made
        doc = {
            "system": {"model": "spherical", "m": 1.0, "a": 0.75, "beta": 0.0},
            "wall": {"kind": "spherical-great-circle", "side": -1},
            "initial": {"state": [0.0, 0.6 * pole, -0.8 * pole, 1.0, 0.0, 0.0]},
            "run": {"n_bounces": n_bounces, "t_max": 5.0},
        }
        cfg = tmp_path / "pole.json"
        write_config(cfg, doc)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "dynamics error: the start lies at a pole of the force center\n")
        assert not out.exists()

    @pytest.mark.parametrize("domain, module, message", [
        ("planar", kcbilliards.cli, "flow integration failed: "),
        ("spherical", kcbilliards.spherical, "spherical integration failed: "),
    ])
    def test_failed_flow_integration_returns_three(self, flow_config, tmp_path, capsys,
                                                   fail_solve_ivp, domain, module, message):
        cfg = flow_config
        if domain == "spherical":
            cfg = tmp_path / "sphere.json"
            write_config(cfg, PLOT_RUNS["spherical"])
        fail_solve_ivp(module, 1)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("dynamics error: " + message)
        assert os.listdir(out) == []

    def test_other_package_error_returns_one(self, flow_config, tmp_path, capsys, monkeypatch):
        # NonConvergence is neither a configuration nor a dynamics error
        monkeypatch.setattr(kcbilliards.planar, "_MAX_ITER", 1)
        out = tmp_path / "o"
        assert main(["simulate", "--config", flow_config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: a flow sample's clock did not converge\n"
        assert os.listdir(out) == []

    def test_log_env_smoke(self, tmp_path, billiard_config, monkeypatch):
        monkeypatch.setenv("BILLIARD_LOG", "INFO")
        out = tmp_path / "out"
        assert main(["simulate", "--config", billiard_config, "--out", str(out)]) == 0


class TestInProcessCalls:
    def test_argparse_footprint_stays_flat(self, tmp_path):
        import argparse
        import tracemalloc

        csv = tmp_path / "traj.csv"
        csv.write_text(PLANAR_HEADER + "\n0,1,0.5,0,1,0,0,0,0,0\n", encoding="utf-8")
        argv = ["project", "--in", str(csv), "--out", str(tmp_path / "sph.csv"),
                "--direction", "plane-to-sphere", "--a", "0.5"]
        only_argparse = [tracemalloc.Filter(True, argparse.__file__)]

        def held() -> int:
            snap = tracemalloc.take_snapshot().filter_traces(only_argparse)
            return sum(stat.size for stat in snap.statistics("filename"))

        tracemalloc.start()
        try:
            for _ in range(20):
                assert main(argv) == 0
            before = held()
            for _ in range(200):
                assert main(argv) == 0
            grown = held() - before
        finally:
            tracemalloc.stop()
        assert grown < 8 * 1024, f"argparse holds {grown} more bytes after 200 calls"
