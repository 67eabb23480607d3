"""Command-line front end: simulate, verify, project, plot.

A flow (n_bounces = 0) runs a billiard leg's form with no wall, Levi-Civita's
in the plane, and is sampled where the form's clock reads each time.

Exit codes: 0 success, 1 any other error of the package, 2 configuration
error or any OS error reading or writing a file (a full disk too), 3
dynamics undetermined or failed, 4 verification failure. A billiard run
whose leg fails still writes the bounces computed before that leg, with the
error as the summary's outcome. The BILLIARD_LOG environment variable sets
the logging level.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from types import SimpleNamespace
from typing import List

import numpy as np

from . import io as out_io
from .billiard import billiard_map
from .errors import (
    BilliardError, ConfigError, DynamicsError, SingularPosition, StepFailure, WrongHalfPlane,
)
from .integrals import integral_set, planar_columns
from .model import PlanarState, RunConfig, SphericalState, SystemParams, load_config, solve_ivp
from .planar import _clock_end, _clock_samples, _levi_civita_to_planar, _planar_form
from .spherical import (
    integrate_spherical,
    planar_to_sphere,
    sphere_to_planar,
    spherical_energy_embedded,
    time_change_density,
)
from .verify import run_suite

log = logging.getLogger("kcbilliards")

_FLOW_SAMPLES = 1001


def _drift(values) -> float:
    """The largest deviation of a column from its first value, relative to
    max(1, |first|), over its entries that are not NaN; 0.0 below two."""
    vals = np.asarray(values, dtype=float)
    vals = vals[~np.isnan(vals)]
    if vals.size < 2:
        return 0.0
    ref = float(vals[0])
    return float(np.abs(vals - ref).max()) / max(1.0, abs(ref))


def cmd_simulate(args) -> int:
    """A flow's samples and a billiard run's start and bounces (each
    rec.state_out at rec.t_hit) become one stack of states, whose columns
    give every trajectory row its integrals."""
    cfg: RunConfig = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    params = cfg.model.params
    planar = cfg.model.wall.is_planar
    run = None
    records = []
    if cfg.run.n_bounces == 0:
        ts = np.linspace(0.0, cfg.run.t_max, _FLOW_SAMPLES)
        if planar:  # the legs' Levi-Civita form with no wall, sampled by its clock
            form = _planar_form(cfg.initial, params)
            sol = solve_ivp(form.rhs, (0.0, math.inf), form.y, method="DOP853",
                            rtol=cfg.integrator.rtol, atol=cfg.integrator.atol,
                            max_step=cfg.integrator.max_step / form.rate(form.y),
                            events=[_clock_end(form, cfg.run.t_max)], dense_output=True)
            if not sol.success:
                raise StepFailure(f"flow integration failed: {sol.message}")
            ys = np.transpose(_levi_civita_to_planar(_clock_samples(sol, form, ts)))
        else:
            ts, ys = integrate_spherical(cfg.initial, ts, params, cfg.integrator)
        ys[0] = cfg.initial.as_array()  # the start itself, not its round trip through the form
    else:
        run = billiard_map(
            cfg.initial,
            cfg.run.n_bounces,
            cfg.model,
            mode="numeric",
            integ=cfg.integrator,
            t_max_per_leg=cfg.run.t_max,
        )
        records = run.records
        ts = [0.0] + [rec.t_hit for rec in records]
        ys = np.array([cfg.initial.as_array()] + [rec.state_out.as_array() for rec in records])

    traj_path = os.path.join(args.out, "trajectory.csv")
    if planar:
        ints = integral_set(planar_columns(ys), params)
        out_io.write_planar_trajectory(traj_path, ts, ys, ints)
        series = {"D": ints.D, "E_pl": ints.E_pl, "E_sph": ints.E_sph}
    else:
        e_sph = spherical_energy_embedded(SimpleNamespace(q=ys[:, :3], v=ys[:, 3:]), params)
        out_io.write_spherical_trajectory(traj_path, ts, ys, e_sph)
        series = {"E_sph": e_sph}
    if run is not None:
        # the start row, then each bounce's integrals on arrival; spherical
        # rows carry only E_sph, so E_pl and D start at the first bounce
        series = {k: np.concatenate([series.get(k, [])[:1],
                                     [getattr(rec.integrals_in, k) for rec in records]])
                  for k in ("D", "E_pl", "E_sph")}
    out_io.write_bounces(os.path.join(args.out, "bounces.csv"), records, cfg.model.wall.domain)
    summary = {
        "outcome": "flow" if run is None else run.outcome,
        "n_bounces": len(records),
        "t_final": cfg.run.t_max if run is None else (records[-1].t_hit if records else 0.0),
        "max_drift": {k: _drift(v) for k, v in sorted(series.items())},
    }
    out_io.write_summary(os.path.join(args.out, "summary.json"), summary)
    log.info("run written to %s: %d bounces, outcome %s", args.out, len(records), summary["outcome"])
    if run is not None and run.error is not None:
        print(f"dynamics error: {run.error}", file=sys.stderr)
        return 3
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.seed, args.cases, inject_fault=args.inject_fault)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if report["passed"] else 4


def cmd_project(args) -> int:
    params = SystemParams(m=1.0, a=args.a)
    to_sphere = args.direction == "plane-to-sphere"
    rows = out_io.read_states(args.infile, "planar" if to_sphere else "spherical")
    skipped: List[str] = []
    images = []
    try:
        for i, (t, y) in enumerate(rows):
            try:
                if to_sphere:
                    image = sp = planar_to_sphere(PlanarState(*y), params)
                else:
                    sp = SphericalState.project(y[:3], y[3:])
                    image = sphere_to_planar(sp, params)
            except SingularPosition:
                skipped.append(f"row {i}: at the force center, skipped")
                continue
            except WrongHalfPlane:
                skipped.append(f"row {i}: not in the south hemisphere, skipped")
                continue
            images.append((t, image.as_array(), time_change_density(sp)))
    except (ValueError, ConfigError) as exc:  # a zero q, or an image that overflows
        raise ConfigError(f"{args.infile} row {i}: {exc}") from exc
    out_io.write_projection(args.outfile, "spherical" if to_sphere else "planar", images)
    for line in skipped:
        print(line, file=sys.stderr)
    log.info("projected %d rows (%d skipped)", len(images), len(skipped))
    return 0


def cmd_plot(args) -> int:
    points, bounce_points = out_io.read_points(args.infile)
    wall = load_config(args.config).model.wall if args.config else None
    out_io.svg_plot(args.outfile, points, bounce_points=bounce_points, wall=wall,
                    title=os.path.basename(args.infile))
    log.info("plot written to %s", args.outfile)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it
    unchanged, and rebuilding it on every main call grows the process)."""
    p = argparse.ArgumentParser(
        prog="kcbilliards",
        description="Kepler-Coulomb billiards: simulation, verification, projection",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a configured flow or billiard")
    ps.add_argument("--config", required=True, help="JSON configuration file")
    ps.add_argument("--out", required=True, help="output directory")

    pv = sub.add_parser("verify", help="run the seeded property suite")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--cases", type=int, default=10000)
    pv.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    pp = sub.add_parser("project", help="project a trajectory file")
    pp.add_argument("--in", dest="infile", required=True)
    pp.add_argument("--out", dest="outfile", required=True)
    pp.add_argument(
        "--direction",
        choices=("plane-to-sphere", "sphere-to-plane"),
        required=True,
    )
    pp.add_argument("--a", type=float, default=0.0, help="center offset parameter")

    pl = sub.add_parser("plot", help="render a trajectory or bounce CSV as SVG")
    pl.add_argument("--in", dest="infile", required=True)
    pl.add_argument("--out", dest="outfile", required=True)
    pl.add_argument("--config", default=None, help="optional config to draw the wall")
    return p


def main(argv=None) -> int:
    level = os.environ.get("BILLIARD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    # looked up per call, so a rebound module attribute is the one that runs
    commands = {"simulate": cmd_simulate, "verify": cmd_verify,
                "project": cmd_project, "plot": cmd_plot}
    try:
        return commands[args.command](args)
    except (ConfigError, OSError) as exc:  # OSError: any file read or write
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DynamicsError as exc:
        print(f"dynamics error: {exc}", file=sys.stderr)
        return 3
    except BilliardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
