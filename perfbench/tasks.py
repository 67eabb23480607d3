"""Running one task of a workload and checking its output.

A task is one program invocation: ``kcbilliards.cli.main`` in process for
the CLI workloads, ``load_config`` plus ``billiard_map(mode="analytic")``
for ``line-exact``. Every call goes through the package's module
attributes, so the pass-through wrappers of a traced run see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

# Acceptance tolerance on the quantities each run kind conserves.
DRIFT_TOL = 1e-8
CONSERVED = {
    "planar-line": ("E_pl", "D"),
    "planar-centered-circle": ("E_pl", "L"),
    "boltzmann-line": ("E_pl",),
    "spherical-great-circle": ("E_sph",),
    "spherical-centered-circle": ("E_sph",),
    # free flow under the Kepler field conserves every integral
    "planar": ("E_pl", "D"),
    "boltzmann": ("E_pl",),
    "spherical": ("E_sph",),
}
_INTEGRALS = ("E_pl", "L", "A_xi", "A_eta", "D", "E_sph")
_FLOW_ROWS = 1001
_OUTPUT_FILES = ("trajectory.csv", "bounces.csv", "summary.json")


@dataclass
class Result:
    """What one task returned: exit code, captured stdout, run or error."""

    rc: int
    stdout: str
    run: object = None
    error: str = ""


@dataclass
class Check:
    """Verdict on one task's output."""

    ok: bool
    items: int
    drift: float
    fingerprint: str
    reason: str = ""


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_task(workload: str, payload, config: Path, out_dir: Path) -> tuple:
    """Run one task; returns (wall seconds, Result)."""
    import kcbilliards.billiard
    import kcbilliards.cli
    import kcbilliards.model

    if workload == "verify-suite":
        argv = ["verify", "--seed", str(payload), "--cases", str(inputs.VERIFY_CASES)]
    else:
        argv = ["simulate", "--config", str(config), "--out", str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        if workload == "line-exact":
            cfg = kcbilliards.model.load_config(str(config))
            run = kcbilliards.billiard.billiard_map(
                cfg.initial, cfg.run.n_bounces, cfg.model, mode="analytic"
            )
            result = Result(0, "", run=run)
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = kcbilliards.cli.main(argv)
            result = Result(rc, out.getvalue(), error=err.getvalue())
    except Exception as exc:  # a task that raises is a failed task, not a dead run
        result = Result(-1, out.getvalue(), error=f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, result


def _drift(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    if len(vals) < 2:
        return 0.0
    return max(abs(v - vals[0]) for v in vals) / max(1.0, abs(vals[0]))


def _read_csv(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:] if line]
    return header, rows


def _bounces_ok(outcome: str, n: int, wanted: int) -> bool:
    """A run may stop short of its bounce count only by escape or tangency."""
    return (outcome == "completed" and n == wanted) or outcome in ("escape", "tangency")


def check_task(workload: str, kind: str, doc, result: Result, out_dir: Path) -> Check:
    """Judge a task from its own output, as ``failed_frac`` defines it."""
    if result.rc != 0:
        return Check(False, 0, 0.0, "", f"exit {result.rc}: {result.error.strip()[-200:]}")
    if workload == "verify-suite":
        report = json.loads(result.stdout)
        items = sum(int(c["cases"]) for c in report["checks"])
        digest = hashlib.sha256(result.stdout.encode()).hexdigest()
        return Check(report["passed"] is True, items, 0.0, digest,
                     "" if report["passed"] else "verify reported passed: false")
    if workload == "line-exact":
        return _check_line_exact(kind, doc, result.run)

    try:
        blobs = [(out_dir / name).read_bytes() for name in _OUTPUT_FILES]
        summary = json.loads(blobs[2])
        header, rows = _read_csv(out_dir / "trajectory.csv")
        _, bounce_rows = _read_csv(out_dir / "bounces.csv")
    except (OSError, ValueError, IndexError) as exc:
        return Check(False, 0, 0.0, "", f"unreadable output: {exc}")
    digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
    n = int(summary["n_bounces"])
    drift = max(_drift([r[header.index(q)] for r in rows]) for q in CONSERVED[kind])
    wanted = doc["run"]["n_bounces"]
    if wanted == 0:
        ok = summary["outcome"] == "flow" and n == 0 and len(rows) == _FLOW_ROWS
        items = len(rows)
    else:
        ok = _bounces_ok(summary["outcome"], n, wanted) and len(rows) == n + 1
        items = n
    ok = ok and len(bounce_rows) == n
    reason = "" if ok else f"outcome {summary['outcome']} with {n} bounces, {len(rows)} rows"
    if drift > DRIFT_TOL:
        ok, reason = False, f"drift {drift:.3e} > {DRIFT_TOL}"
    return Check(ok, items, drift, digest, reason)


def _check_line_exact(kind: str, doc: dict, run) -> Check:
    """The exact map has no acceptance tolerance (the 1e-8 gate is for
    numeric runs): its drift is reported, not gated. A hit must lie on the
    wall line, and hit times must increase."""
    rows = np.array([
        (r.t_hit, r.tangent, r.state_in.xi, r.state_in.eta, r.state_in.xi_dot,
         r.state_in.eta_dot, r.state_out.xi_dot, r.state_out.eta_dot,
         *(getattr(r.integrals_in, q) for q in _INTEGRALS),
         *(getattr(r.integrals_out, q) for q in _INTEGRALS))
        for r in run.records
    ], dtype=float).reshape(-1, 8 + 2 * len(_INTEGRALS))
    cols = {q: np.concatenate([rows[:, 8 + k], rows[:, 8 + len(_INTEGRALS) + k]])
            for k, q in enumerate(_INTEGRALS)}
    drift = max(_drift(cols[q].tolist()) for q in CONSERVED[kind]) if run.records else 0.0
    ok = _bounces_ok(run.outcome, run.n_bounces, doc["run"]["n_bounces"])
    reason = "" if ok else f"outcome {run.outcome} after {run.n_bounces} bounces"
    wall_h = -doc["system"]["a"] / math.sqrt(1.0 + doc["system"]["a"] ** 2)
    if ok and not (np.all(np.abs(rows[:, 3] - wall_h) <= 1e-12)
                   and np.all(np.diff(rows[:, 0]) > 0.0)):
        ok, reason = False, "a hit off the wall line, or hit times not increasing"
    return Check(ok, run.n_bounces, drift, hashlib.sha256(rows.tobytes()).hexdigest(), reason)
