"""kcbilliards benchmark: one workload per invocation, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Run from the root of a source checkout; the package is imported from its
``src/`` directory. Task inputs come from ``--seed`` (see ``inputs.py``),
every task's output is checked (see ``tasks.py``), and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``spec.END_TO_END``
with ``--trace 0``, the per-layer metrics of ``spec.PER_LAYER`` with
``--trace 1``. A traced run runs each task untraced and then traced,
checks that both give byte-identical output, and writes its spans and
layer report under ``.perfbench/trace/``. ``--write-manifest`` regenerates
``BENCHMARK.json`` and ``perfbench/layer_map.json`` from ``spec.py``.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads, here and in the
# set-up children, which inherit the environment.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import spec  # noqa: E402
import tasks  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "kcbilliards"
OUT = ROOT / ".perfbench"

SETUP_REPS = 5
# Tasks whose counters a traced run reports, so they repeat exactly for a
# seed: one task of each run kind, four for line-exact.
COUNTER_TASKS = {"line-exact": 4, "simulate-walls": 5, "simulate-flow": 3, "verify-suite": 1}

_SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import kcbilliards\n"
    "for path in sys.argv[2:]:\n"
    "    kcbilliards.load_config(path)\n"
    "print(kcbilliards.__file__, flush=True)\n"
)


def machine_context() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def _spawn(code: str, args: list, importtime: bool = False) -> tuple:
    """One fresh interpreter running ``code``: seconds until its first line
    of output, that line, and its stderr (the -X importtime table if asked)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code] + args
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"child interpreter failed ({proc.returncode}): {err.strip()[-500:]}")
    return elapsed, line.strip(), err


def _spawn_setup(config_args: list, importtime: bool = False) -> tuple:
    """Seconds for a fresh interpreter to import the package and load the
    config, and its stderr."""
    elapsed, line, err = _spawn(_SETUP_CHILD, [str(SRC)] + config_args, importtime)
    if not line.startswith(str(PACKAGE)):
        raise RuntimeError(f"set-up child imported {line!r}, not {PACKAGE}")
    return elapsed, err


def measure_setup(config_args: list) -> tuple:
    """One set-up, scaled to the host at full speed by a reference
    interpreter start right before it; returns (scaled, unscaled) seconds."""
    ref = _spawn(reference.SETUP_REFERENCE_CODE, [])[0]
    elapsed = _spawn_setup(config_args)[0]
    return elapsed * reference.SETUP_REFERENCE_S / ref, elapsed


def measure_imports(config_args: list) -> dict:
    """Self time of scipy's and kcbilliards' modules, from -X importtime."""
    _spawn_setup(config_args)  # first start warms the file cache
    runs = []
    for _ in range(3):
        _, table = _spawn_setup(config_args, importtime=True)
        sums = {"scipy": 0.0, "kcbilliards": 0.0}
        for line in table.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            if top in sums:
                sums[top] += float(self_us) / 1000.0
        runs.append(sums)
    return {k: statistics.median(r[k] for r in runs) for k in ("scipy", "kcbilliards")}


def src_nonblank_lines() -> int:
    return sum(
        1
        for path in sorted(PACKAGE.glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


class Workload:
    """Generates, runs and checks the tasks of one workload for one seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.index = spec.WORKLOAD_NAMES.index(name)
        self.work = OUT / "work" / name
        shutil.rmtree(self.work, ignore_errors=True)
        for sub in ("u", "t"):
            (self.work / sub).mkdir(parents=True)

    def prepare(self, i: int) -> tuple:
        kind, payload = inputs.task_input(self.name, self.index, self.seed, i)
        config = self.work / "config.json"
        if isinstance(payload, dict):
            tasks.write_config(config, payload)
        for sub in ("u", "t"):
            for name in ("trajectory.csv", "bounces.csv", "summary.json"):
                (self.work / sub / name).unlink(missing_ok=True)
        return kind, payload, config

    def run(self, kind, payload, config, sub: str) -> tuple:
        dt, result = tasks.run_task(self.name, payload, config, self.work / sub)
        return dt, tasks.check_task(self.name, kind, payload, result, self.work / sub)

    def setup_configs(self) -> list:
        """The workload's first config, for the set-up measurement."""
        _, payload = inputs.task_input(self.name, self.index, self.seed, 0)
        if not isinstance(payload, dict):
            return []
        return [str(tasks.write_config(self.work / "setup.json", payload))]


def _quantile(values, q: float) -> float:
    return float(np.quantile(np.asarray(values), q))


def run_untraced(wl: Workload, seconds: float) -> dict:
    """Closed loop over the seed's tasks for ``seconds`` of loop time.

    Each task's wall time is scaled to the host at full speed by the mean
    of the reference times measured just before and after it (see
    ``reference.py``). Set-up is measured SETUP_REPS times spread over the
    run, each scaled by a reference interpreter start right before it.
    """
    config_args = wl.setup_configs()
    _spawn_setup(config_args)  # first start warms the file cache; not timed
    wl.run(*wl.prepare(0), "u")  # warm-up: lazy imports and first-call set-up
    setup, raw_setup, norm, raw, checks, reasons = [], [], [], [], [], []
    ref = reference.reference_s()
    loop_s = 0.0  # loop time, set-up measurements excluded
    i = 0
    while i == 0 or loop_s < seconds:
        if len(setup) < SETUP_REPS and loop_s >= len(setup) * seconds / SETUP_REPS:
            scaled, unscaled = measure_setup(config_args)
            setup.append(scaled)
            raw_setup.append(unscaled)
            ref = reference.reference_s()
        t0 = time.perf_counter()
        kind, payload, config = wl.prepare(i)
        dt, chk = wl.run(kind, payload, config, "u")
        ref_after = reference.reference_s()
        raw.append(dt)
        norm.append(reference.at_full_speed(dt, (ref + ref_after) / 2.0))
        ref = ref_after
        checks.append(chk)
        if not chk.ok:
            reasons.append(f"task {i} ({kind}): {chk.reason}")
        loop_s += time.perf_counter() - t0
        i += 1
    while len(setup) < SETUP_REPS:
        scaled, unscaled = measure_setup(config_args)
        setup.append(scaled)
        raw_setup.append(unscaled)
    setup_s = statistics.median(setup)
    n = len(norm)
    failed = sum(not c.ok for c in checks)
    items = sum(c.items for c in checks)
    drifts = [c.drift for c in checks]
    busy = sum(norm)
    p50 = _quantile(norm, 0.5) * 1e3
    p90 = _quantile(norm, 0.9) * 1e3
    above = sum(1 for t in norm if t * 1e3 > p90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    item_name = {"line-exact": "bounces", "simulate-walls": "bounces",
                 "simulate-flow": "trajectory rows", "verify-suite": "property cases"}[wl.name]
    lines = [
        f"tasks attempted {n}, failed {failed}, failed_frac {failed / n:.6g}",
        f"host speed: times are scaled to the host at full speed (reference.py), "
        f"median factor {statistics.median(norm) / statistics.median(raw):.4f}; "
        f"unscaled task_ms_p50 {_quantile(raw, 0.5) * 1e3:.6g} ms, "
        f"setup_s {statistics.median(raw_setup):.6g} s",
        f"setup_s {setup_s:.6g} s (median of {len(setup)}: "
        + ", ".join(f"{s:.4f}" for s in setup) + ")",
        f"task_ms_p50 {p50:.6g} ms (n={n})",
        (f"task_ms_p90 {p90:.6g} ms (n={n}, {above} above)" if above >= 10 else
         f"task_ms_p90 not reported: {above} of n={n} samples above it, fewer than 10"),
        f"items_per_s {items / busy:.6g} 1/s ({items} {item_name} in {busy:.3f} s of task time)",
        f"peak_rss_mb {rss_mb:.6g} MB",
        f"billiard.max_drift {max(drifts):.3e} rel; {sum(d > tasks.DRIFT_TOL for d in drifts)} "
        f"tasks above {tasks.DRIFT_TOL}" + (" (reported, not gated: the gate is for numeric runs)"
                                            if wl.name == "line-exact" else ""),
    ]
    if wl.name in ("line-exact", "simulate-walls"):
        lines.insert(6, f"bounces_per_s {items / busy:.6g} 1/s")
    lines += reasons[:20]
    metrics = {
        "setup_s": setup_s,
        "task_ms_p50": p50,
        "items_per_s": items / busy,
        "peak_rss_mb": rss_mb,
    }
    return {"attempted": n, "failed": failed, "correct": failed == 0,
            "metrics": metrics, "lines": lines}


def layer_metrics(counted: tracing.Spans, timed: tracing.Spans, extra: dict) -> tuple:
    """(BENCHMARK.json per-layer metrics, layer timings where their layer ran)."""
    bounces = counted.count("billiard.record")

    def per_bounce(name):
        return counted.count(name) / bounces if bounces else 0.0

    legs = timed.mask("billiard.numeric_leg")
    leg_time = float(timed.dur[legs].sum())
    per_layer = {
        "billiard.numeric_leg.rhs_evals": counted.per_span("billiard.numeric_leg", "nfev"),
        "billiard.numeric_leg.steps": counted.per_span("billiard.numeric_leg", "steps"),
        "billiard.numeric_leg.ivp_calls": counted.per_span("billiard.numeric_leg", "ivp_calls"),
        "billiard.numeric_leg.event_evals": counted.per_span("billiard.numeric_leg", "wall"),
        "billiard.numeric_leg.ivp_busy_frac":
            float(timed.sub["ivp_time"][legs].sum()) / leg_time if leg_time else 0.0,
        "billiard.exact_hit.calls": per_bounce("billiard.exact_hit"),
        "integrals.integral_set.calls_per_bounce": per_bounce("integrals.integral_set"),
        "planar.time_of_flight.calls_per_bounce": per_bounce("planar.time_of_flight"),
        "spherical.integrate_spherical.rhs_evals":
            counted.per_span("spherical.integrate_spherical", "nfev"),
        "spherical.integrate_spherical.ivp_calls":
            counted.per_span("spherical.integrate_spherical", "ivp_calls"),
        "io.bytes": counted.total("io.write") / counted.n_tasks,
    }
    per_layer.update(extra)
    task_time = float(timed.durations("task").sum())
    by_layer = timed.self_by_layer()
    for m in spec.PER_LAYER:
        if m["name"].startswith("self_frac."):
            per_layer[m["name"]] = by_layer.get(m["name"].split(".", 1)[1], 0.0) / task_time

    def mean_ms(name):
        d = timed.durations(name)
        return float(d.mean()) * 1e3 if d.size else 0.0

    sim = timed.mask("cli.simulate")
    timings = {
        "billiard.numeric_leg.ms_p50":
            float(np.median(timed.durations("billiard.numeric_leg"))) * 1e3 if legs.any() else 0.0,
        "billiard.exact_hit.us_p50":
            float(np.median(timed.durations("billiard.exact_hit"))) * 1e6
            if timed.count("billiard.exact_hit") else 0.0,
        "billiard.record.us_per_bounce": mean_ms("billiard.record") * 1e3,
        "spherical.integrate_spherical.ms": mean_ms("spherical.integrate_spherical"),
        "cli.flow_ivp.ms": mean_ms("cli.flow_ivp"),
        "cli.simulate.self_ms": float(timed.self_time[sim].mean()) * 1e3 if sim.any() else 0.0,
        "io.write_ms": float(timed.durations("io.write").sum()) * 1e3 / timed.n_tasks,
        "model.load_config.ms": mean_ms("model.load_config"),
    }
    for check in tracing.CHECKS:
        timings[f"verify.{check}.ms"] = mean_ms(f"verify.{check}")
    return per_layer, timings


def run_traced(wl: Workload, seconds: float) -> dict:
    imports = measure_imports(wl.setup_configs())
    wl.run(*wl.prepare(0), "u")  # warm-up, as in an untraced run
    rec = tracing.Recorder()
    ratios = []  # traced over untraced time, per task
    failed, mismatched, reasons, drift = 0, 0, [], 0.0
    n_counted = COUNTER_TASKS[wl.name]
    start = time.perf_counter()
    i = 0
    while i < n_counted or time.perf_counter() - start < seconds:
        kind, payload, config = wl.prepare(i)
        dt_u, chk_u = wl.run(kind, payload, config, "u")
        with tracing.installed(rec):
            rec.task_id = i
            with rec.span("task"):
                dt_t, chk_t = wl.run(kind, payload, config, "t")
        ratios.append(dt_t / dt_u)
        if i < n_counted:
            drift = max(drift, chk_t.drift)
        if not (chk_u.ok and chk_t.ok):
            failed += 1
            reasons.append(f"task {i} ({kind}): {chk_u.reason or chk_t.reason}")
        if chk_u.fingerprint != chk_t.fingerprint:
            mismatched += 1
            reasons.append(f"task {i} ({kind}): traced output differs from untraced")
        i += 1
    counted = tracing.Spans(rec, range(n_counted))
    timed = tracing.Spans(rec, range(i))
    overhead = statistics.median(ratios) - 1.0  # median over tasks of traced/untraced, minus 1
    per_layer, timings = layer_metrics(counted, timed, {
        "setup.import_scipy_ms": imports["scipy"],
        "setup.import_kcbilliards_self_ms": imports["kcbilliards"],
        "billiard.max_drift": drift,
        "src.nonblank_lines": src_nonblank_lines(),
        "trace.overhead_frac": overhead,
    })
    units = {m["name"]: m["unit"] for m in spec.PER_LAYER + spec.LAYER_TIMINGS}
    ran = {m["name"] for m in spec.LAYER_TIMINGS if wl.name in m["workloads"]}
    lines = [
        f"tasks attempted {i} (traced and untraced), failed {failed}, "
        f"traced output differs on {mismatched}; counters over the first {n_counted}",
    ]
    lines += [f"{k} {v:.6g} {units[k]}" for k, v in per_layer.items()]
    lines += [f"{k} {v:.6g} {units[k]}" if k in ran else f"{k} n/a (layer not run)"
              for k, v in timings.items()]
    lines += reasons[:20]
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_dir / f"{wl.name}-seed{wl.seed}"
    rec.save(f"{stem}.npz")
    report = {"machine": machine_context(), "per_layer": per_layer,
              "layer_timings": {k: v for k, v in timings.items() if k in ran}}
    Path(f"{stem}-layers.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return {"attempted": i, "failed": failed, "correct": failed == 0 and mismatched == 0,
            "metrics": per_layer, "lines": lines}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true")
    args = p.parse_args(argv)
    if args.write_manifest:
        spec.write_manifest(ROOT)
        return 0
    if args.workload is None or args.seed is None or args.seed < 0:
        p.error("--workload and a non-negative --seed are required")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no kcbilliards sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kcbilliards

    if Path(kcbilliards.__file__).resolve().parent != PACKAGE.resolve():
        print(f"kcbilliards imported from {kcbilliards.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2

    wl = Workload(args.workload, args.seed)
    print(f"workload {wl.name} seed {wl.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + json.dumps(machine_context(), sort_keys=True))
    out = run_traced(wl, args.seconds) if args.trace else run_untraced(wl, args.seconds)
    for line in out["lines"]:
        print(line)
    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
    result = {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
