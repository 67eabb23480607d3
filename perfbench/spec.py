"""What the benchmark measures: workloads, metrics and the layer-to-metric map.

``BENCHMARK.json`` at the repository root and ``perfbench/layer_map.json``
are generated from this module by ``python3 perfbench/run.py
--write-manifest``; a test keeps them in step with it.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 20

# Each workload exists for the reason in its ``why``; ``layers`` are the
# modules its tasks exercise, so a per-layer metric is meaningful on it. A
# workload with an ``excluded`` reason runs, but BENCHMARK.json leaves it out.
WORKLOADS = [
    {
        "name": "line-exact",
        "why": "Exact line-wall map, 1000 bounces per task via billiard_map(mode='analytic'): "
               "exact propagation, exact hit and record assembly do all the work, the numeric engine none.",
        "layers": ["model", "billiard", "planar", "integrals"],
    },
    {
        "name": "simulate-walls",
        "why": "CLI simulate at rtol=atol=1e-12 over line, centered-circle, beta=0.3 line, great-circle "
               "and spherical-cap walls: every leg runs the numeric engine, mostly inside solve_ivp.",
        "layers": ["cli", "model", "billiard", "integrals", "planar", "spherical", "io"],
    },
    {
        "name": "simulate-flow",
        "why": "CLI simulate with n_bounces=0 on kepler, beta=0.3 and spherical configs: scipy integration "
               "without wall events, the cli flow branch, integrate_spherical and 1001-row output.",
        "layers": ["cli", "model", "integrals", "spherical", "io"],
    },
    {
        "name": "verify-suite",
        "why": "CLI verify --cases 2000 over successive seeds: short cold numeric legs checked against the "
               "exact map (about 80% of the time), bulk integral evaluation and the plane-sphere correspondence.",
        "layers": ["cli", "verify", "billiard", "integrals", "planar", "spherical"],
        # Runnable, but not in BENCHMARK.json while its tasks fail on the
        # program as it is; register it again once they pass.
        "excluded": "about 1 task in 60 fails: the program's own verify reports passed: false, "
                    "because the exact line map mishandles near-radial states (L below about 1e-4)",
    },
]

WORKLOAD_NAMES = [w["name"] for w in WORKLOADS]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "task_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Per-layer metrics in BENCHMARK.json: reported by every traced run on
# every workload, all better when lower. Counters repeat exactly for a
# seed; a layer that does not run on a workload reads 0 there. ``moves``
# names the end-to-end metric (and workload) the per-layer metric should
# move.
_BOUNCE_WORKLOADS = ("line-exact", "simulate-walls")
PER_LAYER = [
    {"name": "billiard.numeric_leg.rhs_evals", "unit": "count", "layer": "billiard",
     "moves": [("items_per_s", "simulate-walls"), ("task_ms_p50", "verify-suite")]},
    {"name": "billiard.numeric_leg.steps", "unit": "count", "layer": "billiard",
     "moves": [("items_per_s", "simulate-walls"), ("task_ms_p50", "verify-suite")]},
    {"name": "billiard.numeric_leg.ivp_calls", "unit": "count", "layer": "billiard",
     "moves": [("items_per_s", "simulate-walls"), ("task_ms_p50", "verify-suite")]},
    {"name": "billiard.numeric_leg.event_evals", "unit": "count", "layer": "billiard",
     "moves": [("items_per_s", "simulate-walls"), ("task_ms_p50", "verify-suite")]},
    {"name": "billiard.numeric_leg.ivp_busy_frac", "unit": "frac", "layer": "billiard",
     "moves": [("items_per_s", "simulate-walls")]},
    {"name": "billiard.exact_hit.calls", "unit": "count", "layer": "billiard",
     "moves": [("items_per_s", "line-exact")]},
    {"name": "integrals.integral_set.calls_per_bounce", "unit": "count", "layer": "integrals",
     "moves": [("items_per_s", "line-exact")]},
    {"name": "planar.time_of_flight.calls_per_bounce", "unit": "count", "layer": "planar",
     "moves": [("items_per_s", "line-exact")]},
    {"name": "spherical.integrate_spherical.rhs_evals", "unit": "count", "layer": "spherical",
     "moves": [("task_ms_p50", "simulate-flow")]},
    {"name": "spherical.integrate_spherical.ivp_calls", "unit": "count", "layer": "spherical",
     "moves": [("task_ms_p50", "simulate-flow")]},
    {"name": "io.bytes", "unit": "bytes", "layer": "io",
     "moves": [("task_ms_p50", "simulate-flow"), ("task_ms_p50", "simulate-walls")]},
    {"name": "setup.import_scipy_ms", "unit": "ms", "layer": "import",
     "moves": [("setup_s", w) for w in WORKLOAD_NAMES]},
    {"name": "setup.import_kcbilliards_self_ms", "unit": "ms", "layer": "import",
     "moves": [("setup_s", w) for w in WORKLOAD_NAMES]},
    {"name": "billiard.max_drift", "unit": "rel", "layer": "billiard", "moves": []},
    {"name": "src.nonblank_lines", "unit": "count", "layer": "source", "moves": []},
    {"name": "trace.overhead_frac", "unit": "frac", "layer": "trace", "moves": []},
] + [
    # share of traced task time spent in each layer's own code (self time)
    {"name": f"self_frac.{layer}", "unit": "frac", "layer": layer, "moves": moves}
    for layer, moves in (
        ("cli", [("task_ms_p50", "simulate-flow"), ("task_ms_p50", "simulate-walls")]),
        ("model", [("task_ms_p50", w) for w in WORKLOAD_NAMES]),
        ("billiard", [("items_per_s", w) for w in _BOUNCE_WORKLOADS]),
        ("integrals", [("items_per_s", "line-exact")]),
        ("planar", [("items_per_s", "line-exact")]),
        ("spherical", [("task_ms_p50", "simulate-flow"), ("items_per_s", "simulate-walls")]),
        ("io", [("task_ms_p50", "simulate-flow"), ("task_ms_p50", "simulate-walls")]),
        ("verify", [("task_ms_p50", "verify-suite")]),
        ("scipy", [("items_per_s", "simulate-walls"), ("task_ms_p50", "simulate-flow"),
                   ("task_ms_p50", "verify-suite")]),
    )
]

# Per-layer timings that read 0 on workloads where their layer does not
# run. The traced run prints them and writes them to its layer report for
# the workloads listed here; they are not BENCHMARK.json metrics, because a
# time that is 0 on every run of a workload is not a measurement.
LAYER_TIMINGS = [
    {"name": "billiard.numeric_leg.ms_p50", "unit": "ms", "workloads": ["simulate-walls", "verify-suite"],
     "moves": [("items_per_s", "simulate-walls"), ("task_ms_p50", "verify-suite")]},
    {"name": "billiard.exact_hit.us_p50", "unit": "us", "workloads": ["line-exact", "verify-suite"],
     "moves": [("items_per_s", "line-exact")]},
    {"name": "billiard.record.us_per_bounce", "unit": "us",
     "workloads": ["line-exact", "simulate-walls", "verify-suite"],
     "moves": [("items_per_s", "line-exact")]},
    {"name": "spherical.integrate_spherical.ms", "unit": "ms", "workloads": ["simulate-flow"],
     "moves": [("task_ms_p50", "simulate-flow")]},
    {"name": "cli.flow_ivp.ms", "unit": "ms", "workloads": ["simulate-flow"],
     "moves": [("task_ms_p50", "simulate-flow")]},
    {"name": "cli.simulate.self_ms", "unit": "ms", "workloads": ["simulate-walls", "simulate-flow"],
     "moves": [("task_ms_p50", "simulate-flow"), ("task_ms_p50", "simulate-walls")]},
    {"name": "io.write_ms", "unit": "ms", "workloads": ["simulate-walls", "simulate-flow"],
     "moves": [("task_ms_p50", "simulate-flow"), ("task_ms_p50", "simulate-walls")]},
    {"name": "model.load_config.ms", "unit": "ms",
     "workloads": ["line-exact", "simulate-walls", "simulate-flow"],
     "moves": [("setup_s", w) for w in WORKLOAD_NAMES[:3]]},
] + [
    {"name": f"verify.{check}.ms", "unit": "ms", "workloads": ["verify-suite"],
     "moves": [("task_ms_p50", "verify-suite")]}
    for check in (
        "check_reflection_d_invariance",
        "check_spherical_energy_identity",
        "check_analytic_vs_numeric",
        "check_projection_correspondence",
    )
]


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS
                      if "excluded" not in w],
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": m["name"], "unit": m["unit"], "better": "lower"} for m in PER_LAYER
        ],
    }


def layer_map() -> dict:
    """Which layer each per-layer metric measures and what it should move."""

    def entry(m):
        return {
            "unit": m["unit"],
            "layer": m.get("layer", m["name"].split(".")[0]),
            "moves": [{"metric": e, "workload": w} for e, w in m["moves"]],
        }

    return {
        "workloads": {w["name"]: {k: v for k, v in w.items() if k != "name"} for w in WORKLOADS},
        "per_layer": {m["name"]: entry(m) for m in PER_LAYER},
        "layer_timings": {
            m["name"]: dict(entry(m), reported_on=m["workloads"]) for m in LAYER_TIMINGS
        },
    }


def write_manifest(root: Path) -> None:
    for path, doc in ((root / "BENCHMARK.json", manifest()),
                      (root / "perfbench" / "layer_map.json", layer_map())):
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
