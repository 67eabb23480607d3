"""Tests of the benchmark itself: manifest, smoke runs, counter repeatability.

Run from the repository root with ``python3 -m pytest perfbench/tests``;
the smoke runs take about two minutes.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402
import tracing  # noqa: E402

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Counters that must repeat exactly for a seed.
COUNTERS = [m["name"] for m in spec.PER_LAYER if m["unit"] in ("count", "bytes")] + [
    "billiard.max_drift"
]


def _run(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace, rep=0):
        key = (workload, trace, rep)
        if key not in cache:
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.splitlines()
            cache[key] = (json.loads(lines[-1]), lines[:-1])
        return cache[key]

    return get


def test_manifest_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()
    assert json.loads((BENCH / "layer_map.json").read_text()) == spec.layer_map()


def test_manifest_obeys_limits():
    doc = spec.manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]] + [
        m["name"] for m in doc["end_to_end"] + doc["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in doc["workloads"])
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        assert _UNIT.match(m["unit"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and _UNIT.match(m["unit"])


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_untraced_smoke(runs, workload):
    result, lines = runs(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = " ".join(lines)
    for name in ("failed_frac", "task_ms_p90", *expected):
        assert name in printed
    assert '"nproc"' in printed and '"OMP_NUM_THREADS": "1"' in printed


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_traced_smoke(runs, workload):
    result, lines = runs(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split(" ", 1)[0]: line for line in lines}
    assert "traced output differs on 0" in " ".join(lines)
    for m in spec.LAYER_TIMINGS:
        line = printed[m["name"]]
        if workload in m["workloads"]:
            value, unit = line.split(" ")[1:3]
            assert float(value) > 0 and unit == m["unit"], line
        else:
            assert line.endswith("n/a (layer not run)")
    if workload in ("simulate-walls", "verify-suite"):
        assert result["metrics"]["billiard.numeric_leg.rhs_evals"]["value"] > 0


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_counters_repeat(runs, workload):
    first, _ = runs(workload, 1)
    second, _ = runs(workload, 1, rep=1)
    for name in COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("line-exact", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_and_subtree_counts():
    rec = tracing.Recorder()
    rec.task_id = 0
    outer = rec.open(rec.name_id("billiard.numeric_leg"))
    inner = rec.open(rec.name_id("scipy.solve_ivp"))
    rec.w[inner] += 3
    rec.a[inner] = 100
    rec.close(inner)
    rec.w[outer] += 1
    rec.close(outer)
    rec.t0[outer], rec.t1[outer] = 0.0, 1.0
    rec.t0[inner], rec.t1[inner] = 0.25, 0.75
    spans = tracing.Spans(rec, [0])
    assert spans.self_time[outer] == pytest.approx(0.5)
    assert spans.per_span("billiard.numeric_leg", "wall") == 4
    assert spans.per_span("billiard.numeric_leg", "nfev") == 100
    assert spans.per_span("billiard.numeric_leg", "ivp_calls") == 1
