"""Compare the ``simulate`` outputs of two source trees, file by file.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts
of the package. The configs are tasks 0-29 of seeds 0 and 1 of the
benchmark's ``simulate-walls``, ``simulate-flow`` and ``line-exact``
workloads, built by ``perfbench/inputs.py``. Each tree runs every config
in a subprocess of its own, with PYTHONPATH set to that tree: the CLI's
``kcbilliards simulate`` for the first two, and for ``line-exact`` the
exact map as the benchmark runs it, ``load_config`` and then
``billiard_map(..., mode="analytic")``, whose records ``io.write_bounces``
writes to ``bounces.csv``. An exact run's outcome stands in for its exit
code.

The script prints, per workload and output file, the largest relative
difference |a - b| / max(|a|, |b|) over all values, the largest scaled
difference |a - b| / max(1, |a|, |b|), the scale of the repo's drifts,
which a value near zero does not inflate (both 0 where the bytes are
identical; NaN equals NaN), and how many files are byte-identical. It
exits 1 if any exit code, ``outcome``, ``n_bounces``, CSV header or row
count differs, and 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
import spec  # noqa: E402

CLI_FILES = ("trajectory.csv", "bounces.csv", "summary.json")
FILES = {"simulate-walls": CLI_FILES, "simulate-flow": CLI_FILES, "line-exact": ("bounces.csv",)}
WORKLOADS = tuple(FILES)
SEEDS = (0, 1)
TASKS = range(30)

# Runs every (workload, config, output directory) job of argv[1] in this
# process, a line-exact one on the exact map and the others through the
# CLI, and writes the exit codes (an exact run's outcome), in order, to
# argv[2].
_CHILD = """
import contextlib, io, json, os, sys
from kcbilliards.billiard import billiard_map
from kcbilliards.cli import main
from kcbilliards.io import write_bounces
from kcbilliards.model import load_config
codes = []
for workload, config, out in json.load(open(sys.argv[1])):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            if workload == "line-exact":
                cfg = load_config(config)
                run = billiard_map(cfg.initial, cfg.run.n_bounces, cfg.model, mode="analytic")
                os.makedirs(out)
                write_bounces(os.path.join(out, "bounces.csv"), run.records, cfg.model.domain)
                codes.append(run.outcome)
            else:
                codes.append(main(["simulate", "--config", config, "--out", out]))
        except Exception as exc:
            codes.append(f"uncaught {type(exc).__name__}: {exc}")
json.dump(codes, open(sys.argv[2], "w"))
"""


def run_tree(src: Path, jobs: list, work: Path, name: str) -> list:
    """Exit codes of every (workload, config, output directory) job, run by
    the package in ``src``."""
    job_file, code_file = work / f"{name}-jobs.json", work / f"{name}-codes.json"
    job_file.write_text(json.dumps(jobs))
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", _CHILD, str(job_file), str(code_file)], env=env,
                   check=True)
    return json.loads(code_file.read_text())


def diffs(a: float, b: float) -> tuple:
    """(relative, scaled) difference of two values."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d, size = abs(a - b), max(abs(a), abs(b))
    return d / size, d / max(1.0, size)


def csv_rows(path: Path) -> tuple:
    header, *rows = path.read_text().splitlines()
    return header, [[float(x) for x in row.split(",")] for row in rows]


def json_leaves(doc, prefix: str = "") -> dict:
    if isinstance(doc, dict):
        return {k: v for key in doc for k, v in json_leaves(doc[key], f"{prefix}{key}.").items()}
    return {prefix.rstrip("."): doc}


def compare_file(a: Path, b: Path) -> tuple:
    """(largest (relative, scaled) difference, byte-identical, what differs
    in shape or "")."""
    fail = (math.inf, math.inf)
    if not (a.exists() and b.exists()):  # neither tree writes output after a config error
        return ((0.0, 0.0), True, "") if a.exists() == b.exists() else (fail, False, "presence")
    if a.read_bytes() == b.read_bytes():
        return (0.0, 0.0), True, ""
    if a.suffix == ".json":
        la, lb = json_leaves(json.loads(a.read_text())), json_leaves(json.loads(b.read_text()))
        if la.keys() != lb.keys():
            return fail, False, "summary keys"
        for key in ("outcome", "n_bounces"):
            if la.get(key) != lb.get(key):
                return fail, False, key
        pairs = [diffs(la[k], lb[k]) for k in la if k != "outcome"]
    else:
        (ha, ra), (hb, rb) = csv_rows(a), csv_rows(b)
        if ha != hb:
            return fail, False, "header"
        if len(ra) != len(rb):
            return fail, False, "row count"
        pairs = [diffs(x, y) for row_a, row_b in zip(ra, rb) for x, y in zip(row_a, row_b)]
    return tuple(map(max, zip(*pairs))) or (0.0, 0.0), False, ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        tasks = []
        for workload in WORKLOADS:
            index = spec.WORKLOAD_NAMES.index(workload)
            for seed in SEEDS:
                for i in TASKS:
                    _, doc = inputs.task_input(workload, index, seed, i)
                    config = work / f"{workload}-{seed}-{i}.json"
                    config.write_text(json.dumps(doc))
                    tasks.append((workload, seed, i, config))
        codes = {}
        for name, src in (("parent", parent), ("change", change)):
            jobs = [(w, str(c), str(work / name / c.stem)) for w, _, _, c in tasks]
            codes[name] = run_tree(src, jobs, work, name)
        for workload in WORKLOADS:
            mine = [(k, t) for k, t in enumerate(tasks) if t[0] == workload]
            for k, (_, seed, i, config) in mine:
                if codes["parent"][k] != codes["change"][k]:
                    print(f"{workload} seed {seed} task {i}: exit code "
                          f"{codes['parent'][k]!r} -> {codes['change'][k]!r}")
                    failed = True
            for fname in FILES[workload]:
                worst, scaled, same = 0.0, 0.0, 0
                for k, (_, seed, i, config) in mine:
                    (diff, scale_diff), identical, mismatch = compare_file(
                        work / "parent" / config.stem / fname, work / "change" / config.stem / fname)
                    if mismatch:
                        print(f"{workload} seed {seed} task {i} {fname}: {mismatch} differs")
                        failed = True
                    worst, scaled = max(worst, diff), max(scaled, scale_diff)
                    same += identical
                print(f"{workload} {fname}: largest relative difference {worst:.3g}, "
                      f"largest scaled difference {scaled:.3g}, byte-identical {same}/{len(mine)}")
    print("FAILED: runs differ in outcome or shape" if failed else "same exit codes, outcomes, "
          "bounce and row counts")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
