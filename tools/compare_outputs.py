"""Compare the ``simulate`` outputs of two source trees, file by file.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts
of the package. The configs are tasks 0-29 of seeds 0 and 1 of the
benchmark's ``simulate-walls`` and ``simulate-flow`` workloads, built by
``perfbench/inputs.py``. Each tree runs ``kcbilliards simulate`` on every
config in a subprocess of its own, with PYTHONPATH set to that tree.

The script prints, per workload and output file, the largest relative
difference |a - b| / max(|a|, |b|) over all values (0 where the bytes are
identical; NaN equals NaN) and how many files are byte-identical. It
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

WORKLOADS = ("simulate-walls", "simulate-flow")
SEEDS = (0, 1)
TASKS = range(30)
FILES = ("trajectory.csv", "bounces.csv", "summary.json")

# Runs every (config, output directory) pair of argv[1] through the CLI in
# this process and writes the exit codes, in order, to argv[2].
_CHILD = """
import contextlib, io, json, sys
from kcbilliards.cli import main
codes = []
for config, out in json.load(open(sys.argv[1])):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(["simulate", "--config", config, "--out", out]))
        except Exception as exc:
            codes.append(f"uncaught {type(exc).__name__}: {exc}")
json.dump(codes, open(sys.argv[2], "w"))
"""


def run_tree(src: Path, jobs: list, work: Path, name: str) -> list:
    """Exit codes of ``simulate`` on every (config, output directory) job,
    run by the package in ``src``."""
    job_file, code_file = work / f"{name}-jobs.json", work / f"{name}-codes.json"
    job_file.write_text(json.dumps(jobs))
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", _CHILD, str(job_file), str(code_file)], env=env,
                   check=True)
    return json.loads(code_file.read_text())


def rel_diff(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def csv_rows(path: Path) -> tuple:
    header, *rows = path.read_text().splitlines()
    return header, [[float(x) for x in row.split(",")] for row in rows]


def json_leaves(doc, prefix: str = "") -> dict:
    if isinstance(doc, dict):
        return {k: v for key in doc for k, v in json_leaves(doc[key], f"{prefix}{key}.").items()}
    return {prefix.rstrip("."): doc}


def compare_file(a: Path, b: Path) -> tuple:
    """(largest relative difference, byte-identical, what differs in shape or "")."""
    if not (a.exists() and b.exists()):  # neither tree writes output after a config error
        return (0.0, True, "") if a.exists() == b.exists() else (math.inf, False, "presence")
    if a.read_bytes() == b.read_bytes():
        return 0.0, True, ""
    if a.suffix == ".json":
        la, lb = json_leaves(json.loads(a.read_text())), json_leaves(json.loads(b.read_text()))
        if la.keys() != lb.keys():
            return math.inf, False, "summary keys"
        for key in ("outcome", "n_bounces"):
            if la.get(key) != lb.get(key):
                return math.inf, False, key
        return max(rel_diff(la[k], lb[k]) for k in la if k != "outcome"), False, ""
    (ha, ra), (hb, rb) = csv_rows(a), csv_rows(b)
    if ha != hb:
        return math.inf, False, "header"
    if len(ra) != len(rb):
        return math.inf, False, "row count"
    worst = max((rel_diff(x, y) for row_a, row_b in zip(ra, rb) for x, y in zip(row_a, row_b)),
                default=0.0)
    return worst, False, ""


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
            jobs = [(str(c), str(work / name / c.stem)) for _, _, _, c in tasks]
            codes[name] = run_tree(src, jobs, work, name)
        for workload in WORKLOADS:
            mine = [(k, t) for k, t in enumerate(tasks) if t[0] == workload]
            for k, (_, seed, i, config) in mine:
                if codes["parent"][k] != codes["change"][k]:
                    print(f"{workload} seed {seed} task {i}: exit code "
                          f"{codes['parent'][k]!r} -> {codes['change'][k]!r}")
                    failed = True
            for fname in FILES:
                worst, same = 0.0, 0
                for k, (_, seed, i, config) in mine:
                    diff, identical, mismatch = compare_file(
                        work / "parent" / config.stem / fname, work / "change" / config.stem / fname)
                    if mismatch:
                        print(f"{workload} seed {seed} task {i} {fname}: {mismatch} differs")
                        failed = True
                    worst, same = max(worst, diff), same + identical
                print(f"{workload} {fname}: largest relative difference {worst:.3g}, "
                      f"byte-identical {same}/{len(mine)}")
    print("FAILED: runs differ in outcome or shape" if failed else "same exit codes, outcomes, "
          "bounce and row counts")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
