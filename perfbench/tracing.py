"""Traced runs: pass-through wrappers on the names layers call each other by.

``Recorder`` keeps one span per wrapped call (name, start, end, parent span,
task id) in flat arrays until the run ends. A few spans also carry counts:
``solve_ivp`` spans the solver's RHS evaluations and accepted steps, ``io``
write spans the bytes written, and every span the calls of the wall function
made while it was the innermost open span. Nothing under ``src/`` changes:
``installed`` swaps module attributes and puts them back on exit.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import time
from array import array

import numpy as np

CHECKS = (
    "check_reflection_d_invariance",
    "check_spherical_energy_identity",
    "check_analytic_vs_numeric",
    "check_projection_correspondence",
)

# (module, attribute, span name); the span name's first part is its layer.
SPANS = [
    ("kcbilliards.cli", "main", "cli.main"),
    ("kcbilliards.cli", "cmd_simulate", "cli.simulate"),
    ("kcbilliards.cli", "cmd_verify", "cli.verify"),
    ("kcbilliards.cli", "load_config", "model.load_config"),
    ("kcbilliards.model", "load_config", "model.load_config"),
    ("kcbilliards.cli", "billiard_map", "billiard.billiard_map"),
    ("kcbilliards.billiard", "billiard_map", "billiard.billiard_map"),
    ("kcbilliards.cli", "solve_ivp", "cli.flow_ivp"),
    ("kcbilliards.cli", "integrate_spherical", "spherical.integrate_spherical"),
    ("kcbilliards.cli", "integral_set", "integrals.integral_set"),
    ("kcbilliards.cli", "spherical_energy_embedded", "spherical.energy_embedded"),
    ("kcbilliards.cli", "run_suite", "verify.run_suite"),
    ("kcbilliards.io", "write_planar_trajectory", "io.write"),
    ("kcbilliards.io", "write_spherical_trajectory", "io.write"),
    ("kcbilliards.io", "write_bounces", "io.write"),
    ("kcbilliards.io", "write_summary", "io.write"),
    ("kcbilliards.billiard", "next_hit_numeric", "billiard.numeric_leg"),
    ("kcbilliards.billiard", "next_hit_analytic_line", "billiard.exact_hit"),
    ("kcbilliards.billiard", "solve_ivp", "scipy.solve_ivp"),
    ("kcbilliards.billiard", "_planar_record", "billiard.record"),
    ("kcbilliards.billiard", "_spherical_record", "billiard.record"),
    ("kcbilliards.billiard", "reflect", "billiard.reflect"),
    ("kcbilliards.billiard", "integral_set", "integrals.integral_set"),
    ("kcbilliards.billiard", "time_of_flight", "planar.time_of_flight"),
    ("kcbilliards.billiard", "sphere_to_planar", "spherical.sphere_to_planar"),
    ("kcbilliards.billiard", "spherical_energy_embedded", "spherical.energy_embedded"),
    ("kcbilliards.spherical", "solve_ivp", "scipy.solve_ivp"),
    ("kcbilliards.verify", "next_hit_analytic_line", "billiard.exact_hit"),
    ("kcbilliards.verify", "next_hit_numeric", "billiard.numeric_leg"),
    ("kcbilliards.verify", "solve_ivp", "scipy.solve_ivp"),
] + [("kcbilliards.verify", check, f"verify.{check}") for check in CHECKS]

# Counted without a span: the wall function, once per event evaluation.
COUNTED = [("kcbilliards.billiard", "wall_signed_distance")]

_IVP_NAMES = ("scipy.solve_ivp", "cli.flow_ivp")


class Recorder:
    """Spans of one traced run, kept in memory until the run ends."""

    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.depth = array("i")
        self.task = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.a = array("q")  # RHS evaluations, or bytes written
        self.b = array("q")  # accepted steps
        self.w = array("q")  # wall-function calls
        self.stack = [-1]
        self.task_id = -1

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, nid: int) -> int:
        i = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.depth.append(len(self.stack) - 1)
        self.task.append(self.task_id)
        self.a.append(0)
        self.b.append(0)
        self.w.append(0)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield i
        finally:
            self.close(i)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        rec = self

        def traced(*args, **kwargs):
            i = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(i)
            if name in _IVP_NAMES:
                rec.a[i] = out.nfev
                if kwargs.get("t_eval") is None:
                    rec.b[i] = len(out.t) - 1
            elif name == "io.write":
                rec.a[i] = os.path.getsize(args[0])
            return out

        return traced

    def count(self, fn):
        rec = self

        def counted(*args, **kwargs):
            rec.w[rec.stack[-1]] += 1
            return fn(*args, **kwargs)

        return counted

    def arrays(self) -> dict:
        cols = {k: np.frombuffer(getattr(self, k), dtype=getattr(self, k).typecode)
                for k in ("name", "parent", "depth", "task", "t0", "t1", "a", "b", "w")}
        return {k: v.copy() for k, v in cols.items()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def installed(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    saved = []
    try:
        for mod_name, attr, span_name in SPANS:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, rec.wrap(span_name, getattr(mod, attr)))
        for mod_name, attr in COUNTED:
            mod = importlib.import_module(mod_name)
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, rec.count(getattr(mod, attr)))
        yield rec
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def _subtree_sum(values: np.ndarray, parent: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Each span's value plus the values of all spans below it."""
    total = values.astype(float).copy()
    for d in range(int(depth.max(initial=0)), 0, -1):
        at = np.nonzero(depth == d)[0]
        np.add.at(total, parent[at], total[at])
    return total


class Spans:
    """Per-layer figures over the spans of a chosen set of tasks."""

    def __init__(self, rec: Recorder, tasks):
        self.names = rec.names
        self.cols = cols = rec.arrays()
        self.n_tasks = len(tasks)
        self.keep = np.isin(cols["task"], list(tasks))
        # parents index the full arrays: compute over every span, select later
        self.dur = cols["t1"] - cols["t0"]
        parent, depth = cols["parent"], cols["depth"]
        child = np.zeros_like(self.dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        ivp = np.isin(cols["name"], [i for i, n in enumerate(self.names) if n in _IVP_NAMES])
        self.sub = {
            "nfev": _subtree_sum(np.where(ivp, cols["a"], 0), parent, depth),
            "steps": _subtree_sum(np.where(ivp, cols["b"], 0), parent, depth),
            "ivp_calls": _subtree_sum(ivp, parent, depth),
            "ivp_time": _subtree_sum(np.where(ivp, self.dur, 0.0), parent, depth),
            "wall": _subtree_sum(cols["w"], parent, depth),
        }

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros_like(self.keep)
        return self.keep & (self.cols["name"] == self.names.index(name))

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.mask(name)]

    def per_span(self, name: str, key: str) -> float:
        """Mean over ``name`` spans of a subtree total."""
        m = self.mask(name)
        return float(self.sub[key][m].mean()) if m.any() else 0.0

    def total(self, name: str, col: str = "a") -> float:
        return float(self.cols[col][self.mask(name)].sum())

    def self_by_layer(self) -> dict:
        """Self time summed by layer: the first part of each span name, or
        ``scipy`` for solver calls, whose self time includes the package's
        right-hand sides they evaluate."""
        out: dict = {}
        for nid, name in enumerate(self.names):
            m = self.keep & (self.cols["name"] == nid)
            layer = "scipy" if name in _IVP_NAMES else name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + float(self.self_time[m].sum())
        return out
