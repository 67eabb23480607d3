"""scipy.integrate loads at the first integration and at no other time.

Loading it takes longer than importing the rest of the package, so a
process that never integrates (the exact map, ``project``, ``plot``, a
configuration error, a planar flow at beta = 0, sampled on its conic, a
planar billiard at beta = 0 or at beta = 0.3, whose every leg is exact, a
spherical flow unbound in its pole chart, sampled on both branches of its
chart hyperbola) must not pay for it. Each step runs in one fresh interpreter, in order,
and reports whether the module was loaded after it; a great-circle
billiard whose first leg starts outside its attracting pole's hemisphere,
so that the leg is numeric, run last is the positive control. The last
tests guard the layering: Levi-Civita's map lives in ``planar``, no
engine module imports ``conformal``, which transports over it, and
no module but ``model`` reads a wall's kind: the rest read walls only
through their wall function. Every module but ``__init__`` uses each
name it imports.
"""

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import kcbilliards
from kcbilliards import billiard, cli, model, spherical, verify

HERE = Path(__file__).parent
ROOT = HERE.parent
PACKAGE = Path(kcbilliards.__file__).parent

CHILD = r"""
import contextlib, io, json, re, sys

def step(name, rc=None):
    steps.append([name, rc, "scipy.integrate" in sys.modules])

steps = []
work, readme, fixture = sys.argv[1:4]
import kcbilliards as kb
from kcbilliards.cli import main
kb.load_config(f"{work}/readme.json")
step("import kcbilliards, load_config")
example = re.search(r"```python\n(.*?)```", open(readme).read(), re.S).group(1)
assert 'mode="analytic"' in example
with contextlib.redirect_stdout(io.StringIO()):
    exec(example, {})
step("the README example on the exact map")
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    step("project", main(["project", "--in", fixture, "--out", f"{work}/sphere.csv",
                          "--direction", "plane-to-sphere", "--a", "1.0"]))
    step("plot", main(["plot", "--in", fixture, "--out", f"{work}/orbit.svg",
                       "--config", f"{work}/readme.json"]))
    step("config error", main(["simulate", "--config", f"{work}/bad.json",
                               "--out", f"{work}/bad"]))
    step("planar flow at beta = 0", main(["simulate", "--config", f"{work}/flow.json",
                                          "--out", f"{work}/flow"]))
    step("planar billiard at beta = 0", main(["simulate", "--config", f"{work}/readme.json",
                                              "--out", f"{work}/out"]))
    step("planar billiard at beta = 0.3", main(["simulate", "--config", f"{work}/boltzmann.json",
                                                "--out", f"{work}/boltzmann"]))
    step("spherical flow unbound in its chart", main(["simulate", "--config",
                                                      f"{work}/unbound.json",
                                                      "--out", f"{work}/unbound"]))
    step("numeric simulate", main(["simulate", "--config", f"{work}/sphere.json",
                                   "--out", f"{work}/sphere"]))
json.dump(steps, open(f"{work}/steps.json", "w"))
"""


def test_scipy_integrate_loads_only_at_the_first_integration(tmp_path):
    readme = ROOT / "README.md"
    doc = json.loads(re.search(r"```json\n(.*?)```", readme.read_text(), re.S).group(1))
    doc["run"]["n_bounces"] = 2
    (tmp_path / "readme.json").write_text(json.dumps(doc))
    (tmp_path / "flow.json").write_text(json.dumps({**doc, "run": {"n_bounces": 0, "t_max": 5.0}}))
    boltzmann = {**doc, "system": {**doc["system"], "model": "boltzmann", "beta": 0.3}}
    (tmp_path / "boltzmann.json").write_text(json.dumps(boltzmann))
    # q.Z1 < 0 at a = 0.5: the start lies outside the attracting pole's hemisphere
    q = np.array([0.8, -0.1, 0.59]) / np.linalg.norm([0.8, -0.1, 0.59])
    v = np.array([0.1, -0.3, -0.2]) - np.dot(q, [0.1, -0.3, -0.2]) * q
    sphere = {**doc, "system": {"model": "spherical", "m": 1.0, "a": 0.5, "beta": 0.0},
              "wall": {"kind": "spherical-great-circle", "side": -1},
              "initial": {"state": [*q.tolist(), *v.tolist()]}}
    (tmp_path / "sphere.json").write_text(json.dumps(sphere))
    # planar_to_sphere of (1.0, 0.2, 0.9, 1.6) at a = 0.5: alpha r0/mu = -0.462 in the pole chart
    unbound = {**sphere, "initial": {"state": [0.6294904643473184, 0.4555035791205103,
                                               -0.6294904643473184, 0.0483567820121964,
                                               1.8421803299411597, 1.3813709914389185]},
               "run": {"n_bounces": 0, "t_max": 5.0}}
    (tmp_path / "unbound.json").write_text(json.dumps(unbound))
    doc["integrator"]["atol"] = -1.0
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), str(readme),
         str(HERE / "data" / "fixture_trajectory.csv")],
        env=env, check=True, timeout=120,
    )
    steps = json.loads((tmp_path / "steps.json").read_text())
    assert steps == [
        ["import kcbilliards, load_config", None, False],
        ["the README example on the exact map", None, False],
        ["project", 0, False],
        ["plot", 0, False],
        ["config error", 2, False],
        ["planar flow at beta = 0", 0, False],
        ["planar billiard at beta = 0", 0, False],
        ["planar billiard at beta = 0.3", 0, False],
        ["spherical flow unbound in its chart", 0, False],
        ["numeric simulate", 0, True],
    ]


def test_the_package_exports_only_what_its_callers_read():
    # the README example, CI and the benchmark's set-up child read these
    # seven as kcbilliards.X; every other name is imported from its module
    exported = {name for name, value in vars(kcbilliards).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == {"SystemParams", "PlanarState", "Wall", "validate_config", "load_config",
                        "billiard_map", "planar_to_sphere"}


def test_every_module_integrates_through_one_solve_ivp():
    assert (cli.solve_ivp is billiard.solve_ivp is spherical.solve_ivp is verify.solve_ivp
            is model.solve_ivp)


def test_the_package_imports_scipy_integrate_once():
    sites = [
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"\bscipy\.integrate\b|from scipy import integrate", line)
        and re.match(r"\s*(from|import)\s", line)
    ]
    # indented: the import runs inside solve_ivp's body, not at module load
    assert sites == [("model.py", "    from scipy.integrate import solve_ivp as scipy_solve_ivp")]


def _imported_modules(path):
    """Every module, and every name from a module, that a source file
    imports, with the package's relative imports made absolute."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["kcbilliards" if node.level else "", node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_engine_module_imports_conformal():
    for name in ("planar", "spherical", "billiard", "model", "integrals"):
        imported = set(_imported_modules(PACKAGE / f"{name}.py"))
        assert "kcbilliards.conformal" not in imported, name
    assert "kcbilliards.planar" in set(_imported_modules(PACKAGE / "conformal.py"))


# the config schema's wall kinds, and the names of the constants that held them
WALL_KINDS = {"planar-line", "planar-centered-circle", "spherical-great-circle",
              "spherical-centered-circle"}
KIND_NAMES = {"PLANAR_LINE", "PLANAR_CENTERED_CIRCLE", "SPHERICAL_GREAT_CIRCLE",
              "SPHERICAL_CENTERED_CIRCLE", "WALL_KINDS"}


def _strings(tree):
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_no_module_but_model_reads_a_wall_kind():
    # every wall is its (alpha, normal, level, side); the kind strings are
    # model's config schema: no other module names a kind constant, compares
    # with a kind string or reads .kind or .axis
    assert WALL_KINDS <= _strings(ast.parse((PACKAGE / "model.py").read_text()))
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & KIND_NAMES, path.name
        assert not _strings(tree) & WALL_KINDS, path.name
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and node.attr in ("kind", "axis")], path.name


def _unused_imports(source):
    """The names a module imports (``from __future__`` aside) and never reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_imported_name_is_used():
    # __init__ imports to re-export; any other module imports only what it
    # reads, so no import of a renamed or deleted name survives
    assert _unused_imports("import os.path\nfrom a import b as c, d\nos.path.join(d)") == {"c"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            assert not _unused_imports(path.read_text()), path.name
