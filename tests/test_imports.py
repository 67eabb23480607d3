"""scipy.integrate loads at the first integration and at no other time.

Loading it takes longer than importing the rest of the package, so a
process that never integrates (the exact map, ``project``, ``plot``, a
configuration error) must not pay for it. Each step runs in one fresh
interpreter, in order, and reports whether the module was loaded after
it; a numeric ``simulate`` run last is the positive control. The last
test guards the layering: Levi-Civita's map lives in ``planar``, and no
engine module imports ``conformal``, which transports over it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
    step("numeric simulate", main(["simulate", "--config", f"{work}/readme.json",
                                   "--out", f"{work}/out"]))
json.dump(steps, open(f"{work}/steps.json", "w"))
"""


def test_scipy_integrate_loads_only_at_the_first_integration(tmp_path):
    readme = ROOT / "README.md"
    doc = json.loads(re.search(r"```json\n(.*?)```", readme.read_text(), re.S).group(1))
    doc["run"]["n_bounces"] = 2
    (tmp_path / "readme.json").write_text(json.dumps(doc))
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
        ["numeric simulate", 0, True],
    ]


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
