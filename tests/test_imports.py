"""Importing hsalpha loads scipy but none of its submodules, every public
name of the package is read by the library or the bench, and only the
reference module knows the rung's scratch workspace.

The scipy check runs in a fresh interpreter: in this process other test
modules have already imported ``scipy.integrate``, which would hide a
module-level submodule import in the library as well as a broken lazy call
site.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hsalpha

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = ("scipy.integrate", "scipy.optimize", "scipy.special")

SCRIPT = f"""
import contextlib, io, json, sys
import hsalpha, hsalpha.cli
from hsalpha import ReferenceSolution

def loaded():
    return [m for m in {SUBMODULES!r} if m in sys.modules]

out = {{"scipy": "scipy" in sys.modules, "after_import": loaded()}}
runs = (
    ["solve", "--example", "cosine", "--alpha", "0", "--T", "1", "--dx", "0.0625"],
    ["project", "--example", "cusp", "--dx", "0.125"],
    ["eoc", "--example", "cusp", "--alpha", "0.5", "--T", "1", "--k-min", "1", "--k-max", "2"],
    ["measure-rates", "--example", "cosine", "--alpha", "0", "--T", "0.5", "--k-min", "2"],
)
with contextlib.redirect_stdout(io.StringIO()):
    out["exit_codes"] = [hsalpha.cli.main(argv) for argv in runs]
out["after_runs"] = loaded()
out["eval_u"] = ReferenceSolution("cosine", alpha=0.0).eval_u(0.0, 0.5)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fresh():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_scipy_but_no_submodule(fresh):
    # the top-level package stays: run records read scipy.__version__
    assert fresh["scipy"]
    assert fresh["after_import"] == []


def test_run_paths_load_no_scipy_submodule(fresh):
    assert fresh["exit_codes"] == [0, 0, 0, 0]
    assert fresh["after_runs"] == []


def test_lazy_scipy_call_sites(fresh):
    # the value test_reference expects, through scipy.optimize loaded on use
    assert fresh["eval_u"] == pytest.approx(0.0, abs=1e-12)


#: Public names that no library module or bench script reads, each with the
#: reason it is public all the same.
ENTRY_POINTS = {
    "load_config",  # a --config JSON file as an ExperimentConfig, for scripts
    "eval_cumulative",  # F of a solution's measure, atoms included, at given points
}


def _names_read(paths) -> set[str]:
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_read_by_the_library_or_the_bench():
    modules = [p for p in (SRC / "hsalpha").glob("*.py") if p.name != "__init__.py"]
    read = _names_read(modules + sorted((ROOT / "bench").glob("*.py")))
    unread = sorted(set(hsalpha.__all__) - read - ENTRY_POINTS)
    assert unread == []


def test_only_the_reference_module_knows_the_workspace():
    # the rung's reusable scratch and its slot table are reference.py's:
    # no other module names them or takes a ws parameter
    bad = []
    for path in sorted((SRC / "hsalpha").glob("*.py")):
        if path.name == "reference.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Name):
                names.append(node.id)
            elif isinstance(node, ast.Attribute):
                names.append(node.attr)
            elif isinstance(node, ast.alias):
                names.append(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, ast.arg) and node.arg == "ws":
                names.append("ws parameter")
            bad += [
                (path.name, name)
                for name in names
                if "Workspace" in name or name in ("_take", "ws parameter")
            ]
    assert bad == []
