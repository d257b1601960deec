"""Importing hsalpha loads scipy but none of its submodules, and no module
of the package calls scipy; every public name of the package, and every
public member of its public classes, is read by the library or the bench;
and only the reference module knows the rung's scratch workspace.

The submodule check runs in a fresh interpreter: in this process other test
modules have already imported ``scipy.integrate``, which would hide a
module-level submodule import in the library.
"""

import ast
import dataclasses
import functools
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hsalpha

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = ("scipy.integrate", "scipy.optimize", "scipy.special")

SCRIPT = f"""
import contextlib, io, json, sys
import hsalpha, hsalpha.cli

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


def test_the_package_imports_scipy_once_and_reads_none_of_it():
    # the bare import is for the run records' version; nothing calls scipy
    imports, reads = [], []
    for path in sorted((SRC / "hsalpha").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [(a.name, a.asname) for a in node.names if "scipy" in a.name]
            elif isinstance(node, ast.ImportFrom) and "scipy" in (node.module or ""):
                imports.append((f"from {node.module}", None))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "scipy":
                reads.append((path.name, node.attr))
    assert imports == [("scipy", None)]
    assert reads == []


#: Public names that no library module or bench script reads, each with the
#: reason it is public all the same.
ENTRY_POINTS = {
    "load_config",  # a --config JSON file as an ExperimentConfig, for scripts
    "eval_cumulative",  # F of a solution's measure, atoms included, at given points
}


def _library_and_bench():
    modules = [p for p in (SRC / "hsalpha").glob("*.py") if p.name != "__init__.py"]
    return modules + sorted((ROOT / "bench").glob("*.py"))


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
    read = _names_read(_library_and_bench())
    unread = sorted(set(hsalpha.__all__) - read - ENTRY_POINTS)
    assert unread == []


#: Public members of the package's public classes that no library module or
#: bench script reads, each with the reason it is public all the same.
MEMBER_ENTRY_POINTS = {
    "InitialDatum.u_x",  # the datum's slope: ROADMAP item 7's slope variance reads it
    "EocReport.wall_time",  # run metadata for scripts, never written to CSV
}


def _public_members(cls) -> set[str]:
    # the methods, properties and dataclass fields that cls itself defines
    kinds = (types.FunctionType, staticmethod, classmethod, property, functools.cached_property)
    names = {n for n, v in vars(cls).items() if isinstance(v, kinds)}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return {n for n in names if not n.startswith("_")}


def test_every_public_member_is_read_by_the_library_or_the_bench():
    # read as an attribute: a local or keyword of the same name does not count
    read = {
        node.attr
        for path in _library_and_bench()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
    }
    classes = [v for v in map(vars(hsalpha).get, hsalpha.__all__) if isinstance(v, type)]
    unread = sorted(
        f"{cls.__name__}.{name}"
        for cls in classes
        for name in _public_members(cls) - read
        if f"{cls.__name__}.{name}" not in MEMBER_ENTRY_POINTS
    )
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
