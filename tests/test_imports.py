"""Importing hsalpha loads scipy but none of its submodules, and no module
of the package calls scipy; every public name of the package, and every
public member of its public classes, is read by the library or the bench;
and only the reference module knows the rung's scratch workspace.

The submodule check runs in a fresh interpreter: in this process other test
modules have already imported ``scipy.integrate``, which would hide a
module-level submodule import in the library.  The member check runs there
too: it records which members library and bench code read on instances of
their own class while the CLI and the bench workloads run, so a member
that only shares its name with one that is read does not pass.
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
BENCH = ROOT / "bench"
SUBMODULES = ("scipy.integrate", "scipy.optimize", "scipy.special")

#: Every example through the four subcommands at a coarse mesh, with --out
#: set: cusp, cosine and the custom multipeakon break by T = 3, and the
#: appendix example carries an atom at T = 2.  A custom multipeakon has no
#: reference, so its two ladders exit 2.
POINTS = "[[-1, 0], [-0.5, 1], [0.5, -1], [1, 0]]"
RUNS = [
    [cmd, "--example", example, *extra, *args]
    for example, extra in (
        ("appendixA", []),
        ("cosine", []),
        ("cusp", []),
        ("multipeakon", ["--points", POINTS]),
    )
    for cmd, *args in (
        ["solve", "--alpha", "0.5", "--T", "3", "--dx", "0.0625"],
        ["project", "--dx", "0.125"],
        ["eoc", "--alpha", "0.5", "--T", "3", "--k-min", "1", "--k-max", "2"],
        ["measure-rates", "--alpha", "0", "--T", "0.5", "--k-min", "1", "--k-max", "2"],
    )
] + [["solve", "--example", "appendixA", "--alpha", "0.5", "--T", "2", "--dx", "0.0625"]]

#: Runs the CLI and then each bench workload once untraced and once under
#: its span tracer (seed 0) in a fresh interpreter, while every instance
#: read of a watched member made by library or bench code is recorded.  A
#: class's own __post_init__ (its validation) does not count as a reader.
SCRIPT = f"""
import contextlib, io, json, sys, tempfile
sys.dont_write_bytecode = True
import hsalpha, hsalpha.cli

def loaded():
    return [m for m in {SUBMODULES!r} if m in sys.modules]

watched, readers, bench = json.loads(sys.argv[1])
reads = set()

def watch(cls):
    get = cls.__getattribute__
    own = getattr(vars(cls).get("__post_init__"), "__code__", None)

    def read(self, name):
        code = sys._getframe(1).f_code
        if code is not own and code.co_filename.startswith(tuple(readers)):
            reads.add(cls.__name__ + "." + name)
        return get(self, name)

    cls.__getattribute__ = read

out = {{"scipy": "scipy" in sys.modules, "after_import": loaded()}}
for name in watched:
    watch(getattr(hsalpha, name))
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    out["exit_codes"] = [hsalpha.cli.main(argv + ["--out", tmp]) for argv in {RUNS!r}]
out["after_runs"] = loaded()

sys.path.insert(0, bench)
import spans, worker
with open(bench + "/golden.json", encoding="utf-8") as fh:
    golden = json.load(fh)
checks = worker.Checks()
for name, workload in worker.WORKLOADS.items():
    work = workload(0, golden[name])
    try:
        for tracer in (None, spans.Tracer()):
            if tracer:
                tracer.install()
            try:
                result = work.run()
            finally:
                if tracer:
                    tracer.restore()
            work.check(result, checks)
        work.record()
    finally:
        work.cleanup()
out["bench_failures"] = checks.failed
out["reads"] = sorted(reads)
print(json.dumps(out))
"""


def _public_members(cls) -> set[str]:
    # the methods, properties and dataclass fields that cls itself defines
    kinds = (types.FunctionType, staticmethod, classmethod, property, functools.cached_property)
    names = {n for n, v in vars(cls).items() if isinstance(v, kinds)}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return {n for n in names if not n.startswith("_")}


#: The package's public classes with public members.
CLASSES = [
    cls
    for cls in map(vars(hsalpha).get, hsalpha.__all__)
    if isinstance(cls, type) and _public_members(cls)
]


@pytest.fixture(scope="module")
def fresh():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    readers = [f"{SRC / 'hsalpha'}{os.sep}", f"{BENCH}{os.sep}"]
    args = json.dumps([[c.__name__ for c in CLASSES], readers, str(BENCH)])
    proc = subprocess.run([sys.executable, "-c", SCRIPT, args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_scipy_but_no_submodule(fresh):
    # the top-level package stays: run records read scipy.__version__
    assert fresh["scipy"]
    assert fresh["after_import"] == []


def test_run_paths_load_no_scipy_submodule(fresh):
    assert fresh["exit_codes"] == [0] * 14 + [2, 2, 0]
    assert fresh["after_runs"] == []
    assert fresh["bench_failures"] == []


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


LAYERS = (
    "errors",
    "eulerian",
    "evolution",
    "harness",
    "lagrangian",
    "metrics",
    "projection",
    "pushforward",
    "reference",
)


def test_the_package_exports_exactly_its_modules_public_names():
    # each public name is declared once, in its module's __all__; the
    # package re-exports those lists in order and binds each name to the
    # module's own object
    modules = [getattr(hsalpha, name) for name in LAYERS]
    want = ["__version__"] + [n for m in modules for n in m.__all__]
    assert hsalpha.__all__ == want
    assert len(set(want)) == len(want)
    stray = [(m.__name__, n) for m in modules for n in m.__all__ if getattr(hsalpha, n) is not getattr(m, n)]
    assert stray == []


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
    "EocReport.wall_time",  # run metadata for scripts, never written to CSV
}


def test_every_public_member_is_read_by_the_library_or_the_bench(fresh):
    # read on an instance of its class, by a library module or a bench
    # script, in the runs of the fresh interpreter: a member of another
    # class with the same name does not count
    unread = sorted(
        f"{cls.__name__}.{name}"
        for cls in CLASSES
        for name in _public_members(cls)
        if f"{cls.__name__}.{name}" not in {*fresh["reads"], *MEMBER_ENTRY_POINTS}
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
