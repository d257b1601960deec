"""Importing hsalpha loads scipy but none of its submodules.

The check runs in a fresh interpreter: in this process other test modules
have already imported ``scipy.integrate``, which would hide a module-level
submodule import in the library as well as a broken lazy call site.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUBMODULES = ("scipy.integrate", "scipy.optimize", "scipy.special")

SCRIPT = f"""
import contextlib, io, json, sys
import hsalpha, hsalpha.cli
from hsalpha import PiecewiseConstant, ReferenceSolution, besov_seminorm

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
box = PiecewiseConstant([0.0, 1.0], [1.0])
out["besov"] = besov_seminorm(
    lambda x: box(x), 0.5, [1.0], support=(0.0, 1.0), singularities=(0.0, 1.0)
).seminorm
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
    # the values test_reference and test_metrics expect; the box goes through
    # the quadrature branch because it is wrapped in a plain callable
    assert fresh["eval_u"] == pytest.approx(0.0, abs=1e-12)
    assert fresh["besov"] == pytest.approx(math.sqrt(2.0), rel=1e-9)
