"""One benchmark process: set up one workload, run it in a closed loop, check it.

Started by ``bench/run.py`` as a fresh single-threaded interpreter, with
``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned to one thread.  It prints
``ready`` once ``hsalpha`` is imported and the inputs are built (the end of
set-up), then, unless ``--setup-only`` is given, runs the workload's entry
calls back to back for ``--seconds`` (one caller, each call after the previous
one returns), checks every output, and prints one JSON line of raw results.
Each call's wall time excludes the steal time of the CPU it is pinned to
(see ``steal.py``).

With ``--trace 1`` iterations alternate between untraced and traced; the
traced ones give the per-layer metrics and the spans, which are written to
``bench/out/`` at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

import hsalpha as hs
import hsalpha.cli  # noqa: F401  (the CLI workload calls hs.cli.main)
from spans import Tracer
from steal import pin, steal_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ITERATIONS = 3
#: Tolerance for re-computed values against the seed-0 values in golden.json:
#: round-off only, the relative tolerance the test suite uses for references.
GOLDEN_RTOL = 1e-12
#: Energy identities hold to round-off (test_reference's total_energy bound).
ENERGY_RTOL = 1e-14
CUSP_EOC_BAND = (0.45, 0.95)  # acceptance criterion 4
W1_ORDER_FLOOR = 0.5  # acceptance criterion 6


def cusp_inputs(seed):
    """Cusp interval and alpha: (-1, 1, 1/2) at seed 0, within 1% / 10% otherwise.

    a is a multiple of 2^-11 in [-1, -0.99]: every breaking time 3|z|^(1/3)
    then lies before T = 3, as at seed 0, and a is a pair edge of the dx = 2^-12
    grid, so evolve_cusp's energy identity holds to round-off.
    """
    if seed == 0:
        return -1.0, 1.0, 0.5
    rng = random.Random(seed)
    a = -1.0 + rng.randrange(21) * 2.0**-11
    return a, 1.0 + 0.01 * (2.0 * rng.random() - 1.0), 0.45 + 0.1 * rng.random()


def cosine_T(seed):
    """Final time 0.6 at seed 0, else in [0.58, 0.62]: before the first break at 2/pi."""
    if seed == 0:
        return 0.6
    return 0.58 + 0.04 * random.Random(seed).random()


class Checks:
    """Counts checked outputs; each check is one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed.append(what)

    def close(self, got, want, rtol, what):
        ok = math.isfinite(got) and abs(got - want) <= rtol * abs(want)
        self.check(ok, f"{what}: got {got!r}, want {want!r} (rtol {rtol:g})")

    def recorded(self, got, golden, key, what):
        """Seed 0: equal to the recorded value to round-off; else finite and positive."""
        if golden is None:
            self.check(math.isfinite(got) and got > 0.0, f"{what} = {got!r} not finite and positive")
        else:
            self.close(got, golden[key], GOLDEN_RTOL, what)

    def error(self, exc, what):
        self.attempted += 1
        self.failed.append(f"{what} raised {type(exc).__name__}: {exc}")


def _float_digest(values):
    return hashlib.sha256(repr([float(v) for v in values]).encode()).hexdigest()


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _lift(datum, dx, alpha):
    return hs.to_lagrangian(hs.project(datum, hs.ProjectionConfig(dx=dx)), alpha=alpha)


def _broken_cells(s, T):
    sched = hs.events(s, T)
    return sum(len(sched.cells_at[t]) for t in sched.times)


class Workload:
    """Inputs built from a seed; ``run`` times the entry calls, ``check`` their outputs."""

    def __init__(self, seed, golden):
        self.golden = golden if seed == 0 else None

    def cleanup(self):
        pass


class EocCusp(Workload):
    """run_eoc on cusp(a, b) with T = 3, k = 4, 5: many short evolve calls."""

    def __init__(self, seed, golden):
        a, b, alpha = cusp_inputs(seed)
        super().__init__(seed, golden)
        self.cfg = hs.ExperimentConfig(example="cusp", alpha=alpha, T=3.0, k_range=(4, 5), a=a, b=b)

    def run(self):
        return hs.run_eoc(self.cfg)

    def check(self, report, checks):
        errs = [row[2] for row in report.rows]
        for k, err in zip(self.cfg.k_range, errs):
            checks.recorded(err, self.golden, f"err_k{k}", f"Err_{k}")
        eoc = report.rows[-1][3]
        lo, hi = CUSP_EOC_BAND
        checks.check(eoc is not None and lo <= eoc <= hi, f"EOC {eoc!r} outside [{lo}, {hi}]")
        return _float_digest(errs)

    def record(self):
        cfg = self.cfg
        cells = events = snapshots = 0
        samples = np.linspace(0.0, cfg.T, cfg.time_samples)
        for k in cfg.k_range:
            s = _lift(hs.harness.datum_for(cfg), hs.dx_of_level(k), cfg.alpha)
            cells += s.n_cells
            events += _broken_cells(s, cfg.T)
            snapshots += np.union1d(samples, hs.events(s, cfg.T).times).size
        return {"cells": cells, "events": events, "snapshots": snapshots}


class EvolveCusp(Workload):
    """project, to_lagrangian, one evolve(s, 3.0), to_eulerian, one comparison."""

    T = 3.0
    DX = 2.0**-12

    def __init__(self, seed, golden):
        a, b, self.alpha = cusp_inputs(seed)
        super().__init__(seed, golden)
        self.datum = hs.cusp_datum(a, b)
        self.ref = hs.ReferenceSolution(family="cusp", alpha=self.alpha, a=a, b=b)
        self.proj_cfg = hs.ProjectionConfig(dx=self.DX)

    def run(self):
        s0 = hs.to_lagrangian(hs.project(self.datum, self.proj_cfg), alpha=self.alpha)
        s = hs.evolve(s0, self.T)
        sol = hs.to_eulerian(s)
        nodes = sol.u.nodes
        prof = self.ref.profile(
            self.T, x_lo=float(nodes[0]), x_hi=float(nodes[-1]), n_base=max(4001, 3 * nodes.size)
        )
        xs = np.union1d(nodes, prof.knots)
        ref_u = prof.u_at(xs)
        err = float(np.max(np.abs(sol.u(xs) - ref_u)) / np.max(np.abs(ref_u)))
        return s, err

    def check(self, out, checks):
        s, err = out
        energy = hs.total_energy(s)
        checks.close(energy, self.ref.total_energy(self.T), ENERGY_RTOL, "final energy")
        checks.recorded(err, self.golden, "sup_err", "sup error")
        return _float_digest([err, energy, *s.y, *s.U])

    def record(self):
        s = _lift(self.datum, self.DX, self.alpha)
        return {"cells": s.n_cells, "events": _broken_cells(s, self.T), "snapshots": 1}


class SolveCosineFine(Workload):
    """The CLI solve command in-process: cosine, alpha = 0, dx = 2^-14, CSV out."""

    DX = 2.0**-14

    def __init__(self, seed, golden):
        self.T = cosine_T(seed)
        super().__init__(seed, golden)
        self.first_digest = None
        self.tmp = tempfile.mkdtemp(prefix="tmp-", dir=HERE)
        self.argv = [
            "solve", "--example", "cosine", "--alpha", "0", "--T", repr(self.T),
            "--dx", repr(self.DX), "--out", self.tmp,
        ]  # fmt: skip

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return hs.cli.main(self.argv)

    def check(self, code, checks):
        checks.check(code == 0, f"solve exited with {code}")
        if code != 0:
            return None
        (name,) = os.listdir(self.tmp)
        path = os.path.join(self.tmp, name)
        digest = _file_digest(path)
        if self.golden is not None:
            checks.check(digest == self.golden["csv_sha256"], f"CSV sha256 {digest} differs")
        elif self.first_digest is None:
            self._check_content(path, checks)
        else:
            checks.check(digest == self.first_digest, "CSV bytes differ between iterations")
        self.first_digest = self.first_digest or digest
        os.remove(path)
        return digest

    def _check_content(self, path, checks):
        x, u, F = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
        want = float(hs.cosine_datum().F_ac(10.0))
        ok = bool(np.all(np.diff(x) > 0.0) and np.all(np.diff(F) >= 0.0))
        checks.check(ok, "CSV x not increasing or F decreasing")
        checks.close(float(F[-1]), want, ENERGY_RTOL, "CSV final F (total energy)")

    def record(self):
        s = _lift(hs.cosine_datum(), self.DX, 0.0)
        return {"cells": s.n_cells, "events": _broken_cells(s, self.T), "snapshots": 1}

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class RatesCosine(Workload):
    """run_measure_rates on cosine, alpha = 0, k = 7, 8: no breaking events."""

    def __init__(self, seed, golden):
        super().__init__(seed, golden)
        self.cfg = hs.ExperimentConfig(example="cosine", alpha=0.0, T=cosine_T(seed), k_range=(7, 8))

    def run(self):
        return hs.run_measure_rates(self.cfg)

    def check(self, report, checks):
        dists = [row[2] for row in report.rows]
        for k, dist in zip(self.cfg.k_range, dists):
            checks.recorded(dist, self.golden, f"w1_k{k}", f"W1_{k}")
        order = report.fitted_order()
        checks.check(order >= W1_ORDER_FLOOR, f"W1 order {order} below {W1_ORDER_FLOOR}")
        return _float_digest(dists)

    def record(self):
        cfg = self.cfg
        cells = events = 0
        for k in cfg.k_range:
            s = _lift(hs.cosine_datum(), hs.dx_of_level(k), 0.0)
            cells += s.n_cells
            events += _broken_cells(s, cfg.T)
        return {"cells": cells, "events": events, "snapshots": len(cfg.k_range)}


WORKLOADS = {
    "eoc_cusp": EocCusp,
    "evolve_cusp": EvolveCusp,
    "solve_cosine_fine": SolveCosineFine,
    "rates_cosine": RatesCosine,
}


def _check_source():
    """Refuse to measure an hsalpha other than the checkout's own ``src``."""
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(hs.__file__), src]) != src:
        raise SystemExit(f"hsalpha was imported from {hs.__file__}, not from {src}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _layer_metrics(tallies, evolve_ms, traced, untraced):
    """Median per traced iteration of each counter, plus derived ratios."""
    keys = {k for t in tallies for k in t}
    m = {k: statistics.median(t.get(k, 0.0) for t in tallies) for k in keys}
    calls = m.get("evolution.calls", 0.0)
    nodes = m.get("pushforward.nodes", 0.0)
    m["evolution.events_per_call"] = m.get("evolution.events", 0.0) / calls if calls else 0.0
    m["reference.points_per_node"] = m.get("reference.table_points", 0.0) / nodes if nodes else 0.0
    ms = sorted(evolve_ms)
    m["evolution.call_ms_p50"] = statistics.median(ms) if ms else 0.0
    # p99 needs ten samples beyond it; with fewer calls report the slowest one.
    m["evolution.call_ms_p99"] = ms[math.ceil(0.99 * len(ms)) - 1] if len(ms) >= 1000 else (ms[-1] if ms else 0.0)
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return m


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _check_source()
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[args.workload]
    work = WORKLOADS[args.workload](args.seed, golden)
    print("ready", flush=True)
    if args.setup_only:
        work.cleanup()
        return 0

    cpu = pin()
    tracer = Tracer() if args.trace else None
    checks = Checks()
    walls, stolen, traced, untraced, tallies = [], [], [], [], []
    digest = None
    try:
        start = time.perf_counter()
        while len(walls) < MIN_ITERATIONS or time.perf_counter() - start + walls[-1] <= args.seconds:
            gc.collect()
            tracing = tracer is not None and len(walls) % 2 == 1
            if tracing:
                tracer.install()
            s0, t0 = steal_s(cpu), time.perf_counter()
            try:
                out, exc = work.run(), None
            except Exception as err:  # counted as a failed operation; the run goes on
                out, exc = None, err
            finally:
                stolen.append(steal_s(cpu) - s0)
                wall = time.perf_counter() - t0 - stolen[-1]
                if tracing:
                    tracer.restore()
            walls.append(wall)
            if tracer is not None:
                (traced if tracing else untraced).append(wall)
                if tracing:
                    tallies.append(tracer.take())
            if exc is None:
                try:
                    digest = work.check(out, checks)
                except Exception as err:  # an output that cannot be checked fails
                    exc = err
            if exc is not None:
                checks.error(exc, args.workload)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": sys.modules["scipy"].__version__,
            **work.record(),
            "outputs_sha256": digest,
        }
    finally:
        work.cleanup()

    result = {
        "walls": walls,
        "stolen_s": sum(stolen),
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failures": checks.failed,
        "record": record,
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tallies, tracer.evolve_ms, traced, untraced)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "iterations": tallies, "spans": tracer.spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
