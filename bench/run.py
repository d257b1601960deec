"""Benchmark of the hsalpha pipeline, one workload per invocation.

    python3 bench/run.py --workload eoc_cusp --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is taken from its ``src``.
Every measurement runs in a fresh single-threaded interpreter
(``bench/worker.py``) with BLAS and OpenMP pinned to one thread, on one CPU
whose hypervisor steal time is left out of every timing (``bench/steal.py``).  With
``--trace 0`` it times set-up in several fresh processes and the workload's
entry calls in one closed loop, and reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is the
JSON result.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from steal import pin, steal_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: Set-up is timed in this many fresh processes, the measuring one included.
SETUP_SAMPLES = 5
#: Every process started here must end before this many seconds have passed.
DEADLINE_S = 170.0


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, cpu, started, setup_only):
    """Start a worker and wait for its set-up; return (process, set-up seconds)."""
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    if setup_only:
        cmd.append("--setup-only")
    s0, t0 = steal_s(cpu), time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0 - (steal_s(cpu) - s0)
    if line.strip() != "ready":
        _finish(proc, started)
        raise SystemExit(f"worker exited during set-up with code {proc.returncode}")
    return proc, setup_s


def _finish(proc, started):
    """Wait for a worker within the deadline; return what it printed after set-up."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker did not finish within {DEADLINE_S:.0f} s")
    return out


def _summary(name, values, unit, note=""):
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    print(
        f"{name} median {statistics.median(values):.4f} {unit}, "
        f"quartiles {q1:.4f} / {q3:.4f} {unit}, n = {len(values)}{note}"
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "hsalpha", "__init__.py")):
        raise SystemExit(f"no hsalpha sources under {os.path.join(ROOT, 'src')}")

    cpu = pin()  # the workers inherit the pinning
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = _worker(args, cpu, started, setup_only=True)
            _finish(proc, started)
            if proc.returncode != 0:
                raise SystemExit(f"set-up worker exited with code {proc.returncode}")
            setups.append(setup_s)
    proc, setup_s = _worker(args, cpu, started, setup_only=False)
    setups.append(setup_s)
    out = _finish(proc, started)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])

    walls = res["walls"]
    failed = len(res["failures"])
    print("record " + json.dumps(res["record"], sort_keys=True))
    for what in res["failures"]:
        print(f"FAILED {what}")
    note = f", {res['stolen_s']:.2f} s of steal time left out"
    _summary("wall_s", walls, "s", note + (", traced and untraced" if args.trace else ""))
    print(f"ops_failed_frac {failed / res['attempted']:.4g} ({failed} of {res['attempted']} checked outputs)")

    if args.trace:
        declared = spec["per_layer"]
        values = res["layers"]
        unknown = set(values) - {m["name"] for m in declared}
        if unknown:
            raise SystemExit(f"trace produced undeclared metrics {sorted(unknown)}")
        values = {m["name"]: values.get(m["name"], 0.0) for m in declared}
        for m in declared:
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    else:
        declared = spec["end_to_end"]
        _summary("setup_s", setups, "s")
        print(f"peak_rss_mb {res['peak_rss_mb']:.2f} MB")
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
