"""End-to-end acceptance gate: nine numbered criteria.

Each test evaluates one criterion at its stated tolerance, appends a PASS or
FAIL line to conftest.ACCEPTANCE_LINES (printed in the terminal summary), and
asserts.  Convergence ladders are module fixtures so the EOC-based criteria
share runs instead of recomputing them.
"""

import time

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES, random_multipeakon
from hsalpha.eulerian import EnergyMeasure, PiecewiseLinear, eval_cumulative, make_multipeakon
from hsalpha.evolution import evolve, total_energy
from hsalpha.harness import (
    ExperimentConfig,
    dx_of_level,
    run_eoc,
    run_measure_rates,
    run_solve,
)
from hsalpha.lagrangian import to_lagrangian
from hsalpha.metrics import w1
from hsalpha.projection import ProjectionConfig, project
from hsalpha.pushforward import to_eulerian
from hsalpha.reference import cosine_datum, multipeakon_datum
from oracles import besov_seminorm, brute_force_batch, brute_force_oracle, cusp_u_x, multipeakon_exact

_EPS = float(np.finfo(np.float64).eps)


def _record(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def peakon_tables():
    ks = (1, 2, 3, 4, 5, 6)
    return {
        T: run_eoc(ExperimentConfig(example="appendixA", alpha=0.5, T=T, k_range=ks))
        for T in (1.5, 3.0)
    }


@pytest.fixture(scope="module")
def cosine_tables():
    ks = (2, 3, 4, 5)
    return {
        T: run_eoc(ExperimentConfig(example="cosine", alpha=0.75, T=T, k_range=ks))
        for T in (0.6, 1.2)
    }


@pytest.fixture(scope="module")
def cusp_table():
    cfg = ExperimentConfig(example="cusp", alpha=0.5, T=3.0, k_range=(1, 2, 3, 4, 5, 6))
    return run_eoc(cfg)


def test_criterion_1_golden_snapshots():
    t0 = time.perf_counter()
    d = multipeakon_datum()
    dense = np.linspace(-1.0, 2.0, 601)
    worst_u = worst_f = 0.0
    for alpha in (0.0, 0.5, 1.0):
        s0 = to_lagrangian(project(d, ProjectionConfig(dx=0.25)), alpha=alpha)
        for t, side in ((0.0, "right"), (1.0, "right"), (2.0, "left"), (4.0, "right")):
            sol = to_eulerian(evolve(s0, t, side=side))
            xs = np.union1d(sol.u.nodes, dense)
            u_want, f_want = multipeakon_exact(alpha, t, xs, side=side)
            worst_u = max(worst_u, float(np.max(np.abs(sol.u(xs) - u_want))))
            worst_f = max(worst_f, float(np.max(np.abs(eval_cumulative(sol.mu, xs, side=side) - f_want))))
    wall = time.perf_counter() - t0
    ok = worst_u <= 1e-12 and worst_f <= 1e-12 and wall < 1.0
    _record(
        1,
        ok,
        "appendixA snapshots, t in {0, 1, 2-, 4} x alpha in {0, 1/2, 1}, dx = 1/4: "
        f"max |u| err {worst_u:.2e}, max |F| err {worst_f:.2e} (tol 1e-12), "
        f"wall {wall:.2f} s (< 1 s)",
    )


def test_criterion_2_peakon_error_tables(peakon_tables):
    worst15 = max(r[2] for r in peakon_tables[1.5].rows)
    worst3 = max(r[2] for r in peakon_tables[3.0].rows)
    wall = sum(rep.wall_time for rep in peakon_tables.values())
    ok = worst15 <= 1e-10 and worst3 <= 1e-9 and wall < 30.0
    _record(
        2,
        ok,
        f"appendixA alpha=1/2, k=1..6: max Err(3/2) = {worst15:.2e} (tol 1e-10), "
        f"max Err(3) = {worst3:.2e} (tol 1e-9), wall {wall:.1f} s (< 30 s)",
    )


def test_criterion_3_cosine_first_order_table(cosine_tables):
    eocs = {T: {k: e for k, _, _, e in rep.rows if e is not None} for T, rep in cosine_tables.items()}
    err4 = next(err for k, _, err, _ in cosine_tables[0.6].rows if k == 4)
    wall = sum(rep.wall_time for rep in cosine_tables.values())
    in_band = all(
        k in eocs[T] and 0.85 <= eocs[T][k] <= 1.15 for T in (0.6, 1.2) for k in (3, 4, 5)
    )
    ok = in_band and 0.008 <= err4 <= 0.032 and wall < 600.0
    e06 = ", ".join(f"{eocs[0.6].get(k, float('nan')):.2f}" for k in (3, 4, 5))
    e12 = ", ".join(f"{eocs[1.2].get(k, float('nan')):.2f}" for k in (3, 4, 5))
    _record(
        3,
        ok,
        f"cosine alpha=3/4: EOC(3/5) k=3..5 = [{e06}], EOC(6/5) k=3..5 = [{e12}] "
        f"(band [0.85, 1.15]); Err_4(3/5) = {err4:.3e} (band [8.0e-03, 3.2e-02]); "
        f"wall {wall:.0f} s (< 600 s)",
    )


def test_criterion_4_cusp_table(cusp_table):
    targets = {2: 0.58, 3: 0.63, 4: 0.74, 5: 0.79, 6: 0.74}
    eocs = {k: e for k, _, _, e in cusp_table.rows if e is not None}
    in_band = all(k in eocs and 0.45 <= eocs[k] <= 0.95 for k in targets)
    dev = max((abs(eocs[k] - targets[k]) for k in targets if k in eocs), default=float("inf"))
    wall = cusp_table.wall_time
    ok = in_band and dev <= 0.15 and wall < 600.0
    shown = ", ".join(f"{eocs.get(k, float('nan')):.3f}" for k in sorted(targets))
    _record(
        4,
        ok,
        f"cusp(-1, 1) alpha=1/2, T=3: EOC k=2..6 = [{shown}] (band [0.45, 0.95]), "
        f"max deviation from reported row {dev:.3f} (tol 0.15), wall {wall:.0f} s (< 600 s)",
    )


def test_criterion_5_rate_floors(cosine_tables, cusp_table):
    cos_order = cosine_tables[0.6].fitted_order()
    cusp_order = cusp_table.fitted_order()
    ok = cos_order >= 1.0 / 8.0 and cusp_order >= 1.0 / 48.0
    _record(
        5,
        ok,
        f"fitted L-inf orders: cosine {cos_order:.3f} (floor 1/8 = 0.125), "
        f"cusp {cusp_order:.3f} (floor 1/48 = {1.0 / 48.0:.4f})",
    )


def test_criterion_6_conservative_measure_rate():
    cfg = ExperimentConfig(example="cosine", alpha=0.0, T=0.6, k_range=(2, 3, 4, 5))
    rep = run_measure_rates(cfg)
    order = rep.fitted_order()
    want = float(cosine_datum().F_ac(10.0))
    defect = 0.0
    for k in cfg.k_range:
        sols = run_solve(cfg, dx_of_level(k), [cfg.T])
        defect = max(defect, max(abs(s.mu.total_mass() - want) for s in sols))
    ok = order >= 0.5 and defect <= 1e-13
    _record(
        6,
        ok,
        f"cosine alpha=0, probe 3/5: fitted W1 order {order:.2f} (>= 0.5), "
        f"max |mass - total energy| = {defect:.2e} (tol 1e-13)",
    )


def _oracle_datum(rng):
    """Ten-cell datum with two narrow steep-down cells that break before t=1."""
    widths = np.concatenate([rng.uniform(0.2, 0.6, 8), rng.uniform(0.008, 0.022, 2)])
    slopes = np.concatenate([rng.uniform(-1.4, 1.4, 8), rng.uniform(-2.8, -2.1, 2)])
    perm = rng.permutation(10)
    widths, slopes = widths[perm], slopes[perm]
    xs = np.concatenate(([0.0], np.cumsum(widths)))
    vals = np.concatenate(([0.0], np.cumsum(slopes * widths)))
    return make_multipeakon(list(zip(xs, vals)))


def _state_diff(a, b):
    return max(float(np.max(np.abs(getattr(a, f) - getattr(b, f)))) for f in ("y", "U", "V"))


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    s = to_lagrangian(project(multipeakon_datum(), ProjectionConfig(dx=0.25)), alpha=0.5)
    diff_a = _state_diff(evolve(s, 4.0), brute_force_oracle(s, 4.0, 100000))
    cases = []
    for seed in range(20):
        p = project(_oracle_datum(np.random.default_rng(seed)), ProjectionConfig(dx=1.0 / 64.0))
        cases.extend(to_lagrangian(p, alpha=alpha) for alpha in (0.0, 0.3, 1.0))
    # one march for all 60 cases; each equals its own brute_force_oracle march
    marched = brute_force_batch(cases, 1.0, 100000)
    diff_b = max(_state_diff(evolve(s0, 1.0), m) for s0, m in zip(cases, marched))
    wall = time.perf_counter() - t0
    ok = diff_a <= 1e-6 and diff_b <= 1e-6
    _record(
        7,
        ok,
        f"evolve vs 1e5-step RK4 oracle: appendixA (alpha=1/2, t=4) diff {diff_a:.2e}, "
        f"worst over 20 random data x alpha in {{0, 0.3, 1}} to t=1: {diff_b:.2e} (tol 1e-6), "
        f"wall {wall:.0f} s",
    )


def _random_measure(rng):
    lo = float(rng.uniform(-3.0, 0.0))
    inner = np.sort(rng.uniform(lo, lo + 3.0, 4))
    nodes = np.concatenate(([lo - 0.1], inner, [lo + 3.1]))
    ac_mass = float(rng.uniform(0.2, 0.8))
    vals = np.concatenate(([0.0, 0.0], np.cumsum(rng.uniform(0.1, 1.0, 3)), [0.0]))
    vals[2:] *= ac_mass / vals[-2]
    vals[-1] = vals[-2]
    atom = (float(rng.uniform(lo, lo + 3.0)), 1.0 - ac_mass)
    return EnergyMeasure(PiecewiseLinear(nodes, vals), atoms=[atom])


def test_criterion_8_invariant_sweep():
    rng = np.random.default_rng(20260816)
    cases = failures = 0

    for _ in range(400):
        d = random_multipeakon(rng)
        alpha = float(rng.uniform(0.0, 1.0))
        t = float(rng.uniform(0.0, 6.0))
        s0 = to_lagrangian(project(d, ProjectionConfig(dx=0.125)), alpha=alpha)
        s = evolve(s0, t)
        lhs = s.d_y * s.d_V
        rhs = s.d_U * s.d_U
        mag = max(1.0, *(float(np.max(np.abs(getattr(s, f)))) for f in ("xi", "y", "U", "V")))
        cancel = 4.0 * _EPS * mag * mag / np.diff(s.xi)
        ok = (
            bool(np.all(np.abs(lhs - rhs) <= 1e-11 * (np.abs(lhs) + rhs) + cancel))
            and bool(np.all(s.d_V >= 0.0))
            and bool(np.all(s.d_V <= s0.d_V * (1.0 + 1e-15)))
            and total_energy(s) <= total_energy(s0) * (1.0 + 1e-13)
            and bool(np.all(np.diff(s.V) >= -1e-12))
        )
        failures += not ok
        cases += 1

    for _ in range(300):
        d = random_multipeakon(rng)
        p = project(d, ProjectionConfig(dx=2.0 ** -int(rng.integers(1, 4))))
        want = float(d.F_ac(p.u.nodes[-1]))
        w = np.diff(p.u.nodes)
        sl = np.diff(p.u.values) / w
        ok = (
            np.array_equal(p.u.values[::2], np.asarray(d.u(p.u.nodes[::2])))
            and abs(p.mu.total_mass() - want) <= 1e-12 * max(1.0, want)
            and bool(
                np.allclose(
                    np.diff(p.mu.F_ac.values), sl * sl * w, rtol=0.0, atol=1e-12 * max(1.0, want)
                )
            )
        )
        failures += not ok
        cases += 1

    for _ in range(300):
        m1, m2, m3 = (_random_measure(rng) for _ in range(3))
        d12, d13, d23 = w1(m1, m2), w1(m1, m3), w1(m2, m3)
        ok = (
            d12 >= 0.0
            and abs(d12 - w1(m2, m1)) <= 1e-13
            and d13 <= d12 + d23 + 1e-12
            and w1(m1, m1) <= 1e-15
        )
        failures += not ok
        cases += 1

    _record(
        8,
        failures == 0 and cases >= 1000,
        "cell identity, energy bounds, projection identities, metric axioms: "
        f"{failures} failures over {cases} randomized cases",
    )


def test_criterion_9_besov_estimates():
    est_c = besov_seminorm(
        cusp_u_x(-1.0, 1.0), 1.0 / 6.0, support=(-1.0, 1.0), singularities=(-1.0, 0.0, 1.0)
    )
    peak = multipeakon_datum()
    base = besov_seminorm(peak.u_x, 0.5)
    fine = besov_seminorm(peak.u_x, 0.5, h_grid=np.geomspace(1e-4, 2.0, 80))
    drift = abs(fine.seminorm - base.seminorm)
    ok = (
        est_c.seminorm <= 40.0 / 3.0
        and np.isfinite(base.seminorm)
        and base.seminorm > 0.0
        and drift <= 0.05 * base.seminorm
    )
    _record(
        9,
        ok,
        f"cusp slope seminorm (beta=1/6) = {est_c.seminorm:.3f} (bound 40/3 = {40.0 / 3.0:.3f}); "
        f"multipeakon (beta=1/2) = {base.seminorm:.4f}, h-grid refinement drift "
        f"{drift / max(base.seminorm, 1e-300):.2%} (tol 5%)",
    )
