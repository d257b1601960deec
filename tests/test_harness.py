import dataclasses
import json
import math
import operator
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsalpha.numerics as numerics
from hsalpha.errors import ConfigError
from hsalpha.eulerian import EnergyMeasure, EulerianSolution, PiecewiseLinear, make_multipeakon
from hsalpha.harness import (
    EocReport,
    ExperimentConfig,
    _g17,
    _rel_err,
    config_from_dict,
    dx_of_level,
    initial_state,
    load_config,
    reference_for,
    run_eoc,
    run_measure_rates,
    run_solve,
    write_solution_csv,
)
from hsalpha.evolution import events, evolve
from hsalpha.lagrangian import to_lagrangian
from hsalpha.projection import ProjectionConfig, project
from hsalpha.pushforward import to_eulerian
from hsalpha.reference import ReferenceProfile, ReferenceSolution
from oracles import atoms_of, multipeakon_exact, oracle_profile, per_row_solution_csv, union_sup_rel_err


def test_dx_ladder():
    assert dx_of_level(1) == 0.25
    assert dx_of_level(3) == 2.0 ** -6


def test_config_validation():
    base = dict(example="cosine", alpha=0.5, T=1.0)
    ExperimentConfig(**base)
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "example": "square"})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "alpha": -0.2})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "T": 0.0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "k_range": ()})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "k_range": (1.5,)})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "time_samples": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig(example="multipeakon", alpha=0.0, T=1.0, points=())
    # a point's coordinates and a rung pass the number test of alpha: a
    # string or a bool (True == 1) is refused, an integral float is a rung
    for points in ((("0", "0.5"), ("2", "0")), ((True, 0.5), (2, False))):
        with pytest.raises(ConfigError, match="pairs of numbers"):
            ExperimentConfig(example="multipeakon", alpha=0.0, T=1.0, points=points)
    with pytest.raises(ConfigError, match="k_range"):
        ExperimentConfig(**{**base, "k_range": (True, 2)})
    assert ExperimentConfig(**{**base, "k_range": (2.0,)}).k_range == (2,)
    # a and b are refused for another example before the interval is read
    with pytest.raises(ConfigError, match="example cosine reads none"):
        ExperimentConfig(**{**base, "a": 2.0, "b": 1.0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "example": "cusp", "a": 1.0, "b": -1.0})
    # settings the example does not read
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "a": -2.0})
    with pytest.raises(ConfigError):
        ExperimentConfig(**{**base, "points": ((0.0, 1.0),)})
    ExperimentConfig(**{**base, "a": -1.0, "b": 1.0})  # the defaults
    # k_range is sorted and deduplicated
    cfg = ExperimentConfig(**{**base, "k_range": (3, 1, 1)})
    assert cfg.k_range == (1, 3)


def test_config_from_dict_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"example": "cosine", "alpha": 0.0, "T": 1.0, "mesh": 4})
    with pytest.raises(ConfigError):
        config_from_dict(["not", "a", "dict"])
    cfg = config_from_dict(
        {"example": "multipeakon", "alpha": 0.0, "T": 1.0, "points": [[0, 0.5], [0.5, 0]]}
    )
    assert cfg.points == ((0.0, 0.5), (0.5, 0.0))


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"example": "cosine", "alpha": 0.25, "T": 0.5}))
    assert load_config(str(path)).alpha == 0.25
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))


def test_run_solve_matches_closed_form_at_collapse():
    cfg = ExperimentConfig(example="appendixA", alpha=0.5, T=2.0)
    final = run_solve(cfg, 0.25)
    assert final.time == 2.0
    xs = np.union1d(final.u.nodes, np.linspace(-1.0, 2.0, 101))
    u_ref, _ = multipeakon_exact(0.5, 2.0, xs)
    assert np.max(np.abs(final.u(xs) - u_ref)) <= 1e-12
    assert atoms_of(final.mu) == ((0.75, 0.25),)


@pytest.mark.parametrize(
    "cfg, dx, times",
    [
        # cusp k=3: 64 breaking times in (0.39, 2.994]
        (ExperimentConfig(example="cusp", alpha=0.5, T=3.0), 2.0**-6, lambda ev: [ev[1], 1.5, ev[-1], 3.0]),
        # appendixA: every cell breaks at t = 2
        (ExperimentConfig(example="appendixA", alpha=0.5, T=3.0), 0.25, lambda ev: [1.0, ev[0], 3.0]),
    ],
    ids=["cusp", "appendixA"],
)
def test_run_solve_maps_each_time_from_t0(cfg, dx, times):
    # the snapshot at each final time T is the one-map snapshot of the t=0
    # state bit for bit, at times before, at and after breaking events
    s0 = initial_state(cfg, dx)
    t_list = times(events(s0, cfg.T).times)
    assert t_list == sorted(set(t_list)) and t_list[-1] == cfg.T
    for t in t_list:
        sol = run_solve(dataclasses.replace(cfg, T=t), dx)
        assert sol.time == t
        want = to_eulerian(evolve(s0, t))
        assert sol.u.nodes.tobytes() == want.u.nodes.tobytes()
        assert sol.u.values.tobytes() == want.u.values.tobytes()
        assert sol.mu.F_ac.values.tobytes() == want.mu.F_ac.values.tobytes()
        assert atoms_of(sol.mu) == atoms_of(want.mu)


def _traced_peak(f):
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_solve_one_time_costs_the_one_expression():
    # the t=0 state is dropped before the pushforward, so a solve peaks as
    # the one expression does (1.19x it when the state was held)
    cfg = ExperimentConfig(example="cosine", alpha=0.5, T=0.7)
    dx = 2.0**-12
    run_solve(cfg, dx)  # first calls made, as in each measured one
    want, want_peak = _traced_peak(lambda: to_eulerian(evolve(initial_state(cfg, dx), cfg.T)))
    got, peak = _traced_peak(lambda: run_solve(cfg, dx))
    assert peak <= 1.01 * want_peak
    for f in ("u.nodes", "u.values", "mu.F_ac.values", "mu.atom_positions", "mu.atom_masses"):
        a, b = (operator.attrgetter(f)(sol) for sol in (got, want))
        assert a.tobytes() == b.tobytes()
    assert got.time == want.time


def test_run_solve_energy_monotone():
    cfg = ExperimentConfig(example="appendixA", alpha=0.7, T=3.0)
    sols = [run_solve(dataclasses.replace(cfg, T=t), 0.25) for t in (0.5, 1.5, 2.0, 2.5, 3.0)]
    masses = [s.mu.total_mass() for s in sols]
    assert all(b <= a + 1e-14 for a, b in zip(masses, masses[1:]))
    # the event at t = 2.0 removes alpha of the energy 1/2
    assert masses[1] == 0.5 and masses[2] == pytest.approx(0.15, rel=1e-14)


def test_alpha_irrelevant_before_first_event():
    lo = ExperimentConfig(example="cosine", alpha=0.0, T=0.5)
    hi = ExperimentConfig(example="cosine", alpha=0.9, T=0.5)
    a = run_solve(lo, 2.0 ** -4)
    b = run_solve(hi, 2.0 ** -4)
    assert np.array_equal(a.u.nodes, b.u.nodes)
    assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-15


def test_fine_mesh_snapshot_tracks_reference_through_breaking():
    # non-dyadic mesh, past the first breaking time: the whole pipeline stays
    # within plotting resolution of the reference profile
    t = 4.0 / math.pi
    cfg = ExperimentConfig(example="cosine", alpha=0.75, T=t)
    sol = run_solve(cfg, 1e-3)
    ref = ReferenceSolution(family="cosine", alpha=0.75)
    prof = ref.profile(t, x_lo=float(sol.u.nodes[0]), x_hi=float(sol.u.nodes[-1]))
    xs = sol.u.nodes[::7]
    sup = np.max(np.abs(sol.u(xs) - prof.u_at(xs)))
    assert sup <= 5e-3


def test_eoc_report_recompute_and_suppression(tmp_path):
    # machine-precision ladder: every error below the noise floor, all EOC
    # entries suppressed rather than reported as garbage
    cfg = ExperimentConfig(example="appendixA", alpha=0.5, T=1.5, k_range=(1, 2, 3))
    rep = run_eoc(cfg)
    errs = [row[2] for row in rep.rows]
    assert max(errs) <= 1e-10
    assert all(row[3] is None for row in rep.rows)

    # resolved ladder: stored EOC matches recomputation from the err column
    w_cfg = ExperimentConfig(example="cosine", alpha=0.0, T=0.5, k_range=(2, 3, 4))
    w_rep = run_measure_rates(w_cfg)
    rows = w_rep.rows
    assert rows[0][3] is None
    for (k0, dx0, e0, _), (k1, dx1, e1, eoc) in zip(rows, rows[1:]):
        assert eoc == pytest.approx(math.log(e0 / e1) / math.log(dx0 / dx1), abs=1e-12)
    assert w_rep.fitted_order() >= 0.5


def test_measure_rates_requires_conservation():
    cfg = ExperimentConfig(example="cosine", alpha=0.5, T=0.5)
    with pytest.raises(ConfigError):
        run_measure_rates(cfg)


def test_measure_rates_exact_projection_flagged():
    # the two-peak datum is projected exactly on every dyadic mesh, so the
    # transport distances vanish and order estimates are withheld
    cfg = ExperimentConfig(example="appendixA", alpha=0.0, T=1.0, k_range=(1, 2))
    rep = run_measure_rates(cfg)
    for _, _, err, eoc in rep.rows:
        assert err <= 1e-13
        assert eoc is None
    with pytest.raises(ConfigError):
        rep.fitted_order()  # no rungs above the floor to fit


def test_fitted_order_synthetic():
    rows = ((1, 0.25, 0.25 ** 1.5, None), (2, 0.0625, 0.0625 ** 1.5, 1.5))
    rep = EocReport(example="cosine", alpha=0.0, T=1.0, rows=rows)
    assert rep.fitted_order() == pytest.approx(1.5, abs=1e-13)


def test_csv_outputs_deterministic(tmp_path):
    ladders = [
        (run_eoc, dict(example="appendixA", alpha=0.5, T=2.5), "eoc_appendixA_alpha0.5_T2.5.csv"),
        (run_measure_rates, dict(example="cosine", alpha=0.0, T=0.5), "w1_cosine_alpha0_T0.5.csv"),
    ]
    for run, kw, name in ladders:
        out_a, out_b = tmp_path / f"{name}.a", tmp_path / f"{name}.b"
        for out in (out_a, out_b):
            run(ExperimentConfig(k_range=(1, 2), out_dir=str(out), **kw))
        assert [p.name for p in out_a.iterdir()] == [name]
        blob_a = (out_a / name).read_bytes()
        assert blob_a == (out_b / name).read_bytes()
        lines = blob_a.decode().splitlines()
        assert lines[0] == "k,dx,err,eoc"
        assert lines[1].endswith(",")  # first rung carries a blank eoc


def test_solution_csv_atom_rows(tmp_path):
    cfg = ExperimentConfig(example="appendixA", alpha=0.5, T=2.0)
    sol = run_solve(cfg, 0.25)
    path = tmp_path / "snap.csv"
    write_solution_csv(sol, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u,F"
    at_atom = [ln for ln in lines[1:] if ln.startswith("0.75,")]
    assert len(at_atom) == 2  # left and right cumulative at the point mass
    f_left, f_right = (float(ln.split(",")[2]) for ln in at_atom)
    assert (f_left, f_right) == (0.0, 0.25)


def _two_peak_with_atoms(t):
    datum = make_multipeakon([(0.0, 0.5), (0.5, 0.0)])
    datum = dataclasses.replace(datum, atoms=((0.25, 0.5), (1.0, 0.25)))
    s = to_lagrangian(project(datum, ProjectionConfig(dx=2.0**-4)), alpha=0.5)
    return to_eulerian(evolve(s, t))


def _hand_built(nodes, u_vals, f_vals, atoms):
    mu = EnergyMeasure(PiecewiseLinear(nodes, f_vals), atoms)
    return EulerianSolution(PiecewiseLinear(nodes, u_vals), mu, time=0.0)


def _long_with_atoms():
    # more rows than one written block, with atoms on both sides of and at
    # the block edge, between nodes and beyond the last node
    nodes = np.linspace(-1.0, 1.0, 9001)
    u_vals = np.sin(7.0 * nodes)
    f_vals = np.cumsum(np.concatenate(([0.0], np.diff(u_vals) ** 2 / np.diff(nodes))))
    atoms = ((nodes[4090], 0.125), (nodes[4095], 0.5), ((nodes[4096] + nodes[4097]) / 2, 1e-3), (2.0, 3.0))
    return _hand_built(nodes, u_vals, f_vals, atoms)


@pytest.mark.parametrize(
    "snapshot",
    [
        lambda: run_solve(ExperimentConfig(example="cosine", alpha=0.5, T=1.0), 2.0**-6),
        lambda: run_solve(ExperimentConfig(example="appendixA", alpha=0.5, T=2.0), 0.25),
        lambda: _two_peak_with_atoms(0.0),
        lambda: _two_peak_with_atoms(4.0),
        lambda: _hand_built([0.3], [-0.0], [0.0], ()),
        lambda: _hand_built([0.3], [1.5], [0.0], ((0.3, 0.25),)),
        lambda: _hand_built([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], ((-0.5, 0.25), (0.375, 0.5))),
        _long_with_atoms,
    ],
    ids=["cosine", "appendixA-atom", "atoms-t0", "atoms-T4", "one-node", "one-node-atom", "atom-between", "blocks"],
)
def test_solution_csv_matches_per_row_writer(tmp_path, snapshot):
    sol = snapshot()
    write_solution_csv(sol, str(tmp_path / "blocks.csv"))
    per_row_solution_csv(sol, str(tmp_path / "rows.csv"))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _assert_g17(xs):
    """_g17 gives the bytes of "%.17g" per value, with one separator or two."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    assert _g17(xs[:, None], b"\n") == "".join("%.17g\n" % x for x in xs.tolist()).encode()
    rows = np.column_stack((xs, xs[::-1]))
    want = "".join("%.17g,%.17g\n" % (x, y) for x, y in rows.tolist())
    assert _g17(rows, b",\n") == want.encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_g17_equals_percent_format(xs):
    _assert_g17(xs)


def test_g17_around_powers_of_ten():
    # the 64 doubles on each side of the double nearest 10^X: where log10
    # guesses the exponent one off and the 17-digit rounding can carry
    for X in range(-5, 18):
        bits = np.array([float(f"1e{X}")]).view(np.int64) + np.arange(-64, 65)
        near = bits.view(np.float64)
        _assert_g17(np.concatenate((near, -near)))


def test_g17_rounds_exact_ties_to_even():
    # odd m/4 in [2^50, 2^51) and odd m/8 in [2^49, 2^50) end halfway between
    # two 17-digit decimals
    m = 2 * np.random.default_rng(5).integers(2**51, 2**52, 2000) + 1
    _assert_g17(np.concatenate((m / 4.0, m / 8.0, -m / 4.0)))


def test_g17_zeros_subnormals_extremes_and_each_exponent():
    tiny = np.finfo(np.float64).tiny
    big = np.finfo(np.float64).max
    edges = [0.0, -0.0, 5e-324, -5e-324, tiny - 5e-324, tiny, big, -big, np.inf, -np.inf, np.nan]
    # one value per fixed-notation exponent X in [-4, 16], with 17, 2 and 1
    # significant digits, and the exponents either side
    each = [float(f"{d}e{X}") for X in range(-6, 19) for d in ("1.2345678901234567", "1.5", "1")]
    _assert_g17(edges + each + [-x for x in each])


@pytest.mark.parametrize(
    "kw", [dict(T=100.0, k_range=(1, 2), a=-2.0, b=0.5), dict(T=1e153, k_range=(1,), time_samples=2)]
)
def test_cusp_ladder_at_large_T_is_not_corrupt(kw):
    # the nodes reach |y| of about 3e3 at T = 100 (cusp on [-2, 1/2]) and
    # about 2e305 at T = 1e153: steps down of 1.1e-12 and up to 5e291 there,
    # within 1e-12 max|y|, are round-off, not a corrupt state
    rep = run_eoc(ExperimentConfig(example="cusp", alpha=1.0, **kw))
    assert [r[0] for r in rep.rows] == list(kw["k_range"])
    assert all(0.0 < r[2] < 1.0 for r in rep.rows)


def _sup_rel_err(sol, prof):
    """run_eoc's error of a snapshot against a reference profile."""
    u = sol.u
    return _rel_err(u.nodes, u.values, prof.knots, prof.u_at(prof.knots))


def test_sup_rel_err_equals_union_form():
    # the knots share some nodes, straddle the node range and leave gaps
    rng = np.random.default_rng(11)
    for _ in range(300):
        nodes = np.unique(rng.uniform(-2.0, 2.0, int(rng.integers(2, 40))))
        extra = rng.uniform(-2.5, 2.5, int(rng.integers(1, 40)))
        shared = rng.choice(nodes, size=int(rng.integers(0, nodes.size + 1)), replace=False)
        knots = np.unique(np.concatenate((extra, shared)))
        knot_u = rng.normal(size=knots.size)
        sol = types.SimpleNamespace(u=PiecewiseLinear(nodes, rng.normal(size=nodes.size)))
        prof = ReferenceProfile(u_at=lambda x, k=knots, v=knot_u: np.interp(x, k, v), measure=None, knots=knots)
        assert _sup_rel_err(sol, prof) == union_sup_rel_err(sol, prof)


def test_sup_rel_err_equals_union_form_on_the_two_peak_profile():
    cfg = ExperimentConfig(example="appendixA", alpha=0.5, T=3.0)
    ref = reference_for(cfg)
    s0 = initial_state(cfg, 2.0 ** -6)
    for sol in [to_eulerian(evolve(s0, t)) for t in (0.5, 2.0, 3.0)]:
        prof = ref.profile(sol.time)
        assert _sup_rel_err(sol, prof) == union_sup_rel_err(sol, prof)


def _from_scratch_eoc_errors(cfg, chained=True, widened_bulk=False):
    """run_eoc's Err column with a from-scratch table (for appendixA, which
    has none, profile()'s; the table with its bulk over the widened window if
    widened_bulk), snapshots chained sample to sample (or each evolved from
    t=0), and the union-form error at every sample."""
    ref = reference_for(cfg)
    samples = np.linspace(0.0, cfg.T, cfg.time_samples)
    errs = []
    for k in cfg.k_range:
        s0 = s = initial_state(cfg, dx_of_level(k))
        worst = 0.0
        for t in samples:
            s = evolve(s if chained else s0, float(t))
            sol = to_eulerian(s)
            nodes = sol.u.nodes
            args = float(t), float(nodes[0]), float(nodes[-1]), max(4001, 3 * nodes.size)
            if cfg.example == "appendixA":
                prof = ref.profile(*args)
            else:
                prof = oracle_profile(ref, *args, widened_bulk)
            worst = max(worst, union_sup_rel_err(sol, prof))
        errs.append(worst)
    return errs


@pytest.mark.parametrize(
    "cfg, chained",
    [
        (ExperimentConfig(example="cusp", alpha=0.5, T=3.0, k_range=(4, 5)), True),
        (ExperimentConfig(example="cosine", alpha=0.75, T=1.2, k_range=(2, 3, 4)), True),
        # every cell breaks at t = 2: clusters of tied breaking times; the
        # errors are round-off (~1e-14), and chaining moves them to ~4e-13
        (ExperimentConfig(example="appendixA", alpha=0.5, T=2.5, k_range=(1, 2, 3)), False),
        # T lies past the last break (3 * 0.7^(1/3)), where r(t) saturates
        (ExperimentConfig(example="cusp", alpha=1.0, T=4.0, k_range=(3, 4), a=-0.7, b=1.3), True),
        # a breaking time near t = 2.39 reads more than every sample at k = 3
        # and 4, and the grid holds the samples alone; chaining moves the
        # errors by round-off
        (ExperimentConfig(example="cusp", alpha=0.5, T=3.0, k_range=(3, 4), a=-2.0, b=-0.5), False),
    ],
    ids=["cusp", "cosine", "appendixA", "cusp-asymmetric", "cusp-below-zero"],
)
def test_run_eoc_errors_equal_from_scratch_tables(cfg, chained):
    errs = [row[2] for row in run_eoc(cfg).rows]
    assert errs == _from_scratch_eoc_errors(cfg, chained)
    # the knots the widened bulk adds lie where u is constant
    assert errs == _from_scratch_eoc_errors(cfg, chained, widened_bulk=True)


def test_run_eoc_cusp_fine_rungs_tend_to_two_thirds():
    # 8196 to 131076 cells: the rungs stay cheap, as the grid does not grow
    # with the cells, and the order tends to the cusp's 2/3
    cfg = ExperimentConfig(example="cusp", alpha=0.5, T=3.0, k_range=(6, 7, 8))
    _, _, errs, eocs = zip(*run_eoc(cfg).rows)
    assert errs[0] > errs[1] > errs[2]
    assert all(abs(eoc - 2.0 / 3.0) < 0.01 for eoc in eocs[1:])


def test_run_eoc_cusp_below_zero_converges():
    # an interval b < 0 breaks from t = 3 |b|^(1/3) on, up to b and not 0
    cfg = ExperimentConfig(example="cusp", alpha=0.5, T=6.0, k_range=(3, 4, 5), a=-1.0, b=-0.5)
    assert all(row[2] < 1e-4 for row in run_eoc(cfg).rows)


@pytest.mark.parametrize(
    "cfg, sizes",
    [
        (ExperimentConfig(example="cusp", alpha=0.5, T=3.0, k_range=(2, 3)), (512, 2**40)),
        (ExperimentConfig(example="cosine", alpha=0.75, T=1.2, k_range=(2,)), (512, 2**40)),
        (ExperimentConfig(example="appendixA", alpha=0.5, T=2.5, k_range=(2,)), (512, 2**40)),
        # at 1 float a table of one time is a tile per static point (1,100
        # to 3,900 per row), so the three families take it on a coarse rung
        # and few times (the cosine's 0.6 and 1.2 lie before and after its
        # break, and the two-peak datum's 2 is its break)
        (ExperimentConfig(example="cusp", alpha=0.5, T=3.0, k_range=(1,), time_samples=3), (1,)),
        (ExperimentConfig(example="cosine", alpha=0.75, T=1.2, k_range=(1,), time_samples=3), (1,)),
        (ExperimentConfig(example="appendixA", alpha=0.5, T=4.0, k_range=(1,), time_samples=3), (1,)),
    ],
    ids=["cusp", "cosine", "appendixA", "cusp-1-float", "cosine-1-float", "appendixA-1-float"],
)
def test_run_eoc_rows_do_not_depend_on_the_chunk_size(cfg, sizes, monkeypatch):
    # one time per chunk (at 1 float, also a block edge at every entry of
    # the 1-d passes), a table row of one time in tiles (at 512 floats, 5 to
    # 8 tiles per row), and every time of a rung in one chunk (the cosine
    # rung then mixes times before and after its first break)
    rows = run_eoc(cfg).rows
    for floats in sizes:
        monkeypatch.setattr(numerics, "_CHUNK_FLOATS", floats)
        assert run_eoc(cfg).rows == rows


def test_run_eoc_leaves_earlier_results_alone():
    # a state and a table taken before a ladder share no memory with the
    # rungs' workspaces
    cfg = ExperimentConfig(example="cusp", alpha=0.5, T=3.0, k_range=(3, 4))
    state = evolve(initial_state(cfg, dx_of_level(4)), 1.5)
    prof = ReferenceSolution(family="cusp", alpha=0.5).profile(1.5, n_base=6159)
    xs = np.linspace(-3.0, 4.0, 1001)
    fields = ("y", "U", "V", "d_y", "d_U", "d_V", "broken")
    before = [getattr(state, f).copy() for f in fields]
    before += [prof.knots.copy(), prof.u_at(prof.knots), prof.u_at(xs), prof.measure().F_ac(xs)]
    run_eoc(cfg)
    after = [getattr(state, f) for f in fields]
    after += [prof.knots, prof.u_at(prof.knots), prof.u_at(xs), prof.measure().F_ac(xs)]
    assert all(np.array_equal(x, y) for x, y in zip(before, after))


def test_interleaved_rung_rows_equal_rows_alone():
    # the generators of table rows of separate _rung calls work in separate
    # workspaces, so drawing rows from several in turn gives what each gives
    # alone: the tables of profile() at its times
    cusp = ReferenceSolution(family="cusp", alpha=0.5)
    cosine = ReferenceSolution(family="cosine", alpha=0.75)
    t = np.linspace(0.0, 3.0, 40)
    jobs = [
        (cusp, t, np.full(40, -1.2), np.full(40, 2.0)),
        (cusp, t[::-1] * 0.5, np.full(40, -1.0), np.full(40, 1.5)),
        (cosine, t * 0.4, np.full(40, 0.0), np.full(40, 4.0)),
    ]
    gens = []
    for ref, *args in jobs:
        rows, _ = ref._rung(n_base=4001)
        gens.append(rows(*args))
    interleaved = [[], [], []]
    for _ in range(40):
        for got, gen in zip(interleaved, gens):
            got.append(next(gen))
    for got, (ref, *args) in zip(interleaved, jobs):
        for (knots, knot_u), tj, lo, hi in zip(got, *args):
            prof = ref.profile(tj, x_lo=lo, x_hi=hi, n_base=4001)
            assert np.array_equal(knots, prof.knots) and np.array_equal(knot_u, prof.u_at(prof.knots))


def test_measure_rate_rung_memory_stays_within_its_arrays():
    # a cosine k=8 rung (262k cells): every stage holds its inputs, its
    # outputs and a few blocks of _CHUNK_FLOATS, so the traced peak is about
    # that of evolve (its input state and its output state); with
    # whole-array stages it was 69.9 MiB, set by w1
    cfg = ExperimentConfig(example="cosine", alpha=0.0, T=0.6, k_range=(8,))
    tracemalloc.start()
    try:
        report = run_measure_rates(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.rows[0][2] == 8.670839974371832e-10
    assert peak <= 30 * 2**20
