import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsalpha.eulerian as eulerian
import hsalpha.numerics as numerics
from hsalpha.errors import CorruptStateError
from hsalpha.eulerian import eval_cumulative
from hsalpha.evolution import events, evolve, total_energy
from hsalpha.harness import ExperimentConfig, initial_state
from hsalpha.lagrangian import LagrangianState
from hsalpha.pushforward import ATOM_WIDTH_TOL, _u_rows, to_eulerian
from oracles import _node_picks, atoms_of, multipeakon_exact, whole_array_to_eulerian


def test_atom_appears_at_collapse(peakon_state):
    # just before the event all energy sits in one point mass at x = 3/4;
    # just after, the fraction alpha = 1/2 of it is gone
    before = to_eulerian(evolve(peakon_state, 2.0, side="left"))
    assert atoms_of(before.mu) == ((0.75, 0.5),)
    after = to_eulerian(evolve(peakon_state, 2.0))
    assert atoms_of(after.mu) == ((0.75, 0.25),)
    # u stays single valued through the collapse
    assert after.u(0.75) == pytest.approx(0.25, abs=1e-14)
    assert eval_cumulative(after.mu, 0.75, side="left") == pytest.approx(0.0, abs=1e-14)
    assert eval_cumulative(after.mu, 0.75, side="right") == pytest.approx(0.25, abs=1e-14)


def test_matches_closed_form_before_and_after(peakon_state):
    for t in (1.0, 4.0):
        sol = to_eulerian(evolve(peakon_state, t))
        assert sol.time == t
        xs = np.linspace(-1.0, 3.0, 257)
        u_ref, f_ref = multipeakon_exact(0.5, t, xs)
        assert np.max(np.abs(sol.u(xs) - u_ref)) <= 1e-12
        f_num = np.array([eval_cumulative(sol.mu, float(x), side="right") for x in xs])
        assert np.max(np.abs(f_num - f_ref)) <= 1e-12


def test_cumulative_reconstruction_properties(peakon_state):
    sol = to_eulerian(evolve(peakon_state, 2.5))
    f = sol.mu.F_ac.values
    assert f[0] == 0.0
    assert np.all(np.diff(f) >= 0.0)
    assert np.all(np.diff(sol.u.nodes) > 0.0)


def test_corrupt_state_rejected(peakon_state):
    s = evolve(peakon_state, 1.0)
    bad = dataclasses.replace(s, y=s.y[::-1].copy())
    with pytest.raises(CorruptStateError):
        to_eulerian(bad)


def test_roundoff_residue_absorbed(peakon_state):
    s = evolve(peakon_state, 1.0)
    y = s.y.copy()
    y[1] = y[0] - 1e-13  # inside the round-off band, must not raise
    sol = to_eulerian(dataclasses.replace(s, y=y))
    assert np.all(np.diff(sol.u.nodes) > 0.0)


def test_energy_conserved_through_pushforward(peakon_state):
    for t in (0.0, 1.5, 2.0, 3.0):
        s = evolve(peakon_state, t)
        sol = to_eulerian(s)
        assert math.isclose(sol.mu.total_mass(), s.V_inf, rel_tol=0.0, abs_tol=1e-14)


def test_atoms_split_by_a_nearly_collapsed_cell_merge():
    # atom cell, a real cell of width 1.6e-14 that does not move y, atom
    # cell: one point mass carrying both masses
    d_y = np.array([1.0, 0.0, 1.6e-14, 0.0, 1.0])
    d_V = np.array([1.0, 0.5, 0.0, 0.25, 1.0])
    xi = np.arange(6.0)
    s = LagrangianState(
        xi=xi,
        y=np.array([0.0, 1.0, 1.0, 1.0, 1.0, 2.0]),
        U=np.zeros(6),
        V=np.concatenate(([0.0], np.cumsum(d_V))),
        d_y=d_y,
        d_U=np.zeros(5),
        d_V=d_V,
        tau=np.full(5, np.inf),
        broken=np.zeros(5, dtype=bool),
        alpha=0.5,
        time=0.0,
        V_inf=2.75,
    )
    sol = to_eulerian(s)
    assert atoms_of(sol.mu) == ((1.0, 0.75),)
    assert sol.mu.total_mass() == 2.75


def test_run_solve_with_atoms_split_by_a_nearly_collapsed_cell():
    # the state chained from event to event: at the second event time,
    # cells 10241 and 10243 are atoms at one y and cell 10242 between them
    # has d_y = 1.6e-14
    cfg = ExperimentConfig(example="cosine", alpha=0.5, T=1.2)
    t = 0.6366197845818602
    s = s0 = initial_state(cfg, 2.0**-12)
    times = events(s0, t).times
    assert len(times) == 2 and times[-1] == t
    for tau in times:
        s = evolve(s, tau)
    assert s.d_y[10242] == pytest.approx(1.6e-14, rel=0.1)
    sol = to_eulerian(s)
    assert sol.time == t and sol.mu.atom_positions.size == 2
    energy = total_energy(evolve(s0, t))
    assert math.isclose(sol.mu.total_mass(), energy, rel_tol=1e-14)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 5),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_u_rows_equal_node_picks(rows, n, seed):
    # many nodes at one y, real cells of no width in y, round-off drops:
    # the picks made for all rows at once are _node_picks' row by row
    rng = np.random.default_rng(seed)
    steps = rng.choice([0.0, 0.0, 0.25, -1e-13], size=(rows, n))
    y = np.concatenate((np.zeros((rows, 1)), np.cumsum(steps, axis=1)), axis=1)
    U = rng.standard_normal((rows, n + 1))
    d_y = rng.choice([0.0, 1e-15, 2.0 * ATOM_WIDTH_TOL, 1.0], size=(rows, n))
    want = []
    for y_j, U_j, d_y_j in zip(y, U, d_y):
        y_j = np.maximum.accumulate(y_j)
        sel, keep = _node_picks(y_j, d_y_j > ATOM_WIDTH_TOL)
        want.append((y_j[sel[keep]], U_j[sel[keep]]))
    got = _u_rows(y.copy(), U, d_y)
    assert len(got) == rows
    for (nodes, values), (w_nodes, w_values) in zip(got, want):
        assert np.array_equal(nodes, w_nodes) and np.array_equal(values, w_values)


def _assert_same_solution(got, want):
    pairs = [
        (got.u.nodes, want.u.nodes),
        (got.u.values, want.u.values),
        (got.mu.F_ac.nodes, want.mu.F_ac.nodes),
        (got.mu.F_ac.values, want.mu.F_ac.values),
        (got.mu.atom_positions, want.mu.atom_positions),
        (got.mu.atom_masses, want.mu.atom_masses),
    ]
    for a, b in pairs:
        assert a.tobytes() == b.tobytes()
    assert got.time == want.time


@pytest.mark.parametrize(
    "example, times",
    [("cusp", (0.0, 1.5, 3.0)), ("cosine", (0.6, 1.2)), ("appendixA", (1.0, 2.0, 2.5))],
)
def test_to_eulerian_blocks_equal_whole_array_pushforward(example, times, monkeypatch):
    # the cells are taken in blocks with the running max, the compensated
    # F sum and the last node carried: blocks one short of, equal to and one
    # past the cell count, and several blocks, give the whole-array
    # solution field for field, atoms (at collapses) included
    # (blocks of 7 cells all real, taken whole, and blocks with atom or
    # empty cells among them, gathered)
    cfg = ExperimentConfig(example=example, alpha=0.5, T=3.0)
    s0 = initial_state(cfg, 2.0**-6)
    collapses = events(s0, max(times)).times
    n_atoms = 0
    kinds = set()
    for t in times + collapses[:: max(1, len(collapses) // 3)]:
        for side in ("left", "right"):
            s = evolve(s0, t, side=side)
            want = whole_array_to_eulerian(s)
            n_atoms += want.mu.atom_positions.size
            real = (s.d_y > ATOM_WIDTH_TOL)[: s.n_cells // 7 * 7].reshape(-1, 7)
            kinds |= set(real.all(axis=1).tolist())
            for chunk in (s.n_cells + 1, s.n_cells, s.n_cells - 1, 7):
                monkeypatch.setattr(numerics, "_CHUNK_FLOATS", chunk)
                _assert_same_solution(to_eulerian(s), want)
    assert n_atoms > 0
    assert kinds == {True, False}


def test_to_eulerian_blocks_carry_the_running_maxima(peakon_state, monkeypatch):
    # round-off residue inside the 1e-12 band: y steps down for two nodes
    # and a real cell's mass is a tiny negative at many places, block edges
    # among them, so the running max of y and of F must carry from block to
    # block
    s = evolve(initial_state(ExperimentConfig(example="cusp", alpha=0.5, T=3.0), 2.0**-6), 1.5)
    y, d_V = s.y.copy(), s.d_V.copy()
    for k in range(7, s.n_cells, 7):
        y[k] = y[k + 1] = y[k - 1] - 5e-13
    d_V[5::11] = -1e-13
    s = dataclasses.replace(s, y=y, d_V=d_V)
    want = whole_array_to_eulerian(s)
    for chunk in (3, 7, 64):
        monkeypatch.setattr(numerics, "_CHUNK_FLOATS", chunk)
        _assert_same_solution(to_eulerian(s), want)


def test_to_eulerian_does_not_check_its_nodes_again(peakon_state, monkeypatch):
    # u and F_ac share one node array, which _Kept makes strictly
    # increasing from the checked positions: no scan checks it again
    checked = []
    increasing = eulerian._increasing
    monkeypatch.setattr(eulerian, "_increasing", lambda x: checked.append(x) or increasing(x))
    sol = to_eulerian(evolve(peakon_state, 2.5))
    assert sol.mu.F_ac.nodes is sol.u.nodes
    assert not any(x is sol.u.nodes for x in checked)
    assert np.all(np.diff(sol.u.nodes) > 0.0)
