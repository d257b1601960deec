import dataclasses
import math
import warnings

import numpy as np
import pytest

import hsalpha.lagrangian as lagrangian
import hsalpha.numerics as numerics
from hsalpha.errors import ConfigError
from hsalpha.eulerian import EnergyMeasure, InitialDatum, PiecewiseConstant, PiecewiseLinear
from hsalpha.evolution import evolve
from hsalpha.lagrangian import LagrangianState, to_lagrangian
from hsalpha.projection import ProjectionConfig, project
from hsalpha.pushforward import to_eulerian
from hsalpha.reference import cosine_datum, cusp_datum, multipeakon_datum

from conftest import one_cell_tau, random_multipeakon
from oracles import atoms_of, slopes, whole_array_to_lagrangian


def test_ramp_state_closed_form(peakon_state):
    """On the down-slope the exact change of variables is y = xi/2,
    U = (1 - xi)/2, V = xi/2 for xi in [0, 1]."""
    s = peakon_state
    on_ramp = (s.xi >= 0.0) & (s.xi <= 1.0)
    assert np.count_nonzero(on_ramp) >= 3
    assert np.allclose(s.y[on_ramp], s.xi[on_ramp] / 2.0, atol=1e-15)
    assert np.allclose(s.U[on_ramp], (1.0 - s.xi[on_ramp]) / 2.0, atol=1e-15)
    assert np.allclose(s.V[on_ramp], s.xi[on_ramp] / 2.0, atol=1e-15)
    # slope -1 cells break at exactly t = 2, flat cells never
    ramp_cells = s.d_U < 0.0
    assert np.all(s.tau[ramp_cells] == 2.0)
    assert np.all(np.isinf(s.tau[~ramp_cells]))
    assert s.time == 0.0
    assert math.isclose(s.V_inf, 0.5, rel_tol=0.0, abs_tol=1e-15)


def test_cell_identities(peakon_state):
    s = peakon_state
    assert np.allclose(s.d_y + s.d_V, 1.0, atol=1e-14)
    assert np.allclose(s.d_y * s.d_V, s.d_U ** 2, atol=1e-14)


def test_cell_identities_random_datum():
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = random_multipeakon(rng)
        s = to_lagrangian(project(d, ProjectionConfig(dx=0.125)))
        assert np.allclose(s.d_y + s.d_V, 1.0, atol=1e-13)
        assert np.allclose(s.d_y * s.d_V, s.d_U ** 2, atol=1e-13)


def test_zero_energy_datum_is_rigid():
    d = InitialDatum(
        u=PiecewiseLinear(np.array([0.0, 1.0]), np.array([2.0, 2.0])),
        u_x=PiecewiseConstant(np.array([0.0, 1.0]), np.array([0.0])),
        F_ac=PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0])),
        support_hint=(0.0, 1.0),
    )
    s = to_lagrangian(project(d, ProjectionConfig(dx=0.25)))
    assert np.array_equal(s.xi, s.y)
    assert np.all(s.V == 0.0)
    assert np.all(s.d_y == 1.0)
    assert np.all(s.d_U == 0.0)
    assert s.V_inf == 0.0
    assert np.all(np.isinf(s.tau))


def test_pure_atom_cell():
    flatu = PiecewiseLinear(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
    d = InitialDatum(
        u=flatu,
        u_x=PiecewiseConstant(np.array([-1.0, 1.0]), np.array([0.0])),
        F_ac=PiecewiseLinear(np.array([-1.0, 1.0]), np.array([0.0, 0.0])),
        atoms=((0.0, 1.0),),
        support_hint=(-1.0, 1.0),
    )
    s = to_lagrangian(project(d, ProjectionConfig(dx=0.25)), alpha=0.7)
    atom_cells = np.flatnonzero(s.d_V == 1.0)
    assert atom_cells.size == 1
    c = atom_cells[0]
    assert s.d_y[c] == 0.0
    assert s.d_U[c] == 0.0
    assert s.widths[c] == 1.0
    # initial point masses count as already broken: tau = 0, never dissipate
    assert s.tau[c] == 0.0
    assert math.isclose(s.V_inf, 1.0, rel_tol=0.0, abs_tol=1e-15)
    # and the atom survives the round trip untouched
    sol = to_eulerian(s)
    assert atoms_of(sol.mu) == ((0.0, 1.0),)


def test_breaking_time_examples():
    assert one_cell_tau(0.5, -0.5) == 2.0
    assert one_cell_tau(0.5, 1.0) == math.inf
    assert one_cell_tau(0.5, 0.0) == math.inf
    assert one_cell_tau(0.0, 0.0) == 0.0
    # collapsed cell with negative slope: breaks immediately, not at -0.0
    t = one_cell_tau(0.0, -1.0)
    assert t == 0.0 and math.copysign(1.0, t) == 1.0


def test_breaking_time_overflow_is_silent_inf():
    # -2 d_y / d_U overflows for a subnormal d_U: the time is inf, with no warning
    d_y, d_U = np.array([1.0, 0.5, 1.0]), np.array([-1e-320, -0.5, -5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau = lagrangian._breaking_times(d_y, d_U, np.empty(3))
    assert tau.tolist() == [math.inf, 2.0, math.inf]


def test_round_trip_at_time_zero():
    for d, dx in [(cosine_datum(), 2.0 ** -3), (None, None)]:
        if d is None:
            rng = np.random.default_rng(3)
            d, dx = random_multipeakon(rng), 0.125
        p = project(d, ProjectionConfig(dx=dx))
        sol = to_eulerian(to_lagrangian(p))
        assert np.array_equal(sol.u.nodes, p.u.nodes)
        assert np.allclose(sol.u.values, p.u.values, atol=1e-13)
        f_want = p.mu.F_ac.values - p.mu.F_ac.values[0]
        assert np.allclose(sol.mu.F_ac.values, f_want, atol=1e-13)


def test_lift_shares_the_datum_arrays_and_leaves_them_alone():
    # with no atoms the state's y, U and V are the datum's nodes, values and
    # cumulative; evolving (with and without events, both one-sided limits)
    # and pushing forward write none of them
    p = project(cosine_datum(), ProjectionConfig(dx=2.0**-6))
    arrays = (p.u.nodes, p.u.values, p.mu.F_ac.values)
    before = [a.tobytes() for a in arrays]
    s = to_lagrangian(p, alpha=0.5)
    assert s.y is arrays[0] and s.U is arrays[1] and s.V is arrays[2]
    for t, side in ((0.0, "right"), (0.3, "right"), (2.0 / math.pi, "left"), (3.0, "right")):
        to_eulerian(evolve(s, t, side=side))
    assert [a.tobytes() for a in arrays] == before


def test_state_validation():
    ok = dict(
        xi=np.array([0.0, 1.0]),
        y=np.array([0.0, 1.0]),
        U=np.array([0.0, 0.0]),
        V=np.array([0.0, 0.0]),
        d_y=np.array([1.0]),
        d_U=np.array([0.0]),
        d_V=np.array([0.0]),
        tau=np.array([np.inf]),
        broken=np.array([False]),
        alpha=0.0,
        time=0.0,
        V_inf=0.0,
    )
    LagrangianState(**ok)
    with pytest.raises(ValueError):
        LagrangianState(**{**ok, "xi": np.array([1.0, 0.0])})
    with pytest.raises(ValueError):
        LagrangianState(**{**ok, "U": np.array([0.0])})
    with pytest.raises(ValueError):
        LagrangianState(**{**ok, "d_V": np.array([0.0, 0.0])})
    with pytest.raises(ValueError):
        LagrangianState(**{**ok, "alpha": -0.1})


def test_xi_is_checked_once_where_it_is_made(monkeypatch):
    # to_lagrangian checks xi as it writes it and evolve never changes it,
    # so neither checks it again; a state a caller builds is checked, also
    # where xi only stalls and in any block
    checked = []
    increasing = lagrangian._increasing
    monkeypatch.setattr(lagrangian, "_increasing", lambda x: checked.append(x) or increasing(x))
    s = to_lagrangian(project(cosine_datum(), ProjectionConfig(dx=2.0**-6)))
    s = evolve(evolve(s, 0.5), 1.2)
    assert s.broken.any()
    assert checked == []
    monkeypatch.setattr(numerics, "_CHUNK_FLOATS", 7)
    for i in (1, 20, s.n_cells):
        xi = s.xi.copy()
        xi[i] = xi[i - 1]
        with pytest.raises(ValueError, match="xi must be strictly increasing"):
            dataclasses.replace(s, xi=xi)
    assert len(checked) == 3


def _atomic_datum():
    """A two-peak datum with three atoms, on pair edges of dyadic grids."""
    pts = [(0.0, 0.5), (0.5, 0.0), (1.0, 0.25)]
    u = PiecewiseLinear(np.array([x for x, _ in pts]), np.array([v for _, v in pts]))
    u_x = PiecewiseConstant(u.nodes, slopes(u))
    F = np.concatenate(([0.0], np.cumsum(slopes(u) ** 2 * np.diff(u.nodes))))
    atoms = ((0.25, 0.1), (0.5, 0.2), (0.75, 0.3))
    return InitialDatum(u=u, F_ac=PiecewiseLinear(u.nodes, F), u_x=u_x, atoms=atoms, support_hint=(0.0, 1.0))


def _assert_same_state(got, want):
    for f in dataclasses.fields(LagrangianState):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


def _adjacent_atoms_datum():
    """_atomic_datum's profile with atoms on two adjacent pair edges of the
    grid dx = 2^-8, so that the nodes after both atoms sit one pair apart."""
    return dataclasses.replace(_atomic_datum(), atoms=((0.25, 0.1), (0.25 + 2.0**-7, 0.2)))


@pytest.mark.parametrize("datum", [cosine_datum, cusp_datum, _atomic_datum, _adjacent_atoms_datum])
def test_to_lagrangian_blocks_equal_whole_array_layout(datum, monkeypatch):
    # the node arrays are made whole and the cell derivatives block by
    # block: blocks one short of, equal to and one past the pair count and
    # the cell count, and several blocks, give the 3-nodes-per-pair layout's
    # state field for field, with one node more after each atom
    p = project(datum(), ProjectionConfig(dx=2.0**-8))
    want = whole_array_to_lagrangian(p, alpha=0.5)
    m, n = (p.u.nodes.size - 1) // 2, want.n_cells
    assert bool(p.mu.atom_positions.size) == (n > 2 * m)
    for chunk in (m + 1, m, m - 1, n + 1, n, n - 1, 7):
        monkeypatch.setattr(numerics, "_CHUNK_FLOATS", chunk)
        _assert_same_state(to_lagrangian(p, alpha=0.5), want)


@pytest.mark.parametrize(
    "atoms, match",
    [
        (((0.25, 0.1),), "off the even nodes"),
        (((0.3, 0.1),), "off the even nodes"),
        (((0.3, 0.1), (0.5, 0.2)), "off the even nodes"),
        (((1.0, 0.1),), "right of the last"),
    ],
    ids=["odd_node", "between_nodes", "two_in_one_pair", "last_node"],
)
def test_to_lagrangian_refuses_atoms_off_the_pair_edges(atoms, match):
    # a datum built by hand can put an atom on an odd node, between nodes,
    # or at the end of the grid, where the lift has no node pair for it;
    # moving it to a pair edge, or merging two atoms of one pair, would
    # change the measure without a word
    p = project(multipeakon_datum(), ProjectionConfig(dx=0.25))
    assert p.u.nodes[-1] == 1.0
    p = dataclasses.replace(p, mu=EnergyMeasure(p.mu.F_ac, atoms))
    with pytest.raises(ConfigError, match=match):
        to_lagrangian(p)


@pytest.mark.parametrize(
    "nodes",
    [lambda x: 2.0 * x, lambda x: x[:-1]],
    ids=["scaled_nodes", "one_node_fewer"],
)
def test_to_lagrangian_refuses_F_on_other_nodes(nodes):
    # the lift reads F_ac's values at u's nodes by index: on other nodes it
    # would take F at the wrong places (scaled), or fail in numpy (shorter)
    p = project(multipeakon_datum(), ProjectionConfig(dx=0.25))
    x = p.mu.F_ac.nodes
    F = PiecewiseLinear(nodes(x), p.mu.F_ac(nodes(x)))
    p = dataclasses.replace(p, mu=EnergyMeasure(F, atoms_of(p.mu)))
    with pytest.raises(ConfigError, match="nodes of u"):
        to_lagrangian(p)


@pytest.mark.parametrize("time", [-1.0, 1e-300, 2.0])
def test_to_lagrangian_refuses_a_solution_at_another_time(time):
    # the lift starts the flow at t = 0 and measures its breaking times from
    # there: a later snapshot lifted as it stands would be read as time 0
    p = project(multipeakon_datum(), ProjectionConfig(dx=0.25))
    assert p.time == 0.0
    with pytest.raises(ConfigError, match="time 0"):
        to_lagrangian(dataclasses.replace(p, time=time))
