import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_multipeakon
from hsalpha.errors import ConfigError
from hsalpha.eulerian import InitialDatum
from hsalpha.evolution import EVENT_TIE_TOL, events, evolve, total_energy
from hsalpha.lagrangian import to_lagrangian
from hsalpha.projection import ProjectionConfig, project
from hsalpha.pushforward import to_eulerian
from hsalpha.reference import ReferenceSolution, cusp_datum
from oracles import brute_force_batch, brute_force_oracle, multipeakon_exact, sequential_evolve


def test_ramp_has_one_clustered_event(peakon_state):
    sched = events(peakon_state, 3.0)
    assert sched.times == (2.0,)
    cells = sched.cells_at[2.0]
    assert len(cells) == 2  # both half cells of the down-slope pair
    assert np.all(peakon_state.d_U[cells] < 0.0)
    # horizon is inclusive; nothing breaks before t = 2
    assert events(peakon_state, 2.0).times == (2.0,)
    assert events(peakon_state, 1.9).times == ()
    with pytest.raises(ConfigError):
        events(peakon_state, math.inf)


def test_evolve_argument_errors(peakon_state):
    s1 = evolve(peakon_state, 1.0)
    with pytest.raises(ValueError):
        evolve(s1, 0.5)
    with pytest.raises(ValueError):
        evolve(s1, math.nan)
    with pytest.raises(ConfigError):
        evolve(s1, 2.0, side="middle")


def test_evolve_time_errors_are_config_errors(peakon_state):
    s1 = evolve(peakon_state, 1.0)
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(ConfigError):
            evolve(s1, bad)


def test_energy_dissipates_exactly_at_event(peakon_state):
    s = peakon_state  # alpha = 1/2, all energy breaks at t = 2
    assert math.isclose(total_energy(evolve(s, 1.0)), 0.5, abs_tol=1e-15)
    after = evolve(s, 2.0)
    assert math.isclose(total_energy(after), 0.25, abs_tol=1e-15)
    assert math.isclose(after.V_inf, 0.25, abs_tol=1e-15)
    assert math.isclose(total_energy(evolve(s, 3.0)), 0.25, abs_tol=1e-15)
    # the breaking cells have collapsed exactly: analytic zeros, not residue
    broken = after.broken
    assert np.count_nonzero(broken) == 2
    assert np.all(after.d_y[broken] == 0.0)
    assert np.all(after.d_U[broken] == 0.0)
    # collapse point x = 3/4 carrying u = t/8 = 1/4
    idx = np.flatnonzero(broken)[0]
    assert math.isclose(after.y[idx], 0.75, abs_tol=1e-14)
    assert math.isclose(after.U[idx], 0.25, abs_tol=1e-14)


def test_side_left_withholds_dissipation(peakon_state):
    left = evolve(peakon_state, 2.0, side="left")
    assert math.isclose(left.V_inf, 0.5, abs_tol=1e-15)
    assert not np.any(left.broken)
    # but the cells have still collapsed as a fact of the motion
    ramp = left.tau == 2.0
    assert np.all(left.d_y[ramp] == 0.0)
    assert np.all(left.d_U[ramp] == 0.0)
    # away from events the two sides agree
    a = evolve(peakon_state, 1.9, side="left")
    b = evolve(peakon_state, 1.9, side="right")
    assert np.array_equal(a.y, b.y) and np.array_equal(a.d_V, b.d_V)


@pytest.mark.parametrize("alpha,want", [(0.0, 0.5), (1.0, 0.0)])
def test_alpha_extremes(peakon_datum, alpha, want):
    p = project(peakon_datum, ProjectionConfig(dx=0.25))
    s = to_lagrangian(p, alpha=alpha)
    assert math.isclose(total_energy(evolve(s, 2.5)), want, abs_tol=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_datum_with_atoms_end_to_end(peakon_datum, alpha):
    # the atoms' 0.75 sit in collapsed cells from t = 0 and are never
    # dissipated; only the ramp's 0.5, which breaks at t = 2, loses alpha
    datum = dataclasses.replace(peakon_datum, atoms=((0.25, 0.5), (1.0, 0.25)))
    s = to_lagrangian(project(datum, ProjectionConfig(dx=2.0**-4)), alpha=alpha)
    assert total_energy(s) == pytest.approx(1.25, abs=1e-13)
    final = evolve(s, 4.0)
    assert total_energy(final) == pytest.approx(0.75 + (1.0 - alpha) * 0.5, abs=1e-13)
    assert to_eulerian(final).mu.total_mass() == pytest.approx(total_energy(final), abs=1e-13)


def test_two_hop_evolution_matches_single_hop(peakon_state):
    direct = evolve(peakon_state, 2.7)
    hopped = evolve(evolve(peakon_state, 1.3), 2.7)
    assert np.allclose(direct.y, hopped.y, atol=1e-13)
    assert np.allclose(direct.U, hopped.U, atol=1e-13)
    assert np.allclose(direct.V, hopped.V, atol=1e-13)
    assert direct.V_inf == pytest.approx(hopped.V_inf, abs=1e-14)


def test_matches_closed_form_solution(peakon_state):
    for t in (0.7, 2.0, 3.2):
        sol = to_eulerian(evolve(peakon_state, t))
        xs = np.linspace(-1.0, 2.5, 141)
        u_ref, f_ref = multipeakon_exact(0.5, t, xs)
        assert np.max(np.abs(sol.u(xs) - u_ref)) <= 1e-12


def test_brute_force_oracle_exact_when_step_hits_event(peakon_state):
    # the nodal motion is quadratic between events, which RK4 integrates
    # exactly; with the event time on a step boundary the only differences
    # left are round-off
    exact = evolve(peakon_state, 3.0)
    rk = brute_force_oracle(peakon_state, 3.0, 3000)
    assert np.max(np.abs(exact.y - rk.y)) <= 1e-9
    assert np.max(np.abs(exact.U - rk.U)) <= 1e-9
    assert rk.V_inf == pytest.approx(exact.V_inf, abs=1e-12)


@pytest.mark.parametrize("t", [2.5, 6.0])
def test_brute_force_batch_equals_single_marches(t):
    rng = np.random.default_rng(3)
    states = []
    for alpha in (0.0, 0.3, 1.0, 0.5):
        p = project(random_multipeakon(rng), ProjectionConfig(dx=0.125))
        states.append(to_lagrangian(p, alpha=alpha))
    batch = brute_force_batch(states, t, 3000)
    for s, got in zip(states, batch):
        want = brute_force_oracle(s, t, 3000)
        assert np.count_nonzero(want.broken & ~s.broken) > 0
        for f in ("y", "U", "V", "d_y", "d_U", "d_V", "broken"):
            assert np.array_equal(getattr(got, f), getattr(want, f), equal_nan=True), f
        assert got.V_inf == want.V_inf
        assert got.time == want.time


def test_brute_force_oracle_quantized_event(peakon_state):
    # off-boundary event times are applied one step late: O(h) agreement
    exact = evolve(peakon_state, 3.0)
    rk = brute_force_oracle(peakon_state, 3.0, 2999)
    assert np.max(np.abs(exact.y - rk.y)) <= 5e-3
    assert np.max(np.abs(exact.U - rk.U)) <= 5e-3
    with pytest.raises(ConfigError):
        brute_force_oracle(peakon_state, 3.0, 0)


@settings(max_examples=200, deadline=None)
@given(
    base=st.floats(8192.0, 65536.0),
    ulps=st.lists(st.integers(0, 3), min_size=2, max_size=5),
)
def test_ties_one_ulp_apart_merge_at_large_t(peakon_state, base, ulps):
    # one ulp of t is above 1e-12 here, so an absolute tolerance would split
    # these breaking times into separate events
    assert np.spacing(base) > EVENT_TIE_TOL
    tau = np.full(peakon_state.n_cells, np.inf)
    cells = np.arange(len(ulps))
    tau[cells] = [base + k * np.spacing(base) for k in ulps]
    s = dataclasses.replace(peakon_state, tau=tau)
    T = float(tau[cells].max())
    sched = events(s, T)
    assert sched.times == (float(tau[cells].min()),)
    assert sorted(sched.cells_at[sched.times[0]].tolist()) == cells.tolist()
    assert np.array_equal(np.flatnonzero(evolve(s, T).broken), cells)


def _assert_same_state(a, b):
    """Equal dissipation and energies; positions and velocities to round-off."""
    assert np.array_equal(a.broken, b.broken)
    assert np.array_equal(a.V, b.V)
    assert np.array_equal(a.d_V, b.d_V)
    assert a.V_inf == b.V_inf
    for name in ("y", "U", "d_y", "d_U"):
        got, want = getattr(a, name), getattr(b, name)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale, name


def _datum_with_atoms(rng):
    d = random_multipeakon(rng)
    lo, hi = d.support_hint
    spots = np.sort(rng.uniform(lo, hi, int(rng.integers(0, 4))))
    atoms = [(float(x), float(m)) for x, m in zip(spots, rng.uniform(0.05, 0.5, spots.size))]
    return InitialDatum(
        u=d.u, u_x=d.u_x, F_ac=d.F_ac, atoms=atoms, support_hint=d.support_hint
    )


def _hops(rng, s0):
    """Nondecreasing (time, side) hops up to t <= 1e3: event times, repeats, gaps."""
    ev = np.asarray(events(s0, 1e3).times)
    picks = list(rng.choice(ev, size=min(4, ev.size), replace=False)) if ev.size else []
    horizon = float(ev.max()) * 1.2 if ev.size else 5.0
    ts = picks + list(rng.uniform(0.0, horizon, 3)) + [float(rng.uniform(1.0, 1e3))]
    ts = sorted(float(t) for t in ts)
    if picks:  # an event time approached from the left, then passed
        ts.insert(ts.index(float(picks[0])), float(picks[0]))
    return [(t, str(rng.choice(["left", "right"]))) for t in ts]


@pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(12))
def test_matches_sequential_event_loop(alpha, seed):
    rng = np.random.default_rng(1000 * seed + int(10 * alpha))
    d = _datum_with_atoms(rng)
    dx = float(rng.choice([0.25, 0.125, 0.0625]))
    s0 = to_lagrangian(project(d, ProjectionConfig(dx=dx)), alpha=alpha)
    a = b = s0
    for t, side in _hops(rng, s0):
        a = evolve(a, t, side=side)
        b = sequential_evolve(b, t, side=side)
        _assert_same_state(a, b)


def test_overdue_cells_break_at_the_state_time(peakon_state):
    # a pending cell whose breaking time precedes the state's own time (as
    # left behind by a left limit) breaks at s.time, not in the past
    s = evolve(peakon_state, 1.0)
    tau = np.where(np.isfinite(s.tau) & (s.tau > 0.0), 0.5, s.tau)
    s = dataclasses.replace(s, tau=tau)
    for t in (1.0 + 1e-9, 1.5, 3.0):
        _assert_same_state(evolve(s, t), sequential_evolve(s, t))


def test_cusp_k7_through_16384_events():
    # 32772 cells, 16384 of which break before T = 3: the closed-form map
    # must match the reference energy and keep every structural invariant
    alpha, T = 0.5, 3.0
    s0 = to_lagrangian(project(cusp_datum(-1.0, 1.0), ProjectionConfig(dx=2.0**-14)), alpha)
    s = evolve(s0, T)
    assert s0.n_cells == 32772
    assert np.count_nonzero(s.broken) == 16384
    want = ReferenceSolution(family="cusp", alpha=alpha, a=-1.0, b=1.0).total_energy(T)
    assert abs(total_energy(s) - want) <= 1e-14 * want
    assert np.all(s.d_V <= s0.d_V)
    assert np.all(np.diff(s.y) >= 0.0)
    # at its event time a cluster has collapsed to exact zeros
    sched = events(s0, T)
    for t in sched.times[:: len(sched.times) // 16]:
        at = evolve(s0, t)
        cells = sched.cells_at[t]
        assert np.all(at.d_y[cells] == 0.0) and np.all(at.d_U[cells] == 0.0)
        assert np.all(at.broken[cells])
