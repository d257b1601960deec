"""Randomized invariant checks across the whole pipeline."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsalpha.numerics as numerics
from conftest import one_cell_tau, random_multipeakon
from hsalpha.eulerian import EnergyMeasure, PiecewiseLinear, make_multipeakon
from hsalpha.evolution import evolve, total_energy
from hsalpha.lagrangian import _breaking_times, to_lagrangian
from hsalpha.metrics import w1
from hsalpha.numerics import _sorted_unique, exact_cumsum
from hsalpha.projection import ProjectionConfig, SignRule, project
from hsalpha.pushforward import to_eulerian
from oracles import atoms_of, breaking_time, l2_diff, linf_diff, whole_array_exact_cumsum

_EPS = float(np.finfo(np.float64).eps)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1e8, 1e8), max_size=60), st.integers(1, 9))
def test_exact_cumsum_blocks_equal_whole_array(xs, chunk):
    # the running sum and the running correction carried across blocks of
    # _CHUNK_FLOATS give the one-pass prefixes bit for bit
    arr = np.array(xs, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_CHUNK_FLOATS", chunk)
        got = exact_cumsum(arr)
    assert got.tobytes() == whole_array_exact_cumsum(arr).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from([-1.5, 0.0, 0.25, 1.0]) | st.floats(-4.0, 4.0), max_size=60),
    st.integers(1, 9),
)
def test_sorted_unique_equals_np_unique(xs, chunk):
    arr = np.array(xs, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_CHUNK_FLOATS", chunk)
        got = _sorted_unique(arr.copy())
    assert np.array_equal(got, np.unique(arr))


_RUN_VALUES = st.sampled_from([-1.5, -0.0, 0.0, 0.25, 1.0]) | st.floats(-4.0, 4.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.lists(_RUN_VALUES, max_size=25), st.booleans()), max_size=6),
    st.integers(1, 9),
)
def test_sorted_unique_of_sorted_runs_equals_np_unique(runs, chunk):
    # concatenations of sorted runs, as w1's breakpoints and a table's bulk
    # and ladders are (a ladder's halves descend), with duplicates across
    # runs and -0.0 and +0.0 mixed: the values of np.unique, and of equal
    # values the first in the input kept, so of the zeros the first zero
    arr = np.array(
        [v for xs, down in runs for v in sorted(xs, reverse=down)], dtype=np.float64
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_CHUNK_FLOATS", chunk)
        got = _sorted_unique(arr.copy())
    assert np.array_equal(got, np.unique(arr))
    zeros = arr[arr == 0.0]
    if zeros.size:
        assert np.signbit(got[got == 0.0]) == np.signbit(zeros[0])


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=60))
def test_exact_cumsum_tracks_exact_prefixes(xs):
    arr = np.array(xs)
    got = exact_cumsum(arr)
    cum_abs = np.cumsum(np.abs(arr))
    n = arr.size
    for i in range(n):
        want = math.fsum(xs[: i + 1])
        # one final rounding plus the (second-order) cost of summing the
        # recovered per-step corrections naively
        tol = 4.0 * _EPS * abs(want) + 16.0 * n * n * _EPS * _EPS * cum_abs[i] + 1e-290
        assert abs(got[i] - want) <= tol


@settings(max_examples=1000, deadline=None)
@given(d_y=st.floats(1e-8, 1e3), d_U=st.floats(-1e3, -1e-8))
def test_breaking_time_is_the_cell_quadratic_root(d_y, d_U):
    tau = one_cell_tau(d_y, d_U)
    assert 0.0 < tau < np.inf
    # on-manifold cell: d_V fixed by the algebraic relation
    d_V = d_U * d_U / d_y
    scale = d_y + abs(d_U) + d_V
    assert abs(d_y + tau * d_U + 0.25 * tau * tau * d_V) <= 1e-12 * scale
    assert abs(d_U + 0.5 * tau * d_V) <= 1e-12 * scale
    # strictly before tau the cell is still open (value is d_y / 4 there)
    assert d_y + 0.5 * tau * d_U + 0.0625 * tau * tau * d_V > 0.0


@settings(max_examples=1000, deadline=None)
@given(d_y=st.floats(0.0, 1e3), d_U=st.floats(0.0, 1e3))
def test_breaking_time_nonnegative_slopes_never_break(d_y, d_U):
    if d_y == 0.0 and d_U == 0.0:
        assert one_cell_tau(d_y, d_U) == 0.0
    else:
        assert one_cell_tau(d_y, d_U) == np.inf


_TAU_D_Y = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e300))
_TAU_D_U = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1e-310]), st.floats(-1e300, 1e300)
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_TAU_D_Y, _TAU_D_U), min_size=1, max_size=40))
def test_breaking_times_equal_the_scalar_oracle(cells):
    # zeros of both signs and subnormal d_U included: where -2 d_y / d_U
    # overflows, both give inf; a zero time is +0.0 in both
    d_y, d_U = (np.array(c, dtype=np.float64) for c in zip(*cells))
    got = _breaking_times(d_y, d_U, np.empty(d_y.size))
    want = np.array([breaking_time(float(a), float(b)) for a, b in cells])
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    t=st.floats(0.0, 8.0),
)
def test_flow_preserves_cell_structure(seed, alpha, t):
    rng = np.random.default_rng(seed)
    d = random_multipeakon(rng)
    s0 = to_lagrangian(project(d, ProjectionConfig(dx=0.125)), alpha=alpha)
    s = evolve(s0, t)

    # the per-cell relation d_y d_V = d_U^2 is transported by the flow and
    # restored exactly by every dissipation event; the derivatives are
    # difference quotients of O(|V|) nodal values, so cancellation leaves
    # residue ~ eps * mag^2 / width on nearly rigid cells
    lhs = s.d_y * s.d_V
    rhs = s.d_U * s.d_U
    mag = max(1.0, *(float(np.max(np.abs(getattr(s, f)))) for f in ("xi", "y", "U", "V")))
    cancel = 4.0 * _EPS * mag * mag / np.diff(s.xi)
    assert np.all(np.abs(lhs - rhs) <= 1e-11 * (np.abs(lhs) + rhs) + cancel)

    # energy density only ever shrinks, and never below zero
    assert np.all(s.d_V >= 0.0)
    assert np.all(s.d_V <= s0.d_V * (1.0 + 1e-15))
    assert np.all(np.diff(s.y) >= -1e-12)
    assert np.all(np.diff(s.V) >= -1e-12)
    assert s.V_inf <= s0.V_inf * (1.0 + 1e-13)
    assert total_energy(s) <= total_energy(s0) * (1.0 + 1e-13)

    sol = to_eulerian(s)
    assert abs(sol.mu.total_mass() - s.V_inf) <= 1e-12 * max(1.0, s.V_inf)
    assert np.all(np.diff(sol.u.nodes) > 0.0)
    assert np.all(np.diff(sol.mu.F_ac.values) >= -1e-13)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    t1=st.floats(0.0, 4.0),
    t2=st.floats(0.0, 4.0),
)
def test_two_leg_evolution_matches_direct(seed, alpha, t1, t2):
    t_mid, t_end = sorted((t1, t2))
    rng = np.random.default_rng(seed)
    d = random_multipeakon(rng)
    s0 = to_lagrangian(project(d, ProjectionConfig(dx=0.125)), alpha=alpha)

    mid = evolve(s0, t_mid)
    via = evolve(mid, t_end)
    direct = evolve(s0, t_end)

    assert total_energy(s0) * (1.0 + 1e-13) >= total_energy(mid)
    assert total_energy(mid) * (1.0 + 1e-13) >= total_energy(via)

    scale = max(1.0, float(np.max(np.abs(direct.y))))
    for name in ("y", "U", "V", "d_y", "d_U", "d_V"):
        a = getattr(via, name)
        b = getattr(direct, name)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=5e-13 * scale, err_msg=name)
    assert via.V_inf == pytest.approx(direct.V_inf, rel=0, abs=1e-13)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3))
def test_projection_interpolates_and_conserves(seed, k):
    rng = np.random.default_rng(seed)
    d = random_multipeakon(rng)
    p = project(d, ProjectionConfig(dx=2.0**-k))

    # even gridpoints reproduce the datum values bit for bit
    xe = p.u.nodes[::2]
    np.testing.assert_array_equal(p.u.values[::2], np.asarray(d.u(xe)))

    # total energy is conserved by the projection
    want = float(d.F_ac(p.u.nodes[-1]))
    assert abs(p.mu.total_mass() - want) <= 1e-12 * max(1.0, want)

    # the projected cumulative rises exactly like the squared wave slope
    w = np.diff(p.u.nodes)
    s = np.diff(p.u.values) / w
    got = np.diff(p.mu.F_ac.values)
    np.testing.assert_allclose(got, s * s * w, rtol=0.0, atol=1e-12 * max(1.0, want))


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


def _shift_measure(m, h):
    moved = PiecewiseLinear(m.F_ac.nodes + h, m.F_ac.values)
    return EnergyMeasure(moved, atoms=[(p + h, w) for p, w in atoms_of(m)])


@settings(max_examples=250, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-5.0, 5.0))
def test_w1_metric_axioms(seed, shift):
    rng = np.random.default_rng(seed)
    m1, m2, m3 = (_random_measure(rng) for _ in range(3))
    d12 = w1(m1, m2)
    assert d12 >= 0.0
    assert w1(m1, m1) <= 1e-15
    assert w1(m2, m1) == pytest.approx(d12, rel=0, abs=1e-13)
    assert w1(m1, m3) <= d12 + w1(m2, m3) + 1e-12
    assert w1(_shift_measure(m1, shift), _shift_measure(m2, shift)) == pytest.approx(
        d12, rel=1e-9, abs=1e-10
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_profile_metric_axioms(seed):
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.uniform(-2.0, 2.0, 7))
    while np.any(np.diff(nodes) <= 0.0):
        nodes = np.sort(rng.uniform(-2.0, 2.0, 7))

    def compact_pl():
        vals = rng.uniform(-1.0, 1.0, nodes.size)
        vals[0] = vals[-1] = 0.0
        return PiecewiseLinear(nodes, vals)

    a, b, c = compact_pl(), compact_pl(), compact_pl()
    for dist in (linf_diff, l2_diff):
        assert dist(a, a) == 0.0
        assert dist(a, b) == pytest.approx(dist(b, a), rel=0, abs=1e-14)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def _no_tiny(values):
    """values with those below 2^-20 in size made 0: a stretch by 4^-10,
    or a product with such a time, would take them to subnormals, which do
    not scale exactly."""
    return values.map(lambda v: v if abs(v) >= 2.0**-20 else 0.0)


#: slopes of the stretch cases: a few repeated values, so that cells of
#: different segments break at once, and any slope
_SLOPE = st.sampled_from([-1.0, -0.25, 0.5]) | _no_tiny(st.floats(-3.0, 3.0))


@st.composite
def _kinks(draw, dx):
    """(points, atoms) of a multipeakon datum with 3-8 breakpoints on the
    even nodes of dx, and up to three atoms there or none."""
    n = draw(st.integers(3, 8))
    gaps = draw(st.lists(st.integers(1, 5), min_size=n - 1, max_size=n - 1))
    j = draw(st.integers(-6, 6)) + np.concatenate(([0], np.cumsum(gaps)))
    xs = (2.0 * dx * j).tolist()
    if draw(st.booleans()):  # one slope up to sign: many cells break at once
        slope = draw(_SLOPE)
        slopes = draw(st.lists(st.sampled_from([slope, -slope]), min_size=n - 1, max_size=n - 1))
    else:
        slopes = draw(st.lists(_SLOPE, min_size=n - 1, max_size=n - 1))
    us = [draw(_no_tiny(st.floats(-2.0, 2.0)))]
    for a, b, slope in zip(xs, xs[1:], slopes):
        us.append(us[-1] + slope * (b - a))
    at = draw(st.lists(st.integers(int(j[0]), int(j[-1])), max_size=3, unique=True))
    masses = draw(st.lists(st.floats(2.0**-10, 2.0), min_size=len(at), max_size=len(at)))
    return list(zip(xs, us)), sorted(zip((2.0 * dx * np.array(at)).tolist(), masses))


@st.composite
def _stretch_case(draw):
    """(datum(c), dx, c): datum(c) is v(x) = c u(x / c) of a multipeakon
    datum u of _kinks(dx) with dx = 2^-k, atoms (mass scaled by c too)
    included, and c = 4^m a stretch with c dx <= 1."""
    k = draw(st.integers(0, 6))
    c = 4.0 ** draw(st.integers(-10, min(10, k // 2)))
    dx = 2.0**-k
    points, atoms = draw(_kinks(dx))

    def datum(c):
        d = make_multipeakon([(c * x, c * u) for x, u in points])
        return dataclasses.replace(d, atoms=[(c * x, c * w) for x, w in atoms])

    return datum, dx, c


def _assert_scaled(got, want, c):
    assert got.tobytes() == (c * want).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    case=_stretch_case(),
    alpha=st.floats(0.0, 1.0),
    t=st.sampled_from([0.0, 2.0, 8.0]) | _no_tiny(st.floats(0.0, 1e3)),
)
def test_pipeline_commutes_with_the_dyadic_stretch(case, alpha, t):
    # Hunter-Saxton maps u(t, x) to c u(t, x / c); for c a power of 4 the
    # grid dx goes to c dx, a rung of the ladder, and every float scales
    # exactly: the lifted and evolved states and the Eulerian solution of
    # the stretched datum are those of the datum, stretched, bit for bit
    datum, dx, c = case
    u0 = to_lagrangian(project(datum(1.0), ProjectionConfig(dx=dx)), alpha=alpha)
    v0 = to_lagrangian(project(datum(c), ProjectionConfig(dx=c * dx)), alpha=alpha)
    for u, v in ((u0, v0), (evolve(u0, t), evolve(v0, t))):
        for name in ("xi", "y", "U", "V"):
            _assert_scaled(getattr(v, name), getattr(u, name), c)
        assert v.V_inf == c * u.V_inf
        for name in ("d_y", "d_U", "d_V", "tau", "broken"):
            assert getattr(v, name).tobytes() == getattr(u, name).tobytes(), name
    eu, ev = to_eulerian(evolve(u0, t)), to_eulerian(evolve(v0, t))
    _assert_scaled(ev.u.nodes, eu.u.nodes, c)
    _assert_scaled(ev.u.values, eu.u.values, c)
    _assert_scaled(ev.mu.F_ac.nodes, eu.mu.F_ac.nodes, c)
    _assert_scaled(ev.mu.F_ac.values, eu.mu.F_ac.values, c)
    assert atoms_of(ev.mu) == tuple((c * x, c * w) for x, w in atoms_of(eu.mu))


def _solution(points, atoms, dx, rule, alpha, t):
    d = dataclasses.replace(make_multipeakon(points), atoms=atoms)
    s = to_lagrangian(project(d, ProjectionConfig(dx=dx, sign_rule=rule)), alpha=alpha)
    return to_eulerian(evolve(s, t))


@settings(max_examples=200, deadline=None)
@given(
    case=st.integers(0, 6).flatmap(lambda k: st.tuples(st.just(2.0**-k), _kinks(2.0**-k))),
    alpha=st.floats(0.0, 1.0),
    t=st.sampled_from([0.0, 2.0, 8.0]) | st.floats(0.0, 1e3),
)
def test_pipeline_commutes_with_the_reflection(case, alpha, t):
    # Hunter-Saxton maps u(t, x) to -u(t, -x), and mu to its mirror image.
    # Projected with PLUS_FIRST, the mirrored datum takes in each pair the
    # slopes that the datum takes with MINUS_FIRST, read from the right, so
    # the two solutions mirror each other up to round-off: node for node, F
    # as the total less F read from the right, and atom for atom
    dx, (points, atoms) = case
    u = _solution(points, atoms, dx, SignRule.MINUS_FIRST, alpha, t)
    mirrored = ([(-x, -y) for x, y in points[::-1]], [(-x, w) for x, w in atoms[::-1]])
    v = _solution(*mirrored, dx, SignRule.PLUS_FIRST, alpha, t)
    x_tol = 1e-12 * max(1.0, float(np.abs(u.u.nodes).max()))
    u_tol = 1e-12 * max(1.0, float(np.abs(u.u.values).max()))
    F_tol = 1e-12 * max(1.0, u.mu.total_mass())
    F = u.mu.F_ac.values
    pairs = [
        (v.u.nodes, -u.u.nodes[::-1], x_tol),
        (v.u.values, -u.u.values[::-1], u_tol),
        (v.mu.F_ac.values, F[-1] - F[::-1], F_tol),
        (v.mu.atom_positions, -u.mu.atom_positions[::-1], x_tol),
        (v.mu.atom_masses, u.mu.atom_masses[::-1], F_tol),
    ]
    for got, want, tol in pairs:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)


@pytest.mark.xfail(strict=True, reason="a near-atom cell's jump lands on opposite sides of its node")
@pytest.mark.parametrize("t", [1.19e-7, 1.96e-7])
def test_reflection_of_an_atom_at_a_kink_shortly_after_it_spreads(t):
    # the atom of mass 1 at 0 spreads into a cell with d_U = t/2 while its
    # d_y = t^2/4 stays at or below ATOM_WIDTH_TOL; the u nodes are the
    # right ends of the real cells, so the jump lands on opposite sides in
    # the two mirrored solutions and u differs by t/2 times the mass
    case = (1.0, ([(0.0, 0.0), (2.0, -2.0), (4.0, -4.0)], [(0.0, 1.0)]))
    test_pipeline_commutes_with_the_reflection.hypothesis.inner_test(case, 0.0, t)
