import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsalpha.errors import ConfigError, ConsistencyError
from hsalpha.eulerian import InitialDatum, PiecewiseLinear, make_multipeakon
import hsalpha.projection as projection
from hsalpha.projection import (
    MAX_CELLS,
    ProjectionConfig,
    SignRule,
    default_window,
    project,
)
from hsalpha.reference import cosine_datum, cusp_datum
from oracles import atoms_of, greedy_sign_loop, projection_error, slopes


def total_energy_of(d):
    hi = d.support_hint[1]
    return float(d.F_ac(hi + 1.0)) + sum(m for _, m in d.atoms)


def test_config_validation():
    with pytest.raises(ConfigError):
        ProjectionConfig(dx=0.0)
    with pytest.raises(ConfigError):
        ProjectionConfig(dx=2.0)
    cfg = ProjectionConfig(dx=0.25, sign_rule=SignRule.PLUS_FIRST)
    assert cfg.sign_rule is SignRule.PLUS_FIRST


@pytest.mark.parametrize("rule", ["bogus", "plus_first", "minimize_kink", None, 1])
def test_sign_rule_must_be_a_member(rule):
    # a string, the member's own value included, is refused, not looked up
    with pytest.raises(ConfigError):
        ProjectionConfig(dx=0.25, sign_rule=rule)


def test_default_window_margin(peakon_datum):
    assert default_window(peakon_datum, 0.25) == (-1, 2)
    nodes = project(peakon_datum, ProjectionConfig(dx=0.25)).u.nodes
    assert (nodes[0], nodes[-1]) == (-0.5, 1.0)


def test_ramp_datum_is_projected_exactly(peakon_datum):
    # both breakpoints sit on even gridpoints and u is linear inside each
    # pair, so the radicand vanishes and the projection is the identity
    p = project(peakon_datum, ProjectionConfig(dx=0.25))
    errs = projection_error(peakon_datum, p)
    assert max(errs) <= 1e-14
    assert atoms_of(p.mu) == ()
    assert math.isclose(p.mu.total_mass(), 0.5, rel_tol=0.0, abs_tol=1e-15)
    assert float(p.u(0.25)) == 0.25


def _kinked_datum(rng, dx):
    """A multipeakon datum with 3-8 kinks on the even nodes of dx in
    [-1, 1] and values in [-1, 1]: linear in every pair of dx."""
    n = int(rng.integers(3, 9))
    j = np.sort(rng.choice(np.arange(-136, 137), n, replace=False))
    return make_multipeakon(list(zip((2.0 * dx * j).tolist(), rng.uniform(-1.0, 1.0, n).tolist())))


@pytest.mark.parametrize("rule", list(SignRule))
def test_pairs_on_which_the_datum_is_linear_keep_one_slope(rule):
    # the radicand of a piecewise-linear u is the variance of its step slope
    # about the pair's mean slope, zero on a linear pair up to the rounding
    # of the even values, so the odd node lies on the chord: the two
    # half-cell slopes differ by at most 2 ulps of max |u| over dx in 3000
    # such data under each rule, and the bound is 4 (DF - Du^2 left a
    # rounding residue under the root, up to 3e8 of these ulps).  The same
    # holds for the datum built by hand from its u and F_ac.
    dx = 2.0**-8
    rng = np.random.default_rng(27)
    for _ in range(100):
        d = _kinked_datum(rng, dx)
        by_hand = InitialDatum(
            u=PiecewiseLinear(d.u.nodes, d.u.values),
            F_ac=PiecewiseLinear(d.F_ac.nodes, d.F_ac.values),
            support_hint=d.support_hint,
        )
        for datum in (d, by_hand):
            v = project(datum, ProjectionConfig(dx=dx, sign_rule=rule)).u.values
            s = np.diff(v) / dx
            assert np.abs(s[0::2] - s[1::2]).max() <= 4.0 * np.spacing(np.abs(v).max()) / dx


@pytest.mark.parametrize("rule", list(SignRule))
def test_a_hand_built_piecewise_linear_datum_projects_as_make_multipeakon(rule):
    # the slope variance reads u's own pieces, so a datum made of the same
    # PiecewiseLinear u and F_ac projects bit for bit as make_multipeakon's,
    # kinks on or off the grid, with or without atoms
    rng = np.random.default_rng(30)
    for i in range(40):
        n = int(rng.integers(1, 9))
        if i % 2:
            xs = np.sort(rng.choice(np.arange(-64, 65), n, replace=False)) / 32.0
        else:
            xs = np.sort(rng.uniform(-2.0, 2.0, n))
        atoms = ((-1.25, 0.3), (float(rng.uniform(0.0, 2.5)), 0.7)) if i % 3 == 0 else ()
        d = make_multipeakon(list(zip(xs.tolist(), rng.uniform(-1.0, 1.0, n).tolist())))
        twins = [
            dataclasses.replace(d, atoms=atoms),
            InitialDatum(
                u=PiecewiseLinear(d.u.nodes.copy(), d.u.values.copy()),
                F_ac=PiecewiseLinear(d.F_ac.nodes.copy(), d.F_ac.values.copy()),
                atoms=atoms,
                support_hint=d.support_hint,
            ),
        ]
        for dx in (2.0**-6, 0.01):
            want, got = (project(t, ProjectionConfig(dx=dx, sign_rule=rule)) for t in twins)
            assert got.u.values.tobytes() == want.u.values.tobytes()
            assert got.mu.F_ac.values.tobytes() == want.mu.F_ac.values.tobytes()
            assert atoms_of(got.mu) == atoms_of(want.mu)


def test_energy_above_the_slope_squared_goes_into_the_slopes():
    # F_ac' = 2 u_x^2: the slope variance would leave the excess out of the
    # half-cell slopes, so the radicand stays DF - Du^2 and each half cell's
    # F still rises by its slope squared (the lift's y_xi V_xi = U_xi^2)
    d = InitialDatum(
        u=PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
        F_ac=PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0])),
        support_hint=(0.0, 1.0),
    )
    p = project(d, ProjectionConfig(dx=0.125))
    w = np.diff(p.u.nodes)
    s = np.diff(p.u.values) / w
    np.testing.assert_allclose(np.diff(p.mu.F_ac.values), s * s * w, rtol=0.0, atol=1e-15)


def test_constant_datum_fixed_point():
    d = make_multipeakon([(0.0, 1.0), (1.0, 1.0)])
    p = project(d, ProjectionConfig(dx=0.125))
    assert np.all(p.u.values == 1.0)
    assert np.all(p.mu.F_ac.values == 0.0)
    assert max(projection_error(d, p)) == 0.0


def test_even_gridpoints_interpolate_cosine():
    d = cosine_datum()
    dx = 2.0 ** -4
    p = project(d, ProjectionConfig(dx=dx))
    j0, j1 = default_window(d, dx)
    xe = 2.0 * dx * np.arange(j0, j1 + 1)
    assert np.array_equal(p.u(xe), np.asarray(d.u(xe), dtype=float))
    assert np.array_equal(p.mu.F_ac(xe), np.asarray(d.F_ac(xe), dtype=float))


def test_cosine_first_pair_slopes_match_oracle():
    # pair [0, 1/2] at dx = 1/4: difference quotients du = -2,
    # dF = pi^2/2, q = sqrt(pi^2/2 - 4); frozen from direct evaluation
    d = cosine_datum()
    p = project(d, ProjectionConfig(dx=0.25, sign_rule=SignRule.MINUS_FIRST))
    assert math.isclose(float(p.u(0.25)), 0.2582870761956604, rel_tol=0.0, abs_tol=1e-15)
    assert math.isclose(
        float(p.mu.F_ac(0.25)), 2.2005522453535282, rel_tol=0.0, abs_tol=1e-14
    )


def test_energy_preserved_per_datum():
    cases = [
        (cosine_datum(), 2.0 ** -5),
        (cusp_datum(-1.0, 1.0), 2.0 ** -5),
        (make_multipeakon([(0.0, 0.0), (0.3, 0.7), (1.1, -0.2), (2.0, 0.0)]), 0.125),
    ]
    for d, dx in cases:
        p = project(d, ProjectionConfig(dx=dx))
        want = total_energy_of(d)
        assert abs(p.mu.total_mass() - want) <= 1e-13 * max(1.0, want)


def test_cusp_total_energy_exact():
    d = cusp_datum(-1.0, 1.0)
    p = project(d, ProjectionConfig(dx=2.0 ** -6))
    assert math.isclose(p.mu.total_mass(), 8.0 / 3.0, rel_tol=1e-14)


def test_cumulative_slope_identity():
    # the a.c. cumulative of the projected pair rises with (local slope)^2
    d = cosine_datum()
    p = project(d, ProjectionConfig(dx=2.0 ** -4))
    inc = np.diff(p.mu.F_ac.values)
    want = slopes(p.u) ** 2 * np.diff(p.u.nodes)
    assert np.max(np.abs(inc - want)) <= 1e-12 * max(1.0, float(np.max(inc)))


def test_sign_rule_orientation_on_tent():
    # tent with its peak at an odd gridpoint: du = 0, q = 1, so the two sign
    # rules give mirror images; plus-first reproduces the datum exactly
    d = make_multipeakon([(0.0, 0.0), (0.25, 0.25), (0.5, 0.0)])
    plus = project(d, ProjectionConfig(dx=0.25, sign_rule=SignRule.PLUS_FIRST))
    minus = project(d, ProjectionConfig(dx=0.25, sign_rule=SignRule.MINUS_FIRST))
    assert projection_error(d, plus)[0] <= 1e-15
    assert math.isclose(projection_error(d, minus)[0], 0.5, rel_tol=0.0, abs_tol=1e-15)
    assert float(minus.u(0.25)) == -0.25
    # energy does not depend on the orientation
    assert math.isclose(plus.mu.total_mass(), minus.mu.total_mass(), rel_tol=1e-15)


def test_minimize_kink_follows_incoming_slope():
    # ramp of slope 1 into a tent: the kink-minimizing rule must pick the
    # plus-first orientation on the second pair and reproduce the datum
    d = make_multipeakon([(0.0, 0.0), (0.5, 0.5), (0.75, 0.75), (1.0, 0.5)])
    p = project(d, ProjectionConfig(dx=0.25))
    assert projection_error(d, p)[0] <= 1e-15
    fixed = project(d, ProjectionConfig(dx=0.25, sign_rule=SignRule.MINUS_FIRST))
    assert math.isclose(projection_error(d, fixed)[0], 0.5, rel_tol=0.0, abs_tol=1e-15)


@st.composite
def _pair_slopes(draw):
    # few distinct values on a coarse grid, so that exact ties between the
    # two candidate kinks occur, and runs of q = 0 where fp == fm
    n = draw(st.integers(1, 300))
    scale = 10.0 ** draw(st.integers(-3, 3))
    du = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    q = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    du, q = 0.5 * scale * np.array(du, dtype=float), 0.5 * scale * np.array(q, dtype=float)
    start = draw(st.integers(0, n))
    q[start : start + draw(st.integers(0, n))] = 0.0
    return du, q


@settings(max_examples=150, deadline=None)
@given(_pair_slopes())
def test_greedy_scan_matches_loop(slopes):
    du, q = slopes
    want = du - greedy_sign_loop(du, q) * q
    assert projection._greedy_first_slopes(du, q).tobytes() == want.tobytes()


@pytest.mark.parametrize("datum", [cosine_datum, cusp_datum])
def test_sign_rules_match_per_pair_loop(monkeypatch, datum):
    # keep the pair slopes du and q that reach the greedy kernel; every
    # rule's node values must equal those built from its sigma array (the
    # per-pair loop's for the greedy rule) by the formula du - sigma q
    seen = []
    kernel = projection._greedy_first_slopes

    def spy(du, q):
        seen.append((du, q))
        return kernel(du, q)

    monkeypatch.setattr(projection, "_greedy_first_slopes", spy)
    d = datum()
    for k in range(1, 9):
        dx = 2.0 ** (-2 * k)
        kink = project(d, ProjectionConfig(dx=dx))
        du, q = seen.pop()
        n = du.size
        sigmas = {
            SignRule.MINIMIZE_KINK: greedy_sign_loop(du, q),
            SignRule.MINUS_FIRST: np.ones(n),
            SignRule.PLUS_FIRST: -np.ones(n),
        }
        for rule, sigma in sigmas.items():
            if rule is SignRule.MINIMIZE_KINK:
                p = kink
            else:
                p = project(d, ProjectionConfig(dx=dx, sign_rule=rule))
            s1 = du - sigma * q
            ue, fe = p.u.values[::2], p.mu.F_ac.values[::2]
            assert p.u.values[1::2].tobytes() == (ue[:-1] + s1 * dx).tobytes()
            assert p.mu.F_ac.values[1::2].tobytes() == np.minimum(fe[:-1] + s1 * s1 * dx, fe[1:]).tobytes()


def test_radicand_violation_rejected():
    # claims zero energy while u has slope +-1: F_ac' >= u_x^2 fails in
    # every pair average and the projection must refuse
    d = InitialDatum(
        u=PiecewiseLinear(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0])),
        F_ac=PiecewiseLinear(np.array([0.0, 2.0]), np.array([0.0, 0.0])),
        support_hint=(0.0, 2.0),
    )
    with pytest.raises(ConsistencyError):
        project(d, ProjectionConfig(dx=0.25))


def test_atoms_merged_to_pair_edges(peakon_datum):
    d = InitialDatum(
        u=peakon_datum.u,
        F_ac=peakon_datum.F_ac,
        atoms=((0.1, 0.3), (0.15, 0.2), (0.6, 0.1)),
        support_hint=peakon_datum.support_hint,
    )
    p = project(d, ProjectionConfig(dx=0.25))
    assert atoms_of(p.mu) == ((0.0, 0.5), (0.5, 0.1))
    assert math.isclose(p.mu.total_mass(), 1.1, rel_tol=1e-15)


def test_sup_error_bound_sqrt_dx():
    # |u_dx - u|_inf <= (1 + sqrt(2)) sqrt(F_inf) sqrt(dx) for every datum
    const = 1.0 + math.sqrt(2.0)
    data = [cosine_datum(), cusp_datum(-1.0, 1.0),
            make_multipeakon([(0.0, 0.0), (0.37, 1.1), (0.9, -0.4), (1.7, 0.0)])]
    for d in data:
        cap = const * math.sqrt(total_energy_of(d))
        for k in (1, 2, 3):
            dx = 2.0 ** (-2 * k)
            p = project(d, ProjectionConfig(dx=dx))
            linf = projection_error(d, p)[0]
            assert linf <= cap * math.sqrt(dx) * (1.0 + 1e-12)


def test_cosine_slope_error_rate():
    # L2 rate of the slope error: guaranteed 1/2, measured ~1 on smooth data
    d = cosine_datum()
    errs = []
    dxs = []
    for k in (1, 2, 3, 4):
        dx = 2.0 ** (-2 * k)
        p = project(d, ProjectionConfig(dx=dx))
        errs.append(projection_error(d, p)[2])
        dxs.append(dx)
    assert all(a > b for a, b in zip(errs, errs[1:]))
    slope = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert slope >= 0.45


def _unevaluable_datum(lo, hi):
    def fail(x):
        raise AssertionError("the datum was evaluated")

    return InitialDatum(u=fail, F_ac=fail, support_hint=(lo, hi))


def test_cell_count_guard_refuses_before_evaluating():
    # 2 * (j_max - j_min) cells: dx = 1e-12 on [-1, 1] asks for about 2e12
    with pytest.raises(ConfigError, match="cells"):
        project(_unevaluable_datum(-1.0, 1.0), ProjectionConfig(dx=1e-12))
    # the window (-1, 2^25 + 1) on [0, 1] at dx = 2^-26: 4 cells over the cap
    with pytest.raises(ConfigError, match=f"{MAX_CELLS + 4} cells"):
        project(_unevaluable_datum(0.0, 1.0), ProjectionConfig(dx=2.0**-26))


def test_cell_count_guard_boundary(monkeypatch):
    # on the support [0, 1.5] the window is (-1, ceil(0.75 / dx) + 1):
    # 16 cells at dx = 1/8, the cap, and 18 at dx = 1/9
    monkeypatch.setattr(projection, "MAX_CELLS", 16)
    d = make_multipeakon([(0.0, 0.5), (1.5, 0.0)])
    assert project(d, ProjectionConfig(dx=1.0 / 8.0)).u.nodes.size == 17
    with pytest.raises(ConfigError, match="18 cells"):
        project(d, ProjectionConfig(dx=1.0 / 9.0))
