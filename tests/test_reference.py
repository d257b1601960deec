import decimal
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import hsalpha.numerics as numerics
from hsalpha.errors import ConfigError, NumericError
from hsalpha.evolution import evolve, total_energy
from hsalpha.harness import ExperimentConfig, run_eoc, run_solve
from hsalpha.lagrangian import to_lagrangian
from hsalpha.projection import MAX_CELLS, ProjectionConfig, project
from hsalpha.pushforward import to_eulerian
import hsalpha.reference as reference
from hsalpha.reference import (
    CosineFamily,
    CuspFamily,
    ReferenceSolution,
    cosine_datum,
    cusp_datum,
    multipeakon_exact,
)
import oracles
from oracles import oracle_profile

PI = math.pi


def test_multipeakon_pointwise_cases():
    # initial plateau
    for alpha in (0.0, 0.5, 1.0):
        u, F = multipeakon_exact(alpha, 0.0, -1.0)
        assert (u, F) == (0.5, 0.0)
    # long-time right plateau: u = (1-alpha)t/8 + alpha/4, F = (1-alpha)/2
    u, F = multipeakon_exact(0.5, 4.0, 100.0)
    assert u == pytest.approx(0.375, abs=1e-15)
    assert F == pytest.approx(0.25, abs=1e-15)
    # steepening middle segment at t=1 has slope 8/(4(t-2)) = -2
    u1, _ = multipeakon_exact(0.0, 1.0, 0.48)
    u2, _ = multipeakon_exact(0.0, 1.0, 0.52)
    assert (u2 - u1) / 0.04 == pytest.approx(-2.0, rel=1e-12)


def test_multipeakon_argument_validation():
    with pytest.raises(ConfigError):
        multipeakon_exact(-0.1, 1.0, 0.0)
    with pytest.raises(ConfigError):
        multipeakon_exact(0.5, -1.0, 0.0)
    with pytest.raises(ConfigError):
        multipeakon_exact(0.5, 2.0, 0.0, side="middle")


def test_multipeakon_u_continuous_through_collapse():
    xs = np.linspace(-1.0, 2.0, 301)
    for alpha in (0.0, 0.5, 1.0):
        u_before, _ = multipeakon_exact(alpha, 2.0, xs, side="left")
        u_after, _ = multipeakon_exact(alpha, 2.0, xs, side="right")
        assert np.max(np.abs(u_before - u_after)) <= 1e-14
        # while F drops by alpha/2 across the atom
        _, f_b = multipeakon_exact(alpha, 2.0, 1.5, side="left")
        _, f_a = multipeakon_exact(alpha, 2.0, 1.5, side="right")
        assert f_b - f_a == pytest.approx(alpha / 2.0, abs=1e-15)


def test_cosine_initial_values():
    ref = ReferenceSolution(family="cosine", alpha=0.5)
    assert oracles.eval_u(ref, 0.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert oracles.eval_u(ref, 0.0, -3.0) == pytest.approx(1.0, abs=1e-12)
    assert oracles.eval_F(ref, 0.0, 4.0) == pytest.approx(2.0 * PI ** 2, rel=1e-12)


def test_cosine_energy_constant_until_first_breaking():
    # nothing breaks before t = 2/pi
    ref = ReferenceSolution(family="cosine", alpha=0.9)
    f_inf = 2.0 * PI ** 2
    assert ref.total_energy(0.0) == pytest.approx(f_inf, rel=1e-14)
    assert ref.total_energy(0.63) == pytest.approx(f_inf, rel=1e-14)
    assert ref.total_energy(0.65) < f_inf
    assert ref.total_energy(2.0) < ref.total_energy(1.0)
    # alpha = 0 conserves for all time
    cons = ReferenceSolution(family="cosine", alpha=0.0)
    assert cons.total_energy(5.0) == pytest.approx(f_inf, rel=1e-14)


def _arc_integral(fn, arcs, z):
    total = 0.0
    for lo, hi in arcs:
        upper = min(max(z, lo), hi)
        if upper > lo:
            val, _ = quad(fn, lo, upper, limit=200, epsabs=1e-12, epsrel=1e-11)
            total += val
    return total


def _integrals(fam, t, z):
    """B, J1 and J2 of the family fam at the time t and the point z, read
    from its columns there."""
    c = fam.columns(z)
    return fam._B(t, c), *fam._J12(t, c)


def test_cosine_dissipation_integrals_match_quadrature():
    fam = CosineFamily(0.3)
    t = 1.2
    arcs = fam.breaking_arcs(t)
    zeta = math.asin(2.0 / (PI * t)) / PI
    assert arcs[0][0] == pytest.approx(zeta, abs=1e-15)
    assert arcs[1] == (pytest.approx(2.0 + zeta), pytest.approx(3.0 - zeta))

    dens = lambda w: (PI * math.sin(PI * w)) ** 2
    tau = lambda w: 2.0 / (PI * math.sin(PI * w))
    j1 = lambda w: (t - tau(w)) * dens(w)
    j2 = lambda w: 0.5 * (t - tau(w)) ** 2 * dens(w)
    for z in (0.4, 0.9, 2.7, 5.0):
        B, J1, J2 = _integrals(fam, t, z)
        assert B == pytest.approx(_arc_integral(dens, arcs, z), abs=1e-9)
        assert J1 == pytest.approx(_arc_integral(j1, arcs, z), abs=1e-9)
        assert J2 == pytest.approx(_arc_integral(j2, arcs, z), abs=1e-9)
    assert fam.B_inf(t) == pytest.approx(_arc_integral(dens, arcs, 10.0), abs=1e-9)
    assert fam.J2_inf(t) == pytest.approx(_arc_integral(j2, arcs, 10.0), abs=1e-9)


def test_cusp_dissipation_integrals_match_quadrature():
    fam = CuspFamily(-1.0, 1.0, 0.5)
    t = 2.0
    r = t / 3.0  # broken region [-r^3, 0)
    dens = lambda w: (4.0 / 9.0) * abs(w) ** (-2.0 / 3.0)
    tau = lambda w: 3.0 * abs(w) ** (1.0 / 3.0)
    j1 = lambda w: (t - tau(w)) * dens(w)
    j2 = lambda w: 0.5 * (t - tau(w)) ** 2 * dens(w)
    for z in (-0.2, -0.05, 0.3):
        upper = min(z, 0.0)
        for closed, fn in zip(_integrals(fam, t, z), (dens, j1, j2)):
            if upper > -r ** 3:
                want, _ = quad(fn, -r ** 3, upper, limit=200, epsabs=1e-12)
            else:
                want = 0.0
            assert float(closed) == pytest.approx(want, abs=1e-8)
    # after every negative-branch characteristic has broken the totals freeze
    assert fam.B_inf(100.0) == pytest.approx(fam.B_inf(3.0), rel=1e-14)


def test_cusp_below_zero_integrals_match_quadrature():
    # with b < 0 the broken region [-r^3, b) ends at b, not at 0
    a, b, t = -1.0, -0.5, 2.8
    fam = CuspFamily(a, b, 0.5)
    lower = -((t / 3.0) ** 3)
    dens = lambda w: (4.0 / 9.0) * abs(w) ** (-2.0 / 3.0)
    tau = lambda w: 3.0 * abs(w) ** (1.0 / 3.0)
    j1 = lambda w: (t - tau(w)) * dens(w)
    j2 = lambda w: 0.5 * (t - tau(w)) ** 2 * dens(w)
    integrals = ((fam.B_inf, dens), (fam.J1_inf, j1), (fam.J2_inf, j2))
    for i, (total, fn) in enumerate(integrals):
        for z in (-0.9, -0.7, -0.6, -0.5, -0.2, 0.3):
            upper = min(z, b)
            want = quad(fn, lower, upper, limit=200, epsabs=1e-12)[0] if upper > lower else 0.0
            assert float(_integrals(fam, t, z)[i]) == pytest.approx(want, abs=1e-8)
        want = quad(fn, lower, b, limit=200, epsabs=1e-12)[0]
        assert float(total(t)) == pytest.approx(want, abs=1e-8)


# The maps at fixed z against a 60-digit evaluation (stdlib decimal) of the
# closed forms in the module docstring of hsalpha.reference: the cusp's J2 as
# the difference of its cubes, the cosine's sin and arcsin by series and
# Newton steps.

_D = decimal.Decimal
_DPI = _D("3.14159265358979323846264338327950288419716939937510582097494459")


def _dsin(x):
    term = total = x
    n = 1
    while abs(term) > _D("1e-70"):
        term *= -x * x / ((n + 1) * (n + 2))
        total += term
        n += 2
    return total


def _dcos(x):
    return _dsin(_DPI / 2 - x)


def _dasin(x):
    y = _D(math.asin(float(x)))
    for _ in range(8):
        y -= (_dsin(y) - x) / _dcos(y)
    return y


def _dcbrt(x):
    return (abs(x) ** (_D(1) / 3)).copy_sign(x)


def _exact_maps(t, z, u, F, F_inf, j1, j1_inf, j2, j2_inf):
    alpha = _D("0.5")
    U = u + t * F / 2 - t * F_inf / 4 - alpha * j1 / 2 + alpha * j1_inf / 4
    y = z + t * u + t * t * F / 4 - t * t * F_inf / 8 - alpha * j2 / 2 + alpha * j2_inf / 4
    return y, U


def _cusp_exact(t, z):
    # a = -1, b = 1, alpha = 1/2: the broken region is [-r^3, 0)
    w = min(max(z, _D(-1)), _D(1))
    r = min(_D(1), t / 3)
    rho = min(_dcbrt(-min(max(z, _D(-1)), _D(0))), r)
    j1 = lambda p: _D(4) / 3 * (t * (r - p) - _D("1.5") * (r * r - p * p))
    j2 = lambda p: _D(2) / 27 * ((t - 3 * p) ** 3 - (t - 3 * r) ** 3)
    F = _D(4) / 3 * (_dcbrt(w) + 1)
    return _exact_maps(t, z, _dcbrt(w) ** 2, F, _D(8) / 3, j1(rho), j1(0), j2(rho), j2(0))


def _cosine_exact(t, z):
    # alpha = 1/2; the arcs are broken from t = 2/pi on
    lam = lambda w: _DPI * _DPI * w / 2 - _DPI * _dsin(2 * _DPI * w) / 4
    g = (
        lambda w: t * lam(w) + 2 * _dcos(_DPI * w),
        lambda w: (t * t * lam(w) + 4 * t * _dcos(_DPI * w) + 4 * w) / 2,
    )
    at, total = [_D(0), _D(0)], [_D(0), _D(0)]
    zeta = _dasin(2 / (_DPI * t)) / _DPI
    for lo, hi in ((zeta, 1 - zeta), (2 + zeta, 3 - zeta)):
        for i in range(2):
            at[i] += g[i](min(max(z, lo), hi)) - g[i](lo)
            total[i] += g[i](hi) - g[i](lo)
    w = min(max(z, _D(0)), _D(4))
    u, F = _dcos(_DPI * w), lam(w)
    return _exact_maps(t, z, u, F, lam(_D(4)), at[0], total[0], at[1], total[1])


_EXACT = {
    "cusp": (CuspFamily(-1.0, 1.0, 0.5), _cusp_exact, [-1.5, -0.9, -0.5, -0.2, -1e-3, 0.3, 2.0]),
    "cosine": (CosineFamily(0.5), _cosine_exact, [-0.5, 0.3, 0.75, 1.5, 2.2, 2.5, 3.5, 5.0]),
}


@pytest.mark.parametrize("t", [3.0, 1e3, 1e6, 1e8, 1e10])
@pytest.mark.parametrize("family", ["cusp", "cosine"])
def test_maps_match_a_decimal_evaluation_up_to_large_times(family, t):
    # y and U of the float maps are within 1e-14 relative of the exact maps
    # at the same z, up to t = 1e10: J2 written as a difference of two cubes
    # of about t^3 would cancel its digits
    fam, exact, zs = _EXACT[family]
    c = fam.columns(np.array(zs))
    j1, j2 = fam._J12(t, c)
    got = zip(reference._char_position(fam, t, c, j2), reference._char_velocity(fam, t, c, j1))
    with decimal.localcontext(prec=60):
        for z, (y, U) in zip(zs, got):
            for value, want in zip((y, U), exact(_D(t), _D(z))):
                assert abs((_D(float(value)) - want) / want) <= _D("1e-14"), (z, value, want)


def test_cusp_eval_u_at_a_large_time():
    # u(1e10, 0.3) = -0.3124999998.  U's terms each reach about t F_inf
    # there, so U keeps an absolute error of about eps t F_inf = 6e-6 (the
    # float maps read -0.3124985695 at the z nearest the exact one)
    got = oracles.eval_u(ReferenceSolution("cusp", 0.5), 1e10, 0.3)
    assert got == pytest.approx(-0.3125, abs=1e-5)


@pytest.mark.parametrize("a, b", [(-6.0, -5.0), (-1.0, -0.5)])
def test_cusp_below_zero_energy_matches_pipeline(a, b):
    # nothing breaks before t = 3 |b|^(1/3); by t = 6 every cell has broken,
    # (-1, -0.5)'s already by t = 3
    first_break = 3.0 * abs(b) ** (1.0 / 3.0)
    for alpha in (0.5, 1.0):
        ref = ReferenceSolution(family="cusp", alpha=alpha, a=a, b=b)
        for t in (0.0, 1.0, 0.999 * first_break):
            assert ref.total_energy(t) == ref._fam.F_inf
        s = to_lagrangian(project(cusp_datum(a, b), ProjectionConfig(dx=2.0 ** -6)), alpha=alpha)
        for t in (3.0, 6.0):
            assert ref.total_energy(t) == pytest.approx(total_energy(evolve(s, t)), abs=1e-12)


def test_cusp_initial_values():
    ref = ReferenceSolution(family="cusp", alpha=0.5, a=-1.0, b=1.0)
    assert oracles.eval_u(ref, 0.0, 0.0) == pytest.approx(0.0, abs=1e-10)
    assert oracles.eval_F(ref, 0.0, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-12)
    assert ref.total_energy(0.0) == pytest.approx(8.0 / 3.0, rel=1e-14)


def test_reference_validation():
    with pytest.raises(ConfigError):
        ReferenceSolution(family="square", alpha=0.0)
    with pytest.raises(ConfigError):
        ReferenceSolution(family="cosine", alpha=1.5)
    with pytest.raises(ConfigError):
        ReferenceSolution(family="cusp", alpha=0.0, a=1.0, b=-1.0)
    ref = ReferenceSolution(family="cosine", alpha=0.0)
    with pytest.raises(ConfigError):
        oracles.eval_u(ref, -0.5, 0.0)


@pytest.mark.parametrize("family", ["cosine", "multipeakon_appA"])
@pytest.mark.parametrize("a, b", [(-3.0, 7.0), (-1.0, 2.0), (0.0, 1.0)])
def test_reference_refuses_a_cusp_interval_for_other_families(family, a, b):
    # only the cusp reads a and b; the other families would ignore them
    with pytest.raises(ConfigError, match="reads none"):
        ReferenceSolution(family, 0.5, a=a, b=b)
    ReferenceSolution(family, 0.5, a=-1, b=1)  # the defaults


@pytest.mark.parametrize("family", ["multipeakon_appA", "cosine", "cusp"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_and_positions_raise_config_error(family, bad):
    ref = ReferenceSolution(family=family, alpha=0.5)
    calls = [
        lambda: ref.profile(bad),
        lambda: ref.total_energy(bad),
        lambda: oracles.eval_u(ref, bad, 0.5),
        lambda: oracles.eval_F(ref, bad, 0.5),
        lambda: oracles.eval_u(ref, 1.0, bad),
        lambda: oracles.eval_F(ref, 1.0, bad),
    ]
    for call in calls:
        with pytest.raises(ConfigError, match="must be finite"):
            call()


def test_eval_f_monotone_and_u_matches_profile():
    ref = ReferenceSolution(family="cosine", alpha=0.25)
    t = 0.9
    xs = np.linspace(-0.5, 4.5, 41)
    fs = [oracles.eval_F(ref, t, x) for x in xs]
    assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))
    prof = ref.profile(t)
    for x in xs[::5]:
        assert oracles.eval_u(ref, t, x) == pytest.approx(float(prof.u_at(x)), abs=1e-5)
    assert oracles.oracle_total_energy(ref, t) == pytest.approx(ref.total_energy(t), rel=1e-12)
    assert prof.measure().total_mass() == pytest.approx(ref.total_energy(t), rel=1e-6)


def test_multipeakon_profile_sides():
    ref = ReferenceSolution(family="multipeakon_appA", alpha=0.5)
    before = ref.profile(2.0, side="left").measure()
    after = ref.profile(2.0, side="right").measure()
    assert before.atoms == ((0.75, 0.5),)
    assert after.atoms == ((0.75, 0.25),)


def test_multipeakon_measure_after_full_dissipation():
    # with alpha = 1 the sloped piece has zero width after t = 2 and no
    # energy is left: the measure is the zero measure
    ref = ReferenceSolution(family="multipeakon_appA", alpha=1.0)
    for t in (2.0, 2.5, 7.0):
        m = ref.profile(t).measure()
        assert m.atoms == () and m.total_mass() == 0.0


def test_cosine_reference_against_fine_pipeline():
    # independent cross-check: before any characteristic breaks the discrete
    # flow is exact at its moved gridpoints, so a fine mesh pins the reference
    alpha, t = 0.75, 0.6
    cfg = ExperimentConfig(example="cosine", alpha=alpha, T=t, k_range=(7,))
    sol = run_solve(cfg, 2.0 ** -14, [t])[-1]
    ref = ReferenceSolution(family="cosine", alpha=alpha)
    prof = ref.profile(t, x_lo=-1.0, x_hi=5.0, n_base=3 * sol.u.nodes.size)
    xs = sol.u.nodes[:: 8]
    diff = np.max(np.abs(sol.u(xs) - prof.u_at(xs)))
    rel = diff / np.max(np.abs(prof.u_at(xs)))
    assert rel <= 9.5e-3  # actual agreement is far tighter, ~1e-8
    assert rel <= 1e-6


def test_cusp_reference_against_coarse_pipeline():
    alpha, t = 0.5, 3.0
    d = cusp_datum(-1.0, 1.0)
    s = to_lagrangian(project(d, ProjectionConfig(dx=2.0 ** -6)), alpha=alpha)
    sol = to_eulerian(evolve(s, t))
    ref = ReferenceSolution(family="cusp", alpha=alpha, a=-1.0, b=1.0)
    prof = ref.profile(t, x_lo=float(sol.u.nodes[0]), x_hi=float(sol.u.nodes[-1]))
    xs = sol.u.nodes
    rel = np.max(np.abs(sol.u(xs) - prof.u_at(xs))) / np.max(np.abs(prof.u_at(xs)))
    assert rel <= 0.1  # k=3 rung of the convergence ladder


def test_initial_datum_constructors_match_families():
    dc = cosine_datum()
    assert float(dc.u(0.5)) == pytest.approx(0.0, abs=1e-16)
    assert float(dc.u(-2.0)) == 1.0
    assert float(dc.F_ac(4.0)) == pytest.approx(2.0 * PI ** 2, rel=1e-14)
    dk = cusp_datum(-1.0, 1.0)
    assert float(dk.u(0.0)) == 0.0
    assert float(dk.u(-1.0)) == 1.0
    assert float(dk.F_ac(1.0)) == pytest.approx(8.0 / 3.0, rel=1e-14)
    with pytest.raises(ConfigError):
        cusp_datum(1.0, -1.0)


def _sup_u(prof):
    return np.abs(prof.knot_u).max()


def _assert_same_energy(ref, t):
    assert ref.total_energy(t) == oracles.oracle_total_energy(ref, t)


def _assert_same_function(ref, got, want):
    # u and F at a dense sample reaching past both ends of want's knots and
    # at those knots, max |u| and the total energy; got's knots are some of
    # want's
    k = want.knots
    xs = np.concatenate((np.linspace(k[0] - 1.0, k[-1] + 1.0, 20001), k))
    assert np.array_equal(got.u_at(xs), want.u_at(xs))
    assert np.array_equal(got.measure().F_ac(xs), want.measure().F_ac(xs))
    assert _sup_u(got) == _sup_u(want)
    _assert_same_energy(ref, got.time)
    assert np.isin(got.knots, k).all()


def _assert_same_profile(ref, got, want):
    m_got, m_want = got.measure().F_ac, want.measure().F_ac
    assert np.array_equal(got.knots, want.knots)
    assert np.array_equal(got.u_at(got.knots), want.u_at(want.knots))
    assert np.array_equal(m_got(got.knots), m_want(want.knots))
    assert np.array_equal(got.knot_u, want.u_at(want.knots))
    assert _sup_u(got) == _sup_u(want)
    _assert_same_energy(ref, got.time)
    assert np.array_equal(m_got.nodes, m_want.nodes)
    assert np.array_equal(m_got.values, m_want.values)


# (-6, -5) and (5, 6) put the fixed anchor 0 outside the table's z-range
@pytest.mark.parametrize(
    "a, b, alpha",
    [
        (-1.0, 1.0, 0.5),
        (-0.7, 1.3, 1.0),
        (-2.0, 0.5, 0.0),
        (0.2, 1.0, 0.5),
        (-6.0, -5.0, 0.3),
        (5.0, 6.0, 0.5),
    ],
)
def test_cusp_profile_equals_from_scratch_table(a, b, alpha):
    ref = ReferenceSolution(family="cusp", alpha=alpha, a=a, b=b)
    for t in (0.0, 0.048, 1.0, 2.999, 3.0, 5.0):
        for x_lo, x_hi, n in ((a, b, 4001), (a - 0.3, b + 0.1, 6159), (a + 0.1, b - 0.2, 6159)):
            got = ref.profile(t, x_lo=x_lo, x_hi=x_hi, n_base=n)
            _assert_same_profile(ref, got, oracle_profile(ref, t, x_lo=x_lo, x_hi=x_hi, n_base=n))
            widened = oracle_profile(ref, t, x_lo=x_lo, x_hi=x_hi, n_base=n, widened_bulk=True)
            _assert_same_function(ref, got, widened)


@pytest.mark.parametrize("alpha", [0.0, 0.75, 1.0])
def test_cosine_profile_equals_from_scratch_table(alpha):
    ref = ReferenceSolution(family="cosine", alpha=alpha)
    first_break = 2.0 / PI
    for t in (0.0, 0.6, first_break, first_break * (1.0 + 1e-12), first_break + 1e-3, 1.2, 10.0):
        for x_lo, x_hi, n_base in ((None, None, 4001), (-0.7, 5.2, 6159), (-0.7, 5.2, 6159)):
            got = ref.profile(t, x_lo=x_lo, x_hi=x_hi, n_base=n_base)
            want = oracle_profile(ref, t, x_lo=x_lo, x_hi=x_hi, n_base=n_base)
            _assert_same_profile(ref, got, want)
            widened = oracle_profile(
                ref, t, x_lo=x_lo, x_hi=x_hi, n_base=n_base, widened_bulk=True
            )
            _assert_same_function(ref, got, widened)


@pytest.mark.parametrize("family", ["cusp", "cosine"])
def test_profile_reuse_across_calls_equals_from_scratch(family, monkeypatch):
    # n_base alternates as in a ladder rung whose cell count changes by one
    # collapse, the x-range moves, and two instances take turns: profile() is
    # a function of its arguments alone, building one static table per call,
    # and every table is the from-scratch one
    builds = []
    build = reference._static_points
    monkeypatch.setattr(
        reference, "_static_points", lambda fam, n: builds.append(n) or build(fam, n)
    )
    refs = [ReferenceSolution(family=family, alpha=0.5) for _ in range(2)]
    lo, hi = oracles.initial_datum(refs[0]).support_hint
    calls = [
        (t, lo - 0.01 * i, hi + 0.02 * i, 6156 if i % 4 == 3 else 6159)
        for i, t in enumerate(np.linspace(0.0, 3.0, 24))
    ]
    calls += [(3.0, lo, hi, 4001), (3.0, lo, hi, 4001), (2.5, lo, hi, 4001)]
    for i, (t, x_lo, x_hi, n) in enumerate(calls):
        ref = refs[i % 2]
        got = ref.profile(float(t), x_lo=x_lo, x_hi=x_hi, n_base=n)
        want = oracle_profile(ref, float(t), x_lo=x_lo, x_hi=x_hi, n_base=n)
        _assert_same_profile(ref, got, want)
    assert builds == [n for *_, n in calls]


def _cusp_times(a, b):
    # one batch of early and late times: t = 0, the first break of an
    # interval b < 0 (3 v_top), and the time 3 |a|^(1/3) at which r reaches
    # its cap, approached from both sides and passed
    cap = 3.0 * abs(min(a, 0.0)) ** (1.0 / 3.0) if a < 0.0 else 3.0
    first = 3.0 * abs(min(b, 0.0)) ** (1.0 / 3.0)
    ts = [0.0, 1e-3, first, first + 1e-9, 0.5 * (first + cap), cap * (1.0 - 1e-12), cap]
    return np.array(sorted(set(ts + [cap + 1e-12, 1.5 * cap + 0.5])))


# a > 0 breaks nothing; b < 0 floors r at v_top
@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-0.7, 1.3), (-1.0, -0.5), (0.2, 1.0)])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_cusp_table_maps_equal_pointwise_maps(a, b, alpha):
    # the maps on a batch of table rows, J1 and J2 in a Workspace, equal the
    # oracle's maps bit for bit, row by row
    fam = CuspFamily(a, b, alpha)
    ofam = oracles._CuspFamily(a, b, alpha)
    c = fam.columns(reference._static_points(fam, 4001))
    ts = _cusp_times(a, b)
    t = ts[:, None]
    j1, j2 = fam._J12(t, c, reference._Workspace())
    U = reference._char_velocity(fam, t, c, j1, np.empty((ts.size, c["z"].size)))
    Y = reference._char_position(fam, t, c, j2, np.empty(U.shape), np.empty(U.shape))
    for row, tj in enumerate(ts.tolist()):
        assert np.array_equal(U[row], oracles._char_velocity(ofam, tj, c["z"]))
        assert np.array_equal(Y[row], oracles._char_position(ofam, tj, c["z"]))


def _rung_rows(ref, ts, x_lo, x_hi):
    rows, _ = ref._rung(n_base=6159)
    got = list(rows(ts, x_lo, x_hi))
    assert len(got) == ts.size
    assert all(u_at is None for *_, u_at in got)
    return got


def _assert_rows_equal_tables(ref, got, ts, x_lo, x_hi):
    # each row is the table of profile() and the from-scratch one, bit for bit
    for (knots, knot_u, _), tj, lo, hi in zip(got, ts.tolist(), x_lo, x_hi):
        for prof in (
            ref.profile(tj, x_lo=lo, x_hi=hi, n_base=6159),
            oracle_profile(ref, tj, x_lo=lo, x_hi=hi, n_base=6159),
        ):
            assert knots.tobytes() == prof.knots.tobytes()
            assert knot_u.tobytes() == prof.knot_u.tobytes()


def _table_args(ref, ts):
    lo, hi = oracles.initial_datum(ref).support_hint
    return ts, np.full(ts.size, lo - 0.2) - 0.01 * np.arange(ts.size), np.full(ts.size, hi + 0.3)


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (-1.0, -0.5), (0.2, 1.0)])
def test_cusp_batched_tables_equal_profiles(a, b):
    # one batch of early and late rows, with the running max and the kept
    # knots taken on the whole batch, gives each time's profile() table
    ref = ReferenceSolution(family="cusp", alpha=0.5, a=a, b=b)
    args = _table_args(ref, _cusp_times(a, b))
    _assert_rows_equal_tables(ref, _rung_rows(ref, *args), *args)


#: rows before the cosine's first break pad their moving points in a batch
#: with later rows; the arc covers are thin just after the break
_COSINE_TIMES = np.array(
    [0.0, 0.3, 2.0 / PI, 2.0 / PI * (1.0 + 1e-12), 2.0 / PI + 1e-3, 0.9, 1.2, 3.0, 10.0]
)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_cosine_batched_tables_equal_profiles(alpha, monkeypatch):
    # a cosine row is wider than half a chunk: the chunk is widened to hold
    # the whole batch
    ref = ReferenceSolution(family="cosine", alpha=alpha)
    args = _table_args(ref, _COSINE_TIMES)
    monkeypatch.setattr(numerics, "_CHUNK_FLOATS", _COSINE_TIMES.size * ref._rung(6159)[1])
    _assert_rows_equal_tables(ref, _rung_rows(ref, *args), *args)


@pytest.mark.parametrize("family", ["cusp", "cosine"])
def test_tiled_rung_rows_equal_profiles(family, monkeypatch):
    # a row wider than half a chunk is a chunk of its own, taken in tiles of
    # _CHUNK_FLOATS static points: with tiles of 64 and 1000 points (the
    # cosine's arc covers then straddle tiles), one tile per row, and
    # chunks of two rows whose last chunk holds one, every row is the
    # from-scratch table and profile()'s, bit for bit
    ref = ReferenceSolution(family=family, alpha=0.5)
    ts = _cusp_times(-1.0, 1.0)[1:] if family == "cusp" else _COSINE_TIMES
    assert ts.size % 2 == 1
    args = _table_args(ref, ts)
    width = ref._rung(n_base=6159)[1]
    for chunk in (64, 1000, width, 2 * width):
        monkeypatch.setattr(numerics, "_CHUNK_FLOATS", chunk)
        _assert_rows_equal_tables(ref, _rung_rows(ref, *args), *args)


@pytest.mark.parametrize(
    "family, t, coincide",
    [
        # from t = 3 on, the moving ladder at -r^3 = a is the static one at a
        ("cusp", 3.0, True),
        ("cusp", 5.0, True),
        # points of an arc cover sort just before the first static point of
        # a tile, at every tile start inside the cover
        ("cosine", 1.2, False),
        ("cosine", 2.0 / PI + 1e-3, False),
    ],
)
def test_tile_edge_moving_points(family, t, coincide, monkeypatch):
    # tiles that start where a moving point sorts: at a static point equal
    # to it, or with moving points between the previous tile's last static
    # point and the tile's first; profile() and a rung's one-row table are
    # the from-scratch table, bit for bit
    ref = ReferenceSolution(family=family, alpha=0.5)
    z = reference._static_points(ref._fam, 6159)
    x_lo, x_hi = -2.0, 6.0
    moving = reference._moving_points(ref._fam, np.full((1, 1), t), x_lo, x_hi)[0][0]
    want = oracle_profile(ref, t, x_lo=x_lo, x_hi=x_hi, n_base=6159)
    # a tile starts where -1.0 sorts, or where a cover point does
    before = z.searchsorted(moving[~np.isin(moving, z)])
    edges = [int(z.searchsorted(-1.0))] if coincide else [64, int(before[before.size // 2])]
    for chunk in edges:
        # the static points in the z-range start at 0
        starts = np.arange(chunk, z.size, chunk)
        if coincide:
            assert np.isin(z[starts], moving).any()
        else:
            assert np.isin(starts, before).any()
        monkeypatch.setattr(numerics, "_CHUNK_FLOATS", chunk)
        _assert_bitwise_profile(ref, ref.profile(t, x_lo=x_lo, x_hi=x_hi, n_base=6159), want)
        ts = np.array([t])
        (row,) = _rung_rows(ref, ts, np.array([x_lo]), np.array([x_hi]))
        assert row[0].tobytes() == want.knots.tobytes()
        assert row[1].tobytes() == want.knot_u.tobytes()


def _assert_bitwise_profile(ref, got, want):
    for name in ("knots", "knot_u"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert _sup_u(got) == _sup_u(want)
    _assert_same_energy(ref, got.time)
    m_got, m_want = got.measure().F_ac, want.measure().F_ac
    assert m_got.nodes.tobytes() == m_want.nodes.tobytes()
    assert m_got.values.tobytes() == m_want.values.tobytes()


@pytest.mark.parametrize(
    "family, alpha, t",
    [
        ("cosine", 0.0, 0.6),
        ("cosine", 0.5, 1.2),
        # before the first break: no dissipation integrals (None), though alpha > 0
        ("cosine", 0.5, 0.6),
        ("cusp", 0.0, 3.0),
        ("cusp", 0.5, 0.0),
        ("cusp", 0.5, 2.0),
        ("cusp", 1.0, 4.0),
    ],
)
def test_profile_blocks_equal_whole_array_profile(family, alpha, t, monkeypatch):
    # the table is built in tiles of _CHUNK_FLOATS static points, with the
    # running max and _Kept's look-ahead carried across tiles: one tile with
    # room to spare, one tile just full, two tiles (the second of one
    # point), four tiles and tiles of 64 points give the from-scratch table
    # (one array per map) bit for bit
    ref = ReferenceSolution(family=family, alpha=alpha)
    want = oracle_profile(ref, t, x_lo=-2.0, x_hi=6.0, n_base=6159)
    sizes = []
    monkeypatch.setattr(reference, "_Kept", lambda n, k: sizes.append(n) or numerics._Kept(n, k))
    _assert_bitwise_profile(ref, ref.profile(t, x_lo=-2.0, x_hi=6.0, n_base=6159), want)
    (n,) = sizes
    assert n > want.knots.size / 2
    # every static point lies in the table's z-range
    s = reference._static_points(ref._fam, 6159).size
    for chunk in (s + 1, s, s - 1, s // 4, 64):
        monkeypatch.setattr(numerics, "_CHUNK_FLOATS", chunk)
        _assert_bitwise_profile(ref, ref.profile(t, x_lo=-2.0, x_hi=6.0, n_base=6159), want)


def _huge_rung(T):
    return ExperimentConfig(example="cusp", alpha=0.5, T=T, k_range=(1,), time_samples=2)


_HUGE = [
    ("cusp", lambda ref: ref.profile(1e200)),
    ("cusp", lambda ref: oracles.eval_u(ref, 1e200, 0.3)),
    ("cusp", lambda ref: oracles.eval_F(ref, 1e200, 0.3)),
    # the table's reach 1 + t u_max + t^2 F_inf overflows
    ("cusp", lambda ref: ref.profile(1.2e154)),
    ("cusp", lambda ref: oracles.eval_u(ref, 1e150, 0.3)),
    ("cosine", lambda ref: ref.profile(1e200)),
    ("cosine", lambda ref: oracles.eval_u(ref, 1e200, 0.3)),
    ("cosine", lambda ref: oracles.eval_F(ref, 1e200, 0.3)),
    # the inversion's xtol lies below an ulp of z
    ("cosine", lambda ref: oracles.eval_u(ref, 1e120, 0.3)),
    ("multipeakon_appA", lambda ref: ref.profile(1e200)),
    ("multipeakon_appA", lambda ref: oracles.eval_F(ref, 1e200, 0.3)),
    # a ladder rung: at 1.2e154 the evolution stays finite and the tables
    # do not; from 1e155 the evolution overflows first
    ("cusp", lambda ref: run_eoc(_huge_rung(1.2e154))),
    ("cusp", lambda ref: run_eoc(_huge_rung(1e155))),
]


@pytest.mark.parametrize("family, call", _HUGE, ids=[f"{f}-{i}" for i, (f, _) in enumerate(_HUGE)])
def test_huge_finite_time_raises_numeric_error(family, call):
    # a time so large that the characteristics overflow is reported as
    # NumericError (as evolve reports it), without a warning on the way
    ref = ReferenceSolution(family=family, alpha=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            call(ref)


@pytest.mark.parametrize("T", [1e103, 1e150, 1e153])
def test_huge_rung_short_of_the_overflow_returns_finite_rows(T):
    # the rung's tables overflow only where t^2 F_inf does: up to there
    # every k=1 row reads the error of the rung at T = 1e103
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = run_eoc(_huge_rung(T)).rows
    assert row[2] == pytest.approx(0.2637239398, rel=1e-9)


_BAD_PROFILE_ARGS = {
    "n_base-nan": dict(n_base=math.nan),
    "n_base-inf": dict(n_base=math.inf),
    "n_base-fraction": dict(n_base=4001.5),
    "n_base-huge": dict(n_base=10**12),
    "n_base-above-a-ladder": dict(n_base=3 * (MAX_CELLS + 1) + 1),
    "x_lo-nan": dict(x_lo=math.nan),
    "x_lo-inf": dict(x_lo=math.inf),
    "x_hi-minus-inf": dict(x_hi=-math.inf),
    "side": dict(side="middle"),
}


@pytest.mark.parametrize("family", ["cosine", "cusp"])
@pytest.mark.parametrize("kwargs", _BAD_PROFILE_ARGS.values(), ids=_BAD_PROFILE_ARGS.keys())
def test_profile_rejects_bad_arguments(family, kwargs):
    # raised before any table is made (an n_base of 10**12 would ask for
    # terabytes)
    with pytest.raises(ConfigError):
        ReferenceSolution(family=family, alpha=0.5).profile(1.0, **kwargs)


def _energy_at_minus_one(family):
    return lambda: ReferenceSolution(family=family, alpha=0.5).total_energy(-1.0)


_INVALID = {
    "two-peak-nan-time": lambda: multipeakon_exact(0.5, math.nan, 0.3),
    "two-peak-inf-time": lambda: multipeakon_exact(0.5, math.inf, 0.3),
    "two-peak-nan-x": lambda: multipeakon_exact(0.5, 1.0, math.nan),
    "two-peak-inf-in-xs": lambda: multipeakon_exact(0.5, 1.0, np.array([0.0, math.inf])),
    "cosine-energy-negative-time": _energy_at_minus_one("cosine"),
    "cusp-energy-negative-time": _energy_at_minus_one("cusp"),
    "two-peak-energy-negative-time": _energy_at_minus_one("multipeakon_appA"),
}


@pytest.mark.parametrize("call", _INVALID.values(), ids=_INVALID.keys())
def test_non_finite_or_negative_inputs_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()
