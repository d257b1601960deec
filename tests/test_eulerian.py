import math

import numpy as np
import pytest

from hsalpha.errors import ConfigError
from hsalpha.eulerian import (
    EnergyMeasure,
    EulerianSolution,
    InitialDatum,
    PiecewiseConstant,
    PiecewiseLinear,
    eval_cumulative,
    make_multipeakon,
)
from oracles import check_solution_consistency, slopes, validate


def test_piecewise_linear_basics():
    f = PiecewiseLinear(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 0.0]))
    assert f(0.5) == 1.0
    assert f(2.0) == 1.0
    # constant extension both sides
    assert f(-5.0) == 0.0
    assert f(10.0) == 0.0
    assert np.allclose(slopes(f), [2.0, -1.0])


def test_piecewise_linear_rejects_bad_nodes():
    with pytest.raises(ValueError):
        PiecewiseLinear(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PiecewiseLinear(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        PiecewiseLinear(np.array([0.0, np.inf]), np.array([0.0, 1.0]))


def test_piecewise_constant_eval():
    g = PiecewiseConstant(np.array([0.0, 1.0, 2.0]), np.array([3.0, -1.0]))
    assert g(0.5) == 3.0
    assert g(1.0) == -1.0  # right-open cells
    assert g(2.0) == 0.0
    assert g(-0.1) == 0.0


def test_energy_measure_atom_validation():
    flat = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        EnergyMeasure(flat, atoms=((0.0, -1.0),))
    with pytest.raises(ValueError):
        EnergyMeasure(flat, atoms=((1.0, 0.5), (0.0, 0.5)))
    with pytest.raises(ValueError):
        EnergyMeasure(PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, 0.0])), ())


def test_cumulative_single_atom_sides():
    flat = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    m = EnergyMeasure(flat, atoms=((0.75, 0.5),))
    assert eval_cumulative(m, 0.75, side="left") == 0.0
    assert eval_cumulative(m, 0.75, side="right") == 0.5
    assert eval_cumulative(m, 1.0, side="left") == 0.5


def test_cumulative_zero_measure():
    flat = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    m = EnergyMeasure(flat)
    xs = np.linspace(-3.0, 3.0, 13)
    assert np.all(eval_cumulative(m, xs) == 0.0)


def test_cumulative_rejects_bad_side():
    flat = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        eval_cumulative(EnergyMeasure(flat), 0.0, side="middle")


def test_cumulative_monotone_and_side_order():
    f = PiecewiseLinear(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 0.5]))
    m = EnergyMeasure(f, atoms=((0.5, 0.2), (1.5, 0.3)))
    xs = np.linspace(-1.0, 3.0, 401)
    left = eval_cumulative(m, xs, side="left")
    right = eval_cumulative(m, xs, side="right")
    assert np.all(np.diff(left) >= 0.0)
    assert np.all(np.diff(right) >= 0.0)
    assert np.all(right >= left)
    assert math.isclose(m.total_mass(), 1.0)


def test_make_multipeakon_ramp_datum():
    d = make_multipeakon([(0.0, 0.5), (0.5, 0.0)])
    assert d.u(-1.0) == 0.5
    assert d.u(0.25) == 0.25
    assert d.u(2.0) == 0.0
    assert d.u_x(0.1) == -1.0
    assert d.u_x(-0.1) == 0.0
    # energy cumulative: slope (-1)^2 over [0, 1/2]
    assert d.F_ac(0.5) == 0.5
    assert eval_cumulative(EnergyMeasure(d.F_ac), 0.51, side="right") == 0.5
    assert d.atoms == ()


def test_make_multipeakon_single_point():
    d = make_multipeakon([(1.0, 3.0)])
    assert d.u(0.0) == 3.0
    assert d.u(2.0) == 3.0
    assert float(d.F_ac(5.0)) == 0.0


def test_make_multipeakon_tent_energy():
    d = make_multipeakon([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    assert float(d.F_ac(2.0)) == 2.0
    assert float(d.F_ac(1.0)) == 1.0


def test_make_multipeakon_rejects_nonmonotone():
    with pytest.raises(ConfigError):
        make_multipeakon([(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ConfigError):
        make_multipeakon([])


def test_validate_accepts_ramp_datum(peakon_datum):
    rep = validate(peakon_datum)
    assert rep.ok
    assert rep.max_violation < 1e-10


def test_validate_catches_energy_mismatch():
    # F_ac rises with slope 2 but u_x is identically 1: off by 1 per unit length
    d = InitialDatum(
        u=PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
        u_x=PiecewiseConstant(np.array([0.0, 1.0]), np.array([1.0])),
        F_ac=PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0])),
        support_hint=(0.0, 1.0),
    )
    rep = validate(d)
    assert not rep.ok
    assert math.isclose(rep.max_violation, 1.0, rel_tol=1e-6)


def test_validate_catches_negative_atom():
    d = make_multipeakon([(0.0, 0.5), (0.5, 0.0)])
    with pytest.raises(ValueError):
        InitialDatum(
            u=d.u,
            u_x=d.u_x,
            F_ac=d.F_ac,
            atoms=((0.2, -0.5),),
            support_hint=d.support_hint,
        )


def test_initial_datum_rejects_bad_support():
    f = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        InitialDatum(u=f, u_x=f, F_ac=f, support_hint=(1.0, 1.0))


def test_solution_consistency_defect():
    u = PiecewiseLinear(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    good_f = PiecewiseLinear(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    sol = EulerianSolution(u, EnergyMeasure(good_f), time=0.0)
    assert check_solution_consistency(sol) < 1e-15

    bad_f = PiecewiseLinear(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.5, 1.5]))
    bad = EulerianSolution(u, EnergyMeasure(bad_f), time=0.0)
    assert check_solution_consistency(bad) > 0.3

