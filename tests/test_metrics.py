import math

import numpy as np
import pytest

import hsalpha.numerics as numerics
from hsalpha.errors import MassMismatchError
from hsalpha.eulerian import EnergyMeasure, PiecewiseLinear
from hsalpha.metrics import w1
from hsalpha.projection import ProjectionConfig, project
from hsalpha.reference import cusp_datum
import oracles
from oracles import (
    PiecewiseConstant,
    _translate_l2_pc,
    besov_seminorm,
    default_h_grid,
    l2_diff,
    linf_diff,
    linf_diff_sampled,
    projection_error,
    slopes,
    whole_array_w1,
)

FLAT = PiecewiseLinear(np.array([-3.0, 3.0]), np.array([0.0, 0.0]))


def atom_measure(*atoms):
    return EnergyMeasure(FLAT, atoms=tuple(atoms))


def uniform_measure(lo, hi, mass=1.0):
    return EnergyMeasure(PiecewiseLinear(np.array([lo, hi]), np.array([0.0, mass])))


def random_measure(rng):
    """One uniform block plus one atom, total mass exactly 1."""
    m_atom = rng.uniform(0.1, 0.9)
    lo = rng.uniform(-2.0, 0.0)
    nodes = np.array([lo, lo + rng.uniform(0.5, 2.0)])
    f = PiecewiseLinear(nodes, np.array([0.0, 1.0 - m_atom]))
    return EnergyMeasure(f, atoms=((rng.uniform(-2.0, 2.0), m_atom),))


def test_linf_diff_cases():
    tent = PiecewiseLinear(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    zero = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    const = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.7, 0.7]))
    assert linf_diff(tent, tent) == 0.0
    assert linf_diff(zero, const) == 0.7
    assert linf_diff(tent, zero) == 1.0
    assert linf_diff(tent, zero) == linf_diff(zero, tent)


def test_linf_diff_sampled_parabola():
    b = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    err = linf_diff_sampled(lambda x: np.asarray(x) ** 2, b, n_samples=3)
    assert err == 0.25  # attained at the sampled midpoint
    assert linf_diff_sampled(lambda x: b(x), b, n_samples=5) == 0.0
    with pytest.raises(ValueError):
        linf_diff_sampled(lambda x: b(x), b, n_samples=1)


def test_w1_identical_and_unit_atoms():
    m = atom_measure((0.0, 1.0))
    assert w1(m, m) == 0.0
    assert w1(m, atom_measure((1.0, 1.0))) == 1.0


def test_w1_translated_uniform():
    assert w1(uniform_measure(0.0, 1.0), uniform_measure(0.3, 1.3)) == pytest.approx(
        0.3, abs=1e-15
    )


def test_w1_atom_vs_uniform():
    got = w1(atom_measure((0.0, 1.0)), uniform_measure(-0.5, 0.5))
    assert got == pytest.approx(0.25, abs=1e-15)


def test_w1_mass_mismatch():
    with pytest.raises(MassMismatchError):
        w1(atom_measure((0.0, 1.0)), atom_measure((0.0, 0.9)))
    # differences inside the tolerance are accepted
    w1(atom_measure((0.0, 1.0)), atom_measure((0.0, 1.0 + 5e-13)))


def test_w1_symmetry_and_triangle_random():
    rng = np.random.default_rng(11)
    for _ in range(8):
        a, b, c = (random_measure(rng) for _ in range(3))
        assert w1(a, b) == w1(b, a)
        assert w1(a, c) <= w1(a, b) + w1(b, c) + 1e-12
        assert w1(a, a) == 0.0


def _pair_integral(psi: PiecewiseLinear, m: EnergyMeasure) -> float:
    """Exact integral of a piecewise-linear test function against a measure."""
    total = sum(mass * float(psi(p)) for p, mass in oracles.atoms_of(m))
    f = m.F_ac
    dens = PiecewiseConstant(f.nodes, np.diff(f.values) / np.diff(f.nodes))
    edges = np.union1d(psi.nodes, f.nodes)
    edges = edges[(edges >= f.nodes[0]) & (edges <= f.nodes[-1])]
    for a, b in zip(edges[:-1], edges[1:]):
        rho = float(dens(0.5 * (a + b)))
        total += rho * 0.5 * (b - a) * (float(psi(a)) + float(psi(b)))
    return total


def test_w1_dominates_lipschitz_pairings():
    # any test function with sup + Lip <= 1 pairs below W1 (d_BL <= W1)
    rng = np.random.default_rng(23)
    grid = np.linspace(-4.0, 4.0, 17)
    for _ in range(10):
        m1, m2 = random_measure(rng), random_measure(rng)
        vals = rng.uniform(-1.0, 1.0, grid.size)
        lip = float(np.max(np.abs(np.diff(vals) / np.diff(grid))))
        scale = max(float(np.max(np.abs(vals))) + lip, 1.0)
        psi = PiecewiseLinear(grid, vals / scale)
        pairing = abs(_pair_integral(psi, m1) - _pair_integral(psi, m2))
        assert pairing <= w1(m1, m2) + 1e-12


def test_l2_diff_cases():
    tent = PiecewiseLinear(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
    zero = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    assert l2_diff(tent, tent) == 0.0
    assert l2_diff(tent, zero) == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-14)
    step = PiecewiseConstant(np.array([0.0, 1.0]), np.array([1.0]))
    none = PiecewiseConstant(np.array([0.0, 1.0]), np.array([0.0]))
    assert l2_diff(step, none) == 1.0
    with pytest.raises(TypeError):
        l2_diff(tent, step)
    ramp = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        l2_diff(ramp, zero)  # difference does not vanish at the edges


def test_cusp_slope_error_decay():
    # the cusped profile's slope lies in the beta = 1/6 translate class, so
    # the projected slope error must decay at least like dx^(1/12)
    d = cusp_datum(-1.0, 1.0)
    dxs, errs = [], []
    for k in (1, 2, 3, 4):
        dx = 2.0 ** (-2 * k)
        errs.append(projection_error(d, project(d, ProjectionConfig(dx=dx)))[2])
        dxs.append(dx)
    fitted = np.polyfit(np.log(dxs), np.log(errs), 1)[0]
    assert fitted >= 1.0 / 12.0 - 0.02


def test_besov_box_profile_exact():
    box = PiecewiseConstant(np.array([0.0, 1.0]), np.array([1.0]))
    est = besov_seminorm(box, 0.5)
    assert est.seminorm == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert est.beta == 0.5
    # definitional: the estimate dominates every sampled translate quotient
    for h in est.h_grid:
        norm = math.sqrt(2.0 * min(h, 1.0))
        assert est.seminorm * h ** 0.5 >= norm - 1e-12


def test_besov_zero_profile():
    zero = PiecewiseConstant(np.array([0.0, 1.0]), np.array([0.0]))
    assert besov_seminorm(zero, 0.3).seminorm == 0.0


def test_besov_peakon_slope(peakon_datum):
    # ramp slope is a box of height -1 on [0, 1/2]: exact estimate sqrt(2),
    # comfortably below the crude 2 sup TV cap, and stable in the h grid
    ux = PiecewiseConstant(peakon_datum.u.nodes, slopes(peakon_datum.u))
    est = besov_seminorm(ux, 0.5)
    assert est.seminorm == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert est.seminorm <= 2.0 * 1.0 * 2.0
    fine = besov_seminorm(ux, 0.5, h_grid=np.geomspace(1e-4, 2.0, 80))
    assert abs(fine.seminorm - est.seminorm) <= 0.05 * est.seminorm


def test_besov_definitional_invariant_random():
    rng = np.random.default_rng(2)
    breaks = np.sort(rng.uniform(-1.0, 1.0, 6))
    f = PiecewiseConstant(breaks, rng.uniform(-1.0, 1.0, 5))
    est = besov_seminorm(f, 0.7)
    for h in est.h_grid[::5]:
        assert est.seminorm * h ** 0.7 >= _translate_l2_pc(f, h) - 1e-12


def test_besov_validation():
    box = PiecewiseConstant(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        besov_seminorm(box, 0.0)
    with pytest.raises(ValueError):
        besov_seminorm(box, 1.5)
    with pytest.raises(ValueError):
        besov_seminorm(box, 0.5, h_grid=[3.0])
    with pytest.raises(ValueError):
        besov_seminorm(lambda x: 0.0, 0.5)  # callable needs a support interval
    with pytest.raises(TypeError):
        besov_seminorm(object(), 0.5)
    assert default_h_grid()[0] >= 1e-4 and default_h_grid()[-1] <= 2.0


def _interleaved_measures(n_edges, rng, atoms):
    """Two measures of mass 3 whose breakpoints (nodes and atoms) are n_edges
    distinct points: alternate points with the two ends shared, and atoms
    (if any) on points that are nodes already."""
    x = np.cumsum(rng.uniform(0.5, 1.5, n_edges))
    out = []
    for nodes in (x[0::2], np.union1d(x[1::2], x[[0, -1]])):
        pos = np.sort(rng.choice(x, atoms, replace=False))
        masses = rng.uniform(0.1, 0.3, atoms)
        F = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 1.0, nodes.size - 1))))
        F *= (3.0 - math.fsum(masses)) / F[-1]
        out.append(EnergyMeasure(PiecewiseLinear(nodes, F), atoms=tuple(zip(pos, masses))))
    return out


@pytest.mark.parametrize("chunk", [7, numerics._CHUNK_FLOATS])
@pytest.mark.parametrize("segments", ["B-1", "B", "B+1", "3B+5"])
@pytest.mark.parametrize("atoms", [0, 3])
def test_w1_blocks_equal_whole_array_w1(chunk, segments, atoms, monkeypatch):
    # the merged breakpoints are taken in blocks of _CHUNK_FLOATS segments:
    # one short of a block, one block, one past it and several, with and
    # without atoms, give the whole-array W1 bit for bit, both ways round
    monkeypatch.setattr(numerics, "_CHUNK_FLOATS", chunk)
    n = {"B-1": chunk - 1, "B": chunk, "B+1": chunk + 1, "3B+5": 3 * chunk + 5}[segments]
    m1, m2 = _interleaved_measures(n + 1, np.random.default_rng(n + atoms), atoms)
    assert np.union1d(m1.F_ac.nodes, m2.F_ac.nodes).size == n + 1
    for a, b in ((m1, m2), (m2, m1)):
        got = w1(a, b)
        assert got > 0.0
        assert got == whole_array_w1(a, b)


def _touching_measures(n_edges, rng, atoms):
    """Two measures of equal mass whose breakpoints are n_edges points, one of
    them a zero that is -0.0 in the first measure's nodes and +0.0 in the
    second's.  Both have nodes at the ends, at the zero and at about a
    tenth of the other points, where their cumulatives agree exactly (every
    value is a multiple of 1/64), and both are flat over the first three
    points, so some segments have a difference of exactly zero at one end
    or both; between those the difference changes sign.  atoms is "none",
    "one" (atoms in the first measure only) or "both"; an atom sits on a
    node or between two points."""
    x = np.cumsum(rng.integers(32, 96, n_edges) / 64.0)
    x -= x[n_edges // 2]
    G = np.cumsum(rng.integers(64, 128, n_edges) / 64.0)
    G[:3] = 0.0
    shared = rng.random(n_edges) < 0.1
    shared[[0, -1, n_edges // 2]] = True
    shared[:3] = True
    noise = rng.integers(-16, 17, n_edges) / 64.0
    noise[shared] = 0.0
    placed = {
        "none": ((), ()),
        "one": (((x[5], 0.25), (0.5 * (x[n_edges - 6] + x[n_edges - 5]), 0.125)), ()),
        "both": (((x[4], 0.25), (x[n_edges - 5], 0.125)), ((x[n_edges // 3], 0.375),)),
    }[atoms]
    out = []
    for parity, pairs in zip((0, 1), placed):
        on = shared | (np.arange(n_edges) % 2 == parity)
        pos = np.array([p for p, _ in pairs])
        mass = np.array([m for _, m in pairs])
        F = G + noise
        # the atom mass below each point leaves the a.c. part
        F -= np.concatenate(([0.0], np.cumsum(mass)))[np.searchsorted(pos, x, side="left")]
        nodes = x[on].copy()
        if parity == 0:
            nodes[nodes == 0.0] = -0.0
        out.append(EnergyMeasure(PiecewiseLinear(nodes, F[on]), atoms=pairs))
    return out


def _oracle_differences(m1, m2):
    edges = np.unique(
        np.concatenate((m1.F_ac.nodes, m2.F_ac.nodes, m1.atom_positions, m2.atom_positions))
    )
    da = oracles._cumulative(m1, edges[:-1], "right") - oracles._cumulative(m2, edges[:-1], "right")
    db = oracles._cumulative(m1, edges[1:], "left") - oracles._cumulative(m2, edges[1:], "left")
    return da, db


@pytest.mark.parametrize("atoms", ["none", "one", "both"])
@pytest.mark.parametrize("chunk", ["B-1", "B", "B+1", "7"])
def test_w1_touching_measures_equal_whole_array_w1(atoms, chunk, monkeypatch):
    # one evaluation of each cumulative per breakpoint, atoms added per side
    # and the crossing formula only where the difference changes sign give
    # the whole-array W1 bit for bit: with segments that cross zero, that
    # end or start at a zero difference or are zero at both ends, shared
    # nodes, a -0.0 and a +0.0 node, atoms on one side or both, and blocks
    # one short of, equal to and one past the segment count
    m1, m2 = _touching_measures(301, np.random.default_rng(5), atoms)
    da, db = _oracle_differences(m1, m2)
    n = da.size
    assert n == 300 + (atoms == "one")
    assert (da * db < 0.0).any()
    assert ((da == 0.0) & (db == 0.0)).any()
    assert ((da == 0.0) & (db != 0.0)).any() and ((da != 0.0) & (db == 0.0)).any()
    (z1,), (z2,) = (m.F_ac.nodes[m.F_ac.nodes == 0.0] for m in (m1, m2))
    assert np.signbit(z1) and not np.signbit(z2)
    blocks = {"B-1": n - 1, "B": n, "B+1": n + 1, "7": 7}[chunk]
    monkeypatch.setattr(numerics, "_CHUNK_FLOATS", blocks)
    for a, b in ((m1, m2), (m2, m1)):
        got = w1(a, b)
        assert got > 0.0
        assert got == oracles.whole_array_w1(a, b)
