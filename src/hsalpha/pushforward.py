"""Reconstruction of the Eulerian pair (u, energy measure) from Lagrangian data.

The map sends a Lagrangian state to the wave profile u and the energy
measure it carries: u(x) = U(xi) for any xi with y(xi) = x (single-valued
because d_U vanishes wherever d_y does), the absolutely continuous energy
part picks up d_V * width from every cell of positive width, and cells whose
width has collapsed to zero while still holding energy deposit that energy
as a point mass at the collapse location.

Because u is piecewise linear and the absolutely continuous part has density
u_x^2, the cumulative F_ac is exactly piecewise linear on the reconstructed
nodes; no quadrature is involved anywhere.
"""

from __future__ import annotations

import numpy as np

from .errors import CorruptStateError, NumericError
from .eulerian import EnergyMeasure, EulerianSolution, PiecewiseLinear
from .lagrangian import LagrangianState
from .numerics import _ExactPrefix, _Kept, _all_finite, _blocks, _running_max

__all__ = ["to_eulerian", "ATOM_WIDTH_TOL", "ATOM_MASS_TOL"]

#: A cell is width-degenerate when d_y is at or below this threshold.  Exact
#: zeros are produced analytically by projection and evolution; the threshold
#: only absorbs round-off from the quadratic motion updates.
ATOM_WIDTH_TOL = 1e-14

#: A width-degenerate cell is an atom when its energy density exceeds this;
#: otherwise it carries nothing worth keeping and is dropped.
ATOM_MASS_TOL = 1e-14


def _check_steps(drop, y):
    """Raise CorruptStateError if a step (drop) of the nodal positions y falls
    below -1e-12 max(1, max|y|), per row along the last axis: a position of
    about 3e3 has an ulp of 4.5e-13, so an absolute 1e-12 would call a few
    ulps of round-off corrupt.  max|y| is taken only after a step falls below
    -1e-12."""
    if drop.size and drop.min() < -1e-12:
        worst = drop.min(axis=-1)
        bad = worst < -1e-12 * np.maximum(1.0, np.abs(y).max(axis=-1))
        if bad.any():
            raise CorruptStateError(
                f"Lagrangian positions decrease by {-worst[bad].min():.3e}; state is corrupt"
            )


def _u_rows(y, U, d_y):
    """The wave profile (nodes, values) that to_eulerian builds, for each row
    of nodal positions y, nodal velocities U and cell widths d_y, with every
    check to_eulerian makes.

    u's nodes are the left end and the right end of every real cell (a cell
    with d_y > ATOM_WIDTH_TOL), of which only the last of those that still
    coincide after rounding is kept (so cumulative mass and the outgoing
    value survive).  The picks are made for all rows at once, y overwritten
    by its running max once y and U are checked finite and y steps down
    nowhere beyond _check_steps' bound.  A pick is dropped when the next
    pick has the same y; the real cell left of that next pick then has no
    width in y, so only the picks before such cells are compared.
    """
    if not (np.isfinite(y).all() and np.isfinite(U).all()):
        raise NumericError("Lagrangian positions or velocities are not finite")
    drop = y[:, 1:] - y[:, :-1]
    _check_steps(drop, y)
    # tiny negative jumps are round-off residue on collapsed cells
    y = _running_max(y, drop < 0.0)
    picked = np.empty(y.shape, bool)
    picked[:, 0] = True
    real = picked[:, 1:]
    np.greater(d_y, ATOM_WIDTH_TOL, out=real)
    flat = np.flatnonzero(real & (y[:, 1:] == y[:, :-1]))
    if flat.size:
        # the node right of each such cell (it is a pick), and the pick before it
        q = flat + flat // d_y.shape[1] + 1
        picks = np.flatnonzero(picked)
        p = picks[picks.searchsorted(q) - 1]
        picked.ravel()[p[y.ravel()[p] == y.ravel()[q]]] = False
    return [(y_j[keep], U_j[keep]) for y_j, U_j, keep in zip(y, U, picked)]


def to_eulerian(s: LagrangianState) -> EulerianSolution:
    """Push a Lagrangian state forward to its Eulerian solution.

    Cells with d_y > 1e-14 become linear segments of u and of the cumulative
    F_ac; cells with d_y <= 1e-14 and d_V > 1e-14 become point masses at
    their (common) y-value, consecutive ones and ones at one y merged; cells
    degenerate in both senses are removed.  Raises NumericError if the nodal
    y or U values are not finite, CorruptStateError if y decreases anywhere
    by more than 1e-12 max(1, max|y|).

    The cells are taken in blocks of _CHUNK_FLOATS, with the running max of
    y, the compensated sum of F and the last node of each block carried to
    the next, so the scratch is a few blocks whatever the mesh; a block of
    real cells only is taken whole.  u's nodes (finite y, made increasing
    by numerics._Kept) are not checked again, and F_ac shares them.
    """
    n = s.n_cells
    if not _all_finite(s.y, s.U):
        raise NumericError("Lagrangian positions or velocities are not finite")
    picks = _Kept(n + 1, 3)
    picks.add(s.y[:1], s.U[:1], np.zeros(1))
    F_sum = _ExactPrefix()
    y_max, F_max, n_real = s.y[0], 0.0, 0
    atom_cells = []
    for b, e in _blocks(n):
        y = s.y[b : e + 1].copy()
        _check_steps(y[1:] - y[:-1], s.y)
        # tiny negative jumps are round-off residue on collapsed cells
        y[0] = y_max
        y_max = _running_max(y)[-1]
        masses = s.d_V[b:e] * (s.xi[b + 1 : e + 1] - s.xi[b:e])
        real = s.d_y[b:e] > ATOM_WIDTH_TOL
        # a real cell's right end is a node of u
        n_picked = int(np.count_nonzero(real))
        picked = slice(None) if n_picked == e - b else np.flatnonzero(real)
        if n_picked:
            F = F_sum(masses[picked])
            F[0] = max(F[0], F_max)
            F_max = _running_max(F)[-1]
            picks.add(y[1:][picked], s.U[b + 1 : e + 1][picked], F)
        atom = np.flatnonzero(~real & (s.d_V[b:e] > ATOM_MASS_TOL))
        if atom.size:
            # an atom cell's group: the real cells left of it
            atom_cells.append((n_real + np.cumsum(real)[atom], y[atom], masses[atom]))
        n_real += n_picked
    x_nodes, u_nodes, F_vals = picks.close()

    atoms = ()
    if atom_cells:
        # Atom cells separated only by degenerate cells share one location.
        group, pos, masses = (np.concatenate(a) for a in zip(*atom_cells))
        uniq, first = np.unique(group, return_index=True)
        pos = pos[first]
        mass = np.zeros(uniq.size)
        np.add.at(mass, np.searchsorted(uniq, group), masses)
        # A real cell too narrow to move y can split one location's atom
        # cells into two groups: groups at one position merge.
        starts = np.flatnonzero(np.diff(pos, prepend=-np.inf))
        if starts.size < pos.size:
            pos, mass = pos[starts], np.add.reduceat(mass, starts)
        atoms = tuple(zip(pos.tolist(), mass.tolist()))

    u = PiecewiseLinear._checked(x_nodes, u_nodes)
    mu = EnergyMeasure(F_ac=u._with_values(F_vals), atoms=atoms)
    return EulerianSolution(u=u, mu=mu, time=s.time)
