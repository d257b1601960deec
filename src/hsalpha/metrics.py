r"""The Wasserstein-1 distance between energy measures.

The verification harness measures the energy error of a solution by

.. math::

    W_1(\mu, \nu) = \int_{\mathbb R} |F_\mu(x) - F_\nu(x)|\,dx

for equal-mass measures (also an upper bound for the bounded Lipschitz
metric).
"""

from __future__ import annotations

import numpy as np

from .errors import MassMismatchError
from .eulerian import EnergyMeasure, _add_atoms
from .numerics import _blocks, _sorted_unique

__all__ = ["w1"]

MASS_TOL = 1e-12


def _abs_linear_integrals(da: np.ndarray, db: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact ∫|linear| per segment of width w given endpoint values, made in
    w: 0.5 w (|da| + |db|), or w (da² + db²) / (2 (|da| + |db|)) where da
    and db have opposite signs (the line crosses 0), both on the whole block
    (on the cosine's measure-rate rungs most segments cross)."""
    tri = np.abs(da) + np.abs(db)
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = w * (da * da + db * db) / (2.0 * tri)
    w *= 0.5
    w *= tri
    np.copyto(w, crossing, where=da * db < 0.0)
    return w


def w1(m1: EnergyMeasure, m2: EnergyMeasure) -> float:
    """Wasserstein-1 distance between equal-mass measures.

    Exact integral of the absolute cumulative difference over the merged
    breakpoint set; atom jumps enter through one-sided cumulative limits.
    Raises :class:`MassMismatchError` when total masses differ by more than
    ``1e-12`` (W₁ is undefined then).

    W₁ also bounds the bounded-Lipschitz distance from above: every test
    function with ``sup + Lip ≤ 1`` is 1-Lipschitz, so d_BL ≤ W₁ for
    equal-mass measures.

    Memory: besides the measures, one array of the merged breakpoints and
    scratch of a few blocks of ``numerics._CHUNK_FLOATS``.  The segments'
    integrals are taken block by block and written over the breakpoints
    that no later block reads, then summed by one ``np.sum`` (so the
    pairwise summation is that of the whole array).  Each measure's F_ac is
    evaluated once per breakpoint, its atoms added per side where it has any.
    """
    gap = abs(m1.total_mass() - m2.total_mass())
    if gap > MASS_TOL:
        raise MassMismatchError(f"total masses differ by {gap:.3e}")
    edges = _sorted_unique(
        np.concatenate((m1.F_ac.nodes, m2.F_ac.nodes, m1.atom_positions, m2.atom_positions))
    )
    n = edges.size - 1
    atoms = m1.atom_positions.size + m2.atom_positions.size > 0
    for b, e in _blocks(n):
        x = edges[b : e + 1]
        F1, F2 = m1.F_ac(x), m2.F_ac(x)
        right = _add_atoms(m1, F1, x, "right") - _add_atoms(m2, F2, x, "right")
        left = _add_atoms(m1, F1, x, "left") - _add_atoms(m2, F2, x, "left") if atoms else right
        edges[b:e] = _abs_linear_integrals(right[:-1], left[1:], x[1:] - x[:-1])
    return float(np.sum(edges[:n]))
