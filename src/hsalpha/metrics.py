r"""Error functionals between profiles and between energy measures.

Distances used by the verification harness: exact sup/L² norms of
piecewise-linear (or piecewise-constant) differences, the Wasserstein-1
distance

.. math::

    W_1(\mu, \nu) = \int_{\mathbb R} |F_\mu(x) - F_\nu(x)|\,dx

for equal-mass measures (also an upper bound for the bounded Lipschitz
metric), and a Besov-type seminorm estimator

.. math::

    |f|_{2,\beta} \approx \max_{h \in H} h^{-\beta}\, \lVert f(\cdot+h) - f \rVert_2 ,

a lower bound of the defining supremum over :math:`h \in (0, 2]`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy

from .errors import MassMismatchError
from .eulerian import EnergyMeasure, PiecewiseConstant, PiecewiseLinear, _add_atoms
from .numerics import _blocks, _sorted_unique

__all__ = [
    "BesovEstimate",
    "linf_diff",
    "linf_diff_sampled",
    "l2_diff",
    "w1",
    "besov_seminorm",
]

MASS_TOL = 1e-12


def linf_diff(a: PiecewiseLinear, b: PiecewiseLinear) -> float:
    """Exact sup-norm of ``a - b``: attained on the merged node set."""
    xs = np.union1d(a.nodes, b.nodes)
    return float(np.max(np.abs(a(xs) - b(xs))))


def linf_diff_sampled(exact: Callable, b: PiecewiseLinear, n_samples: int) -> float:
    """Sampled sup-norm of ``exact - b``.

    Evaluates at ``b``'s nodes plus ``n_samples`` uniform interior points per
    segment.  This is a lower bound of the true sup; refine ``n_samples``
    until stable when the bound itself matters.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    nodes = b.nodes
    xs = nodes
    if nodes.size > 1:
        frac = np.arange(1, n_samples + 1) / (n_samples + 1.0)
        interior = nodes[:-1, None] + np.diff(nodes)[:, None] * frac[None, :]
        xs = np.concatenate((nodes, interior.ravel()))
    vals = np.abs(np.asarray(exact(xs), dtype=np.float64) - b(xs))
    return float(np.max(vals))


def _l2_pl(a: PiecewiseLinear, b: PiecewiseLinear) -> float:
    edges = np.union1d(a.nodes, b.nodes)
    d = np.asarray(a(edges), dtype=np.float64) - b(edges)
    scale = max(1.0, float(np.max(np.abs(a.values))), float(np.max(np.abs(b.values))))
    if abs(d[0]) > 1e-8 * scale or abs(d[-1]) > 1e-8 * scale:
        raise ValueError("difference is not compactly supported")
    w = np.diff(edges)
    d0, d1 = d[:-1], d[1:]
    return float(np.sqrt(np.sum(w * (d0 * d0 + d0 * d1 + d1 * d1) / 3.0)))


def _l2_pc(a: PiecewiseConstant, b: PiecewiseConstant) -> float:
    edges = np.union1d(a.breaks, b.breaks)
    mid = 0.5 * (edges[:-1] + edges[1:])
    d = np.asarray(a(mid), dtype=np.float64) - np.asarray(b(mid), dtype=np.float64)
    return float(np.sqrt(np.sum(d * d * np.diff(edges))))


def l2_diff(a, b) -> float:
    """Exact L² distance for matching profile kinds.

    Both piecewise linear: exact segment-wise quadratic integration over the
    merged breakpoints (the difference must vanish outside them).  Both
    piecewise constant (derivative profiles): exact step integration, zero
    extension outside.
    """
    if isinstance(a, PiecewiseLinear) and isinstance(b, PiecewiseLinear):
        return _l2_pl(a, b)
    if isinstance(a, PiecewiseConstant) and isinstance(b, PiecewiseConstant):
        return _l2_pc(a, b)
    raise TypeError("l2_diff needs two PiecewiseLinear or two PiecewiseConstant profiles")


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


@dataclass(frozen=True)
class BesovEstimate:
    beta: float
    seminorm: float
    h_grid: tuple[float, ...]


def default_h_grid() -> np.ndarray:
    return np.geomspace(1e-4, 2.0, 40)


def _translate_l2_pc(f: PiecewiseConstant, h: float) -> float:
    edges = np.union1d(f.breaks - h, f.breaks)
    mid = 0.5 * (edges[:-1] + edges[1:])
    d = np.asarray(f(mid + h), dtype=np.float64) - np.asarray(f(mid), dtype=np.float64)
    return float(np.sqrt(np.sum(d * d * np.diff(edges))))


def _translate_l2_quad(
    f: Callable, h: float, support: tuple[float, float], singularities: Sequence[float]
) -> float:
    lo, hi = support
    pts = sorted({s for s in singularities} | {s - h for s in singularities})
    pts = [p for p in pts if lo - h < p < hi]

    def sq(x):
        return (float(f(x + h)) - float(f(x))) ** 2

    val, _ = scipy.integrate.quad(
        sq, lo - h, hi, points=pts or None, limit=500, epsabs=1e-12, epsrel=1e-9
    )
    return float(np.sqrt(max(val, 0.0)))


def besov_seminorm(
    f,
    beta: float,
    h_grid=None,
    *,
    support: tuple[float, float] | None = None,
    singularities: Sequence[float] = (),
) -> BesovEstimate:
    """Estimate the Besov-type seminorm ``sup_h h^{-beta} ||f(.+h) - f||_2``.

    ``f`` is a compactly supported profile: a :class:`PiecewiseConstant`
    (translate norms are then exact) or a callable with a ``support``
    interval, integrated by adaptive quadrature with splitting at
    ``singularities`` and their shifted images.  The result is a max over the
    sampled ``h_grid`` — a lower bound of the true supremum that can only
    grow under grid refinement.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    hs = default_h_grid() if h_grid is None else np.asarray(h_grid, dtype=np.float64)
    if hs.size == 0 or np.any(hs <= 0.0) or np.any(hs > 2.0):
        raise ValueError("h_grid must lie in (0, 2]")

    if isinstance(f, PiecewiseConstant):
        norms = np.array([_translate_l2_pc(f, float(h)) for h in hs])
    elif callable(f):
        if support is None:
            raise ValueError("callable profiles need an explicit support interval")
        norms = np.array(
            [_translate_l2_quad(f, float(h), support, singularities) for h in hs]
        )
    else:
        raise TypeError("f must be PiecewiseConstant or callable")

    est = float(np.max(norms * hs ** (-beta)))
    return BesovEstimate(beta=float(beta), seminorm=est, h_grid=tuple(float(h) for h in hs))
