r"""Eulerian-side data structures for the Hunter--Saxton equation.

A state of the :math:`\alpha`-dissipative Hunter--Saxton flow is a pair
``(u, mu)`` where ``u`` is the wave profile and ``mu`` is the energy measure.
Here ``u`` is piecewise linear with constant extensions, and ``mu`` splits
into an absolutely continuous part with cumulative ``F_ac`` (density
:math:`u_x^2`) plus finitely many atoms.  The cumulative

.. math::

    F(x) = \mu((-\infty, x))

is left continuous; both one-sided limits are exposed via
:func:`eval_cumulative`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .numerics import _all_finite, _blocks, _increasing

__all__ = [
    "PiecewiseLinear",
    "PiecewiseConstant",
    "EnergyMeasure",
    "InitialDatum",
    "EulerianSolution",
    "eval_cumulative",
    "make_multipeakon",
]

_REL_SLACK = 1e-12


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function with constant extension outside its nodes."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if nodes.size == 0:
            raise ValueError("need at least one node")
        if not _all_finite(nodes, values):
            raise ValueError("nodes and values must be finite")
        if not _increasing(nodes):
            raise ValueError("nodes must be strictly increasing")

    @classmethod
    def _checked(cls, nodes, values) -> "PiecewiseLinear":
        """The function on nodes and values that the caller has checked as
        __post_init__ does: nothing is checked again."""
        out = object.__new__(cls)
        out.__dict__.update(nodes=nodes, values=values)
        return out

    def _with_values(self, values) -> "PiecewiseLinear":
        """The function with these nodes and the given values, of which
        only the values are checked (the nodes were, when self was made)."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != self.nodes.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if not _all_finite(values):
            raise ValueError("nodes and values must be finite")
        return PiecewiseLinear._checked(self.nodes, values)

    @property
    def left_value(self) -> float:
        return float(self.values[0])

    @property
    def right_value(self) -> float:
        return float(self.values[-1])

    def __call__(self, x):
        return np.interp(x, self.nodes, self.values)


@dataclass(frozen=True)
class PiecewiseConstant:
    """Step function: ``values[i]`` on ``[breaks[i], breaks[i+1])``, 0 outside."""

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        breaks = np.ascontiguousarray(self.breaks, dtype=np.float64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)
        if breaks.ndim != 1 or values.ndim != 1:
            raise ValueError("breaks and values must be 1-d")
        if breaks.size != values.size + 1:
            raise ValueError("need len(breaks) == len(values) + 1")
        if np.any(np.diff(breaks) <= 0.0):
            raise ValueError("breaks must be strictly increasing")
        if not (np.all(np.isfinite(breaks)) and np.all(np.isfinite(values))):
            raise ValueError("breaks and values must be finite")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        idx = np.searchsorted(self.breaks, x, side="right") - 1
        inside = (idx >= 0) & (x < self.breaks[-1])
        out = np.where(inside, self.values[np.clip(idx, 0, self.values.size - 1)], 0.0)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class EnergyMeasure:
    """Positive finite measure: absolutely continuous cumulative plus atoms.

    ``F_ac`` is the nondecreasing cumulative of the a.c. part, normalized to
    start at zero.  ``atoms`` is a sequence of ``(position, mass)`` with
    strictly increasing positions and strictly positive masses; it is stored
    as the parallel arrays ``atom_positions`` / ``atom_masses``.
    """

    F_ac: PiecewiseLinear
    atoms: Sequence[tuple[float, float]] = ()
    atom_positions: np.ndarray = field(init=False)
    atom_masses: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        pairs = [(float(p), float(m)) for p, m in self.atoms]
        pos = np.array([p for p, _ in pairs], dtype=np.float64)
        mas = np.array([m for _, m in pairs], dtype=np.float64)
        object.__setattr__(self, "atoms", tuple(pairs))
        object.__setattr__(self, "atom_positions", pos)
        object.__setattr__(self, "atom_masses", mas)

        scale = max(1.0, abs(self.F_ac.right_value))
        if abs(self.F_ac.left_value) > _REL_SLACK * scale:
            raise ValueError("F_ac must start at zero")
        F = self.F_ac.values
        drops = (F[b + 1 : e + 1] - F[b:e] < -_REL_SLACK * scale for b, e in _blocks(F.size - 1))
        if any(d.any() for d in drops):
            raise ValueError("F_ac must be nondecreasing")
        if pos.size:
            if np.any(np.diff(pos) <= 0.0):
                raise ValueError("atom positions must be strictly increasing")
            if np.any(mas <= 0.0):
                raise ValueError("atom masses must be positive")
            if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(mas))):
                raise ValueError("atoms must be finite")

    def total_mass(self) -> float:
        return self.F_ac.right_value + math.fsum(self.atom_masses.tolist())


@dataclass(frozen=True)
class InitialDatum:
    """Initial condition given through evaluators.

    ``u``, ``u_x`` and ``F_ac`` are vectorized callables; for data built by
    :func:`make_multipeakon` they are :class:`PiecewiseLinear` /
    :class:`PiecewiseConstant` instances, which the test oracles (the
    projection error, the Besov seminorm) exploit for exact error
    computation.
    """

    u: Callable
    u_x: Callable
    F_ac: Callable
    atoms: Sequence[tuple[float, float]] = ()
    support_hint: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        lo, hi = self.support_hint
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError("support_hint must be a finite nonempty interval")
        pairs = [(float(p), float(m)) for p, m in self.atoms]
        if any(m <= 0.0 for _, m in pairs):
            raise ValueError("atom masses must be positive")
        if any(b <= a for (a, _), (b, _) in zip(pairs, pairs[1:])):
            raise ValueError("atom positions must be strictly increasing")
        object.__setattr__(self, "atoms", tuple(pairs))


@dataclass(frozen=True)
class EulerianSolution:
    """Snapshot ``(u, mu)`` of the flow at a fixed time."""

    u: PiecewiseLinear
    mu: EnergyMeasure
    time: float
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not np.isfinite(self.time):
            raise ValueError("time must be finite")


def eval_cumulative(m: EnergyMeasure, x, side: str = "left"):
    """Evaluate the cumulative ``F`` of ``m`` at ``x``.

    ``side="left"`` gives :math:`\\mu((-\\infty, x))` (the left-continuous
    choice); ``side="right"`` gives :math:`\\mu((-\\infty, x])`.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    out = _add_atoms(m, m.F_ac(x), x, side)
    return out if np.ndim(out) else float(out)


def _add_atoms(m: EnergyMeasure, base, x, side: str):
    """base (m's a.c. cumulative at x) plus the mass of m's atoms below x
    (side="left") or at or below x (side="right"), or base if none."""
    if m.atom_positions.size == 0:
        return base
    cum = np.concatenate(([0.0], np.cumsum(m.atom_masses)))
    return base + cum[np.searchsorted(m.atom_positions, x, side=side)]


def _atom_rows(m: EnergyMeasure, x, u, F_ac):
    """The rows (x, u, F) of a profile with values u at the nodes x, among
    which are m's atoms, given m's a.c. cumulative F_ac at x: F = mu((-inf,
    x)) at every node, and each atom's node appears once more, right after
    it, with F = mu((-inf, x]).  With no atoms, x, u and F_ac are returned
    as they are."""
    if m.atom_positions.size == 0:
        return x, u, F_ac
    at = np.searchsorted(x, m.atom_positions) + 1
    right = F_ac[at - 1] + np.cumsum(m.atom_masses)
    left = _add_atoms(m, F_ac, x, "left")
    return np.insert(x, at, x[at - 1]), np.insert(u, at, u[at - 1]), np.insert(left, at, right)


def make_multipeakon(points: Sequence[tuple[float, float]]) -> InitialDatum:
    """Build the datum for piecewise-linear ``u`` through ``points``.

    ``points`` is a sequence of ``(x, u(x))`` pairs with strictly increasing
    abscissae.  The energy density is the exact :math:`u_x^2`, so ``F_ac``
    is again piecewise linear on the same nodes; there are no atoms.
    """
    pts = [(float(x), float(v)) for x, v in points]
    if not pts:
        raise ConfigError("need at least one breakpoint")
    xs = np.array([x for x, _ in pts])
    vs = np.array([v for _, v in pts])
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(vs))):
        raise ConfigError("breakpoints must be finite")
    if np.any(np.diff(xs) <= 0.0):
        raise ConfigError("breakpoint abscissae must be strictly increasing")

    u = PiecewiseLinear(xs, vs)
    if xs.size == 1:
        if not xs[0] + 1.0 > xs[0]:
            raise ConfigError("a single breakpoint needs |x| small enough that x + 1 > x")
        u_x = PiecewiseConstant(np.array([xs[0], xs[0] + 1.0]), np.array([0.0]))
        f_ac = PiecewiseLinear(xs, np.zeros(1))
        return InitialDatum(
            u=u,
            u_x=u_x,
            F_ac=f_ac,
            atoms=(),
            support_hint=(float(xs[0]), float(xs[0]) + 1.0),
        )
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        slopes = np.diff(vs) / np.diff(xs)
        # cumulative of u_x^2; increments are exact per segment
        inc = slopes * slopes * np.diff(xs)
        f_vals = np.concatenate(([0.0], np.cumsum(inc)))
    if not np.isfinite(f_vals[-1]):
        raise ConfigError("slopes and their energy must be finite")
    u_x = PiecewiseConstant(xs, slopes)
    f_ac = PiecewiseLinear(xs, f_vals)
    return InitialDatum(
        u=u,
        u_x=u_x,
        F_ac=f_ac,
        atoms=(),
        support_hint=(float(xs[0]), float(xs[-1])),
    )
