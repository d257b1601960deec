r"""Change of variables from projected Eulerian data to Lagrangian coordinates.

The Lagrangian coordinate of a point is :math:`\xi = x + F(x)` where ``F`` is
the full (left-continuous) energy cumulative.  Inverting,

.. math::

    \bar y(\xi) = \sup\{x : x + F(x) < \xi\},

and the state carries :math:`\bar U = \bar u(\bar y)` together with the
cumulative energy :math:`\bar V = \xi - \bar y`.  For projected data the
inverse is explicit on a nodal grid: each grid pair contributes an atom cell
(present when the pair carries an atom; there :math:`y_\xi = 0`,
:math:`V_\xi = 1`) and two half cells with

.. math::

    y_\xi = \frac{1}{1+s^2}, \quad U_\xi = \frac{s}{1+s^2}, \quad
    V_\xi = \frac{s^2}{1+s^2}

for the local slope ``s``, so :math:`y_\xi V_\xi = U_\xi^2` holds cell-wise
and :math:`y_\xi + V_\xi = 1`.  A cell with :math:`U_\xi < 0` breaks at
:math:`\tau = -2 y_\xi / U_\xi`; atom cells have already broken
(:math:`\tau = 0`) and never dissipate again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .projection import ProjectedDatum

__all__ = ["LagrangianState", "to_lagrangian", "breaking_time"]


@dataclass(frozen=True)
class LagrangianState:
    """Nodal Lagrangian data plus exact per-cell derivatives.

    Nodal arrays have length ``n + 1``; cell arrays length ``n``.  ``tau``
    holds each cell's breaking time as seen from time 0 (``inf`` if none),
    ``broken`` whether its dissipation event has been applied.  ``V_inf`` is
    the current total energy.
    """

    xi: np.ndarray
    y: np.ndarray
    U: np.ndarray
    V: np.ndarray
    d_y: np.ndarray
    d_U: np.ndarray
    d_V: np.ndarray
    tau: np.ndarray
    broken: np.ndarray
    alpha: float
    time: float
    V_inf: float

    def __post_init__(self) -> None:
        n1 = self.xi.size
        for name in ("y", "U", "V"):
            if getattr(self, name).size != n1:
                raise ValueError(f"{name} must match xi in length")
        for name in ("d_y", "d_U", "d_V", "tau", "broken"):
            if getattr(self, name).size != n1 - 1:
                raise ValueError(f"{name} must have one entry per cell")
        if np.any(np.diff(self.xi) <= 0.0):
            raise ValueError("xi must be strictly increasing")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @property
    def n_cells(self) -> int:
        return self.xi.size - 1

    @property
    def widths(self) -> np.ndarray:
        return self.xi[1:] - self.xi[:-1]


def breaking_time(d_y: float, d_U: float) -> float:
    """Wave-breaking time of a single cell from its derivatives at time 0."""
    if d_U == 0.0 and d_y == 0.0:
        return 0.0
    if d_U < 0.0:
        return abs(-2.0 * d_y / d_U)  # abs() normalizes -0.0
    return np.inf


def _breaking_times(d_y: np.ndarray, d_U: np.ndarray) -> np.ndarray:
    tau = np.full(d_y.shape, np.inf)
    neg = d_U < 0.0
    with np.errstate(divide="ignore"):
        tau[neg] = -2.0 * d_y[neg] / d_U[neg]
    tau[(d_U == 0.0) & (d_y == 0.0)] = 0.0
    return np.abs(tau)


def to_lagrangian(p: ProjectedDatum, alpha: float = 0.0) -> LagrangianState:
    """Map a projected datum to its Lagrangian state at time 0.

    Per grid pair the node layout is ``[left edge, post-atom, midpoint]`` with
    the closing edge shared with the next pair; pairs without an atom collapse
    the duplicate node.  Atom cells get ``d_y = d_U = 0``, ``d_V = 1`` exactly.
    ``alpha`` is the dissipation parameter the state will evolve under.
    Raises NumericError when the coordinates xi do not increase (an energy
    so large that x + F(x) loses the mesh, or overflows).
    """
    nodes = p.u.nodes
    uvals = p.u.values
    fvals = p.mu.F_ac.values
    m = (nodes.size - 1) // 2
    xe, xo = nodes[::2], nodes[1::2]
    ue, uo = uvals[::2], uvals[1::2]
    fe, fo = fvals[::2], fvals[1::2]

    masses = np.zeros(m)
    if p.mu.atom_positions.size:
        j = np.searchsorted(xe, p.mu.atom_positions)
        masses[j] = p.mu.atom_masses
    cum_atoms = np.concatenate(([0.0], np.cumsum(masses)))

    # nodal cumulative energy, taken straight from the F values so nearly
    # flat segments keep their sign (xi - y would cancel away the low bits
    # of F wherever |x| dominates and can go an ulp negative)
    v_even = fe + cum_atoms
    v_post = fe[:-1] + cum_atoms[1:]
    v_mid = fo + cum_atoms[1:]

    # full nodal layout, 3 nodes per pair plus the closing edge
    xi = np.empty(3 * m + 1)
    y = np.empty_like(xi)
    u = np.empty_like(xi)
    v = np.empty_like(xi)
    xi[0::3] = xe + v_even
    xi[1::3] = xe[:-1] + v_post
    xi[2::3] = xo + v_mid
    y[0::3] = xe
    y[1::3] = xe[:-1]
    y[2::3] = xo
    u[0::3] = ue
    u[1::3] = ue[:-1]
    u[2::3] = uo
    v[0::3] = v_even
    v[1::3] = v_post
    v[2::3] = v_mid

    keep = np.ones(3 * m + 1, dtype=bool)
    keep[1::3] = masses > 0.0
    xi, y, u, v = xi[keep], y[keep], u[keep], v[keep]
    if not np.all(xi[1:] > xi[:-1]):
        raise NumericError(
            "the Lagrangian coordinates x + F(x) of distinct nodes coincide or overflow: "
            "the datum's energy is too large for the mesh"
        )

    # cell derivatives: exact constants on atom cells, nodal quotients else
    widths = np.diff(xi)
    is_atom = np.diff(y) == 0.0
    d_y = np.where(is_atom, 0.0, np.diff(y) / widths)
    d_u = np.where(is_atom, 0.0, np.diff(u) / widths)
    # the measure invariant bounds any nodal F decrease by round-off slack,
    # so a negative quotient here is always clamp-to-zero noise
    d_v = np.maximum(np.where(is_atom, 1.0, np.diff(v) / widths), 0.0)

    tau = _breaking_times(d_y, d_u)
    return LagrangianState(
        xi=xi,
        y=y,
        U=u,
        V=v,
        d_y=d_y,
        d_U=d_u,
        d_V=d_v,
        tau=tau,
        broken=np.zeros(d_y.shape, dtype=bool),
        alpha=float(alpha),
        time=0.0,
        V_inf=float(v[-1]),
    )
