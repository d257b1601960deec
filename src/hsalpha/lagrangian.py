r"""Change of variables from projected Eulerian data to Lagrangian coordinates.

The Lagrangian coordinate of a point is :math:`\xi = x + F(x)` where ``F`` is
the full (left-continuous) energy cumulative.  Inverting,

.. math::

    \bar y(\xi) = \sup\{x : x + F(x) < \xi\},

and the state carries :math:`\bar U = \bar u(\bar y)` together with the
cumulative energy :math:`\bar V = \xi - \bar y`.  For projected data the
inverse is explicit at the grid nodes: each node x has
:math:`\xi = x + \mu((-\infty, x))`, and each atom, which sits on a pair
edge, adds one node with :math:`\xi = x + \mu((-\infty, x])`.  So each grid
pair contributes an atom cell (present when the pair carries an atom; there
:math:`y_\xi = 0`, :math:`V_\xi = 1`) and two half cells with

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

from .errors import ConfigError, NumericError
from .eulerian import EulerianSolution, _atom_rows
from .numerics import _blocks, _increasing

__all__ = ["LagrangianState", "to_lagrangian"]


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
        if not _increasing(self.xi):
            raise ValueError("xi must be strictly increasing")
        self._check_cells()

    def _check_cells(self) -> None:
        n1 = self.xi.size
        for name in ("y", "U", "V"):
            if getattr(self, name).size != n1:
                raise ValueError(f"{name} must match xi in length")
        for name in ("d_y", "d_U", "d_V", "tau", "broken"):
            if getattr(self, name).size != n1 - 1:
                raise ValueError(f"{name} must have one entry per cell")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")

    @classmethod
    def _with_checked_xi(cls, **fields) -> "LagrangianState":
        """The state of these fields, all checks made but xi's O(cells) one:
        to_lagrangian checks xi where it makes it, and evolve keeps it."""
        s = object.__new__(cls)
        s.__dict__.update(fields)
        s._check_cells()
        return s

    @property
    def n_cells(self) -> int:
        return self.xi.size - 1

    @property
    def widths(self) -> np.ndarray:
        return self.xi[1:] - self.xi[:-1]


def _breaking_times(d_y: np.ndarray, d_U: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each cell's breaking time from its derivatives at time 0, in out (inf
    where -2 d_y / d_U overflows, as for a subnormal d_U)."""
    out.fill(np.inf)
    neg = d_U < 0.0
    with np.errstate(divide="ignore", over="ignore"):
        out[neg] = -2.0 * d_y[neg] / d_U[neg]
    out[(d_U == 0.0) & (d_y == 0.0)] = 0.0
    return np.abs(out, out=out)


def to_lagrangian(p: EulerianSolution, alpha: float = 0.0) -> LagrangianState:
    """Map a projected datum (the time-0 solution :func:`projection.project`
    returns) to its Lagrangian state at time 0.

    Each node x of the datum gives a node with y = x, U = u(x) and
    V = mu((-inf, x)), and each atom one more right after it, with
    V = mu((-inf, x]); xi = y + V.  Atom cells get ``d_y = d_U = 0``,
    ``d_V = 1`` exactly.  ``alpha`` is the dissipation parameter the state
    will evolve under.  Raises NumericError when the coordinates xi do not
    increase (an energy so large that x + F(x) loses the mesh, or
    overflows), and ConfigError for a solution at a time other than 0 (the
    state's breaking times are measured from its time 0), for an atom off
    the even nodes (the pair edges) or on or right of the last node, or for
    an F_ac on other nodes than u's, as a hand-built datum can have.  The
    cell derivatives are made in blocks of _CHUNK_FLOATS cells, so their
    scratch is a few blocks whatever the mesh.
    """
    if p.time != 0.0:
        raise ConfigError(f"the lift starts at time 0, not at t = {p.time:g}")
    nodes = p.u.nodes
    if p.mu.F_ac.nodes is not nodes and not np.array_equal(p.mu.F_ac.nodes, nodes):
        raise ConfigError("the energy cumulative F_ac must have the nodes of u")
    at = np.searchsorted(nodes, p.mu.atom_positions)
    if at.size and at[-1] >= nodes.size - 1:
        raise ConfigError("an atom lies on or right of the last node")
    if (at % 2).any() or (nodes[at] != p.mu.atom_positions).any():
        raise ConfigError("an atom lies off the even nodes of the grid")
    # nodal cumulative energy, taken straight from the F values so nearly
    # flat segments keep their sign (xi - y would cancel away the low bits
    # of F wherever |x| dominates and can go an ulp negative); with no
    # atoms these are the datum's own arrays, which the state shares
    y, u, v = _atom_rows(p.mu, nodes, p.u.values, p.mu.F_ac.values)
    xi = y + v
    n = xi.size

    cells = _blocks(n - 1)
    if not all((xi[b + 1 : e + 1] > xi[b:e]).all() for b, e in cells):
        raise NumericError(
            "the Lagrangian coordinates x + F(x) of distinct nodes coincide or overflow: "
            "the datum's energy is too large for the mesh"
        )

    # cell derivatives: exact constants on atom cells, nodal quotients else;
    # the measure invariant bounds any nodal F decrease by round-off slack,
    # so a negative quotient of V is always clamp-to-zero noise
    d_y, d_u, d_v, tau = (np.empty(n - 1) for _ in range(4))
    for b, e in cells:
        widths = xi[b + 1 : e + 1] - xi[b:e]
        dy = np.subtract(y[b + 1 : e + 1], y[b:e], out=d_y[b:e])
        is_atom = dy == 0.0
        dy /= widths
        dy[is_atom] = 0.0
        du = np.subtract(u[b + 1 : e + 1], u[b:e], out=d_u[b:e])
        du /= widths
        du[is_atom] = 0.0
        dv = np.subtract(v[b + 1 : e + 1], v[b:e], out=d_v[b:e])
        dv /= widths
        dv[is_atom] = 1.0
        np.maximum(dv, 0.0, out=dv)
        _breaking_times(dy, du, tau[b:e])

    return LagrangianState._with_checked_xi(
        xi=xi,
        y=y,
        U=u,
        V=v,
        d_y=d_y,
        d_U=d_u,
        d_V=d_v,
        tau=tau,
        broken=np.zeros(n - 1, dtype=bool),
        alpha=float(alpha),
        time=0.0,
        V_inf=float(v[-1]),
    )
