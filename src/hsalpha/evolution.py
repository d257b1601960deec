"""Exact-in-time evolution of the piecewise-linear Lagrangian state.

Between wave-breaking events every nodal trajectory obeys

    dy_j/dt = U_j,        dU_j/dt = (1/2) V_j - (1/4) V_inf,

with the nodal energy values V_j and the total V_inf constant, and a cell
that breaks at tau only removes D_i = alpha * d_V_i * width_i of energy from
V_j at the nodes j to its right and from V_inf.  The state at any time t is
therefore one closed-form map of the state s at s.time (no event loop, no
time stepping).  With dt = t - s.time and r_i = t - max(tau_i, s.time) for
the cells i that break by t:

    U_j(t) = U_j + dt acc_j - (1/2) sum_{i<j} D_i r_i + (1/4) sum_i D_i r_i,
    y_j(t) = y_j + dt U_j + (dt^2/2) acc_j
             - (1/2) sum_{i<j} D_i r_i^2/2 + (1/4) sum_i D_i r_i^2/2,

where acc_j = V_j/2 - V_inf/4 at s.time; the sums over i < j are one prefix
sum over the cells.  This is the B/J1/J2 structure of reference.py.  The
per-cell derivative surrogates of a cell that does not break evolve as

    d_U(t) = d_U + (dt/2) d_V,
    d_y(t) = d_y + dt d_U + (dt^2/4) d_V.

A cell with breaking time tau collapses exactly at t = tau: its d_y and d_U
vanish there analytically, so the map restarts them from exact zeros,

    d_U(t) = (r/2) (1 - alpha) d_V,    d_y(t) = (r^2/4) (1 - alpha) d_V,

rather than trusting floating-point cancellation.  The nodal V array and
V_inf are resummed once from the dissipated cell data.

Breaking times closer than max(1e-12, 4 ulp(t)) are merged into a single
cluster, which breaks at its earliest time (a tolerance that scales with t,
so ties keep merging at large t where 1e-12 is below one ulp).

The map takes a column of times as well as one: ``_map`` gives y, U and d_y
at many times at once, one row per time, and ``evolve`` is its one-row case.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError, NumericError
from .lagrangian import LagrangianState
from .numerics import exact_cumsum, stable_sum

__all__ = ["EventSchedule", "events", "evolve", "total_energy"]

#: Two breaking times within this distance count as one event (for t below
#: 2048; from there on the tolerance is four ulps of t, see tie_tol).
EVENT_TIE_TOL = 1e-12


def tie_tol(t: float) -> float:
    """Tie tolerance for breaking times up to t: max(1e-12, 4 ulp(t))."""
    return max(EVENT_TIE_TOL, 4.0 * math.ulp(t))


@dataclasses.dataclass(frozen=True)
class EventSchedule:
    """Clustered wave-breaking events of a state, in increasing time order:
    the plain record that :func:`events` returns.

    times
        Strictly increasing event times.
    cells_at
        Maps each entry of ``times`` to the indices of the cells that break
        there (each cell appears under exactly one event).
    """

    times: tuple
    cells_at: dict


def _clusters(s: LagrangianState, t: np.ndarray, side: str):
    """Cells of s that break by each time of the 1-d array t, with the tie
    clusters they break in.

    Eligible cells are those not yet broken with 0 < tau < inf (tau = 0
    marks initial point masses, which never dissipate).  For the time t_j
    (tolerance tol = tie_tol(t_j)), cells with tau <= t_j (side="right") or
    tau < t_j - tol (side="left") seed the clusters: sorted by tau, a gap
    above tol starts a new cluster.  Eligible cells within tol above the
    last seed join the last cluster even when they missed the cut.

    Returns (cells, hit, first): the candidate cells in tau order, whether
    each breaks by t_j (row j), and the earliest breaking time of its
    cluster in row j (read only where hit).
    """
    tol = np.array([tie_tol(v) for v in t.tolist()])
    tau = s.tau
    cand = ((tau <= (t + tol).max()) & (tau > 0.0) & ~s.broken).nonzero()[0]
    ct = tau[cand]
    order = ct.argsort(kind="stable")
    cand, ct = cand[order], ct[order]
    rows = (t.size, ct.size)
    if ct.size == 0:
        return cand, np.zeros(rows, dtype=bool), np.zeros(rows)
    if side == "right":
        n_seed = ct.searchsorted(t, side="right")
    else:
        n_seed = ct.searchsorted(t - tol, side="left")
    last = ct[np.maximum(n_seed - 1, 0)]
    n_member = np.where(n_seed > 0, ct.searchsorted(last + tol, side="right"), 0)
    k = np.arange(ct.size)
    # a cluster starts at every gap above tol among the seeds
    start = np.zeros(rows, dtype=bool)
    np.greater(ct[1:] - ct[:-1], tol[:, None], out=start[:, 1:])
    start &= k < n_seed[:, None]
    # each cell's cluster begins at the last start up to it
    at = np.maximum.accumulate(start * k, axis=1)
    return cand, k < n_member[:, None], ct[at]


def events(s: LagrangianState, T: float) -> EventSchedule:
    """Breaking events of ``s`` with times up to T, clustered by tie_tol(T).

    Cells already flagged broken, cells with tau = 0 (initial point masses,
    which never dissipate), and cells that never break are excluded.
    """
    if not np.isfinite(T):
        raise ConfigError("event horizon T must be finite")
    cells, hit, first = _clusters(s, np.array([float(T)]), "right")
    n = int(hit.sum())
    cells, first = cells[:n], first[0, :n]
    starts = np.flatnonzero(np.diff(first, prepend=-np.inf))
    times = tuple(first[starts].tolist())
    return EventSchedule(times=times, cells_at=dict(zip(times, np.split(cells, starts[1:]))))


# a time so large that the motion overflows is reported by the callers,
# which check that y and U are finite
@np.errstate(over="ignore", invalid="ignore")
def _map(s: LagrangianState, t: np.ndarray, side: str = "right"):
    """The closed-form map of s to each time of the 1-d array t >= s.time.

    Returns (y, U, d_y, cells, hit, r): y, U and d_y at t_j in row j, as
    evolve(s, t_j, side) returns them (value for value, apart from the sign
    of a zero in y and U on a row where no cell breaks while another row's
    do); the cells that may break by max(t); and in row j whether each of
    them breaks by t_j (hit) and how long before t_j it did (r).
    """
    cells, hit, first = _clusters(s, t, side)
    r = np.maximum(first, s.time, out=first)
    np.subtract(t[:, None], r, out=r)
    np.copyto(r, 0.0, where=~hit)

    # event-free motion from s.time, each array built in place term by term:
    #   y + (dt U + (dt^2/2) acc),  U + dt acc,  d_y + (dt d_U + (dt^2/4) d_V),
    # a product that is added made in an array that is written after
    m, n = t.size, s.n_cells
    dt = (t - s.time)[:, None]
    acc = 0.5 * s.V - 0.25 * s.V_inf
    y, U, d_y = np.empty((m, n + 1)), np.empty((m, n + 1)), np.empty((m, n))
    np.multiply(dt, s.d_U, out=d_y)
    d_y += np.multiply(0.25 * dt * dt, s.d_V, out=y[:, :n])
    d_y += s.d_y
    np.multiply(dt, s.U, out=y)
    y += np.multiply(0.5 * dt * dt, acc, out=U)
    y += s.y
    np.multiply(dt, acc, out=U)
    U += s.U

    if hit.any():
        order = cells.argsort()
        cells, hit = cells[order], hit[:, order]
        r = r[:, order]
        kept = (1.0 - s.alpha) * s.d_V[cells]
        # the collapse is exact: a breaking cell restarts from analytic zeros,
        # (0.25 r r) kept, and a cell that does not break keeps its d_y
        restart = d_y[:, cells]
        np.multiply(0.25, r, out=restart, where=hit)
        np.multiply(restart, r, out=restart, where=hit)
        np.multiply(restart, kept, out=restart, where=hit)
        d_y[:, cells] = restart

        # the energy D_i lost at tau_i changes acc by -D_i/2 at the nodes
        # right of cell i and by D_i/4 at every node; integrated once (r)
        # and twice (r^2 / 2) these are prefix sums over the cells in index
        # order (one that does not break by t_j adds an exact zero to row
        # j), constant between consecutive ones
        D = (s.d_V[cells] - kept) * s.widths[cells]
        lost = np.empty((2, m, cells.size + 1))
        lost[:, :, 0] = 0.0
        np.multiply(D, r, out=lost[0, :, 1:])
        twice = np.multiply(0.5, r, out=lost[1, :, 1:])
        twice *= r
        twice *= D
        lost.cumsum(axis=2, out=lost)
        # the gain 0.25 lost[-1] - 0.5 lost, in place
        total = 0.25 * lost[:, :, -1:]
        lost *= 0.5
        np.subtract(total, lost, out=lost)
        # a node gains the sum over the cells left of it
        left = np.repeat(np.arange(cells.size + 1), np.diff(np.concatenate(([-1], cells, [n]))))
        U += lost[0][:, left]
        y += lost[1][:, left]
    return y, U, d_y, cells, hit, r


def evolve(s: LagrangianState, t: float, side: str = "right") -> LagrangianState:
    """Evolve a Lagrangian state to time t, applying breaking events on the way.

    With side="right" (default) events with tau <= t are fully applied, so the
    result is the right-continuous state at t.  With side="left" events at
    t itself are withheld: cells breaking exactly at t have collapsed (their
    d_y and d_U vanish there as a fact of the motion) but their energy is not
    yet scaled, giving the one-sided limit as time approaches t from below.

    Raises ConfigError when t is not finite or precedes the state's time, and
    NumericError when the positions overflow.
    """
    if side not in ("left", "right"):
        raise ConfigError("side must be 'left' or 'right'")
    if not np.isfinite(t):
        raise ConfigError("target time must be finite")
    if t < s.time:
        raise ConfigError(f"cannot evolve backwards: state at {s.time}, requested {t}")
    if t == s.time and side == "right":
        return s

    y, U, d_y, cells, hit, r = _map(s, np.array([float(t)]), side)
    y, U, d_y, cells, r = y[0], U[0], d_y[0], cells[hit[0]], r[0, hit[0]]
    if not (np.isfinite(y).all() and np.isfinite(U).all()):
        raise NumericError(f"positions or velocities overflow by t = {t:g}")
    d_U = s.d_U + (0.5 * (t - s.time)) * s.d_V
    d_V, broken, V, V_inf = s.d_V, s.broken, s.V, s.V_inf
    if cells.size:
        kept = (1.0 - s.alpha) * s.d_V[cells]
        d_U[cells] = (0.5 * r) * kept
        d_V = s.d_V.copy()
        d_V[cells] = kept
        broken = s.broken.copy()
        broken[cells] = True
        m = d_V * s.widths
        V = s.V[0] + np.concatenate(([0.0], exact_cumsum(m)))
        V_inf = s.V[0] + stable_sum(m)

    if side == "left":
        tau = s.tau
        at_t = (~broken) & (np.abs(tau - t) <= tie_tol(t)) & (tau > 0.0)
        d_y[at_t] = 0.0
        d_U[at_t] = 0.0

    # dataclasses.replace(s, ...), less the check of xi, which is s's
    changes = dict(y=y, U=U, V=V, d_y=d_y, d_U=d_U, d_V=d_V, broken=broken, time=t, V_inf=V_inf)
    return LagrangianState._with_checked_xi(**(vars(s) | changes))


def total_energy(s: LagrangianState) -> float:
    """Current total energy sum(d_V * width) over all cells."""
    return stable_sum(s.d_V * s.widths)
