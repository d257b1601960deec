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
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConfigError
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
    """Clustered wave-breaking events of a state, in increasing time order.

    times
        Strictly increasing event times.
    cells_at
        Maps each entry of ``times`` to the indices of the cells that break
        there (each cell appears under exactly one event).
    """

    times: tuple
    cells_at: dict

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ValueError("event times must be strictly increasing")
        for t in self.times:
            if t not in self.cells_at:
                raise ValueError("every event time needs a cell list")


def _clusters(s: LagrangianState, t: float, side: str):
    """Cells of s that break by time t, grouped into tie clusters.

    Eligible cells are those not yet broken with 0 < tau < inf (tau = 0
    marks initial point masses, which never dissipate).  Cells with tau <= t
    (side="right") or tau < t - tol (side="left") seed the clusters: sorted
    by tau, a gap above tol starts a new cluster.  Eligible cells within tol
    above the last seed join the last cluster even when they missed the cut.

    Returns (cells, bounds, first): the member cells in tau order, the
    offsets in ``cells`` where each cluster begins followed by cells.size,
    and each cluster's earliest breaking time.
    """
    tol = tie_tol(t)
    tau = s.tau
    cand = ((tau <= t + tol) & (tau > 0.0) & ~s.broken).nonzero()[0]
    ct = tau[cand]
    order = ct.argsort(kind="stable")
    cand, ct = cand[order], ct[order]
    if side == "right":
        n_seed = int(ct.searchsorted(t, side="right"))
    else:
        n_seed = int(ct.searchsorted(t - tol, side="left"))
    if n_seed == 0:
        return cand[:0], np.zeros(1, dtype=np.intp), ct[:0]
    n_member = int(ct.searchsorted(ct[n_seed - 1] + tol, side="right"))
    gaps = (ct[1:n_seed] - ct[: n_seed - 1] > tol).nonzero()[0] + 1
    bounds = np.concatenate(([0], gaps, [n_member]))
    return cand[:n_member], bounds, ct[bounds[:-1]]


def events(s: LagrangianState, T: float) -> EventSchedule:
    """Breaking events of ``s`` with times up to T, clustered by tie_tol(T).

    Cells already flagged broken, cells with tau = 0 (initial point masses,
    which never dissipate), and cells that never break are excluded.
    """
    if not np.isfinite(T):
        raise ConfigError("event horizon T must be finite")
    cells, bounds, first = _clusters(s, T, "right")
    times = tuple(first.tolist())
    bounds = bounds.tolist()
    groups = [cells[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    return EventSchedule(times=times, cells_at=dict(zip(times, groups)))


def evolve(s: LagrangianState, t: float, side: str = "right") -> LagrangianState:
    """Evolve a Lagrangian state to time t, applying breaking events on the way.

    With side="right" (default) events with tau <= t are fully applied, so the
    result is the right-continuous state at t.  With side="left" events at
    t itself are withheld: cells breaking exactly at t have collapsed (their
    d_y and d_U vanish there as a fact of the motion) but their energy is not
    yet scaled, giving the one-sided limit as time approaches t from below.

    Raises ConfigError when t is not finite or precedes the state's time.
    """
    if side not in ("left", "right"):
        raise ConfigError("side must be 'left' or 'right'")
    if not np.isfinite(t):
        raise ConfigError("target time must be finite")
    if t < s.time:
        raise ConfigError(f"cannot evolve backwards: state at {s.time}, requested {t}")
    if t == s.time and side == "right":
        return s

    # event-free motion from s.time
    dt = t - s.time
    acc = 0.5 * s.V - 0.25 * s.V_inf
    y = s.y + (dt * s.U + (0.5 * dt * dt) * acc)
    U = s.U + dt * acc
    d_y = s.d_y + (dt * s.d_U + (0.25 * dt * dt) * s.d_V)
    d_U = s.d_U + (0.5 * dt) * s.d_V
    d_V = s.d_V
    broken = s.broken
    V = s.V
    V_inf = s.V_inf

    cells, bounds, first = _clusters(s, t, side)
    if cells.size:
        w = s.widths
        r = (t - np.maximum(first, s.time)).repeat(bounds[1:] - bounds[:-1])
        order = cells.argsort()
        cells, r = cells[order], r[order]
        kept = (1.0 - s.alpha) * s.d_V[cells]
        d_V = s.d_V.copy()
        d_V[cells] = kept
        # the collapse is exact: restart the cell from analytic zeros
        d_y[cells] = (0.25 * r * r) * kept
        d_U[cells] = (0.5 * r) * kept
        broken = s.broken.copy()
        broken[cells] = True

        # the energy D_i lost at tau_i changes acc by -D_i/2 at the nodes
        # right of cell i and by D_i/4 at every node; integrated once (r)
        # and twice (r^2 / 2) these are prefix sums over the breaking cells
        # in index order, constant between consecutive ones
        D = (s.d_V[cells] - kept) * w[cells]
        lost = np.zeros((2, cells.size + 1))
        lost[0, 1:] = D * r
        lost[1, 1:] = D * (0.5 * r * r)
        lost.cumsum(axis=1, out=lost)
        gain = 0.25 * lost[:, -1:] - 0.5 * lost
        edges = np.concatenate(([-1], cells, [s.n_cells]))
        counts = edges[1:] - edges[:-1]
        U += gain[0].repeat(counts)
        y += gain[1].repeat(counts)

        m = d_V * w
        V = s.V[0] + np.concatenate(([0.0], exact_cumsum(m)))
        V_inf = s.V[0] + stable_sum(m)

    if side == "left":
        tau = s.tau
        at_t = (~broken) & (np.abs(tau - t) <= tie_tol(t)) & (tau > 0.0)
        d_y[at_t] = 0.0
        d_U[at_t] = 0.0

    return dataclasses.replace(
        s,
        y=y,
        U=U,
        V=V,
        d_y=d_y,
        d_U=d_U,
        d_V=d_V,
        broken=broken,
        time=t,
        V_inf=V_inf,
    )


def total_energy(s: LagrangianState) -> float:
    """Current total energy sum(d_V * width) over all cells."""
    return stable_sum(s.d_V * s.widths)
