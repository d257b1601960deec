"""Independent evolution schemes that the tests compare ``evolve`` against.

``sequential_evolve`` is the event-by-event scheme: it advances the whole
state to each breaking cluster in turn, applies the dissipation there,
resums the nodal energies and continues, so it costs O(events x cells).
``brute_force_oracle`` is a fixed-step RK4 march of the nodal system.
Neither shares any update formula with the closed-form map in
``hsalpha.evolution``; only the tie tolerance is taken from there.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from hsalpha.errors import ConfigError
from hsalpha.evolution import EVENT_TIE_TOL, tie_tol
from hsalpha.lagrangian import LagrangianState
from hsalpha.numerics import exact_cumsum, stable_sum


def _clustered_events(tau, eligible, lo_mask, tol):
    """Group eligible breaking times into tie-tolerance clusters.

    ``lo_mask`` selects the cells that seed clusters; ``eligible`` marks the
    cells allowed to join one (stragglers within tol of a cluster are swept
    in even when they missed the seed cut).  Returns a list of
    (event_time, index_array) pairs ordered by time, event_time being the
    earliest breaking time in the cluster.
    """
    seeds = np.flatnonzero(lo_mask)
    if seeds.size == 0:
        return []
    order = seeds[np.argsort(tau[seeds], kind="stable")]
    sorted_tau = tau[order]
    breaks = np.flatnonzero(np.diff(sorted_tau) > tol) + 1
    groups = np.split(np.arange(order.size), breaks)
    elig_idx = np.flatnonzero(eligible)
    elig_tau = tau[elig_idx]
    out = []
    claimed = np.zeros(tau.shape[0], dtype=bool)
    for g in groups:
        lo = sorted_tau[g[0]]
        hi = sorted_tau[g[-1]]
        members = elig_idx[(elig_tau >= lo - tol) & (elig_tau <= hi + tol)]
        members = members[~claimed[members]]
        if members.size == 0:
            continue
        claimed[members] = True
        out.append((lo, members))
    return out


def _advance(y, U, V, d_y, d_U, d_V, V_inf, dt):
    """Closed-form motion over a window of length dt with frozen V."""
    if dt == 0.0:
        return
    acc = 0.5 * V - 0.25 * V_inf
    y += dt * U + (0.5 * dt * dt) * acc
    U += dt * acc
    d_y += dt * d_U + (0.25 * dt * dt) * d_V
    d_U += (0.5 * dt) * d_V


def sequential_evolve(s: LagrangianState, t: float, side: str = "right") -> LagrangianState:
    """Event-by-event evolution of s to time t, with evolve's semantics."""
    if t < s.time:
        raise ValueError(f"cannot evolve backwards: state at {s.time}, requested {t}")
    if t == s.time and side == "right":
        return s
    tol = tie_tol(t)

    y = s.y.copy()
    U = s.U.copy()
    V = s.V.copy()
    d_y = s.d_y.copy()
    d_U = s.d_U.copy()
    d_V = s.d_V.copy()
    broken = s.broken.copy()
    tau = s.tau
    V_inf = s.V_inf
    V0 = V[0]
    w = s.widths

    eligible = (~broken) & (tau > 0.0) & np.isfinite(tau)
    if side == "right":
        base = eligible & (tau <= t)
    else:
        base = eligible & (tau < t - tol)
    one_minus_alpha = 1.0 - s.alpha

    t_cur = s.time
    for t_event, idx in _clustered_events(tau, eligible, base, tol):
        t_stop = max(t_event, s.time)
        _advance(y, U, V, d_y, d_U, d_V, V_inf, t_stop - t_cur)
        t_cur = t_stop
        d_y[idx] = 0.0
        d_U[idx] = 0.0
        d_V[idx] *= one_minus_alpha
        broken[idx] = True
        V = V0 + np.concatenate(([0.0], exact_cumsum(d_V * w)))
        V_inf = V0 + stable_sum(d_V * w)

    _advance(y, U, V, d_y, d_U, d_V, V_inf, t - t_cur)

    if side == "left":
        at_t = (~broken) & np.isfinite(tau) & (np.abs(tau - t) <= tol) & (tau > 0.0)
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


def brute_force_oracle(s: LagrangianState, t: float, n_steps: int) -> LagrangianState:
    """Reference integrator: classical RK4 on the nodal system.

    Marches (y_j, U_j) with fixed step h = (t - s.time)/n_steps using the
    textbook four-stage Runge-Kutta scheme, holding the nodal V values frozen
    within each step.  Energy dissipation is quantized: each breaking cell has
    its d_V scaled by (1 - alpha) at the first step boundary at or after its
    breaking time.  Deliberately independent of evolve's closed-form updates;
    agreement is limited by the O(h) event quantization.
    """
    if n_steps < 1:
        raise ConfigError("n_steps must be a positive integer")
    if t < s.time:
        raise ValueError(f"cannot integrate backwards: state at {s.time}, requested {t}")

    y = s.y.copy()
    U = s.U.copy()
    d_V = s.d_V.copy()
    broken = s.broken.copy()
    tau = s.tau
    V0 = s.V[0]
    w = s.widths
    V = s.V.copy()
    V_inf = s.V_inf
    h = (t - s.time) / n_steps
    one_minus_alpha = 1.0 - s.alpha

    pending = np.flatnonzero(
        (~broken) & (tau > 0.0) & np.isfinite(tau) & (tau <= t + EVENT_TIE_TOL)
    )
    pending = pending[np.argsort(tau[pending], kind="stable")]
    ptr = 0

    def rhs(y_arr, U_arr):
        acc = 0.5 * V - 0.25 * V_inf
        return U_arr, acc

    for k in range(n_steps + 1):
        t_k = t if k == n_steps else s.time + k * h
        cut = ptr
        while cut < pending.size and tau[pending[cut]] <= t_k + EVENT_TIE_TOL:
            cut += 1
        if cut > ptr:
            idx = pending[ptr:cut]
            d_V[idx] *= one_minus_alpha
            broken[idx] = True
            V = V0 + np.concatenate(([0.0], exact_cumsum(d_V * w)))
            V_inf = V0 + stable_sum(d_V * w)
            ptr = cut
        if k == n_steps:
            break
        k1y, k1u = rhs(y, U)
        k2y, k2u = rhs(y + 0.5 * h * k1y, U + 0.5 * h * k1u)
        k3y, k3u = rhs(y + 0.5 * h * k2y, U + 0.5 * h * k2u)
        k4y, k4u = rhs(y + h * k3y, U + h * k3u)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        U = U + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)

    with np.errstate(invalid="ignore", divide="ignore"):
        d_y_new = np.diff(y) / w
        d_U_new = np.diff(U) / w
    return dataclasses.replace(
        s,
        y=y,
        U=U,
        V=V,
        d_y=d_y_new,
        d_U=d_U_new,
        d_V=d_V,
        broken=broken,
        time=t,
        V_inf=V_inf,
    )
