"""Independent schemes that the tests compare the library against.

``sequential_evolve`` is the event-by-event scheme: it advances the whole
state to each breaking cluster in turn, applies the dissipation there,
resums the nodal energies and continues, so it costs O(events x cells).
``brute_force_oracle`` is a fixed-step RK4 march of the nodal system, and
``brute_force_batch`` the same march over many states at once.  None of
them shares any update formula with the closed-form map in
``hsalpha.evolution``; only the tie tolerance is taken from there.

``oracle_profile`` builds a reference table from scratch at every call,
with the cosine and cusp formulas written out in z (no precomputed
columns, no reuse between calls, no tiles: one array per map over the
whole table), and ``union_sup_rel_err`` measures the sup error on the
union of the solution's nodes and the table's knots.
``ReferenceSolution.profile`` and ``harness.run_eoc`` must agree with them
bit for bit, and ``oracle_total_energy`` with ``total_energy``.

``eval_u`` and ``eval_F`` evaluate a ``ReferenceSolution`` at one point by
bracketed root finding on the library's characteristic position map (the
library inverts it only through its tables), and ``initial_datum`` gives
its datum.  ``multipeakon_exact`` is the two-peak datum's solution in
closed form, branch by branch (the library tabulates it from its broken
pieces), and ``cosine_u_x`` and ``cusp_u_x`` are the slopes of the cosine
and cusp data, which the library's data do not carry.

``validate`` checks an initial datum's structure against a slope by
adaptive quadrature, and ``check_solution_consistency`` the invariant that
ties a pushforward's ``u`` to its ``F_ac``.

``per_row_solution_csv`` writes a snapshot one row at a time, and
``greedy_sign_loop`` walks the cell pairs one by one choosing the
kink-minimizing slope order; ``harness.write_solution_csv`` and
``projection.project`` must agree with them byte for byte.

``whole_array_w1``, ``whole_array_to_lagrangian`` and
``whole_array_to_eulerian`` are ``metrics.w1``, ``lagrangian.to_lagrangian``
and ``pushforward.to_eulerian`` as they were before those worked in blocks of
``numerics._CHUNK_FLOATS``: each step over whole arrays (with
``np.unique``, a 3-nodes-per-pair layout that is then compressed, and
``whole_array_exact_cumsum``).  The library must agree with them bit for
bit.

``atoms_of`` gives a measure's atoms as ``(position, mass)`` pairs, the
form ``EnergyMeasure`` takes them in.

The estimators that only the tests use: ``breaking_time``, one cell's
breaking time in scalar code, which ``lagrangian._breaking_times`` must
match element by element; ``PiecewiseConstant``, a step function, and
``slopes`` of a piecewise-linear function, whose slope as a step function
is ``PiecewiseConstant(u.nodes, slopes(u))``;
``linf_diff`` (exact sup of a piecewise-linear difference) and
``linf_diff_sampled``; ``l2_diff`` (exact L² of a piecewise-linear or
piecewise-constant difference); ``besov_seminorm``
with ``BesovEstimate`` and ``default_h_grid``, the estimate of
hypothesis (i), sup_h h^-beta ||u_x(.+h) - u_x||_2, that criterion 9
checks; and ``projection_error``, the t=0 norms of a projected datum
against its datum.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from hsalpha.errors import ConfigError, CorruptStateError, MassMismatchError, NumericError
from hsalpha.eulerian import EnergyMeasure, EulerianSolution, InitialDatum, PiecewiseLinear
from hsalpha.eulerian import eval_cumulative
from hsalpha.evolution import EVENT_TIE_TOL, tie_tol
from hsalpha.lagrangian import LagrangianState
from hsalpha.numerics import _running_max, exact_cumsum, stable_sum
from hsalpha.pushforward import ATOM_MASS_TOL, ATOM_WIDTH_TOL
from hsalpha import reference
from hsalpha.reference import ReferenceProfile

_PI = math.pi


def atoms_of(m) -> tuple:
    """The atoms of the measure m as ((position, mass), ...)."""
    return tuple(zip(m.atom_positions.tolist(), m.atom_masses.tolist()))


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


def brute_force_batch(states, t: float, n_steps: int) -> list:
    """``[brute_force_oracle(s, t, n_steps) for s in states]`` in one march.

    Within a step the right-hand side reads only the frozen nodal V and
    V_inf, so the states' nodes march as one array with V_inf repeated per
    node; the states must share their time, hence the step h.  Breaking
    cells are taken from one list ordered by breaking time and tagged by
    state, and each state's V and V_inf are resummed as in the single march.
    The per-node arithmetic is that of brute_force_oracle (subexpressions
    that stay equal between events are computed once), so every result
    equals the single march's bit for bit.
    """
    if n_steps < 1:
        raise ConfigError("n_steps must be a positive integer")
    t0 = states[0].time
    if any(s.time != t0 for s in states):
        raise ConfigError("the batched states must share their time")
    if t < t0:
        raise ValueError(f"cannot integrate backwards: state at {t0}, requested {t}")

    edges = np.cumsum([0] + [s.y.size for s in states])
    y = np.concatenate([s.y for s in states])
    U = np.concatenate([s.U for s in states])
    V = np.concatenate([s.V for s in states])
    V_inf = np.concatenate([np.full(s.y.size, s.V_inf) for s in states])
    d_V = [s.d_V.copy() for s in states]
    broken = [s.broken.copy() for s in states]
    h = (t - t0) / n_steps

    pending = []
    for i, s in enumerate(states):
        tau = s.tau
        due = (~s.broken) & (tau > 0.0) & np.isfinite(tau) & (tau <= t + EVENT_TIE_TOL)
        pending.extend((tau[j], i, j) for j in np.flatnonzero(due))
    pending.sort(key=lambda p: p[0])
    ptr = 0

    for k in range(n_steps + 1):
        t_k = t if k == n_steps else t0 + k * h
        hit = {}
        while ptr < len(pending) and pending[ptr][0] <= t_k + EVENT_TIE_TOL:
            hit.setdefault(pending[ptr][1], []).append(pending[ptr][2])
            ptr += 1
        for i, cells in hit.items():
            s, lo, hi = states[i], edges[i], edges[i + 1]
            d_V[i][cells] *= 1.0 - s.alpha
            broken[i][cells] = True
            V[lo:hi] = s.V[0] + np.concatenate(([0.0], exact_cumsum(d_V[i] * s.widths)))
            V_inf[lo:hi] = s.V[0] + stable_sum(d_V[i] * s.widths)
        if k == 0 or hit:
            # the four RK4 stages all see this acceleration until the next event
            acc = 0.5 * V - 0.25 * V_inf
            half, full = 0.5 * h * acc, h * acc
            dU = (h / 6.0) * (acc + 2.0 * acc + 2.0 * acc + acc)
        if k == n_steps:
            break
        mid = 2.0 * (U + half)  # stages 2 and 3 of y
        y = y + (h / 6.0) * (U + mid + mid + (U + full))
        U = U + dU

    out = []
    for i, s in enumerate(states):
        lo, hi = edges[i], edges[i + 1]
        with np.errstate(invalid="ignore", divide="ignore"):
            d_y_new = np.diff(y[lo:hi]) / s.widths
            d_U_new = np.diff(U[lo:hi]) / s.widths
        out.append(
            dataclasses.replace(
                s,
                y=y[lo:hi].copy(),
                U=U[lo:hi].copy(),
                V=V[lo:hi].copy(),
                d_y=d_y_new,
                d_U=d_U_new,
                d_V=d_V[i],
                broken=broken[i],
                time=t,
                V_inf=V_inf[lo] if hi > lo else s.V_inf,
            )
        )
    return out


def _lam(w):
    """Cumulative energy of the cosine datum on [0, 4]: integral of pi^2 sin^2(pi s)."""
    return 0.5 * _PI * _PI * w - 0.25 * _PI * np.sin(2.0 * _PI * w)


class _CosineFamily:
    """Characteristic-form solution pieces for the cosine datum.

    The slope -pi sin(pi z) is negative on (0, 1) and (2, 3); by time
    t >= 2/pi the characteristics with sin(pi z) >= 2/(pi t) have broken,
    i.e. z in [zeta, 1-zeta] and [2+zeta, 3-zeta] with
    zeta(t) = arcsin(2/(pi t))/pi.  On those intervals the dissipation
    integrals have elementary antiderivatives, used exactly below.
    """

    window = (0.0, 4.0)
    u_max = 1.0

    def __init__(self, alpha):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        self.alpha = alpha
        self.F_inf = float(_lam(4.0))

    @staticmethod
    def initial_u(z):
        return np.cos(_PI * np.clip(z, 0.0, 4.0))

    @staticmethod
    def initial_F(z):
        return _lam(np.clip(z, 0.0, 4.0))

    @staticmethod
    def breaking_arcs(t):
        """Sub-intervals broken by time t (possibly empty)."""
        if t * _PI <= 2.0:
            return []
        zeta = math.asin(min(1.0, 2.0 / (_PI * t))) / _PI
        return [(zeta, 1.0 - zeta), (2.0 + zeta, 3.0 - zeta)]

    # Antiderivatives of the broken-set integrands (valid inside the arcs,
    # where tau(w) = 2/(pi sin(pi w))):
    #   d/dw [t lam(w) + 2 cos(pi w)]              = (t - tau) ubar_x^2
    #   d/dw [t^2 lam(w) + 4 t cos(pi w) + 4 w]/2  = (t - tau)^2 ubar_x^2
    @staticmethod
    def _g_b(w, t):
        return _lam(w)

    @staticmethod
    def _g_j1(w, t):
        return t * _lam(w) + 2.0 * np.cos(_PI * w)

    @staticmethod
    def _g_j2(w, t):
        return 0.5 * (t * t * _lam(w) + 4.0 * t * np.cos(_PI * w) + 4.0 * w)

    def _arc_sum(self, g, t, z):
        total = np.zeros_like(np.asarray(z, dtype=float))
        for lo, hi in self.breaking_arcs(t):
            total = total + g(np.clip(z, lo, hi), t) - g(lo, t)
        return total

    def _arc_total(self, g, t):
        return float(sum(g(hi, t) - g(lo, t) for lo, hi in self.breaking_arcs(t)))

    def B(self, t, z):
        return self._arc_sum(self._g_b, t, z)

    def J1(self, t, z):
        return self._arc_sum(self._g_j1, t, z)

    def J2(self, t, z):
        return self._arc_sum(self._g_j2, t, z)

    def B_inf(self, t):
        return self._arc_total(self._g_b, t)

    def J1_inf(self, t):
        return self._arc_total(self._g_j1, t)

    def J2_inf(self, t):
        return self._arc_total(self._g_j2, t)

    def anchors(self, t):
        """Refinement anchors for dense tables: datum edges, slope extrema,
        and the moving endpoints of the broken arcs."""
        pts = [0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0]
        for lo, hi in self.breaking_arcs(t):
            pts.extend((lo, hi))
        return pts


# ---------------------------------------------------------------------------
# Cusp family: ubar = |x|^(2/3) on [a, b], constants outside.
# ---------------------------------------------------------------------------

def _cbrt_signed(w):
    return np.sign(w) * np.abs(w) ** (1.0 / 3.0)


class _CuspFamily:
    """Characteristic-form solution pieces for the cusped datum.

    ubar_x = (2/3) sgn(z) |z|^(-1/3) on (a, b), so breaking happens only on
    the negative branch [min(a, 0), min(b, 0)] with tau(z) = 3 |z|^(1/3):
    by time t the interval [-r^3, min(b, 0)) has broken, with
    r = max(v_top, min(|a|^(1/3), t/3)) and v_top = rho(b).  Substituting
    v = |w|^(1/3) turns every dissipation integral into a polynomial one.
    """

    def __init__(self, a, b, alpha):
        if not (np.isfinite(a) and np.isfinite(b) and a <= b):
            raise ConfigError("cusp interval needs finite a <= b")
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        self.a = float(a)
        self.b = float(b)
        self.alpha = alpha
        self.window = (self.a, self.b)
        self._neg = min(self.a, 0.0)
        self._top = min(self.b, 0.0)
        self._v_top = float(self._rho(np.array([self.b]))[0])
        self.F_inf = float((4.0 / 3.0) * (_cbrt_signed(b) - _cbrt_signed(a)))
        self.u_max = float(max(abs(a), abs(b)) ** (2.0 / 3.0))

    def initial_u(self, z):
        return np.abs(np.clip(z, self.a, self.b)) ** (2.0 / 3.0)

    def initial_F(self, z):
        return (4.0 / 3.0) * (_cbrt_signed(np.clip(z, self.a, self.b)) - _cbrt_signed(self.a))

    def _r(self, t):
        """Depth of the broken region in v = |z|^(1/3) units at time t."""
        return max(self._v_top, min((-self._neg) ** (1.0 / 3.0), t / 3.0))

    def _rho(self, z):
        return (-np.clip(z, self._neg, self._top)) ** (1.0 / 3.0)

    def B(self, t, z):
        r = self._r(t)
        rho = self._rho(z)
        return (4.0 / 3.0) * np.maximum(r - rho, 0.0)

    def J1(self, t, z):
        r = self._r(t)
        rho = np.minimum(self._rho(z), r)
        return (4.0 / 3.0) * (t * (r - rho) - 1.5 * (r * r - rho * rho))

    def J2(self, t, z):
        r = self._r(t)
        rho = np.minimum(self._rho(z), r)
        A, B = t - 3.0 * rho, t - 3.0 * r
        return (2.0 / 9.0) * (A * A + A * B + B * B) * (r - rho)

    # integrals over [0, r] less the same integrals over [0, v_top]
    def B_inf(self, t):
        return (4.0 / 3.0) * self._r(t) - (4.0 / 3.0) * self._v_top

    def J1_inf(self, t):
        r, v = self._r(t), self._v_top
        return (4.0 / 3.0) * (t * r - 1.5 * r * r) - (4.0 / 3.0) * (t * v - 1.5 * v * v)

    def J2_inf(self, t):
        r, v = self._r(t), self._v_top
        B, C = t - 3.0 * r, t - 3.0 * v
        return (2.0 / 9.0) * (C * C + C * B + B * B) * (r - v)

    def anchors(self, t):
        pts = [self.a, 0.0, self.b]
        if self._neg < 0.0:
            pts.append(-self._r(t) ** 3)
        return pts


def _char_velocity(fam, t, z):
    a = fam.alpha
    return (
        fam.initial_u(z)
        + 0.5 * t * fam.initial_F(z)
        - 0.25 * t * fam.F_inf
        - 0.5 * a * fam.J1(t, z)
        + 0.25 * a * fam.J1_inf(t)
    )


def _char_position(fam, t, z):
    a = fam.alpha
    return (
        z
        + t * fam.initial_u(z)
        + 0.25 * t * t * fam.initial_F(z)
        - 0.125 * t * t * fam.F_inf
        - 0.5 * a * fam.J2(t, z)
        + 0.25 * a * fam.J2_inf(t)
    )


def _char_cumulative(fam, t, z):
    return fam.initial_F(z) - fam.alpha * fam.B(t, z)


def _char_total(fam, t):
    return fam.F_inf - fam.alpha * fam.B_inf(t)


# ---------------------------------------------------------------------------
# Profiles: whole-line evaluators at a fixed time.
# ---------------------------------------------------------------------------

def _geometric_ladder(points, lo, hi):
    """Refinement points accumulating geometrically at each anchor."""
    offs = 2.0 ** (-np.arange(8.0, 95.0) / 2.0)
    pts = []
    for p in points:
        pts.append(p + offs)
        pts.append(p - offs)
        pts.append(np.asarray([p]))
    out = np.concatenate(pts)
    return out[(out >= lo) & (out <= hi)]


def _family_profile(fam, t, x_lo, x_hi, n_base, widened_bulk):
    # Characteristics outside the datum window move rigidly (constant u,
    # constant F), so resolution is only spent on the window itself; sparse
    # tail points keep the table's x-range wide enough to cover [x_lo, x_hi].
    margin = 1.0 + t * fam.u_max + t * t * fam.F_inf
    w_lo, w_hi = fam.window
    z_lo = min(x_lo, w_lo) - margin
    z_hi = max(x_hi, w_hi) + margin
    bulk = np.linspace(w_lo - 1.0, w_hi + 1.0, max(int(n_base), 101))
    if not widened_bulk:
        bulk = bulk[(bulk >= w_lo) & (bulk <= w_hi)]
    pieces = [
        bulk,
        np.linspace(z_lo, w_lo - 1.0, 9),
        np.linspace(w_hi + 1.0, z_hi, 9),
        _geometric_ladder(fam.anchors(t), z_lo, z_hi),
    ]
    for lo, hi in getattr(fam, "breaking_arcs", lambda _t: [])(t):
        pieces.append(np.linspace(lo - 0.05, hi + 0.05, 6001))
    z = np.unique(np.concatenate(pieces))
    y = np.maximum.accumulate(_char_position(fam, t, z))
    u = _char_velocity(fam, t, z)
    F = np.maximum.accumulate(_char_cumulative(fam, t, z))
    keep = np.append(np.diff(y) > 0.0, True)
    y_k, u_k, F_k = y[keep], u[keep], F[keep]

    def u_at(x):
        return np.interp(x, y_k, u_k)

    def measure():
        return EnergyMeasure(F_ac=PiecewiseLinear(nodes=y_k, values=F_k))

    return ReferenceProfile(u_at=u_at, measure=measure, knots=y_k)


def _oracle_family(ref):
    if ref.family == "cosine":
        return _CosineFamily(ref.alpha)
    return _CuspFamily(ref.a, ref.b, ref.alpha)


def oracle_total_energy(ref, t) -> float:
    """``ref.total_energy(t)`` for the cosine and cusp families."""
    return _char_total(_oracle_family(ref), t)


def oracle_profile(
    ref, t, x_lo=None, x_hi=None, n_base=4001, widened_bulk=False
) -> ReferenceProfile:
    """``ref.profile(t, x_lo, x_hi, n_base)`` for the cosine and cusp families,
    built from scratch.

    The table keeps the points of its n_base bulk (spread over the datum
    window widened by 1) that lie inside the window; with widened_bulk it
    keeps them all.  Outside the window the characteristics move rigidly,
    so the two tables give the same profile: the widened one only adds
    knots where u and F are constant.
    """
    fam = _oracle_family(ref)
    if x_lo is None:
        x_lo = fam.window[0]
    if x_hi is None:
        x_hi = fam.window[1]
    return _family_profile(fam, t, x_lo, x_hi, n_base, widened_bulk)


def union_sup_rel_err(sol, prof) -> float:
    """max |u_num - u_ref| / max |u_ref| over the union of nodes and knots."""
    xs = np.union1d(sol.u.nodes, prof.knots)
    diff = np.abs(sol.u(xs) - prof.u_at(xs))
    den = float(np.max(np.abs(prof.u_at(xs))))
    return float(np.max(diff)) / max(den, 1e-300)


# ---------------------------------------------------------------------------
# Two-peak piecewise-linear benchmark: fully closed form.
# ---------------------------------------------------------------------------

def _finite(v, t):
    """The value v of a map at time t, or NumericError if it overflowed."""
    if not math.isfinite(v):
        raise reference._overflow(t)
    return v


def _before_break(t, side):
    """Whether t (approached from ``side`` at t = 2) precedes the two-peak break."""
    return t < 2.0 or (t == 2.0 and side == "left")


def _two_peak_ends(alpha, t, side):
    """Ends (x_lo, x_hi) of the two-peak profile's sloped piece at time t;
    NumericError where they overflow."""
    if _before_break(t, side):
        ends = (8.0 - t) * t / 16.0, (t * t + 8.0) / 16.0
    else:
        beta = 1.0 - alpha
        ends = (
            -beta * t * t / 16.0 + (2.0 - alpha) * t / 4.0 + alpha / 4.0,
            beta * t * t / 16.0 + alpha * t / 4.0 + (2.0 - alpha) / 4.0,
        )
    return _finite(ends[0], t), _finite(ends[1], t)


def multipeakon_exact(alpha, t, x, side="right"):
    """Exact (u, F) of the canonical two-peak datum at time t and position x.

    The datum is u = 1/2 for x < 0, 1/2 - x on [0, 1/2], 0 beyond, with all
    its energy breaking at t = 2.  For t < 2 the profile steepens; at t = 2
    the energy concentrates in a point mass at x = 3/4, of which the fraction
    alpha is removed; for t > 2 the retained energy spreads again.

    ``side`` matters only at t = 2: "right" (default) returns the state with
    dissipation applied, "left" the limit from earlier times (full point
    mass still present).  x may be a scalar or an array.  Raises
    ConfigError for a negative or non-finite time and a non-finite x, and
    NumericError at a time so large that the profile's ends overflow.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("alpha must lie in [0, 1]")
    reference._check_time(t)
    if side not in ("left", "right"):
        raise ConfigError("side must be 'left' or 'right'")
    xs = np.asarray(x, dtype=float)
    if not np.isfinite(xs).all():
        raise ConfigError("position must be finite")
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)

    x_lo, x_hi = _two_peak_ends(alpha, t, side)
    # the sloped piece has no width at t = 2; rounding in its ends may hide that
    sloped = x_hi > x_lo and t != 2.0
    if _before_break(t, side):
        u_left = 0.5 - t / 8.0
        u_right = t / 8.0
        F_right = 0.5
        if sloped:
            u_mid = (8.0 * xs - (t + 4.0)) / (4.0 * (t - 2.0))
            F_mid = (16.0 * xs + t * t - 8.0 * t) / (4.0 * (t - 2.0) ** 2)
    else:
        beta = 1.0 - alpha
        u_left = -beta * t / 8.0 + (2.0 - alpha) / 4.0
        u_right = beta * t / 8.0 + alpha / 4.0
        F_right = beta / 2.0
        if sloped:
            u_mid = (2.0 / (t - 2.0)) * (xs - (t + 4.0) / 8.0)
            F_mid = (4.0 / (t - 2.0) ** 2) * (xs - x_lo)
    if not sloped:  # at the collapse, or after it with alpha = 1
        u_mid = np.full_like(xs, u_right)
        F_mid = np.full_like(xs, F_right)
    u = np.where(xs <= x_lo, u_left, np.where(xs >= x_hi, u_right, u_mid))
    F = np.where(xs <= x_lo, 0.0, np.where(xs >= x_hi, F_right, F_mid))

    if scalar:
        return float(u[0]), float(F[0])
    return u, F


# ---------------------------------------------------------------------------
# Scalar reference evaluators: root finding on the library's maps.
# ---------------------------------------------------------------------------

#: xtol of the root finder that inverts y in eval_u and eval_F
_INV_TOL = 1e-12


def initial_datum(ref) -> InitialDatum:
    """The initial datum of the reference solution ref: its family's."""
    return ref._fam.datum


def cosine_u_x(x):
    """The slope of cosine_datum(): -pi sin(pi x) on (0, 4), 0 outside."""
    xa = np.asarray(x, dtype=float)
    inside = (xa > 0.0) & (xa < 4.0)
    return np.where(inside, -_PI * np.sin(_PI * np.where(inside, xa, 0.0)), 0.0)


def cusp_u_x(a=-1.0, b=1.0):
    """The slope of cusp_datum(a, b), (2/3) sgn(x) |x|^(-1/3) on (a, b)
    less 0, and 0 elsewhere, as a function of x."""

    def u_x(x):
        xa = np.asarray(x, dtype=float)
        inside = (xa > a) & (xa < b) & (xa != 0.0)
        safe = np.where(inside, xa, 1.0)
        return np.where(inside, (2.0 / 3.0) * np.sign(safe) * np.abs(safe) ** (-1.0 / 3.0), 0.0)

    return u_x


def _invert(ref, t, x):
    fam = ref._fam
    margin = 1.0 + t * fam.u_max + t * t * fam.F_inf
    lo, hi = x - margin, x + margin

    def g(z):
        c = fam.columns(np.asarray(z, dtype=float))
        y = reference._char_position(fam, ref.alpha, t, c, fam._J12(t, c)[1])
        return _finite(float(y) - x, t)

    g_lo, g_hi = g(lo), g(hi)
    grow = margin
    tries = 0
    while g_lo > 0.0 or g_hi < 0.0:
        grow *= 2.0
        lo, hi = x - grow, x + grow
        g_lo, g_hi = g(lo), g(hi)
        tries += 1
        if tries > 60:
            raise NumericError("could not bracket the characteristic inversion")
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    try:
        return brentq(g, lo, hi, xtol=_INV_TOL, maxiter=200)
    except RuntimeError:  # at a time so large that xtol is below an ulp of z
        raise NumericError(
            f"the characteristic inversion does not converge at t = {t:g}"
        ) from None


@np.errstate(over="ignore", invalid="ignore")
def eval_u(ref, t, x) -> float:
    """u(t, x) of the reference solution ref, by inverting the
    characteristic position map at x.

    At large t the result has an absolute error of about eps t F_inf
    (eps = 2^-52): U's terms each reach about t F_inf and cancel to u.
    Against a 60-digit evaluation of the same maps (alpha 1/2, x = 0.3)
    it is off by 1.4e-6 on the cusp at t = 1e10, and on the cosine by
    3.3e-13, 4.9e-10 and 3.4e-8 at t = 1e3, 1e6 and 1e8.
    """
    reference._check_time(t)
    reference._check_finite(position=x)
    if ref.family == "multipeakon_appA":
        return multipeakon_exact(ref.alpha, t, float(x))[0]
    fam = ref._fam
    c = fam.columns(np.asarray(_invert(ref, t, float(x)), dtype=float))
    return _finite(float(reference._char_velocity(fam, ref.alpha, t, c, fam._J12(t, c)[0])), t)


@np.errstate(over="ignore", invalid="ignore")
def eval_F(ref, t, x) -> float:
    """The cumulative energy F(t, x), by inverting the same map as eval_u.

    F does not take U's cancellation, whose error in u is about
    eps t F_inf (see eval_u): at the points quoted there it is within
    2e-15 of F at the exactly inverted z.
    """
    reference._check_time(t)
    reference._check_finite(position=x)
    if ref.family == "multipeakon_appA":
        return multipeakon_exact(ref.alpha, t, float(x))[1]
    c = ref._fam.columns(np.asarray(_invert(ref, t, float(x)), dtype=float))
    return _finite(float(reference._char_cumulative(ref._fam, ref.alpha, t, c)), t)


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    ok: bool
    max_violation: float
    messages: tuple[str, ...]


def _panel_quad(f, a: float, b: float, interior: list[float]) -> float:
    if b <= a:
        return 0.0
    pts = [p for p in interior if a < p < b]
    val, _ = quad(f, a, b, points=pts or None, limit=200, epsabs=1e-13, epsrel=1e-11)
    return val


def validate(d: InitialDatum, u_x, tol: float = 1e-8, *, singularities=()) -> ValidationReport:
    """Check the structural consistency of an initial datum with slope u_x.

    Verifies, on a panel decomposition of ``support_hint`` (split also at
    ``singularities``, the points where ``u_x`` blows up), that ``u`` is the
    antiderivative of ``u_x`` and that ``F_ac`` is the antiderivative of
    ``u_x^2``; atom lists must be sorted with positive masses.  Panel
    discrepancies are reported per unit length (so a datum whose ``F_ac``
    grows at rate 2 while ``u_x**2 == 1`` scores a violation of 1 no matter
    how the panels fall); ``ok`` means the worst one stays within ``tol``.
    """
    messages: list[str] = []
    worst = 0.0
    lo, hi = d.support_hint

    pos = np.array([p for p, _ in d.atoms])
    if pos.size and np.any(np.diff(pos) <= 0.0):
        messages.append("atom positions not strictly increasing")
    if any(m <= 0.0 for _, m in d.atoms):
        messages.append("non-positive atom mass")

    grid = np.linspace(lo, hi, 17)
    extra = [s for s in singularities if lo < s < hi]
    grid = np.unique(np.concatenate((grid, extra)))
    interior = list(singularities)

    dens = lambda x: float(u_x(x)) ** 2
    for a, b in zip(grid[:-1], grid[1:]):
        width = b - a
        want_f = float(d.F_ac(b)) - float(d.F_ac(a))
        got_f = _panel_quad(dens, a, b, interior)
        df = abs(want_f - got_f) / width
        if df > tol:
            messages.append(
                f"F_ac inconsistent with u_x^2 on [{a:g}, {b:g}]: off by {df:.3e} per unit length"
            )
        worst = max(worst, df)

        want_u = float(d.u(b)) - float(d.u(a))
        got_u = _panel_quad(lambda x: float(u_x(x)), a, b, interior)
        du = abs(want_u - got_u) / width
        if du > tol:
            messages.append(
                f"u inconsistent with u_x on [{a:g}, {b:g}]: off by {du:.3e} per unit length"
            )
        worst = max(worst, du)

    fine = np.linspace(lo, hi, 1025)
    fvals = np.asarray(d.F_ac(fine), dtype=np.float64)
    dec = np.diff(fvals).min(initial=0.0)
    if dec < -tol:
        messages.append(f"F_ac decreases by {-dec:.3e}")
        worst = max(worst, -dec)

    return ValidationReport(ok=not messages, max_violation=worst, messages=tuple(messages))


def check_solution_consistency(sol: EulerianSolution) -> float:
    """Return the worst relative defect of ``slope^2 * length == F_ac increment``."""
    u, f = sol.u, sol.mu.F_ac
    if u.nodes.size < 2:
        return 0.0
    if f.nodes.size != u.nodes.size or not np.array_equal(f.nodes, u.nodes):
        raise ValueError("u and F_ac must share their node set")
    widths = np.diff(u.nodes)
    lhs = slopes(u) ** 2 * widths
    rhs = np.diff(f.values)
    floor = 1e-15 * max(1.0, f.values[-1])
    scale = np.maximum(np.maximum(np.abs(rhs), lhs), floor)
    return float(np.max(np.abs(lhs - rhs) / scale))


def per_row_solution_csv(sol: EulerianSolution, path: str) -> None:
    """Write one snapshot as CSV columns x,u,F, evaluating row by row."""
    atom_pos = sol.mu.atom_positions
    xs = np.union1d(sol.u.nodes, atom_pos)
    lines = ["x,u,F"]
    for x in xs:
        u_val = float(sol.u(x))
        left = eval_cumulative(sol.mu, float(x), side="left")
        lines.append(f"{x:.17g},{u_val:.17g},{left:.17g}")
        if atom_pos.size and np.any(atom_pos == x):
            right = eval_cumulative(sol.mu, float(x), side="right")
            lines.append(f"{x:.17g},{u_val:.17g},{right:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def greedy_sign_loop(du: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Signs ``sigma`` of the kink-minimizing rule; pair j's first slope is ``du - sigma q``.

    Greedy left-to-right: make the slope entering each pair match the
    previous pair's outgoing slope as closely as possible.
    """
    n_pairs = du.size
    sigma = np.ones(n_pairs)
    prev = 0.0
    for j in range(n_pairs):
        first_minus = du[j] - q[j]
        first_plus = du[j] + q[j]
        if abs(first_plus - prev) < abs(first_minus - prev):
            sigma[j] = -1.0
        prev = du[j] + sigma[j] * q[j]
    return sigma


# ---------------------------------------------------------------------------
# The whole-array stages.
# ---------------------------------------------------------------------------


def whole_array_exact_cumsum(x: np.ndarray) -> np.ndarray:
    """exact_cumsum in one pass over the whole array."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.zeros(0)
    s = x.cumsum()
    a = np.concatenate(([0.0], s[:-1]))
    z = s - a
    err = (a - (s - z)) + (x - z)
    return s + err.cumsum()


def _abs_linear_integral(da, db, w):
    same = da * db >= 0.0
    tri = np.abs(da) + np.abs(db)
    with np.errstate(divide="ignore", invalid="ignore"):
        crossing = w * (da * da + db * db) / (2.0 * tri)
    vals = np.where(same, 0.5 * w * tri, np.where(tri > 0.0, crossing, 0.0))
    return float(np.sum(vals))


def _cumulative(m: EnergyMeasure, x: np.ndarray, side: str) -> np.ndarray:
    """eval_cumulative(m, x, side) for an array x, in its own code."""
    base = m.F_ac(x)
    if m.atom_positions.size == 0:
        return base
    cum = np.concatenate(([0.0], np.cumsum(m.atom_masses)))
    return base + cum[np.searchsorted(m.atom_positions, x, side=side)]


def whole_array_w1(m1: EnergyMeasure, m2: EnergyMeasure) -> float:
    """metrics.w1 on whole arrays, each cumulative evaluated at both ends of
    every segment."""
    gap = abs(m1.total_mass() - m2.total_mass())
    if gap > 1e-12:
        raise MassMismatchError(f"total masses differ by {gap:.3e}")
    edges = np.unique(
        np.concatenate((m1.F_ac.nodes, m2.F_ac.nodes, m1.atom_positions, m2.atom_positions))
    )
    lo, hi = edges[:-1], edges[1:]
    da = _cumulative(m1, lo, "right") - _cumulative(m2, lo, "right")
    db = _cumulative(m1, hi, "left") - _cumulative(m2, hi, "left")
    return _abs_linear_integral(da, db, hi - lo)


def _whole_breaking_times(d_y, d_U):
    tau = np.full(d_y.shape, np.inf)
    neg = d_U < 0.0
    with np.errstate(divide="ignore"):
        tau[neg] = -2.0 * d_y[neg] / d_U[neg]
    tau[(d_U == 0.0) & (d_y == 0.0)] = 0.0
    return np.abs(tau)


def whole_array_to_lagrangian(p, alpha: float = 0.0) -> LagrangianState:
    """lagrangian.to_lagrangian through the full 3-nodes-per-pair layout."""
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
    v_even = fe + cum_atoms
    v_post = fe[:-1] + cum_atoms[1:]
    v_mid = fo + cum_atoms[1:]

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
        raise NumericError("the Lagrangian coordinates of distinct nodes coincide or overflow")

    widths = np.diff(xi)
    is_atom = np.diff(y) == 0.0
    d_y = np.where(is_atom, 0.0, np.diff(y) / widths)
    d_u = np.where(is_atom, 0.0, np.diff(u) / widths)
    d_v = np.maximum(np.where(is_atom, 1.0, np.diff(v) / widths), 0.0)
    return LagrangianState(
        xi=xi,
        y=y,
        U=u,
        V=v,
        d_y=d_y,
        d_U=d_u,
        d_V=d_v,
        tau=_whole_breaking_times(d_y, d_u),
        broken=np.zeros(d_y.shape, dtype=bool),
        alpha=float(alpha),
        time=0.0,
        V_inf=float(v[-1]),
    )


def _keep_last(x):
    """Where the nondecreasing x increases to the next entry, and its last
    entry: of a run of equal values, the last."""
    keep = np.empty(x.size, dtype=bool)
    np.greater(x[1:], x[:-1], out=keep[:-1])
    keep[-1] = True
    return keep


def _whole_positions(y, U):
    if not (np.isfinite(y).all() and np.isfinite(U).all()):
        raise NumericError("Lagrangian positions or velocities are not finite")
    drop = np.diff(y)
    if drop.size and drop.min() < -1e-12 * max(1.0, float(np.abs(y).max())):
        raise CorruptStateError(f"Lagrangian positions decrease by {-drop.min():.3e}")
    return _running_max(y.copy(), drop < 0.0)


def _node_picks(y, real):
    """u's nodes among one state's nodes, given its running-max positions y
    and its real cells: (sel, keep), where y[sel] are the left end and the
    right end of every real cell and keep drops all but the last of nodes
    that still coincide after rounding."""
    sel = np.concatenate(([0], np.flatnonzero(real) + 1))
    return sel, _keep_last(y[sel])


def whole_array_to_eulerian(s: LagrangianState) -> EulerianSolution:
    """pushforward.to_eulerian on whole arrays."""
    y = _whole_positions(s.y, s.U)
    masses = s.d_V * s.widths
    real = s.d_y > ATOM_WIDTH_TOL
    atom = (~real) & (s.d_V > ATOM_MASS_TOL)

    sel, keep = _node_picks(y, real)
    F_vals = np.concatenate(([0.0], whole_array_exact_cumsum(masses[sel[1:] - 1])))
    F_vals = np.maximum.accumulate(F_vals)
    x_nodes, u_nodes, F_vals = y[sel][keep], s.U[sel][keep], F_vals[keep]

    idx_atom = np.flatnonzero(atom)
    atoms = ()
    if idx_atom.size:
        group = np.cumsum(real)[idx_atom]
        uniq, first = np.unique(group, return_index=True)
        pos = y[idx_atom[first]]
        mass = np.zeros(uniq.size)
        np.add.at(mass, np.searchsorted(uniq, group), masses[idx_atom])
        starts = np.flatnonzero(np.diff(pos, prepend=-np.inf))
        if starts.size < pos.size:
            pos, mass = pos[starts], np.add.reduceat(mass, starts)
        atoms = tuple(zip(pos.tolist(), mass.tolist()))

    u = PiecewiseLinear(nodes=x_nodes, values=u_nodes)
    mu = EnergyMeasure(F_ac=PiecewiseLinear(nodes=x_nodes, values=F_vals), atoms=atoms)
    return EulerianSolution(u=u, mu=mu, time=s.time)


# ---------------------------------------------------------------------------
# The test-only estimators.
# ---------------------------------------------------------------------------


def breaking_time(d_y: float, d_U: float) -> float:
    """Wave-breaking time of a single cell from its derivatives at time 0."""
    if d_U == 0.0 and d_y == 0.0:
        return 0.0
    if d_U < 0.0:
        return abs(-2.0 * d_y / d_U)  # abs() normalizes -0.0
    return np.inf


@dataclasses.dataclass(frozen=True)
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


def slopes(f: PiecewiseLinear) -> np.ndarray:
    """The slope of f on each interval between its nodes."""
    return np.diff(f.values) / np.diff(f.nodes)


def linf_diff(a: PiecewiseLinear, b: PiecewiseLinear) -> float:
    """Exact sup-norm of ``a - b``: attained on the merged node set."""
    xs = np.union1d(a.nodes, b.nodes)
    return float(np.max(np.abs(a(xs) - b(xs))))


def linf_diff_sampled(exact, b: PiecewiseLinear, n_samples: int) -> float:
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


@dataclasses.dataclass(frozen=True)
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


def _translate_l2_quad(f, h: float, support: tuple[float, float], singularities) -> float:
    lo, hi = support
    pts = sorted({s for s in singularities} | {s - h for s in singularities})
    pts = [p for p in pts if lo - h < p < hi]

    def sq(x):
        return (float(f(x + h)) - float(f(x))) ** 2

    val, _ = quad(sq, lo - h, hi, points=pts or None, limit=500, epsabs=1e-12, epsrel=1e-9)
    return float(np.sqrt(max(val, 0.0)))


def besov_seminorm(
    f,
    beta: float,
    h_grid=None,
    *,
    support: tuple[float, float] | None = None,
    singularities=(),
) -> BesovEstimate:
    """Estimate the Besov-type seminorm ``sup_h h^{-beta} ||f(.+h) - f||_2``.

    ``f`` is a compactly supported profile: a :class:`PiecewiseConstant`
    (translate norms are then exact) or a callable with a ``support``
    interval, integrated by adaptive quadrature with splitting at
    ``singularities`` and their shifted images.  The result is a max over the
    sampled ``h_grid`` — a lower bound of the true supremum over
    h in (0, 2] that can only grow under grid refinement.
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
        norms = np.array([_translate_l2_quad(f, float(h), support, singularities) for h in hs])
    else:
        raise TypeError("f must be PiecewiseConstant or callable")

    est = float(np.max(norms * hs ** (-beta)))
    return BesovEstimate(beta=float(beta), seminorm=est, h_grid=tuple(float(h) for h in hs))


_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _segment_quad(fn, edges: np.ndarray) -> tuple[float, float]:
    """Gauss-Legendre(8) integrals of ``|fn|`` and ``fn^2`` per segment, summed."""
    a = edges[:-1]
    width = np.diff(edges)
    xs = a[:, None] + (0.5 * (_GL_X + 1.0))[None, :] * width[:, None]
    vals = fn(xs.ravel()).reshape(xs.shape)
    w = 0.5 * width[:, None] * _GL_W[None, :]
    return float(np.sum(w * np.abs(vals))), float(np.sum(w * vals * vals))


def projection_error(d: InitialDatum, p: EulerianSolution) -> tuple[float, float, float, float, float]:
    """Projection error of ``p`` against its datum.

    Returns ``(linf_u, l2_u, l2_ux, l1_F, l2_F)`` over the projection window.
    ``l2_ux`` is computed exactly through the identity
    :math:`\\int (\\bar u_x - s)^2 = \\Delta F_{ac} - 2 s \\Delta\\bar u + s^2 w`
    per half cell, which needs only the datum's endpoint evaluators.  The
    remaining integrals are exact for piecewise-linear data aligned with the
    grid and high-order sampled quadrature otherwise; ``linf_u`` is sampled
    (a lower bound on the true sup) unless the datum is piecewise linear.
    """
    nodes = p.u.nodes
    exact_pl = isinstance(d.u, PiecewiseLinear)

    if exact_pl:
        linf_u = linf_diff(d.u, p.u)
    else:
        linf_u = linf_diff_sampled(d.u, p.u, n_samples=9)

    diff_u = lambda x: np.asarray(d.u(x), dtype=np.float64) - p.u(x)
    _, l2u_sq = _segment_quad(diff_u, nodes)
    l2_u = np.sqrt(l2u_sq)

    # exact slope-error identity per half cell
    seg_du = np.diff(np.asarray(d.u(nodes), dtype=np.float64))
    seg_df = np.diff(np.asarray(d.F_ac(nodes), dtype=np.float64))
    s = slopes(p.u)
    w = np.diff(nodes)
    contrib = seg_df - 2.0 * s * seg_du + s * s * w
    l2_ux = np.sqrt(max(0.0, float(np.sum(contrib))))

    atom_pos = [a for a, _ in d.atoms] + p.mu.atom_positions.tolist()
    edges = np.unique(np.concatenate((nodes, np.asarray(atom_pos, dtype=np.float64))))
    f_exact = d.F_ac
    d_pos = np.array([a for a, _ in d.atoms])
    d_cum = np.concatenate(([0.0], np.cumsum([m for _, m in d.atoms])))

    def full_datum_F(x):
        base = np.asarray(f_exact(x), dtype=np.float64)
        if d_pos.size:
            base = base + d_cum[np.searchsorted(d_pos, x, side="left")]
        return base

    diff_F = lambda x: full_datum_F(x) - eval_cumulative(p.mu, x, side="left")
    l1_F, l2F_sq = _segment_quad(diff_F, edges)
    return (float(linf_u), float(l2_u), float(l2_ux), float(l1_F), float(np.sqrt(l2F_sq)))
