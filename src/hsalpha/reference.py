"""Reference solutions for the three benchmark families.

Each family gives the alpha-dissipative solution in characteristic form.  A
characteristic starting at z carries the initial velocity ubar(z) and the
initial cumulative energy Fbar(z); dissipation removes the fraction alpha of
a characteristic's energy density at its breaking time tau(z) = -2/ubar_x(z).
Integrating the velocity equation dU/dt = V/2 - V_inf/4 twice gives, with

    B (t,z)  = integral of ubar_x(w)^2          over {w <= z, 0 < tau(w) <= t},
    J1(t,z)  = integral of (t-tau(w))  ubar_x^2 over the same set,
    J2(t,z)  = integral of (t-tau(w))^2 ubar_x^2 / 2 over the same set,

the closed expressions

    V(t,z) = Fbar(z) - alpha B(t,z),
    U(t,z) = ubar(z) + t Fbar(z)/2 - t Fbar_inf/4 - alpha J1(t,z)/2
             + alpha J1(t,inf)/4,
    y(t,z) = z + t ubar(z) + t^2 Fbar(z)/4 - t^2 Fbar_inf/8
             - alpha J2(t,z)/2 + alpha J2(t,inf)/4.

For the two-peak piecewise-linear benchmark everything collapses to explicit
branch formulas (multipeakon_exact).  For the cosine and cusp data the sets
{tau <= t} are intervals with elementary endpoints, so B, J1, J2 have
antiderivatives in closed form; only the final inversion x = y(t, z) is
numerical: a dense monotone table.

Everything in these expressions except t and the dissipation integrals'
dependence on t is a function of z alone: z, ubar(z), Fbar(z), and for the
cusp rho(z) = |z|^(1/3) on the broken branch.  A family (CosineFamily,
CuspFamily) evaluates those once per table point as ``columns(z)`` ("z",
"u" for ubar, "F" for Fbar, and what its integrals read), and reads them at
the times t: ``_B(t, c)`` and ``_J12(t, c, ws=None)`` give B, and J1 and
J2, point by point, each an array of the maps' shape or None where it is
zero.  ``B_inf``, ``J1_inf`` and ``J2_inf`` are the integrals over the
whole line; a table refines at ``fixed_anchors`` and at
``moving_points(t, pad)`` (one row per time of the column t);
``window``, ``u_max``, ``F_inf`` and ``alpha`` are the datum window,
max |ubar|, Fbar at +inf and the dissipated fraction.
Whatever reads t takes a time or a column of times.  The dense table of
``ReferenceSolution.profile`` has a static part (a uniform bulk inside the
datum window and geometric ladders at fixed anchors) and a moving part
(tails, ladders at t-dependent anchors, the cosine's broken arcs); the maps
run over both and their values are merged in order.  Outside the window
every column but z is constant, so the characteristics there move rigidly
and the sparse tails carry them.  Every table has the knots of the one
built from scratch, with the same values.  One builder (``_tables``) makes
the tables of ``profile`` and of a ladder rung (``ReferenceSolution._rung``,
one static part per rung): several times in one batch, one time in tiles
of static points.  Where the maps overflow, both raise NumericError.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

# No module calls scipy: the import is for bench/worker.py's run record, which
# reads sys.modules["scipy"].__version__.  It is made here, not first in
# __init__, where the changed import order raised the benchmarks' peak RSS by
# about 1 MB.
import scipy  # noqa: F401

from .errors import ConfigError, NumericError
from .eulerian import EnergyMeasure, InitialDatum, PiecewiseLinear, make_multipeakon
from .numerics import _CHUNK_FLOATS, _Kept, _all_finite, _blocks, _running_max
from .numerics import _sorted_unique
from .projection import MAX_CELLS

__all__ = [
    "ReferenceSolution",
    "ReferenceProfile",
    "CosineFamily",
    "CuspFamily",
    "multipeakon_exact",
    "multipeakon_datum",
    "cosine_datum",
    "cusp_datum",
    "REFERENCE_FAMILIES",
]

_PI = math.pi

REFERENCE_FAMILIES = ("multipeakon_appA", "cosine", "cusp")

#: the largest n_base of profile(): the most a ladder rung asks for
_MAX_N_BASE = 3 * (MAX_CELLS + 1)


def _check_finite(**values):
    """ConfigError unless every value given (a time or a position, or None
    for a default) is finite."""
    for what, v in values.items():
        if v is not None and not math.isfinite(v):
            raise ConfigError(f"{what} must be finite")


def _overflow(t):
    return NumericError(f"the reference characteristics overflow by t = {t:g}")


def _finite(v, t):
    """The value v of a map at time t, or NumericError if it overflowed."""
    if not math.isfinite(v):
        raise _overflow(t)
    return v


def _check_time(t):
    """ConfigError unless the time t is finite and nonnegative."""
    _check_finite(time=t)
    if t < 0.0:
        raise ConfigError("time must be nonnegative")


# ---------------------------------------------------------------------------
# Two-peak piecewise-linear benchmark: fully closed form.
# ---------------------------------------------------------------------------

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
    _check_time(t)
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


def multipeakon_datum() -> InitialDatum:
    """The canonical two-peak initial datum (plateau 1/2, down-slope, plateau 0)."""
    return make_multipeakon([(0.0, 0.5), (0.5, 0.0)])


# ---------------------------------------------------------------------------
# Helpers of the two table-backed families.
# ---------------------------------------------------------------------------

def _each(f, t):
    """f at a time, or at each entry of an array of times, in Python float
    arithmetic: numpy's array pow and arcsin round differently from libm's,
    and a table must not depend on how many times it is built for."""
    if np.ndim(t) == 0:
        return f(float(t))
    return np.array([f(v) for v in np.ravel(t).tolist()]).reshape(np.shape(t))


def _cube(x):
    """x ** 3, with _each; an infinity where it overflows (as numpy's pow
    gives), which the tables report as a NumericError.  It places the
    cusp's moving anchor -r(t)^3."""

    def cube(v):
        try:
            return v ** 3
        except OverflowError:
            return math.copysign(math.inf, v)

    return _each(cube, x)


# ---------------------------------------------------------------------------
# Cosine family: ubar = cos(pi x) on [0, 4], constants outside.
# ---------------------------------------------------------------------------

def _lam(w):
    """Cumulative energy of the cosine datum on [0, 4]: integral of pi^2 sin^2(pi s)."""
    return 0.5 * _PI * _PI * w - 0.25 * _PI * np.sin(2.0 * _PI * w)


class CosineFamily:
    """Characteristic-form solution pieces for the cosine datum.

    The slope -pi sin(pi z) is negative on (0, 1) and (2, 3); by time
    t >= 2/pi the characteristics with sin(pi z) >= 2/(pi t) have broken,
    i.e. z in [zeta, 1-zeta] and [2+zeta, 3-zeta] with
    zeta(t) = arcsin(2/(pi t))/pi.  On those intervals the dissipation
    integrals have elementary antiderivatives, used exactly below.
    """

    window = (0.0, 4.0)
    u_max = 1.0
    #: datum edges and slope extrema
    fixed_anchors = (0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0)

    def __init__(self, alpha):
        if not 0.0 <= alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        self.alpha = alpha
        self.F_inf = float(_lam(4.0))

    @staticmethod
    def columns(z):
        # inside [0, 4] "u" is cos(pi z) and "F" is lam(z), the two
        # transcendental terms of the antiderivatives below
        w = np.clip(z, 0.0, 4.0)
        return {"z": z, "u": np.cos(_PI * w), "F": _lam(w)}

    @staticmethod
    def _zeta(t):
        """zeta(t), or 1/2 before the first break (t <= 2/pi)."""
        if t * _PI <= 2.0:
            return 0.5
        return math.asin(min(1.0, 2.0 / (_PI * t))) / _PI

    @staticmethod
    def _arcs(t):
        """The two arcs (lo, hi) at a time or a column of times, empty (at
        1/2 and 5/2) before the first break."""
        zeta = _each(CosineFamily._zeta, t)
        return [(zeta, 1.0 - zeta), (2.0 + zeta, 3.0 - zeta)]

    @staticmethod
    def breaking_arcs(t):
        """Sub-intervals broken by time t (possibly empty)."""
        return [] if t * _PI <= 2.0 else CosineFamily._arcs(t)

    def moving_points(self, t, pad):
        """One row per time of the column t: ladders at the moving ends of
        the broken arcs and a dense cover of each arc.  Rows before the
        first break, in a batch that holds later rows too, repeat pad (a
        point their tables hold anyway, which leaves the tables unchanged)."""
        broken = t * _PI > 2.0
        if not broken.any():
            return np.empty((t.shape[0], 0))
        (a, b), (c, d) = self._arcs(t)
        ladders = _geometric_ladder(np.concatenate((a, b, c, d), axis=1))
        covers = np.linspace(
            np.concatenate((a - 0.05, c - 0.05), axis=1),
            np.concatenate((b + 0.05, d + 0.05), axis=1),
            6001,
            axis=-1,
        ).reshape(t.shape[0], -1)
        return np.where(broken, np.concatenate((ladders, covers), axis=1), pad)

    # Antiderivatives of the broken-set integrands (valid inside the arcs,
    # where tau(w) = 2/(pi sin(pi w))), in w, lam = lam(w) and cos = cos(pi w):
    #   d/dw [t lam(w) + 2 cos(pi w)]              = (t - tau) ubar_x^2
    #   d/dw [t^2 lam(w) + 4 t cos(pi w) + 4 w]/2  = (t - tau)^2 ubar_x^2
    @staticmethod
    def _g_b(t, w, lam, cos):
        return lam

    @staticmethod
    def _g_j1(t, w, lam, cos):
        return t * lam + 2.0 * cos

    @staticmethod
    def _g_j2(t, w, lam, cos):
        return 0.5 * (t * t * lam + 4.0 * t * cos + 4.0 * w)

    @staticmethod
    def _g_at(g, t, w):
        return g(t, w, _lam(w), np.cos(_PI * w))

    def _arc_sum(self, g, t, c):
        # sum over the arcs of g(clip(z, lo, hi)) - g(lo): inside an arc g
        # reads the columns, outside it is g at the nearer end; an empty arc
        # adds exact zeros, so before the first break, None
        if not np.any(t * _PI > 2.0):
            return None
        z = c["z"]
        total = np.zeros(np.broadcast_shapes(np.shape(z), np.shape(t)))
        for lo, hi in self._arcs(t):
            g_lo, g_hi = self._g_at(g, t, lo), self._g_at(g, t, hi)
            inside = g(t, z, c["F"], c["u"])
            clipped = np.where(z < lo, g_lo, np.where(z > hi, g_hi, inside))
            total = total + clipped - g_lo
        return total

    def _arc_total(self, g, t):
        return _each(
            lambda v: float(
                sum(self._g_at(g, v, hi) - self._g_at(g, v, lo) for lo, hi in self.breaking_arcs(v))
            ),
            t,
        )

    def _B(self, t, c):
        return self._arc_sum(self._g_b, t, c)

    def _J12(self, t, c, ws=None):
        """J1 and J2 at the times t and the columns c (_arc_sum)."""
        return self._arc_sum(self._g_j1, t, c), self._arc_sum(self._g_j2, t, c)

    def B_inf(self, t):
        return self._arc_total(self._g_b, t)

    def J1_inf(self, t):
        return self._arc_total(self._g_j1, t)

    def J2_inf(self, t):
        return self._arc_total(self._g_j2, t)


# ---------------------------------------------------------------------------
# Cusp family: ubar = |x|^(2/3) on [a, b], constants outside.
# ---------------------------------------------------------------------------

def _cbrt_signed(w):
    return np.sign(w) * np.abs(w) ** (1.0 / 3.0)


class CuspFamily:
    """Characteristic-form solution pieces for the cusped datum.

    ubar_x = (2/3) sgn(z) |z|^(-1/3) on (a, b), so breaking happens only on
    the negative branch [min(a, 0), min(b, 0)] with tau(z) = 3 |z|^(1/3):
    by time t the interval [-r^3, min(b, 0)) has broken, with
    r = max(v_top, min(|a|^(1/3), t/3)) and v_top = |min(b, 0)|^(1/3) (an
    interval b < 0 breaks nothing before t = 3 v_top).  Substituting
    v = |w|^(1/3) turns every dissipation integral into a polynomial one:
    with rho = min(rho(z), r),

        J1 = (4/3) (t (r - rho) - 1.5 (r^2 - rho^2)),
        J2 = (2/27) ((t - 3 rho)^3 - (t - 3 r)^3)
           = (2/9) (A^2 + A B + B^2) (r - rho),  A = t - 3 rho, B = t - 3 r.

    J2 is evaluated in the factored form: the difference of the two cubes,
    each about t^3, would cancel every digit of J2 at large t, and the
    factors overflow only where 3 t^2 does.  Both are +0 wherever z has
    not broken (rho = r).
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
        self.fixed_anchors = (self.a, 0.0, self.b)
        self._neg = min(self.a, 0.0)
        self._top = min(self.b, 0.0)
        # rho at z >= b, by the pow of the rho column
        self._v_top = float(((-np.array([self._top])) ** (1.0 / 3.0))[0])
        self._cbrt_a = _cbrt_signed(self.a)
        self.F_inf = float((4.0 / 3.0) * (_cbrt_signed(b) - _cbrt_signed(a)))
        self.u_max = float(max(abs(a), abs(b)) ** (2.0 / 3.0))

    def columns(self, z):
        # rho = |z|^(1/3) on the negative branch, clipped to [min(a, 0), min(b, 0)]
        w = np.clip(z, self.a, self.b)
        return {
            "z": z,
            "u": np.abs(w) ** (2.0 / 3.0),
            "F": (4.0 / 3.0) * (_cbrt_signed(w) - self._cbrt_a),
            "rho": (-np.clip(z, self._neg, self._top)) ** (1.0 / 3.0),
        }

    def moving_points(self, t, pad):
        """One row per time of the column t: the ladder at the moving edge
        -r(t)^3 of the broken region."""
        if self._neg == 0.0:
            return np.empty((t.shape[0], 0))
        return _geometric_ladder(-_cube(self._r(t)))

    def _r(self, t):
        """Depth of the broken region in v = |z|^(1/3) units at time t."""
        return np.maximum(self._v_top, np.minimum((-self._neg) ** (1.0 / 3.0), t / 3.0))

    def _B(self, t, c):
        r = self._r(t)
        return (4.0 / 3.0) * np.maximum(r - c["rho"], 0.0)

    def _J12(self, t, c, ws=None):
        """J1 and J2 at the times t and the columns c, point by point (in
        the _Workspace ws if given)."""
        r = self._r(t)
        B = t - 3.0 * r
        shape = np.broadcast(t, c["rho"]).shape
        j1, j2, rho = (_take(ws, i, shape) for i in range(3))
        np.minimum(c["rho"], r, out=rho)
        # term by term in place (a temporary of this shape per term made a
        # cusp rung about a third slower): J2 from A = t - 3 rho, then J1
        np.multiply(rho, 3.0, out=j2)
        np.subtract(t, j2, out=j2)
        np.multiply(j2, B, out=j1)
        j2 *= j2
        j2 += j1
        j2 += B * B
        j2 *= 2.0 / 9.0
        np.subtract(r, rho, out=j1)
        j2 *= j1
        j1 *= t
        rho *= rho
        np.subtract(r * r, rho, out=rho)
        rho *= 1.5
        j1 -= rho
        j1 *= 4.0 / 3.0
        return j1, j2

    # the totals over [v_top, r]: B and J1 each written as its value over
    # [0, r] less its value over [0, v_top], which is an exact zero for
    # b >= 0, and J2 as J2 at rho = v_top
    def B_inf(self, t):
        return (4.0 / 3.0) * self._r(t) - (4.0 / 3.0) * self._v_top

    def J1_inf(self, t):
        r, v = self._r(t), self._v_top
        return (4.0 / 3.0) * (t * r - 1.5 * r * r) - (4.0 / 3.0) * (t * v - 1.5 * v * v)

    def J2_inf(self, t):
        r, v = self._r(t), self._v_top
        B, C = t - 3.0 * r, t - 3.0 * v
        return (2.0 / 9.0) * (C * C + C * B + B * B) * (r - v)


class _Workspace:
    """Scratch rows that the chunks of times of one ladder rung reuse
    (ReferenceSolution._rung makes one per call).

    ``take(i, shape)`` is an uninitialised float array over the memory of
    slot i.  A slot is made with room for ``floats`` floats, or for the
    request if it needs more, and lives as long as the workspace: sized for
    the largest array of a chunk, no slot is made again while an array over
    its old memory is still in use.  Taking slot i again ends the life of
    whatever was taken from it before, so a workspace serves one chunk at a
    time.  The slots, each taken over by the next use once the previous one
    is read:

        0  J1 (CuspFamily._J12), then the rows of U (_maps)
        1  J2, then the rows of y
        2  the cusp's rho, then the tmp of _char_position, then the rows of F
        3  each map's values on the static columns
    """

    def __init__(self, floats=0):
        self._slots = [np.empty(0) for _ in range(4)]
        self._floor = floats

    def take(self, i, shape):
        size = math.prod(shape)
        if self._slots[i].size < size:
            self._slots[i] = None
            self._slots[i] = np.empty(max(size, self._floor))
        return self._slots[i][:size].reshape(shape)


def _take(ws, i, shape):
    """ws.take(i, shape), or a new array if ws is None."""
    if ws is None:
        return np.empty(shape)
    return ws.take(i, shape)


# The characteristic maps take a family, a time or a column of times, the
# columns c = fam.columns(z) and the dissipation integral that they read
# there (fam._J12, None where it is zero), which they overwrite.  The
# tables' maps run over (times x points) arrays, so they update one array in
# place (out if given; tmp is scratch of its shape), term by term in the
# order of
#   U = u + t F/2 - t F_inf/4 - alpha J1/2 + alpha J1_inf/4,
#   y = z + t u + t^2 F/4 - t^2 F_inf/8 - alpha J2/2 + alpha J2_inf/4.

def _new(t, c):
    """An array of the shape of the maps at the times t and the columns c."""
    return np.empty(np.broadcast(t, c["z"]).shape)


def _less(v, j, scale):
    """v - scale j, in place (j None where it is zero)."""
    if j is not None:
        j *= scale
        v -= j


def _char_velocity(fam, t, c, j1, out=None):
    a = fam.alpha
    v = np.multiply(0.5 * t, c["F"], out=_new(t, c) if out is None else out)
    v += c["u"]
    v -= 0.25 * t * fam.F_inf
    _less(v, j1, 0.5 * a)
    v += 0.25 * a * fam.J1_inf(t)
    return v


def _char_position(fam, t, c, j2, out=None, tmp=None):
    a = fam.alpha
    y = np.multiply(t, c["u"], out=_new(t, c) if out is None else out)
    y += c["z"]
    y += np.multiply(0.25 * t * t, c["F"], out=tmp)
    y -= 0.125 * t * t * fam.F_inf
    _less(y, j2, 0.5 * a)
    y += 0.25 * a * fam.J2_inf(t)
    return y


def _char_cumulative(fam, t, c, out=None):
    F = _new(t, c) if out is None else out
    F[...] = c["F"]
    _less(F, fam._B(t, c), fam.alpha)
    return F


def _char_total(fam, t):
    return fam.F_inf - fam.alpha * fam.B_inf(t)


# ---------------------------------------------------------------------------
# Profiles: whole-line evaluators at a fixed time.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ReferenceProfile:
    """Snapshot of a reference solution at one time.

    u_at evaluates the wave profile on arrays; measure() the energy measure
    object; knots are the x positions where the profile's representation
    kinks (useful as evaluation sites when comparing against other
    profiles), and knot_u the profile's u there.
    """

    time: float
    u_at: object
    _measure_factory: object
    knots: object = None
    knot_u: object = None

    def measure(self) -> EnergyMeasure:
        return self._measure_factory()


_LADDER = 2.0 ** (-np.arange(8.0, 95.0) / 2.0)
#: offsets of a refinement ladder's points from its anchor
_LADDER_STEPS = np.concatenate((_LADDER, -_LADDER, [0.0]))


def _geometric_ladder(points):
    """Refinement points accumulating geometrically at each anchor (along
    the last axis: a row of anchors gives a row of ladders)."""
    points = np.asarray(points, dtype=float)
    return (points[..., None] + _LADDER_STEPS).reshape(points.shape[:-1] + (-1,))


def _static_points(fam, n_base):
    """The table points that no time moves, sorted: the points inside the
    window of n_base bulk points spread over the window widened by 1, and
    the ladders at the fixed anchors (the window's ends among them)."""
    w_lo, w_hi = fam.window
    bulk = np.linspace(w_lo - 1.0, w_hi + 1.0, n_base)
    z = np.concatenate(
        (
            bulk[bulk.searchsorted(w_lo) : bulk.searchsorted(w_hi, side="right")],
            _geometric_ladder(fam.fixed_anchors),
        )
    )
    del bulk
    return _sorted_unique(z)


#: points per tail of a table
_TAIL = 9


def _moving_points(fam, t, x_lo, x_hi):
    """The moving points of the tables for the times of the column t that
    cover [x_lo, x_hi] (1-d arrays, or scalars for one table), sorted row
    by row, and each row's z-range: (moving, z_lo, z_hi), the last two
    columns."""
    margin = 1.0 + t * fam.u_max + t * t * fam.F_inf
    w_lo, w_hi = fam.window
    z_lo = np.minimum(np.reshape(x_lo, (-1, 1)), w_lo) - margin
    z_hi = np.maximum(np.reshape(x_hi, (-1, 1)), w_hi) + margin
    near, far = np.full_like(z_lo, w_lo - 1.0), np.full_like(z_hi, w_hi + 1.0)
    tails = np.linspace(np.hstack((z_lo, far)), np.hstack((near, z_hi)), _TAIL, axis=-1)
    moving = np.hstack((tails.reshape(t.size, -1), fam.moving_points(t, z_lo)))
    moving.sort(axis=1)
    return moving, z_lo, z_hi


def _maps(fam, t, static, moving, before, cumulative, ws=None):
    """[y, U], or [y, U, F] if cumulative, at the times of the column t,
    one row per time: the maps on the static columns and on the moving
    points (row j of the 2-d array moving, sorted, for time j), merged in z
    order.  before is the static z's searchsorted of moving: a moving point
    goes before the static point at that place.  The float arrays are taken
    from the _Workspace ws if given; without one, what a map read is
    dropped once its row is made."""
    m, n = t.shape[0], static["z"].shape[-1]
    shape, width = (m, n), n + moving.shape[1]
    at = (before + np.arange(moving.shape[1]) + width * np.arange(m)[:, None]).ravel()
    extra = fam.columns(moving)
    of_static = np.ones((m, width), bool)
    of_static.ravel()[at] = False

    def merged(on_static, slot, f, *integral):
        # the map f on the moving points; where there are none, a copy of
        # the static values (in the slot)
        row = _take(ws, slot, (m, width))
        if not at.size:
            row[...] = on_static
            return row
        row.ravel()[at] = f(fam, t, extra, *integral).ravel()
        row[of_static] = on_static.ravel()
        return row

    j1, j2 = fam._J12(t, static, ws)
    e1, e2 = fam._J12(t, extra) if at.size else (None, None)
    on_static = _char_velocity(fam, t, static, j1, _take(ws, 3, shape))
    U = merged(on_static, 0, _char_velocity, e1)
    del j1, on_static
    on_static = _char_position(fam, t, static, j2, _take(ws, 3, shape), _take(ws, 2, shape))
    rows = [merged(on_static, 1, _char_position, e2), U]
    del j2, on_static
    if cumulative:
        on_static = _char_cumulative(fam, t, static, _take(ws, 3, shape))
        rows.append(merged(on_static, 2, _char_cumulative))
    return rows


def _tables(fam, z, t, x_lo, x_hi, cols=None, cumulative=False, ws=None):
    """Yields, for each time of the 1-d array t, the table that covers
    [x_lo, x_hi] (1-d arrays too, or scalars for one time): its knots, u
    there, and F there if cumulative.

    The table's points are the stretch inside the time's z-range of the
    sorted static points z (cols their columns: given for several times,
    made per tile for one time if not given) and the time's moving points,
    merged in z order (a moving point goes before the static points it does
    not exceed; points that coincide have equal values); the maps run over
    each part and are merged by _maps.  The knots are where the running max
    of y increases to the next point, and the last point.  Several times are
    one batch of (times x points) rows over all of z: y never decreases
    before a row's stretch (the tail outside the window moves rigidly), so
    the picks are taken on whole rows.  One time is taken in tiles of
    _CHUNK_FLOATS static points and the moving points that sort among them,
    the running maxima carried and _Kept holding the look-ahead from tile to
    tile.  Both take their float rows from the _Workspace ws if given.
    Raises NumericError where the z-range or the maps' values overflow.
    """
    # Characteristics outside the datum window move rigidly (constant u,
    # constant F), so resolution is only spent on the window itself; sparse
    # tail points keep the table's x-range wide enough to cover [x_lo, x_hi].
    # The bulk always lies inside [z_lo, z_hi] (margin >= 1); a ladder can
    # stick out only when its anchor lies outside the window, as the cusp's
    # fixed 0 and its moving edge can.
    t = np.reshape(t, (-1, 1))
    # overflow is reported by the finite checks; the errstate ends before a yield
    with np.errstate(over="ignore", invalid="ignore"):
        moving, z_lo, z_hi = _moving_points(fam, t, x_lo, x_hi)
        if not _all_finite(z_lo[:, 0], z_hi[:, 0]):
            raise _overflow(t.max())
        before = z.searchsorted(moving)
        s_lo, s_hi = z.searchsorted(z_lo[:, 0]), z.searchsorted(z_hi[:, 0], side="right")
        m_lo, m_hi = (moving < z_lo).sum(axis=1), (moving <= z_hi).sum(axis=1)
        if t.size > 1:
            rows = _maps(fam, t, cols, moving, before, cumulative, ws)
            if not _all_finite(*(row.ravel() for row in rows)):
                raise _overflow(t.max())
            for row in rows[::2]:
                _running_max(row)
            Y, lo, hi = rows[0], s_lo + m_lo, s_hi + m_hi
            keep = np.empty(Y.shape, bool)
            np.greater(Y[:, 1:], Y[:, :-1], out=keep[:, :-1])
            keep[np.arange(t.size), hi - 1] = True
            places = np.arange(Y.shape[1])
            keep &= places >= lo[:, None]
            keep &= places < hi[:, None]
            tables = (tuple(row[j][keep[j]] for row in rows) for j in range(t.size))
        else:
            s_lo, s_hi, m_lo, m_hi = (int(v[0]) for v in (s_lo, s_hi, m_lo, m_hi))
            tiles = [(s_lo + b, s_lo + e) for b, e in _blocks(s_hi - s_lo)]
            # a tile's moving points sort after the previous tile's static points
            starts = [b for b, _ in tiles[1:]]
            cuts = [m_lo, *(m_lo + before[0, m_lo:m_hi].searchsorted(starts)), m_hi]
            kept = _Kept(s_hi - s_lo + m_hi - m_lo, 2 + cumulative)
            tops = [-np.inf, -np.inf]
            for (b, e), mb, me in zip(tiles, cuts, cuts[1:]):
                static = {k: v[b:e] for k, v in cols.items()} if cols else fam.columns(z[b:e])
                rows = _maps(fam, t, static, moving[:, mb:me], before[:, mb:me] - b, cumulative, ws)
                rows = [row[0] for row in rows]
                if not _all_finite(*rows):
                    raise _overflow(t.max())
                # y and F, carried from the previous tile
                for i, row in enumerate(rows[::2]):
                    row[0] = max(row[0], tops[i])
                    tops[i] = _running_max(row)[-1]
                kept.add(*rows)
            tables = [tuple(kept.close())]
    yield from tables


def _multipeakon_profile(alpha, t, side="right"):
    def u_at(x):
        return multipeakon_exact(alpha, t, x, side=side)[0]

    v_inf = 0.5 if _before_break(t, side) else 0.5 * (1.0 - alpha)
    x1, x2 = _two_peak_ends(alpha, t, side)

    def measure():
        if t == 2.0 or v_inf == 0.0:
            # all the energy sits in the point mass at 3/4, or none is left
            wide = 8.0 + t * t
            F_ac = PiecewiseLinear(nodes=np.asarray([-wide, wide]), values=np.asarray([0.0, 0.0]))
            atoms = ((0.75, v_inf),) if v_inf > 0.0 else ()
            return EnergyMeasure(F_ac=F_ac, atoms=atoms)
        nodes = np.asarray([x1 - 1.0, x1, x2, x2 + 1.0])
        vals = np.asarray([0.0, 0.0, v_inf, v_inf])
        return EnergyMeasure(F_ac=PiecewiseLinear(nodes=nodes, values=vals))

    knots = np.unique(np.asarray([x1 - 1.0, x1, x2, x2 + 1.0]))

    return ReferenceProfile(
        time=t,
        u_at=u_at,
        _measure_factory=measure,
        knots=knots,
        knot_u=u_at(knots),
    )


# ---------------------------------------------------------------------------
# User-facing reference solution object.
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ReferenceSolution:
    """Evaluatable ground-truth solution for one benchmark family.

    family is one of "multipeakon_appA" (closed form), "cosine", "cusp"
    (closed-form characteristics, numerically inverted); a and b, the cusp
    interval, stay at -1 and 1 for the other two.  Times and positions must
    be finite.
    """

    family: str
    alpha: float
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if self.family not in REFERENCE_FAMILIES:
            raise ConfigError(f"unknown reference family {self.family!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        if self.family == "cusp" and not self.a <= self.b:
            raise ConfigError("cusp interval needs a <= b")
        if self.family != "cusp" and (self.a, self.b) != (-1.0, 1.0):
            raise ConfigError(f"a and b set the cusp interval; family {self.family} reads none")

    @functools.cached_property
    def _fam(self):
        if self.family == "cosine":
            return CosineFamily(self.alpha)
        if self.family == "cusp":
            return CuspFamily(self.a, self.b, self.alpha)
        return None

    def total_energy(self, t) -> float:
        _check_time(t)
        if self.family == "multipeakon_appA":
            return 0.5 if t < 2.0 else 0.5 * (1.0 - self.alpha)
        return _char_total(self._fam, t)

    def profile(self, t, x_lo=None, x_hi=None, n_base=4001, side="right") -> ReferenceProfile:
        """Dense whole-line evaluators at time t (table-backed for the
        quadrature families, closed form for the two-peak benchmark).

        The table's characteristic starting points z are a static part, fixed
        by n_base (those of max(n_base, 101) points spread over the datum
        window widened by 1 that lie inside the window, plus geometric
        ladders at the family's fixed anchors),
        and a moving part built per call (sparse tails out to the x-range
        [x_lo, x_hi] widened by the distance characteristics travel by t,
        the ladders at t-dependent anchors, and the cosine family's dense
        cover of its broken arcs).  The table is built afresh on every call,
        and nothing is kept between calls.  The moving points are merged in
        order, and the table has the knots a from-scratch build would give,
        value for value.  The maps run over the table in tiles of
        numerics._CHUNK_FLOATS static points (_tables), so besides the knots
        (and u and F there) the call holds the static z and a few tiles.
        Raises ConfigError for a negative or non-finite t, a non-finite x_lo
        or x_hi, an n_base that is not an integer of at most
        3 (projection.MAX_CELLS + 1), and a side other than "left" or
        "right"; NumericError when the characteristics overflow by t.
        side, the one-sided limit at an event time, matters only for the
        two-peak family: the cosine and cusp energies stay absolutely
        continuous, so their left and right limits coincide.
        """
        _check_time(t)
        _check_finite(x_lo=x_lo, x_hi=x_hi)
        try:
            ok = int(n_base) == n_base <= _MAX_N_BASE
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"n_base must be an integer of at most {_MAX_N_BASE}")
        if side not in ("left", "right"):
            raise ConfigError("side must be 'left' or 'right'")
        if self.family == "multipeakon_appA":
            return _multipeakon_profile(self.alpha, t, side=side)
        fam = self._fam
        if x_lo is None:
            x_lo = fam.window[0]
        if x_hi is None:
            x_hi = fam.window[1]
        z = _static_points(fam, max(int(n_base), 101))
        ((y_k, u_k, F_k),) = _tables(fam, z, t, x_lo, x_hi, cumulative=True)

        def u_at(x):
            return np.interp(x, y_k, u_k)

        def measure():
            # checked finite, and _Kept made y_k strictly increasing
            return EnergyMeasure(F_ac=PiecewiseLinear._checked(y_k, F_k))

        return ReferenceProfile(
            time=t,
            u_at=u_at,
            _measure_factory=measure,
            knots=y_k,
            knot_u=u_k,
        )

    def _rung(self, n_base):
        """profile() at many times, for one ladder rung.

        Returns (rows, width).  rows(t, x_lo, x_hi) yields (knots, knot_u,
        u_at) of the profile at each time of the 1-d array t, covering
        [x_lo, x_hi] (1-d arrays too): the knots, u there, and u as a
        function where it is not the interpolant of the knots (the
        closed-form family; else None).  The tables are built by _tables in
        chunks of times (numerics._blocks of rows of width points), on one
        static part and its columns built here for n_base: a chunk of one
        row (every chunk, if a row is wider than half of _CHUNK_FLOATS, or a
        rung's last) is taken in tiles, as profile() takes its table.  The
        chunks of all the calls of rows reuse one _Workspace made here, so
        the rows of one _rung call are drawn by one generator at a time.
        width is the number of points in a row (0 for the closed-form
        family).  Raises NumericError, as profile() does, at a time where
        the characteristics overflow.
        """
        if self.family == "multipeakon_appA":

            def closed_form_rows(t, x_lo, x_hi):
                for prof in map(self.profile, t.tolist()):
                    yield prof.knots, prof.knot_u, prof.u_at

            return closed_form_rows, 0
        fam = self._fam
        z = _static_points(fam, max(int(n_base), 101))
        cols = fam.columns(z)
        # a row's moving points are as many at every time (rows before the
        # cosine's first break pad theirs), and all there at a late time
        late = np.full((1, 1), np.inf)
        width = z.size + 2 * _TAIL + fam.moving_points(late, late).shape[1]

        # a chunk's rows take at most max(_CHUNK_FLOATS, width) floats, so no
        # slot is made again after the first chunk
        ws = _Workspace(max(_CHUNK_FLOATS, width))

        def table_rows(t, x_lo, x_hi):
            for b, e in _blocks(t.size, width):
                for knots, knot_u in _tables(fam, z, t[b:e], x_lo[b:e], x_hi[b:e], cols, ws=ws):
                    yield knots, knot_u, None

        return table_rows, width


# ---------------------------------------------------------------------------
# Initial data constructors.
# ---------------------------------------------------------------------------

def cosine_datum() -> InitialDatum:
    """Initial datum 1 for x < 0, cos(pi x) on [0, 4], 1 for x > 4."""

    def u(x):
        return np.cos(_PI * np.clip(x, 0.0, 4.0))

    def u_x(x):
        xa = np.asarray(x, dtype=float)
        inside = (xa > 0.0) & (xa < 4.0)
        return np.where(inside, -_PI * np.sin(_PI * np.where(inside, xa, 0.0)), 0.0)

    def F_ac(x):
        return _lam(np.clip(x, 0.0, 4.0))

    return InitialDatum(
        u=u,
        u_x=u_x,
        F_ac=F_ac,
        support_hint=(0.0, 4.0),
    )


def cusp_datum(a=-1.0, b=1.0) -> InitialDatum:
    """Initial datum |x|^(2/3) on [a, b] with constant extension."""
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ConfigError("cusp interval needs finite a < b")

    def u(x):
        return np.abs(np.clip(x, a, b)) ** (2.0 / 3.0)

    def u_x(x):
        xa = np.asarray(x, dtype=float)
        inside = (xa > a) & (xa < b) & (xa != 0.0)
        safe = np.where(inside, xa, 1.0)
        return np.where(inside, (2.0 / 3.0) * np.sign(safe) * np.abs(safe) ** (-1.0 / 3.0), 0.0)

    def F_ac(x):
        return (4.0 / 3.0) * (_cbrt_signed(np.clip(x, a, b)) - _cbrt_signed(a))

    return InitialDatum(
        u=u,
        u_x=u_x,
        F_ac=F_ac,
        support_hint=(float(a), float(b)),
    )
