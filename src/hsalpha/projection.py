r"""Energy-consistent projection onto piecewise-linear data on a dyadic grid.

On the grid :math:`x_j = j\,\Delta x` the projection works on cell pairs
:math:`[x_{2j}, x_{2j+2}]`.  Writing

.. math::

    Du_{2j} = \frac{\bar u_{2j+2} - \bar u_{2j}}{2\Delta x}, \qquad
    DF_{2j} = \frac{\bar F_{ac,2j+2} - \bar F_{ac,2j}}{2\Delta x}, \qquad
    q_{2j} = \sqrt{DF_{2j} - Du_{2j}^2},

the projected profile takes the two half-cell slopes
:math:`Du_{2j} \mp q_{2j}` and :math:`Du_{2j} \pm q_{2j}`.  Where the
datum is piecewise linear, so that its slope :math:`u_x` is a step function,
:math:`q_{2j}^2` is taken in the equal form of the slope variance
:math:`\frac{1}{2\Delta x}\int (u_x - Du_{2j})^2` over the pair, which has
no rounding residue on a pair where the datum is linear.  Either order
interpolates :math:`\bar u` and :math:`\bar F_{ac}` at the even gridpoints and
reproduces the pair's energy exactly, with the a.c. energy cumulative rising
with slope (local slope)² on each half cell.  Atoms of the input measure are
merged per pair and carried at the pair's left edge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConsistencyError
from .eulerian import EnergyMeasure, EulerianSolution, InitialDatum, PiecewiseLinear

__all__ = [
    "MAX_CELLS",
    "SignRule",
    "ProjectionConfig",
    "default_window",
    "project",
]

# radicands in [-RADICAND_CLAMP, 0) are roundoff and clamp to zero; anything
# below is an inconsistent datum.  On fine grids the difference quotients
# themselves carry cancellation error of order eps * |F| / (2 dx), which can
# exceed this floor for perfectly consistent data (e.g. the cosine datum with
# F_inf ~ 19.7 at dx = 2^-14), so project() widens the floor by a provable
# round-off allowance computed from the sampled values.
RADICAND_CLAMP = 1e-12

#: Largest number of grid cells project() accepts.  One float array over the
#: nodes is then 512 MiB, and a solve holds a few dozen of them; a finer dx
#: or a wider support is refused before anything is allocated.
MAX_CELLS = 2**26

#: Largest even-node index |j| of a default window.  Beyond it the nodes
#: 2 j dx and their midpoints are no longer strictly increasing floats.
MAX_PAIR_INDEX = 2**50

_EPS = float(np.finfo(np.float64).eps)


class SignRule(enum.Enum):
    """Which of the two half-cell slopes ``Du -+ q`` each pair takes first.

    ``MINUS_FIRST`` takes ``Du - q`` first in every pair and ``PLUS_FIRST``
    takes ``Du + q``.  ``MINIMIZE_KINK`` is the greedy left-to-right rule:
    each pair takes first whichever slope lies strictly closer to the slope
    leaving the previous pair (0 before the first pair), and ``Du - q`` on a
    tie.  The slope leaving a pair is the one it did not take first, so the
    rule is a scan with two states; :func:`project` evaluates it as array
    code, bit for bit equal to the left-to-right loop.
    """

    MINUS_FIRST = "minus_first"
    PLUS_FIRST = "plus_first"
    MINIMIZE_KINK = "minimize_kink"


@dataclass(frozen=True)
class ProjectionConfig:
    """Grid spacing and slope sign rule (a :class:`SignRule` member); the
    even-pair window is :func:`default_window`."""

    dx: float
    sign_rule: SignRule = SignRule.MINIMIZE_KINK

    def __post_init__(self) -> None:
        if not (0.0 < self.dx <= 1.0):
            raise ConfigError("dx must lie in (0, 1]")
        if not isinstance(self.sign_rule, SignRule):
            raise ConfigError(f"sign_rule must be a SignRule member, not {self.sign_rule!r}")


def _required_span(d: InitialDatum) -> tuple[float, float]:
    lo, hi = d.support_hint
    if d.atoms:
        lo = min(lo, d.atoms[0][0])
        hi = max(hi, d.atoms[-1][0])
    return lo, hi


def default_window(d: InitialDatum, dx: float) -> tuple[int, int]:
    """Smallest even-pair window covering support and atoms with one pair margin."""
    lo, hi = _required_span(d)
    if not max(abs(lo), abs(hi)) / (2.0 * dx) < MAX_PAIR_INDEX:
        raise ConfigError(f"dx = {dx:g} puts [{lo:g}, {hi:g}] more than 2^50 grid pairs from 0")
    j_min = int(np.floor(lo / (2.0 * dx))) - 1
    j_max = int(np.ceil(hi / (2.0 * dx))) + 1
    return j_min, j_max


def _greedy_first_slopes(du: np.ndarray, q: np.ndarray) -> np.ndarray:
    """First half-cell slopes of every pair under ``SignRule.MINIMIZE_KINK``.

    A pair whose predecessor took ``fm = du - q`` first is entered with that
    pair's ``fp = du + q``, and the other way round, so the loop's test
    ``|fp - prev| < |fm - prev|`` has only two possible outcomes per pair,
    one for each state of its predecessor.  Where the two agree, the pair's
    choice does not depend on what came before; where they differ, the
    choice either repeats the predecessor's or negates it.  The choice at
    each pair is therefore the choice at the last pair where both outcomes
    agree, negated once per negating pair since then.
    """
    fp = du + q
    fm = du - q
    # the loop's test at pair j >= 1, once after a predecessor that left
    # with fp (it took fm first) and once after one that left with fm
    after_fp = np.abs(fp[1:] - fp[:-1]) < np.abs(fm[1:] - fp[:-1])
    after_fm = np.abs(fp[1:] - fm[:-1]) < np.abs(fm[1:] - fm[:-1])
    # pair 0 is entered with slope 0, so its choice is known outright
    known = np.concatenate(([abs(fp[0]) < abs(fm[0])], after_fp))
    negates = np.concatenate(([False], after_fp & ~after_fm))
    anchor = np.arange(fp.size, dtype=np.int32)
    anchor[1:][after_fp != after_fm] = 0
    np.maximum.accumulate(anchor, out=anchor)
    parity = np.logical_xor.accumulate(negates)
    plus_first = (known ^ parity)[anchor] ^ parity
    return np.where(plus_first, fp, fm)


def _slope_variance(u: PiecewiseLinear, xe, du, dx):
    """Each pair's radicand as the variance of u's step slope (the slope of
    each of its pieces, 0 outside its nodes) about the pair's mean slope
    du, (1/2dx) * integral of (u_x - du)^2 over the pair, summed over the
    pieces of u inside it.  It is never negative, and on a pair where the
    datum is linear it is the square of du's rounding error, where
    DF - du^2 leaves a rounding residue of DF's size."""
    x = np.union1d(xe, np.clip(u.nodes, xe[0], xe[-1]))
    pair = np.searchsorted(xe, x[:-1], side="right") - 1
    step = np.concatenate(([0.0], np.diff(u.values) / np.diff(u.nodes), [0.0]))
    dev = step[np.searchsorted(u.nodes, x[:-1], side="right")] - du[pair]
    return np.bincount(pair, dev * dev * np.diff(x), du.size) / (2.0 * dx)


def project(d: InitialDatum, cfg: ProjectionConfig) -> EulerianSolution:
    """Project an initial datum onto the dyadic grid: the pair (u, mu) at
    time 0 on the :func:`default_window` grid.

    Even gridpoints interpolate ``u`` and ``F_ac`` exactly; each pair keeps its
    total energy.  A radicand below ``-1e-12`` (widened by the data-dependent
    round-off allowance, see :data:`RADICAND_CLAMP`) raises
    :class:`ConsistencyError`: the datum violates ``F_ac' >= u_x^2`` in the
    pair average.  Negative values inside the tolerance are clamped to zero.
    A :func:`default_window` of more than :data:`MAX_CELLS` cells raises
    :class:`ConfigError`.  Where ``d.u`` is a :class:`PiecewiseLinear`, the
    radicand, once checked, is the pair's slope variance
    (:func:`_slope_variance`) wherever the two agree within the allowance.
    The order of each pair's two half-cell slopes follows ``cfg.sign_rule``;
    the default greedy rule runs as a two-state scan over the pairs (see
    :class:`SignRule`), in array operations rather than a loop over pairs.
    """
    dx = cfg.dx
    j_min, j_max = default_window(d, dx)
    if 2 * (j_max - j_min) > MAX_CELLS:
        raise ConfigError(
            f"dx = {dx:g} gives {2 * (j_max - j_min)} cells on this window, "
            f"more than the {MAX_CELLS} allowed"
        )

    n_pairs = j_max - j_min
    xe = 2.0 * dx * np.arange(j_min, j_max + 1)
    ue = np.asarray(d.u(xe), dtype=np.float64)
    fe = np.asarray(d.F_ac(xe), dtype=np.float64)

    du = np.diff(ue) / (2.0 * dx)
    df = np.diff(fe) / (2.0 * dx)
    rad = df - du * du
    # round-off allowance: one ulp of F (resp. u) per endpoint evaluation,
    # amplified by the 1/(2 dx) quotient, with a safety factor of 8
    u_amp = float(np.max(np.abs(ue))) * (1.0 + float(np.max(np.abs(du))))
    allowance = 8.0 * _EPS * (float(np.max(np.abs(fe))) + u_amp) / (2.0 * dx)
    tol = RADICAND_CLAMP + allowance
    if np.any(rad < -tol):
        worst = float(rad.min())
        raise ConsistencyError(f"energy radicand {worst:.3e} below -{tol:.3g}")
    if isinstance(d.u, PiecewiseLinear):
        # where the two differ beyond DF's round-off, F_ac holds energy
        # above u_x^2, which the slopes must carry as DF - Du^2 has them do
        var = _slope_variance(d.u, xe, du, dx)
        np.copyto(rad, var, where=np.abs(rad - var) <= tol)
        del var
    q = np.sqrt(np.maximum(rad, 0.0))
    del df, rad  # free before the sign rule's temporaries

    if cfg.sign_rule is SignRule.MINUS_FIRST:
        s1 = du - q
    elif cfg.sign_rule is SignRule.PLUS_FIRST:
        s1 = du + q
    else:
        s1 = _greedy_first_slopes(du, q)
    del du, q  # free before the node arrays, twice as long, are allocated

    x_all = dx * np.arange(2 * j_min, 2 * j_max + 1)
    u_all = np.empty(2 * n_pairs + 1)
    u_all[::2] = ue
    u_all[1::2] = ue[:-1] + s1 * dx
    f_all = np.empty_like(u_all)
    f_all[::2] = fe
    # the midpoint cumulative may overshoot the exact right-edge pin by an
    # ulp when the second half-slope vanishes; keep the nodal values monotone
    f_all[1::2] = np.minimum(fe[:-1] + s1 * s1 * dx, fe[1:])

    atoms: list[tuple[float, float]] = []
    if d.atoms:
        pos = np.array([p for p, _ in d.atoms])
        mas = np.array([m for _, m in d.atoms])
        jp = np.floor(pos / (2.0 * dx)).astype(np.int64)
        merged = np.zeros(n_pairs)
        np.add.at(merged, jp - j_min, mas)
        for j in np.nonzero(merged)[0]:
            atoms.append((2.0 * dx * (j_min + j), float(merged[j])))

    u = PiecewiseLinear(x_all, u_all)
    return EulerianSolution(u, EnergyMeasure(u._with_values(f_all), tuple(atoms)), time=0.0)
