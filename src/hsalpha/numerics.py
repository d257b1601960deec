"""Small numerical helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["exact_cumsum", "stable_sum"]


def _cumsum_from(x, carry):
    """np.cumsum(x) continued from the prefix sum carry (None at the start):
    a new array c with c[0] = x[0] + carry, in the sequential order of
    np.cumsum, so that the prefix sums of consecutive blocks are those of
    one cumsum over them all.  Returns (c, the prefix sum before c[0])."""
    c = np.empty(x.size + 1)
    c[1:] = x
    if carry is None:
        c[0] = 0.0
        np.cumsum(c[1:], out=c[1:])
    else:
        c[0] = carry
        np.cumsum(c, out=c)
    return c[1:], c[:-1]


def exact_cumsum(x: np.ndarray) -> np.ndarray:
    """Compensated prefix sum.

    ``np.cumsum`` evaluates the sequential recurrence s_i = fl(s_{i-1} + x_i),
    so each addition's rounding error is recoverable exactly by the TwoSum
    transformation; adding back the accumulated corrections leaves each prefix
    within one final rounding of the true value instead of O(n) roundings.
    Keeps long mass cumulatives accurate to ~1 ulp of the total.  The sums
    are taken in blocks of _CHUNK_FLOATS (see _ExactPrefix), so the scratch
    does not grow with x.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    out = np.empty(x.size)
    prefix = _ExactPrefix()
    for b, e in _blocks(x.size):
        out[b:e] = prefix(x[b:e])
    return out


class _ExactPrefix:
    """exact_cumsum of a sequence given block by block: each call returns
    the next (nonempty) block's compensated prefix sums, value for value those of one
    exact_cumsum over the whole sequence (the running sum and the running
    correction carry over from block to block)."""

    def __init__(self):
        self._s = self._e = None

    def __call__(self, x):
        s, a = _cumsum_from(x, self._s)
        z = s - a
        err = a - (s - z)
        err += x - z
        err, _ = _cumsum_from(err, self._e)
        self._s, self._e = s[-1], err[-1]
        err += s
        return err


def stable_sum(x: np.ndarray) -> float:
    """Exactly rounded sum (math.fsum) of a float array."""
    # fsum reads the buffer directly; no list of float objects is built
    return math.fsum(np.ascontiguousarray(x, dtype=np.float64).ravel().data)


#: Floats in one 2-D array of a batched evaluation, whose rows are times
#: and whose columns are the points of one time (state nodes or table
#: points), and in one block of the 1-d passes (_blocks(n)) that bound the
#: scratch of the single-time stages (to_lagrangian, to_eulerian, w1, the
#: validation of arrays, and the reference table of one time, whose tiles
#: hold this many static points and the moving points among them) by a few
#: arrays of this size whatever their input's size.  Larger chunks mean
#: fewer numpy calls per time but more memory in flight.  The reference
#: tables of a run_eoc rung keep four arrays of this size in one workspace
#: for all their chunks (reference._Workspace): on the cusp rungs k=4,5 a
#: call then takes about 330 minor page faults, against about 1870 when
#: every chunk makes its own table arrays (x86-64, glibc malloc); 2^16
#: floats would make the call about a tenth faster and its traced peak
#: 1.8 MB higher (2.3 -> 4.1 MB).
_CHUNK_FLOATS = 2**15


def _blocks(n, width=1):
    """(start, stop) of consecutive blocks of range(n), each as long as the
    number of rows of width floats that _CHUNK_FLOATS holds (at least one),
    but the last."""
    m = max(1, _CHUNK_FLOATS // width)
    return [(i, min(i + m, n)) for i in range(0, n, m)]


def _running_max(v, down=None):
    """np.maximum.accumulate(v, axis=-1), in place: the accumulation only
    runs over the columns where some row of v decreases (round-off among
    collapsed points), given as down = v[..., 1:] < v[..., :-1] if known."""
    if down is None:
        down = v[..., 1:] < v[..., :-1]
    down = np.flatnonzero(down.any(axis=0) if down.ndim > 1 else down)
    if down.size:
        i, j = down[0], down[-1] + 2
        np.maximum.accumulate(v[..., i:j], axis=-1, out=v[..., i:j])
        np.maximum(v[..., j:], v[..., j - 1 : j], out=v[..., j:])
    return v


def _all_finite(*arrays):
    """Whether every entry of the 1-d arrays is finite, block by block."""
    return all(np.isfinite(x[b:e]).all() for x in arrays for b, e in _blocks(x.size))


def _increasing(x):
    """not np.any(np.diff(x) <= 0.0) for the 1-d array x, block by block."""
    return not any((x[b + 1 : e + 1] - x[b:e] <= 0.0).any() for b, e in _blocks(x.size - 1))


def _abs_max(x):
    """np.max(np.abs(x)) of a nonempty 1-d array, block by block."""
    return float(np.max([np.abs(x[b:e]).max() for b, e in _blocks(x.size)]))


def _sorted_unique(x):
    """np.unique(x) of a 1-d float array x without NaNs, made in x itself:
    x is sorted in place and its distinct values are moved to its front,
    which is returned (a view of x).  The sort is stable: it merges the
    sorted runs x is made of (w1's breakpoints, a table's bulk and ladders),
    and of equal values (-0.0 and +0.0 among them) keeps the first in x."""
    x.sort(kind="stable")
    n, prev = 0, None
    for b, e in _blocks(x.size):
        new = np.empty(e - b, dtype=bool)
        np.not_equal(x[b + 1 : e], x[b : e - 1], out=new[1:])
        new[0] = prev is None or x[b] != prev
        prev = x[e - 1]
        kept = x[b:e][new]
        x[n : n + kept.size] = kept
        n += kept.size
    return x[:n]


class _Kept:
    """The entries of a nondecreasing sequence x where it increases to the
    next entry, and its last entry (of a run of equal values, the last),
    with the entries of other sequences at the same places, for sequences
    given block by block.

    add(x, *values) takes the next (nonempty) block of x and of each other
    sequence (k in all) and writes the kept entries, in order, into k
    arrays made for capacity entries; close() returns them cut to the
    entries kept.  A block's last entry is held back until the next block
    shows whether x increases after it (it is kept at close()).  A block
    where x increases at every step is copied whole, with no gather.  The
    kept x increases strictly: PiecewiseLinear._checked may take it.
    """

    def __init__(self, capacity, k):
        self._out = [np.empty(capacity) for _ in range(k)]
        self._n = 0
        self._held = None

    def _put(self, cols, keep=None):
        # one column at a time: a block's kept entries are gathered into
        # one temporary, not k
        m = cols[0].size if keep is None else int(np.count_nonzero(keep))
        for out, col in zip(self._out, cols):
            out[self._n : self._n + m] = col if keep is None else col[keep]
        self._n += m

    def add(self, x, *values):
        cols = (x,) + values
        if self._held is not None and x[0] > self._held[0]:
            self._put(self._held)
        keep = x[1:] > x[:-1]
        self._put([col[:-1] for col in cols], None if keep.all() else keep)
        self._held = [col[-1:].copy() for col in cols]

    def close(self):
        if self._held is not None:
            self._put(self._held)
        for out in self._out:
            # shrinks in place: no array but this one uses its memory
            out.resize(self._n, refcheck=False)
        return self._out
