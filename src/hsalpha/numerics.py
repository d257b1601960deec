"""Small numerical helpers shared across modules."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["exact_cumsum", "stable_sum"]


def exact_cumsum(x: np.ndarray) -> np.ndarray:
    """Compensated prefix sum.

    ``np.cumsum`` evaluates the sequential recurrence s_i = fl(s_{i-1} + x_i),
    so each addition's rounding error is recoverable exactly by the TwoSum
    transformation; adding back the accumulated corrections leaves each prefix
    within one final rounding of the true value instead of O(n) roundings.
    Keeps long mass cumulatives accurate to ~1 ulp of the total.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return np.zeros(0)
    s = x.cumsum()
    a = np.concatenate(([0.0], s[:-1]))
    z = s - a
    err = (a - (s - z)) + (x - z)
    return s + err.cumsum()


def stable_sum(x: np.ndarray) -> float:
    """Exactly rounded sum (math.fsum) of a float array."""
    # fsum reads the buffer directly; no list of float objects is built
    return math.fsum(np.ascontiguousarray(x, dtype=np.float64).ravel().data)


#: Floats in one 2-D temporary of a batched evaluation, whose rows are times
#: and whose columns are the points of one time (state nodes or table
#: points).  Larger chunks mean fewer numpy calls per time but more memory
#: in flight: on the cusp rungs k=4,5 of run_eoc the peak RSS rose by about
#: 2 MB over evaluating one time at a time at 2^15 floats, and by 5 MB at 2^16.
_CHUNK_FLOATS = 2**15


def _chunks(n, width):
    """Consecutive slices of range(n) with as many rows of ``width`` floats
    as _CHUNK_FLOATS holds (at least one)."""
    m = max(1, _CHUNK_FLOATS // width)
    return [slice(i, i + m) for i in range(0, n, m)]


def _keep_last(x):
    """Where the nondecreasing x increases to the next entry, and its last
    entry: of a run of equal values, the last."""
    keep = np.empty(x.size, dtype=bool)
    np.greater(x[1:], x[:-1], out=keep[:-1])
    keep[-1] = True
    return keep
