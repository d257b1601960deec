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


#: Floats in one 2-D array of a batched evaluation, whose rows are times
#: and whose columns are the points of one time (state nodes or table
#: points).  Larger chunks mean fewer numpy calls per time but more memory
#: in flight.  A run_eoc rung keeps five arrays of this size in one
#: Workspace for all its chunks: on the cusp rungs k=4,5 a call then takes
#: about 450 minor page faults (40-49k when every chunk made its own
#: arrays) and peaks about 0.3 MB lower; 2^16 floats would make the call a
#: fifth faster and its traced peak 1.7 MB higher.
_CHUNK_FLOATS = 2**15


def _chunks(n, width):
    """Consecutive slices of range(n) with as many rows of ``width`` floats
    as _CHUNK_FLOATS holds (at least one)."""
    m = max(1, _CHUNK_FLOATS // width)
    return [slice(i, i + m) for i in range(0, n, m)]


class Workspace:
    """Scratch arrays that the chunks of one batched evaluation reuse.

    ``take(i, shape, dtype)`` is an uninitialised array over the memory of
    slot i.  A slot is made with room for ``floats`` float64s, or for the
    request if it needs more, and lives as long as the workspace: sized for
    the largest array of an evaluation, no slot is made again while an
    array over its old memory is still in use.  Taking slot i again ends the
    life of whatever was taken from it before, so a workspace serves one
    evaluation at a time, and every function that takes one says which
    slots it writes and which of its results live there.
    """

    def __init__(self, floats=0):
        self._slots = []
        self._floor = 8 * floats

    def take(self, i, shape, dtype=np.float64):
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        self._slots += [None] * (i + 1 - len(self._slots))
        if self._slots[i] is None or self._slots[i].size < size:
            self._slots[i] = None
            self._slots[i] = np.empty(max(size, self._floor), np.uint8)
        return self._slots[i][:size].view(dtype).reshape(shape)


def _take(ws, i, shape, dtype=np.float64):
    """ws.take(i, shape, dtype), or a new array if ws is None."""
    if ws is None:
        return np.empty(shape, dtype)
    return ws.take(i, shape, dtype)


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


def _keep_last(x):
    """Where the nondecreasing x increases to the next entry, and its last
    entry: of a run of equal values, the last."""
    keep = np.empty(x.size, dtype=bool)
    np.greater(x[1:], x[:-1], out=keep[:-1])
    keep[-1] = True
    return keep
