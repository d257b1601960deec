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
