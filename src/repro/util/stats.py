"""Distribution statistics used by summaries, triggers, and the judge.

All functions are vectorized over NumPy arrays; none copies its input.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["gini", "normalized_variance", "weighted_percentile"]


def gini(values: Sequence[float] | np.ndarray) -> float:
    """Gini coefficient of non-negative ``values`` (0 = even, →1 = skewed).

    Used to quantify rank and server load imbalance.  An all-zero or empty
    input is perfectly balanced by convention (returns 0.0).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        return 0.0
    if np.any(x < 0):
        raise ValueError("gini is defined for non-negative values")
    total = x.sum()
    if total == 0.0:
        return 0.0
    xs = np.sort(x)
    n = xs.size
    # Standard closed form: G = (2*sum(i*x_i)/(n*sum(x))) - (n+1)/n, i = 1..n
    idx = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * np.dot(idx, xs)) / (n * total) - (n + 1.0) / n)


def normalized_variance(values: Sequence[float] | np.ndarray) -> float:
    """Coefficient-of-variation squared: Var(x) / mean(x)^2.

    Darshan's ``*_F_VARIANCE_RANK_*`` counters are raw variances whose scale
    depends on the workload; normalizing by the squared mean makes the
    imbalance triggers threshold-able across workloads.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        return 0.0
    mean = x.mean()
    if mean == 0.0:
        return 0.0
    return float(x.var() / (mean * mean))


def weighted_percentile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Percentile ``q`` in [0, 100] of ``values`` weighted by ``weights``.

    Used to report "typical request size" from Darshan size-bin histograms
    (bin midpoints weighted by bin counts).
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.shape != w.shape:
        raise ValueError("values and weights must have the same shape")
    if v.size == 0 or w.sum() == 0:
        return 0.0
    order = np.argsort(v)
    v, w = v[order], w[order]
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    return float(np.interp(q / 100.0, cdf, v))

