"""Morris approximate counters with base b in (1, 2].

A counter in state C absorbs an update by incrementing with probability
b^-C, and estimates the count as (b^C - b)/(b - 1) + 1, equivalently
expm1(C ln b)/(b - 1), which is exactly unbiased with variance
(b-1) n (n+1) / 2 after n updates.  ``kernels.morris_add_batch`` absorbs
many updates in O(final state) time instead of O(n) by run-length
sampling, and ``kernels.morris_merge`` folds one counter into another so
that merge(counter(n1), counter(n2)) is distributed as counter(n1 + n2).
This module holds the estimator and its bounds.

A signed counter is an (insertions, deletions) pair whose estimate is the
difference.  States are kept as integer-valued float64: beyond 2^53 the
state no longer advances by exact units, which perturbs estimates at
relative order 1e-16, far below the counter's own statistical noise.

The wire format of a counter vector is stated on
``engine.send_counters``.
"""

from __future__ import annotations

import math

import numpy as np


def state_bound(total: float, b_minus_1: float) -> float:
    """Upper bound on the state after ``total`` updates.

    The state never exceeds the update count, and concentrates near
    log_b(1 + total*(b-1)); the bound takes the min plus slack for the
    far tail.
    """
    lb = math.log1p(b_minus_1)
    concentrated = math.log1p(total * b_minus_1) / lb if total > 0 else 0.0
    return min(total, 8.0 * (concentrated + 64.0))


def estimates_signed(ins: np.ndarray, dels: np.ndarray, b_minus_1: float) -> np.ndarray:
    """Vector of insertion-minus-deletion estimates from counter states."""
    lb = math.log1p(b_minus_1)
    return (np.expm1(np.asarray(ins) * lb) - np.expm1(np.asarray(dels) * lb)) / b_minus_1

