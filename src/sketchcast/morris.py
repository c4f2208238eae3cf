"""Morris approximate counters with base b in (1, 2].

A counter in state C absorbs an update by incrementing with probability
b^-C, and estimates the count as (b^C - b)/(b - 1) + 1, equivalently
expm1(C ln b)/(b - 1), which is exactly unbiased with variance
(b-1) n (n+1) / 2 after n updates.  ``kernels.morris_add_batch`` absorbs
many updates in O(final state) time instead of O(n) by run-length
sampling.  This module holds the estimator, its bounds, and the counter
base the stream verb (``fp_low.stream_fp_logcosine``, mode "morris-y")
derives from them; no network protocol sends counters.

L signed counters are one state of 2L columns laid out ``[insertions |
deletions]``, and lane i estimates column i minus column L + i.  States
are kept as integer-valued float64: beyond 2^53 the state no longer
advances by exact units, which perturbs estimates at relative order 1e-16,
far below the counter's own statistical noise.

At the bases ``counter_base_offset`` derives, within 1e-30 of 1, a state
is about the count it holds: the counters count exactly.  The O(log log)
states of the paper's analysis need a statistics-scale base.
"""

from __future__ import annotations

import math

import numpy as np

# The constant c' in the counters' relative error eps' (counter_base_offset).
C_PRIME = 0.25


def state_bound(total: float, b_minus_1: float) -> float:
    """Upper bound on the state after ``total`` updates.

    The state never exceeds the update count, and concentrates near
    log_b(1 + total*(b-1)); the bound takes the min plus slack for the
    far tail.
    """
    lb = math.log1p(b_minus_1)
    concentrated = math.log1p(total * b_minus_1) / lb if total > 0 else 0.0
    return min(total, 8.0 * (concentrated + 64.0))


def counter_base_offset(eps: float, delta: float, n: int, p: float = 1.0) -> float:
    """Counter base offset b - 1 = (eps' * delta)^2 over n coordinates.

    eps' = C_PRIME eps delta^{1/p} / log2(n / delta) is the relative error
    the counters may add; it shrinks with delta^{1/p} so that the Morris
    error stays below the p-stable tail scale.  Kept as the offset: protocol
    bases are within 1e-33 of 1, below float64 resolution around 1.0.
    """
    ep = C_PRIME * eps * delta ** (1.0 / p) / math.log2(n / delta)
    bm1 = (ep * delta) ** 2
    if not 0.0 < ep < eps or bm1 <= 0.0:
        raise ValueError(f"counter base degenerates to 1 (eps' = {ep}); p or eps too small")
    return bm1


def signed_updates(x: np.ndarray) -> np.ndarray:
    """Signed counter updates ``[max(x, 0) | max(-x, 0)]`` on the last axis."""
    return np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)], axis=-1)


def estimates_signed(state: np.ndarray, b_minus_1: float) -> np.ndarray:
    """Insertion-minus-deletion estimates from ``[insertions | deletions]`` states."""
    lb = math.log1p(b_minus_1)
    ins, dels = np.split(state, 2, axis=-1)
    return (np.expm1(ins * lb) - np.expm1(dels * lb)) / b_minus_1
