"""Unbiased stochastic rounding onto the geometric grid {±(1+gamma)^i}.

A real r between grid points lo = (1+g)^i and hi = (1+g)^(i+1) rounds up
with probability p_r = (r - lo)/(hi - lo), which solves
p_r*hi + (1-p_r)*lo = r exactly, so the rounding is unbiased no matter how
accurately lo and hi themselves were computed.  The variance is at most
(gamma * r)^2.

The rounding itself runs in ``kernels.round_to_grid``; the message format
is stated once, on ``engine.send_rounded``.  The grid ratio comes
from gamma = eps*delta / (d * log2(n*m)), and the legal exponent
window is derived from the truncation bound K = (M*n*m)^2 / gamma:
admissible magnitudes lie in [(mK)^-(d+3), K^6], and a convergecast node
at layer l truncates below (mK)^-(d+3-l).  Those floors underflow float64
at large depth, so all floor comparisons happen in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class WindowError(ValueError):
    """A rounded exponent escaped [exponent_min, exponent_max]."""


@dataclass(frozen=True)
class RoundingParams:
    """Grid ratio gamma plus the legal exponent window.

    ``log_mk`` and ``depth`` carry the truncation geometry (ln(m*K) and the
    tree depth d) when built by :func:`gamma_for`; they are only needed to
    evaluate per-layer floors.
    """

    gamma: float
    exponent_min: int
    exponent_max: int
    log_mk: float | None = None
    depth: int | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0,1], got {self.gamma}")
        if self.exponent_min >= self.exponent_max:
            raise ValueError("exponent_min must be below exponent_max")

    @property
    def log_gamma(self) -> float:
        return math.log1p(self.gamma)

    def log_floor(self, layer: int) -> float:
        """ln of the truncation floor (mK)^-(d+3-layer) for a given layer."""
        if self.log_mk is None or self.depth is None:
            return -math.inf
        return -(self.depth + 3 - layer) * self.log_mk


def gamma_for(eps: float, delta: float, d: int, n: int, m: int,
              M: int = 1000) -> RoundingParams:
    """RoundingParams for a depth-d convergecast on m players over [n].

    gamma = eps*delta / (d * log2(max(n*m, 2))), which lies below 1, and
    the exponent window brackets [(mK)^-(d+3), K^6] with
    K = (M*n*m)^2 / gamma.  The floor of 2 under n*m keeps a one-player,
    one-coordinate instance off log2(1) = 0.  M defaults to the
    desk-scale input bound; protocols pass their real one.
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError(f"eps and delta must be in (0,1), got {eps}, {delta}")
    if d < 1 or n < 1 or m < 1 or M < 1:
        raise ValueError("d, n, m, M must all be >= 1")
    gamma = eps * delta / (d * math.log2(max(n * m, 2)))
    log_gamma = math.log1p(gamma)
    log_k = 2.0 * math.log(M * n * m) - math.log(gamma)
    log_mk = math.log(m) + log_k
    exponent_min = math.floor(-(d + 3) * log_mk / log_gamma) - 1
    exponent_max = math.ceil(6.0 * log_k / log_gamma) + 1
    return RoundingParams(
        gamma=gamma,
        exponent_min=exponent_min,
        exponent_max=exponent_max,
        log_mk=log_mk,
        depth=d,
    )
