"""Unbiased stochastic rounding onto the geometric grid {±(1+gamma)^i}.

A real r between grid points lo = (1+g)^i and hi = (1+g)^(i+1) rounds up
with probability p_r = (r - lo)/(hi - lo), which solves
p_r*hi + (1-p_r)*lo = r exactly, so the rounding is unbiased no matter how
accurately lo and hi themselves were computed.  The variance is at most
(gamma * r)^2.

The rounding itself runs in ``kernels.round_to_grid``; the message format
is stated once, on ``engine.send_rounded``.  The grid ratio comes from
gamma = eps*delta / (d * log2(n*m)), and the truncation bound
K = (M*n*m)^2 / gamma sets the floors: a convergecast node at layer l
truncates magnitudes below (mK)^-(d+3-l) to an exact zero.  Those floors
underflow float64 at large depth, so all floor comparisons happen in log
space.

No exponent needs a bound.  The paper brackets exponents in
[(mK)^-(d+3), K^6] only to size a fixed-width exponent field, but each
message sends its lowest exponent in an Elias gamma code and the rest as
offsets from it, so any exponent is sent and metered exactly.  A finite
nonzero float64 lies in [2^-1074, 2^1024), so |ln|r|| < 745, and two
exponents differ by less than 1490 / ln(1+gamma).  That is under 2^53,
below which ``kernels.rounded_bits`` reduces exponents exactly as
float64, for every gamma above 2e-13.  The protocols check that their
lanes are finite before they send them (``fp_high._sketch_sum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class WindowError(ValueError):
    """Never raised.

    Kept only because ``perfbench/tracer.py`` imports it by name; it goes
    with the next change to the benchmark (ROADMAP item 18).
    """


@dataclass(frozen=True)
class RoundingParams:
    """Grid ratio gamma plus the truncation geometry.

    ``log_mk`` and ``depth`` (ln(m*K) and the tree depth d) are set by
    :func:`gamma_for`; they are only needed to evaluate per-layer floors,
    and without them nothing is truncated.
    """

    gamma: float
    log_mk: float | None = None
    depth: int | None = None

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0,1], got {self.gamma}")

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
    the floors use K = (M*n*m)^2 / gamma.  The floor of 2 under n*m keeps
    a one-player, one-coordinate instance off log2(1) = 0.  M defaults to
    the desk-scale input bound; protocols pass their real one.
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError(f"eps and delta must be in (0,1), got {eps}, {delta}")
    if d < 1 or n < 1 or m < 1 or M < 1:
        raise ValueError("d, n, m, M must all be >= 1")
    gamma = eps * delta / (d * math.log2(max(n * m, 2)))
    log_k = 2.0 * math.log(M * n * m) - math.log(gamma)
    return RoundingParams(gamma=gamma, log_mk=math.log(m) + log_k, depth=d)
