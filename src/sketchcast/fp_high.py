"""Distributed F_p estimation for p in (1, 2] over a convergecast tree.

Every player sketches its local count vector with a shared p-stable
matrix, the tree aggregates the k-dimensional sketches with stochastic
rounding on every hop, and the coordinator recovers ||X||_p from the
lower median of coordinate magnitudes scaled by the stable median.  The
rounding grid is geometric with ratio 1 + gamma, where gamma shrinks
polynomially in the accuracy target and tree depth so that the injected
noise stays a vanishing fraction of the aggregate; messages below a
layer-dependent floor are truncated to the zero flag, which caps every
message at O(log) bits.

The estimate of F_p = ||X||_p^p is the norm estimate raised to p.  A
player holding an all-zero vector forwards the zero flag, so an all-zero
instance reports (0, 0) at one bit per edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import CommStats, sum_convergecast
from .rounding import RoundingParams, gamma_for
from .stable import build_sketch, median_abs
from .streams import DOMAIN_SKETCH, substream
from .topology import Topology, center, spanning_tree


def lower_median(values: np.ndarray) -> float:
    """Lower median: element at index (len-1)//2 of the sorted array."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    return float(v[(v.size - 1) // 2])


def as_count_matrix(inputs, m: int) -> np.ndarray:
    """Validate player inputs as an (m, n) non-negative float matrix."""
    data = np.asarray(inputs, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != m:
        raise ValueError(f"inputs must be (m={m}, n), got {data.shape}")
    if np.any(data < 0):
        raise ValueError("player counts must be non-negative")
    return data


@dataclass(frozen=True)
class FpHighConfig:
    """Accuracy knobs for the high-moment protocol.

    k = max(16, ceil(c_k / eps^2)) sketch rows give relative error eps
    with probability at least 1 - delta; delta also bounds the rounding
    failure mass.  C_exponent steers how aggressively gamma_for shrinks
    the grid.
    """

    p: float
    eps: float
    delta: float = 0.25
    c_k: float = 12.0
    eta: float = 2.0 ** -30
    C_exponent: float = 1.0

    def __post_init__(self):
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"p must be in (1,2], got {self.p}")
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must be in (0,1/2), got {self.eps}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")

    @property
    def k(self) -> int:
        return max(16, math.ceil(self.c_k / self.eps**2))

    def rounding_params(self, n: int, m: int, depth: int, M: float) -> RoundingParams:
        return gamma_for(self.eps, self.delta, max(1, depth), n, m,
                         C_exponent=self.C_exponent, M=M)


def estimate_fp_high(inputs, topo: Topology, cfg: FpHighConfig, seed,
                     codec: str = "rounding") -> tuple[float, float, CommStats]:
    """Run one convergecast and return (norm_estimate, fp_estimate, stats).

    ``inputs`` is an (m, n) array of non-negative per-player counts.
    codec="exact" ships unrounded float64 sketches, useful for isolating
    rounding error.
    """
    m = topo.m
    data = as_count_matrix(inputs, m)
    n = data.shape[1]
    tree = spanning_tree(topo, center(topo))
    M = float(max(1.0, data.max(initial=0.0)))

    sk = build_sketch(cfg.k, n, cfg.p, cfg.eta, substream(seed, DOMAIN_SKETCH))
    payload = sk.apply(data, scaled=True)

    vec, stats = sum_convergecast(codec, payload, tree, seed,
                                  lambda: cfg.rounding_params(n, m, tree.depth, M))

    norm = lower_median(np.abs(vec)) / median_abs(cfg.p)
    return norm, norm**cfg.p, stats

