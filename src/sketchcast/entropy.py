"""Additive-error Shannon entropy from maximally skewed 1-stable sketches.

For entries Z ~ F(1, -1, pi/2, 0) and the aggregate X with empirical
distribution p_j = X_j / ||X||_1, each normalized sketch coordinate
y_i = <S_i, X> / ||X||_1 is distributed F(1, -1, pi/2, H): the entropy
shows up as the location parameter, and E[e^{y_i}] = e^{-H}.  The
coordinator therefore reports H = -ln((1/k) sum_i e^{y_i}).

One Morris convergecast carries k + 1 lanes per edge: the k sketch rows
plus an F_1 lane whose counter estimates ||X||_1 for the normalization.
Estimates are in nats and get clamped to [0, ln n]; clamp events are
counted in the returned stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import CommStats, morris_sum_convergecast
from .fp_high import as_count_matrix, stream_counts
from .morris import counter_base_offset, estimates_signed, state_field_bits
from .stable import build_sketch
from .streams import DOMAIN_SKETCH, substream
from .topology import SpanningTree

LN2 = math.log(2.0)


@dataclass(frozen=True)
class EntropyConfig:
    """k = max(16, ceil(c_k/eps^2)) sketch rows at precision eta; eps0 = eps^6
    is the additive precision the Morris layer must deliver on each y_i,
    which sets the counter base far below the sketch noise floor."""

    eps: float
    c_k: ClassVar[float] = 12.0
    eta: ClassVar[float] = 2.0 ** -20

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")

    @property
    def k(self) -> int:
        return max(16, math.ceil(self.c_k / self.eps**2))

    @property
    def eps0(self) -> float:
        return self.eps**6

    @property
    def delta(self) -> float:
        return 1.0 / (200.0 * self.k)

    def base_minus_one(self, n: int) -> float:
        """Counter base offset from the p=1 low-moment derivation at eps0."""
        return counter_base_offset(self.eps0, self.delta, max(n, 2))


@dataclass(frozen=True)
class EntropyStats:
    """Communication stats plus estimator bookkeeping for one run."""

    comm: CommStats
    raw: float
    clamped: int


def _logsumexp(a: np.ndarray) -> float:
    hi = float(np.max(a))
    return hi + math.log(float(np.sum(np.exp(a - hi))))


def _entropy_from_rows(y: np.ndarray, n: int) -> tuple[float, float, int]:
    """(clamped H, raw H, clamp count) from normalized sketch rows."""
    raw = -(_logsumexp(y) - math.log(y.size))
    hi = math.log(n) if n > 1 else 0.0
    clamped = int(raw < 0.0) + int(raw > hi)
    return min(max(raw, 0.0), hi), raw, clamped


def estimate_entropy(inputs, tree: SpanningTree, cfg: EntropyConfig,
                     seed) -> tuple[float, EntropyStats]:
    """Distributed entropy of the aggregate vector over ``tree``, in nats.

    Raises ValueError on an all-zero aggregate (entropy undefined).
    The skewed sketch lanes and the F_1 lane share one convergecast, so
    each edge carries k + 1 counter pairs.
    """
    m = tree.m
    data = as_count_matrix(inputs, m)
    n = data.shape[1]
    if not data.any():
        raise ValueError("entropy undefined for an all-zero aggregate")
    M = float(max(1.0, data.max()))
    entry_cap = (M * n * m) ** 3
    bm1 = cfg.base_minus_one(n)
    sk = build_sketch(cfg.k, n, p=1.0, eta=cfg.eta, seed=substream(seed, DOMAIN_SKETCH),
                      entry_cap=entry_cap, skewed=True)
    lanes = np.concatenate([sk.apply(data), data.sum(axis=1, keepdims=True)], axis=1)

    width = state_field_bits(m * n * M * entry_cap / cfg.eta, bm1)
    counters, comm = morris_sum_convergecast(lanes, tree, math.log1p(bm1),
                                             seed, state_bits=width)
    est = estimates_signed(counters, bm1)
    r = est[cfg.k]
    if r <= 0.0:
        raise ValueError("F_1 lane returned a non-positive total")
    y = cfg.eta * est[:cfg.k] / r
    h, raw, clamped = _entropy_from_rows(y, n)
    return h, EntropyStats(comm=comm, raw=raw, clamped=clamped)


def stream_entropy(stream, cfg: EntropyConfig, seed=0, n: int | None = None) -> float:
    """Entropy of an insertion-only stream, exact-y random-oracle mode.

    Maintains y = S X exactly from the summed counts together with
    the exact ||X||_1; empty or all-zero streams raise ValueError.
    """
    x = stream_counts(stream, n)
    if not x.any():
        raise ValueError("entropy undefined for an empty stream")
    n = x.size
    sk = build_sketch(cfg.k, n, p=1.0, eta=cfg.eta, seed=substream(seed, DOMAIN_SKETCH),
                      skewed=True)
    y = cfg.eta * sk.apply(x) / float(x.sum())
    h, _, _ = _entropy_from_rows(y, n)
    return h


def entropy_to_bits(h_nats: float) -> float:
    """Convert nats to bits for display."""
    return h_nats / LN2
