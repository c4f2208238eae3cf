"""Additive-error Shannon entropy from maximally skewed 1-stable sketches.

For entries Z ~ F(1, -1, pi/2, 0) and the aggregate X with empirical
distribution p_j = X_j / ||X||_1, each normalized sketch coordinate
y_i = <S_i, X> / ||X||_1 is distributed F(1, -1, pi/2, H): the entropy
shows up as the location parameter, and E[e^{y_i}] = e^{-H}.  The
coordinator therefore reports H = -ln((1/k) sum_i e^{y_i}).

Both verbs decode the same k + 1 lanes: the k sketch rows, scaled by
eta, plus an F_1 lane that estimates ||X||_1 for the normalization.  The
skewed sketch draws one column per distinct count column among those the
data holds (``stable``): g coordinates with the same counts cost one
column, scaled to g Z - g ln g, and a coordinate no player or stream
update touches costs nothing.  The
network verb sums them as rounded values, as fp does
(``fp_high._sketch_sum``), or exactly with ``codec="exact"``; the stream
verb sums them exactly.  Estimates are in nats, clamped to [0, ln n];
clamps are counted in stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import CommStats
from .fp_high import _sketch_sum, stream_counts
from .stable import build_sketch
from .streams import DOMAIN_SKETCH, substream
from .topology import SpanningTree

LN2 = math.log(2.0)


@dataclass(frozen=True)
class EntropyConfig:
    """Accuracy target eps: k = max(16, ceil(c_k/eps^2)) skewed sketch rows
    at precision eta.  The network verb's rounding grid is sized at eps."""

    eps: float
    c_k: ClassVar[float] = 12.0
    eta: ClassVar[float] = 2.0 ** -20

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")

    @property
    def k(self) -> int:
        return max(16, math.ceil(self.c_k / self.eps**2))


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


def entropy_lanes(data: np.ndarray, cfg: EntropyConfig, seed) -> np.ndarray:
    """The k eta-scaled skewed sketch rows, then the F_1 lane, of an (m, n) matrix's rows or one vector."""
    sk = build_sketch(cfg.k, data.shape[-1], p=1.0, eta=cfg.eta,
                      seed=substream(seed, DOMAIN_SKETCH), skewed=True)
    rows = sk.apply(data)
    rows *= cfg.eta
    return np.concatenate([rows, data.sum(axis=-1, keepdims=True)], axis=-1)


def decode_lanes(lanes: np.ndarray, cfg: EntropyConfig, n: int) -> tuple[float, float, int]:
    """(clamped H, raw H, clamp count) from summed lanes; ValueError unless F_1 > 0."""
    if lanes[cfg.k] <= 0.0:
        raise ValueError("entropy undefined for an all-zero aggregate")
    return _entropy_from_rows(lanes[:cfg.k] / lanes[cfg.k], n)


def estimate_entropy(inputs, tree: SpanningTree, cfg: EntropyConfig, seed,
                     codec: str = "rounding") -> tuple[float, EntropyStats]:
    """Entropy of the aggregate in nats from k + 1 ``codec`` lanes per edge; ValueError if all zero."""
    lanes, comm = _sketch_sum(inputs, tree, cfg, seed, codec, entropy_lanes)
    h, raw, clamped = decode_lanes(lanes, cfg, np.shape(inputs)[1])
    return h, EntropyStats(comm=comm, raw=raw, clamped=clamped)


def stream_entropy(stream, cfg: EntropyConfig, seed=0, n: int | None = None) -> float:
    """Entropy of an insertion-only stream: the lanes of its summed counts, decoded.

    They are normalized by their F_1 lane; an all-zero stream raises
    ValueError.
    """
    x = stream_counts(stream, n)
    return decode_lanes(entropy_lanes(x, cfg, seed), cfg, x.size)[0]


def entropy_to_bits(h_nats: float) -> float:
    """Convert nats to bits for display."""
    return h_nats / LN2
