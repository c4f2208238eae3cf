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
from typing import ClassVar

import numpy as np

from .engine import CommStats, sum_convergecast
from .stable import build_sketch, median_abs
from .streams import DOMAIN_SKETCH, substream
from .topology import SpanningTree


def lower_median(values: np.ndarray) -> float:
    """Lower median: element at index (len-1)//2 of the sorted array."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    return float(v[(v.size - 1) // 2])


def stable_norm(y: np.ndarray, p: float) -> float:
    """||x||_p estimate from p-stable lanes y = S x.

    The lower median of |y_i| over ``median_abs(p)``, the median of |Z|
    for a standard p-stable Z.  fp at every p and the log-cosine
    normaliser decode through here.
    """
    return lower_median(np.abs(y)) / median_abs(p)


def as_count_matrix(inputs, m: int) -> np.ndarray:
    """Validate player inputs as finite, non-negative floats of shape (m, n)."""
    data = np.asarray(inputs, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != m:
        raise ValueError(f"inputs must be (m={m}, n), got {data.shape}")
    if not np.isfinite(data).all():
        raise ValueError("inputs entries must be finite, got NaN or inf")
    if np.any(data < 0):
        raise ValueError("inputs entries must be non-negative")
    return data


def stream_counts(updates, n: int | None = None) -> np.ndarray:
    """Validate an insertion-only stream and sum it into a count vector.

    ``updates`` is an (updates, 2) int array of (index, delta) rows, or
    anything ``np.asarray`` turns into one.  Without ``n`` the vector ends
    at the largest index.  Raises ValueError naming the first negative
    delta or the first index outside [0, n).
    """
    u = np.asarray(updates, dtype=np.int64)
    if u.size == 0:
        u = u.reshape(0, 2)
    if u.ndim != 2 or u.shape[1] != 2:
        raise ValueError(f"stream must be (index, delta) rows, got shape {u.shape}")
    idx, delta = u[:, 0], u[:, 1]
    if np.any(delta < 0):
        i = np.argmax(delta < 0)
        raise ValueError(f"insertion-only stream got delta {delta[i]} at index {idx[i]}")
    if n is None:
        n = int(idx.max(initial=-1)) + 1
    outside = (idx < 0) | (idx >= n)
    if np.any(outside):
        raise ValueError(f"index {idx[np.argmax(outside)]} outside [0, {n})")
    return np.bincount(idx, weights=delta, minlength=max(n, 1))


@dataclass(frozen=True)
class FpHighConfig:
    """Moment p and accuracy target eps of the high-moment protocol.

    The constants are fixed: k = ceil(c_k / eps^2) sketch rows give
    relative error eps with probability at least 1 - delta; delta also
    bounds the rounding failure mass, through the grid ratio gamma_for
    derives from it, and eta is the sketch precision.
    """

    p: float
    eps: float
    delta: ClassVar[float] = 0.25
    c_k: ClassVar[float] = 12.0
    eta: ClassVar[float] = 2.0 ** -30

    def __post_init__(self):
        if not 1.0 < self.p <= 2.0:
            raise ValueError(f"p must be in (1,2], got {self.p}")
        if not 0.0 < self.eps < 0.5:
            raise ValueError(f"eps must be in (0,1/2), got {self.eps}")

    @property
    def k(self) -> int:
        return math.ceil(self.c_k / self.eps**2)


def _stable_lanes(data: np.ndarray, cfg, seed) -> np.ndarray:
    """eta * S data for the k x n symmetric p-stable sketch of ``cfg`` at ``seed``."""
    sk = build_sketch(cfg.k, data.shape[-1], cfg.p, cfg.eta, substream(seed, DOMAIN_SKETCH))
    lanes = sk.apply(data)
    lanes *= cfg.eta
    return lanes


def _sketch_sum(inputs, tree: SpanningTree, cfg, seed, codec: str,
                lanes_of=_stable_lanes) -> tuple[np.ndarray, CommStats]:
    """Sum ``lanes_of(data, cfg, seed)`` up ``tree`` in the value family ``codec`` names.

    ``data`` is the rows of the validated (m, n) player counts that hold
    data, so a player that holds nothing gets no lanes.  The rounding grid
    is ``gamma_for``'s at accuracy ``cfg.eps``, failure mass
    ``FpHighConfig.delta`` and M the largest count.  fp at every p and
    entropy send their lanes through here.  A lane that is NaN or
    infinite, as a sketch product that overflows float64 is, raises
    ValueError naming its player and lane.
    """
    data = as_count_matrix(inputs, tree.m)
    n = data.shape[1]
    M = float(max(1.0, data.max(initial=0.0)))
    held = np.flatnonzero(data.any(axis=1))
    lanes = lanes_of(data if held.size == tree.m else data[held], cfg, seed)
    finite = np.isfinite(lanes)
    if not finite.all():
        row, lane = np.argwhere(~finite)[0]
        raise ValueError(f"player {held[row]}, lane {lane}: sketch value "
                         f"{lanes[row, lane]} is not finite")
    return sum_convergecast(codec, lanes, tree, seed,
                            eps=cfg.eps, delta=FpHighConfig.delta, n=n, M=M, ids=held)


def estimate_fp_high(inputs, tree: SpanningTree, cfg: FpHighConfig, seed,
                     codec: str = "rounding") -> tuple[float, float, CommStats]:
    """Run one convergecast over ``tree`` and return (norm_estimate, fp_estimate, stats).

    ``inputs`` is an (m, n) array of non-negative per-player counts.
    codec="exact" ships unrounded float64 sketches, useful for isolating
    rounding error.
    """
    vec, stats = _sketch_sum(inputs, tree, cfg, seed, codec)
    norm = stable_norm(vec, cfg.p)
    return norm, norm**cfg.p, stats
