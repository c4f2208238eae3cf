"""Distributed approximate matrix product via a shared Gaussian sketch.

Players hold non-negative slices X_v (n x t1) and Y_v (n x t2) of two
matrices; a common k x n sketch S with N(0, 1/k) entries compresses both
sides, the k(t1+t2) sketch cells travel the convergecast with stochastic
rounding, and the root returns R = (SX)^T (SY).  With k = c_k/(delta *
eps0^2) rows, ||R - X^T Y||_F <= eps ||X||_F ||Y||_F with probability
1 - delta, where eps0 = eps/4 splits the budget across the error terms.

S is drawn one row block at a time, like the stable sketches, and each
block meets many players' columns in a single product, in place of one
product per player over the whole of S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import CommStats, sum_convergecast
from .rounding import gamma_for
from .stable import block_rows
from .streams import DOMAIN_SKETCH, generator
from .topology import Topology, center, spanning_tree

# Cells in one player group's copied columns, and in its product with S,
# when S is drawn as one block.
GROUP_CELLS = 1 << 16


@dataclass(frozen=True)
class AmpConfig:
    t1: int
    t2: int
    eps: float
    c_k: float = 1.0
    delta: float = 0.125

    def __post_init__(self):
        if self.t1 < 1 or self.t2 < 1:
            raise ValueError(f"need t1, t2 >= 1, got {self.t1}, {self.t2}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0,1), got {self.delta}")

    @property
    def eps0(self) -> float:
        return self.eps / 4.0

    @property
    def k(self) -> int:
        return max(16, math.ceil(self.c_k / (self.delta * self.eps0**2)))


def sketch_matrix(rng: np.random.Generator, block: np.ndarray, k: int) -> np.ndarray:
    """Fill ``block`` with the next rows of the shared k x n Gaussian sketch.

    Entries have variance 1/k and are drawn row-major from ``rng``, so
    filling successive row blocks from generator(seed, DOMAIN_SKETCH)
    reproduces its standard_normal((k, n)) / sqrt(k) value for value.
    """
    rng.standard_normal(out=block)
    block /= math.sqrt(k)
    return block


def _player_matrices(inputs, m: int, t: int, name: str) -> np.ndarray:
    data = np.asarray(inputs, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] != m or data.shape[2] != t:
        raise ValueError(f"{name} must be (m={m}, n, t={t}), got {data.shape}")
    if np.any(data < 0):
        raise ValueError(f"{name} entries must be non-negative")
    return data


def _sketch_payload(xs: np.ndarray, ys: np.ndarray, k: int, seed) -> np.ndarray:
    """(m, k*(t1+t2)) payload: row v is (S X_v).ravel() followed by (S Y_v).ravel().

    Each row block of S meets a group of players' columns, copied side by
    side into one (n, group*(t1+t2)) matrix, in a single product.  When S
    takes several blocks the group is every player, so the players' data
    is copied once; when S is one block, groups whose copy and product
    each hold at most GROUP_CELLS cells are copied once each, which keeps
    the copy from adding to the payload's memory.
    """
    m, n, t1 = xs.shape
    t = t1 + ys.shape[2]
    rows = block_rows(k, n)
    group = m if rows < k else min(m, max(1, GROUP_CELLS // (max(n, k) * t)))

    payload = np.empty((m, k * t))
    px = payload[:, :k * t1].reshape(m, k, t1)
    py = payload[:, k * t1:].reshape(m, k, t - t1)
    block = np.empty((rows, n))
    cols = np.empty(n * group * t)
    prod = np.empty(rows * group * t)
    rng = generator(seed, DOMAIN_SKETCH)
    for r0 in range(0, k, rows):
        h = min(rows, k - r0)
        s = sketch_matrix(rng, block[:h], k)
        for g0 in range(0, m, group):
            g = min(group, m - g0)
            c = cols[:n * g * t].reshape(n, g, t)
            if r0 == 0:
                c[:, :, :t1] = xs[g0:g0 + g].transpose(1, 0, 2)
                c[:, :, t1:] = ys[g0:g0 + g].transpose(1, 0, 2)
            out = prod[:h * g * t].reshape(h, g * t)
            np.matmul(s, c.reshape(n, g * t), out=out)
            out = out.reshape(h, g, t)
            px[g0:g0 + g, r0:r0 + h] = out[:, :, :t1].transpose(1, 0, 2)
            py[g0:g0 + g, r0:r0 + h] = out[:, :, t1:].transpose(1, 0, 2)
    return payload


def amp_estimate(x_inputs, y_inputs, topo: Topology, cfg: AmpConfig, seed,
                 codec: str = "rounding") -> tuple[np.ndarray, CommStats]:
    """One convergecast of both sketches; returns (R: t1 x t2, stats).

    x_inputs is (m, n, t1) and y_inputs (m, n, t2); slices sum to the
    global matrices.  Each player ships exactly k*(t1+t2) cells.  An
    all-zero side collapses to zero flags and R = 0 exactly.
    """
    m = topo.m
    xs = _player_matrices(x_inputs, m, cfg.t1, "x_inputs")
    ys = _player_matrices(y_inputs, m, cfg.t2, "y_inputs")
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"inner dimensions differ: {xs.shape[1]} vs {ys.shape[1]}")
    n = xs.shape[1]
    tree = spanning_tree(topo, center(topo))
    payload = _sketch_payload(xs, ys, cfg.k, seed)
    split = cfg.k * cfg.t1

    M = float(max(1.0, xs.max(initial=0.0), ys.max(initial=0.0)))
    vec, stats = sum_convergecast(codec, payload, tree, seed, lambda: gamma_for(
        cfg.eps0, cfg.delta, max(1, tree.depth), n, m, M=M))

    rx = vec[:split].reshape(cfg.k, cfg.t1)
    ry = vec[split:].reshape(cfg.k, cfg.t2)
    return rx.T @ ry, stats
