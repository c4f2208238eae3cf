"""Distributed approximate matrix product via a shared Gaussian sketch.

Players hold non-negative slices X_v (n x t1) and Y_v (n x t2) of two
matrices; a common k x n sketch S with N(0, 1/k) entries compresses both
sides, the k(t1+t2) sketch cells travel the convergecast with stochastic
rounding, and the root returns R = (SX)^T (SY).  With k = c_k/(delta *
eps0^2) rows, ||R - X^T Y||_F <= eps ||X||_F ||Y||_F with probability
1 - delta, where eps0 = eps/4 splits the budget across the error terms.

S is drawn one row block at a time, like the stable sketches, and each
block meets the columns of every player that holds data in a single
product, in place of one product per player over the whole of S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import CommStats, sum_convergecast
from .stable import block_rows
from .streams import DOMAIN_SKETCH, generator
from .topology import SpanningTree


@dataclass(frozen=True)
class AmpConfig:
    t1: int
    t2: int
    eps: float
    c_k: ClassVar[float] = 1.0
    delta: ClassVar[float] = 0.125

    def __post_init__(self):
        if self.t1 < 1 or self.t2 < 1:
            raise ValueError(f"need t1, t2 >= 1, got {self.t1}, {self.t2}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")

    @property
    def eps0(self) -> float:
        return self.eps / 4.0

    @property
    def k(self) -> int:
        return math.ceil(self.c_k / (self.delta * self.eps0**2))


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

    The columns of the players that hold data are copied once, side by
    side, into one (n, held*(t1+t2)) matrix, and each row block of S meets
    them in a single product.  Blocks are sized for the wider of S's rows
    and the product's, so S's block and the product each hold about
    ``stable.BLOCK_CELLS`` cells.  Players that hold zero X and Y keep the
    +0.0 rows the payload starts with, which is what their product with S
    gives.

    Which players hold data sets the product's width, and a column of a
    product keeps its bits across widths only where BLAS runs one kernel
    for both.  Measured with OpenBLAS 0.3.31 on AVX-512, a product with two
    or more columns and over 1e6 multiply-adds (block rows x n x columns)
    gives each column the bits it has in any wider such product.  numpy
    sends a one-column product to gemv, and OpenBLAS sends smaller ones to
    its small-matrix kernel; both sum in other orders and can move the last
    bits.  One held player with t1 + t2 <= 4 on a small sketch is such a
    case; the benchmark's amp workloads, with about 10 held players, are not.
    """
    m, n, t1 = xs.shape
    t = t1 + ys.shape[2]
    held = np.flatnonzero(xs.any(axis=(1, 2)) | ys.any(axis=(1, 2)))
    cols = np.empty((n, held.size, t))
    for j, v in enumerate(held):
        cols[:, j, :t1] = xs[v]
        cols[:, j, t1:] = ys[v]
    cols = cols.reshape(n, held.size * t)
    rows = block_rows(k, max(n, cols.shape[1]))

    payload = np.zeros((m, k * t))
    px = payload[:, :k * t1].reshape(m, k, t1)
    py = payload[:, k * t1:].reshape(m, k, t - t1)
    block = np.empty((rows, n))
    prod = np.empty((rows, cols.shape[1]))
    rng = generator(seed, DOMAIN_SKETCH)
    for r0 in range(0, k, rows):
        h = min(rows, k - r0)
        out = np.matmul(sketch_matrix(rng, block[:h], k), cols, out=prod[:h])
        out = out.reshape(h, held.size, t)
        px[held, r0:r0 + h] = out[:, :, :t1].transpose(1, 0, 2)
        py[held, r0:r0 + h] = out[:, :, t1:].transpose(1, 0, 2)
    return payload


def amp_estimate(x_inputs, y_inputs, tree: SpanningTree, cfg: AmpConfig, seed,
                 codec: str = "rounding") -> tuple[np.ndarray, CommStats]:
    """One convergecast of both sketches over ``tree``; returns (R: t1 x t2, stats).

    x_inputs is (m, n, t1) and y_inputs (m, n, t2); slices sum to the
    global matrices.  A vertex sends k*(t1+t2) cells, or only the 1-bit flag
    if its subtree's sketches are all zero.  An all-zero side gives R = 0.
    """
    m = tree.m
    xs = _player_matrices(x_inputs, m, cfg.t1, "x_inputs")
    ys = _player_matrices(y_inputs, m, cfg.t2, "y_inputs")
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"inner dimensions differ: {xs.shape[1]} vs {ys.shape[1]}")
    n = xs.shape[1]
    payload = _sketch_payload(xs, ys, cfg.k, seed)
    split = cfg.k * cfg.t1

    M = float(max(1.0, xs.max(initial=0.0), ys.max(initial=0.0)))
    vec, stats = sum_convergecast(codec, payload, tree, seed, eps=cfg.eps0, delta=cfg.delta,
                                  n=n, M=M)

    rx = vec[:split].reshape(cfg.k, cfg.t1)
    ry = vec[split:].reshape(cfg.k, cfg.t2)
    return rx.T @ ry, stats
