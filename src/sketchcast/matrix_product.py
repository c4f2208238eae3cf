"""Distributed approximate matrix product via a shared count sketch.

Players hold non-negative slices X_v (n x t1) and Y_v (n x t2) of two
matrices.  The shared k x n sketch S is a one-row count sketch of width
k: column j holds the sign g(j) in row h(j) and zeros elsewhere, with h
the pairwise bucket hash and g the 4-wise sign hash of ``heavy_hitters``,
their coefficients drawn from generator(seed, DOMAIN_SKETCH), and S X_v
and S Y_v are tabled by hh's ``bucket_sums``.  Their k(t1+t2) cells
travel the convergecast with stochastic rounding, and the root returns
R = (SX)^T (SY).

The sketch error has second moment
E||(SX)^T (SY) - X^T Y||_F^2 <= (2/k) ||X||_F^2 ||Y||_F^2 (Charikar, Chen &
Farach-Colton 2002; Clarkson & Woodruff 2013), the same bound the dense
Gaussian sketch with N(0, 1/k) entries meets, so k is sized as before:
with k = c_k/(delta * eps0^2) rows, Chebyshev's inequality keeps the
sketch error under sqrt(2) eps0 ||X||_F ||Y||_F with probability
1 - delta, and ||R - X^T Y||_F <= eps ||X||_F ||Y||_F holds as the
``AmpConfig`` guarantee, where eps0 = eps/4 splits the budget across the
error terms.

Sketching costs O(n) hash evaluations, one pass over the entries of the
players that hold data, O(nnz) bucket additions and an O(held k (t1+t2))
table, in place of a dense k x n product.  On integer data every payload
cell is a signed sum of integers, exact in float64, so the payload does
not depend on summation order, and exact-codec aggregation equals the
pooled sketch product bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import CommStats, sum_convergecast
from .fp_high import as_count_matrix
from .heavy_hitters import CountSketchSpec, bucket_sums
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


def sketch_matrix(xs: np.ndarray, ys: np.ndarray, k: int,
                  seed) -> tuple[np.ndarray, np.ndarray]:
    """(tables, ids): the k*(t1+t2)-cell payload rows of the players that hold data, and their ids.

    Row i is (S X_v).ravel() followed by (S Y_v).ravel() for v = ids[i],
    the i-th player, in ascending order, whose X or Y is nonzero; players
    that hold zero X and Y get no row.  S is the one-row count sketch of
    width k whose hashes are drawn from generator(seed, DOMAIN_SKETCH),
    and each side is tabled by ``heavy_hitters.bucket_sums``.
    """
    m, n, t1 = xs.shape
    spec = CountSketchSpec.draw(n, 1, k, generator(seed, DOMAIN_SKETCH))
    bucket, sign = spec.bucket_of(), spec.sign_of()
    held = np.flatnonzero(xs.any(axis=(1, 2)) | ys.any(axis=(1, 2)))
    tables = np.empty((held.size, k * (t1 + ys.shape[2])))
    start = 0
    for side in (xs, ys):
        cells = k * side.shape[2]
        table = bucket_sums(side if held.size == m else side[held], bucket, sign, k)
        tables[:, start:start + cells] = table.reshape(held.size, cells)
        start += cells
    return tables, held


def amp_estimate(x_inputs, y_inputs, tree: SpanningTree, cfg: AmpConfig, seed,
                 codec: str = "rounding") -> tuple[np.ndarray, CommStats]:
    """One convergecast of both sketches over ``tree``; returns (R: t1 x t2, stats).

    x_inputs is (m, n, t1) and y_inputs (m, n, t2); slices sum to the
    global matrices.  A vertex sends k*(t1+t2) cells, or only the 1-bit flag
    if its subtree's sketches are all zero.  An all-zero side gives R = 0.
    """
    m = tree.m
    xs = as_count_matrix(x_inputs, m, cfg.t1, "x_inputs")
    ys = as_count_matrix(y_inputs, m, cfg.t2, "y_inputs")
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"inner dimensions differ: {xs.shape[1]} vs {ys.shape[1]}")
    n = xs.shape[1]
    tables, held = sketch_matrix(xs, ys, cfg.k, seed)
    split = cfg.k * cfg.t1

    M = float(max(1.0, xs.max(initial=0.0), ys.max(initial=0.0)))
    vec, stats = sum_convergecast(codec, tables, tree, seed, eps=cfg.eps0, delta=cfg.delta,
                                  n=n, M=M, ids=held)

    rx = vec[:split].reshape(cfg.k, cfg.t1)
    ry = vec[split:].reshape(cfg.k, cfg.t2)
    return rx.T @ ry, stats
