"""Distributed approximate matrix product via a shared count sketch.

Players hold non-negative slices X_v (n x t1) and Y_v (n x t2) of two
matrices, given as each side's nonzero cells: ``heavy_hitters.Cells``,
(player, coordinate, column, value) arrays in row-major order, as
``harness.split_cells`` builds them from the aggregate matrices and
``heavy_hitters.nonzero_cells`` from dense slices.  The shared k x n
sketch S is a one-row count sketch of width k: column j holds the sign
g(j) in row h(j) and zeros elsewhere, with h the pairwise bucket hash and
g the 4-wise sign hash of ``heavy_hitters``, their coefficients drawn
from generator(seed, DOMAIN_SKETCH), and S X_v and S Y_v are tabled by
hh's ``bucket_sums``.  Their k(t1+t2) cells travel the convergecast with
stochastic rounding, and the root returns R = (SX)^T (SY).

The sketch error has second moment
E||(SX)^T (SY) - X^T Y||_F^2 <= (2/k) ||X||_F^2 ||Y||_F^2 (Charikar, Chen &
Farach-Colton 2002; Clarkson & Woodruff 2013), the same bound the dense
Gaussian sketch with N(0, 1/k) entries meets, so k is sized as before:
with k = c_k/(delta * eps0^2) rows, Chebyshev's inequality keeps the
sketch error under sqrt(2) eps0 ||X||_F ||Y||_F with probability
1 - delta, and ||R - X^T Y||_F <= eps ||X||_F ||Y||_F holds as the
``AmpConfig`` guarantee, where eps0 = eps/4 splits the budget across the
error terms.

Sketching costs O(n) hash evaluations, O(nnz) work over the cells, of
which the bucket additions are most, and an O(held k (t1+t2)) table, in
place of a dense k x n product; no (m, n, t) array is built.  On integer
data every payload cell is a signed sum of integers, exact in float64,
so the payload does not depend on summation order, and exact-codec
aggregation equals the pooled sketch product bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .engine import CommStats, sum_convergecast
from .heavy_hitters import Cells, CountSketchSpec, bucket_sums
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


def sketch_matrix(x_cells: Cells, y_cells: Cells, k: int,
                  seed) -> tuple[np.ndarray, np.ndarray]:
    """(tables, ids): the k*(t1+t2)-cell payload rows of the players that hold data, and their ids.

    Row i is (S X_v).ravel() followed by (S Y_v).ravel() for v = ids[i],
    the i-th player, in ascending order, with a cell on either side;
    players without one get no row.  S is the one-row count sketch of
    width k whose hashes are drawn from generator(seed, DOMAIN_SKETCH),
    and each side is tabled by ``heavy_hitters.bucket_sums``.
    """
    m, n, _ = x_cells.shape
    spec = CountSketchSpec.draw(n, 1, k, generator(seed, DOMAIN_SKETCH))
    bucket, sign = spec.bucket_of(), spec.sign_of()
    holds = np.zeros(m, dtype=bool)
    holds[x_cells.player] = holds[y_cells.player] = True
    held = np.flatnonzero(holds)
    row = np.cumsum(holds) - 1  # player -> its payload row
    tables = np.empty((held.size, k * (x_cells.shape[2] + y_cells.shape[2])))
    start = 0
    for cells in (x_cells, y_cells):
        t = cells.shape[2]
        by_row = cells._replace(shape=(held.size, n, t), player=row[cells.player])
        tables[:, start:start + k * t] = bucket_sums(by_row, bucket, sign, k).reshape(-1, k * t)
        start += k * t
    return tables, held


def as_cells(cells: Cells, m: int, t: int, name: str) -> Cells:
    """Validate one side's ``Cells``: finite, non-negative values of m players and t columns.

    Errors name the argument ``name``.
    """
    if not isinstance(cells, Cells):
        raise TypeError(f"{name} must be Cells, got {type(cells).__name__}")
    shape = tuple(cells.shape)
    if len(shape) != 3 or shape[0] != m or shape[2] != t:
        raise ValueError(f"{name} must be (m={m}, n, t={t}), got {shape}")
    player, coord, column, value = map(np.asarray, cells[1:])
    if not player.shape == coord.shape == column.shape == value.shape == (value.size,):
        raise ValueError(f"{name} cells must be four 1-D arrays of one length")
    value = value.astype(np.float64, copy=False)
    if not np.isfinite(value).all():
        raise ValueError(f"{name} entries must be finite, got NaN or inf")
    if np.any(value < 0):
        raise ValueError(f"{name} entries must be non-negative")
    for what, index, size in (("players", player, m), ("coordinates", coord, shape[1]),
                              ("columns", column, t)):
        if not np.issubdtype(index.dtype, np.integer):
            raise ValueError(f"{name} {what} must be integers, got {index.dtype}")
        if index.size and not (0 <= index.min() and index.max() < size):
            raise ValueError(f"{name} {what} must lie in [0, {size})")
    return Cells(shape, player, coord, column, value)


def amp_estimate(x_inputs: Cells, y_inputs: Cells, tree: SpanningTree, cfg: AmpConfig, seed,
                 codec: str = "rounding") -> tuple[np.ndarray, CommStats]:
    """One convergecast of both sketches over ``tree``; returns (R: t1 x t2, stats).

    x_inputs and y_inputs are the players' nonzero cells of the (m, n, t1)
    and (m, n, t2) slices, which sum to the global matrices.  A vertex
    sends k*(t1+t2) cells, or only the 1-bit flag if its subtree's
    sketches are all zero.  An all-zero side gives R = 0.
    """
    m = tree.m
    xs = as_cells(x_inputs, m, cfg.t1, "x_inputs")
    ys = as_cells(y_inputs, m, cfg.t2, "y_inputs")
    n = xs.shape[1]
    if ys.shape[1] != n:
        raise ValueError(f"inner dimensions differ: {n} vs {ys.shape[1]}")
    tables, held = sketch_matrix(xs, ys, cfg.k, seed)
    split = cfg.k * cfg.t1

    M = float(max(1.0, xs.value.max(initial=0.0), ys.value.max(initial=0.0)))
    vec, stats = sum_convergecast(codec, tables, tree, seed, eps=cfg.eps0, delta=cfg.delta,
                                  n=n, M=M, ids=held)

    rx = vec[:split].reshape(cfg.k, cfg.t1)
    ry = vec[split:].reshape(cfg.k, cfg.t2)
    return rx.T @ ry, stats
