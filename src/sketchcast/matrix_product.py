"""Distributed approximate matrix product via a shared Gaussian sketch.

Players hold non-negative slices X_v (n x t1) and Y_v (n x t2) of two
matrices; a common k x n sketch S with N(0, 1/k) entries compresses both
sides, the k(t1+t2) sketch cells travel the convergecast with stochastic
rounding, and the root returns R = (SX)^T (SY).  With k = c_k/(delta *
eps0^2) rows, ||R - X^T Y||_F <= eps ||X||_F ||Y||_F with probability
1 - delta, where eps0 = eps/4 splits the budget across the error terms.

A pooled-data sketch product from the same seed is exposed separately so
exact-codec runs can be checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import CommStats, sum_convergecast
from .rounding import gamma_for
from .streams import DOMAIN_SKETCH, generator
from .topology import Topology, center, spanning_tree


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


def sketch_matrix(n: int, k: int, seed) -> np.ndarray:
    """Shared k x n Gaussian sketch with variance-1/k entries."""
    rng = generator(seed, DOMAIN_SKETCH)
    return rng.standard_normal((k, n)) / math.sqrt(k)


def _player_matrices(inputs, m: int, t: int, name: str) -> np.ndarray:
    data = np.asarray(inputs, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] != m or data.shape[2] != t:
        raise ValueError(f"{name} must be (m={m}, n, t={t}), got {data.shape}")
    if np.any(data < 0):
        raise ValueError(f"{name} entries must be non-negative")
    return data


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
    s = sketch_matrix(n, cfg.k, seed)

    payload = np.empty((m, cfg.k * (cfg.t1 + cfg.t2)))
    split = cfg.k * cfg.t1
    for v in range(m):
        payload[v, :split] = (s @ xs[v]).ravel()
        payload[v, split:] = (s @ ys[v]).ravel()

    M = float(max(1.0, xs.max(initial=0.0), ys.max(initial=0.0)))
    vec, stats = sum_convergecast(codec, payload, tree, seed, lambda: gamma_for(
        cfg.eps0, cfg.delta, max(1, tree.depth), n, m, M=M))

    rx = vec[:split].reshape(cfg.k, cfg.t1)
    ry = vec[split:].reshape(cfg.k, cfg.t2)
    return rx.T @ ry, stats


def sketch_product(x_total: np.ndarray, y_total: np.ndarray, cfg: AmpConfig,
                   seed) -> np.ndarray:
    """(S X)^T (S Y) on pooled matrices with the same sketch draw."""
    x = np.asarray(x_total, dtype=np.float64)
    y = np.asarray(y_total, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"pooled shapes {x.shape} and {y.shape} do not align")
    s = sketch_matrix(x.shape[0], cfg.k, seed)
    return (s @ x).T @ (s @ y)

