"""Dense reference sketches: the oracles the streamed sketches are checked against.

``dense_entries`` draws a stable sketch as one dense matrix: one
generator draws all k*n uniforms, then all k*n exponentials, and the
transform runs with fresh temporaries over the whole matrix.  The
streamed ``StableSketch`` must reproduce it bit for bit.
``gaussian_sketch`` and ``sketch_product`` are the dense amp sketch and
the pooled sketch product.  The stable samplers here are the test
suite's source of plain i.i.d. stable draws.
"""

from __future__ import annotations

import math

import numpy as np

from sketchcast.stable import StableParams
from sketchcast.streams import DOMAIN_SKETCH, as_seed_sequence, generator

# Median of the standard maximally skewed law F(1,-1,pi/2,0), a fixed-seed
# Monte-Carlo pin; used by location-recovery checks.
MEDIAN_SKEWED_STANDARD = -1.356524

_TINY = 1e-300


def cms_symmetric(p: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    w = np.maximum(w, _TINY)
    if p == 1.0:
        return np.tan(u)
    cu = np.maximum(np.cos(u), _TINY)
    return (np.sin(p * u) / cu ** (1.0 / p)) * (np.cos((1.0 - p) * u) / w) ** (
        (1.0 - p) / p
    )


def cms_skewed_one(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    w = np.maximum(w, _TINY)
    hp = 0.5 * np.pi
    a = hp + beta * u
    return (2.0 / np.pi) * (
        a * np.tan(u) - beta * np.log((hp * w * np.maximum(np.cos(u), _TINY)) / a)
    )


def sample_stable_array(params: StableParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vector of i.i.d. draws from F(p, beta, gamma, delta)."""
    u = (rng.random(size) - 0.5) * np.pi
    w = rng.standard_exponential(size)
    if params.beta == 0.0:
        z = cms_symmetric(params.p, u, w)
    else:
        z = cms_skewed_one(params.beta, u, w)
    g = params.gamma_scale
    if params.beta == 0.0:
        return g * z + params.delta_loc
    # Skewed p=1 family: scaling adds the (2/pi) beta g ln g drift and the
    # location enters negated.
    return g * z + (2.0 / np.pi) * params.beta * g * math.log(g) - params.delta_loc


def sample_stable(params: StableParams, rng: np.random.Generator) -> float:
    """One draw from F(p, beta, gamma, delta); symmetric about delta for beta=0."""
    return float(sample_stable_array(params, rng, 1)[0])


def dense_entries(k: int, n: int, p: float, eta: float, seed=0, beta: float = 0.0,
                  gamma_scale: float = 1.0, entry_cap: float | None = None) -> np.ndarray:
    """The k x n integer entries of build_sketch(...) drawn as one dense matrix."""
    rng = np.random.Generator(np.random.PCG64(as_seed_sequence(seed)))
    params = StableParams(p=p, beta=beta, gamma_scale=gamma_scale)
    z = sample_stable_array(params, rng, k * n).reshape(k, n)
    if entry_cap is not None:
        np.clip(z, -entry_cap, entry_cap, out=z)
    return np.rint(z / eta)


def streamed_entries(sk) -> np.ndarray:
    """The entries of a StableSketch, gathered from its row blocks."""
    return np.concatenate([block.copy() for _, block in sk.blocks()])


def gaussian_sketch(n: int, k: int, seed) -> np.ndarray:
    """The shared k x n amp sketch with variance-1/k entries, drawn whole."""
    return generator(seed, DOMAIN_SKETCH).standard_normal((k, n)) / math.sqrt(k)


def dense_amp_payload(xs: np.ndarray, ys: np.ndarray, k: int, seed) -> np.ndarray:
    """Per-player amp payload rows (S X_v).ravel(), (S Y_v).ravel() over the whole S."""
    s = gaussian_sketch(xs.shape[1], k, seed)
    return np.stack([np.concatenate([(s @ x).ravel(), (s @ y).ravel()])
                     for x, y in zip(xs, ys)])


def sketch_product(x_total: np.ndarray, y_total: np.ndarray, cfg, seed) -> np.ndarray:
    """(S X)^T (S Y) on pooled matrices with the same sketch draw."""
    x = np.asarray(x_total, dtype=np.float64)
    y = np.asarray(y_total, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"pooled shapes {x.shape} and {y.shape} do not align")
    s = gaussian_sketch(x.shape[0], cfg.k, seed)
    return (s @ x).T @ (s @ y)
