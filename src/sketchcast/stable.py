"""The two stable sketch laws, the |Z| median normalizer, and streamed sketches.

A sketch row is drawn from one of two laws, both by the Chambers-Mallows-
Stuck transform (1976) of a (uniform, exponential) pair:

- the symmetric p-stable law D_p, p in (0, 2], with characteristic
  function e^{-|t|^p}, evaluated from the two tangents tan U and
  tan((1-p) U) with no sin or cos (the identity is in ``kernels``).
  Linear combinations collapse: sum_i Z_i x_i ~ ||x||_p Z, which is what
  makes a k x n matrix of i.i.d. draws a norm sketch for F_p;
- the maximally skewed 1-stable law F(1, -1, pi/2, 0), which serves
  entropy.  The standard skewed draw Z0 satisfies
  ln E[exp(t Z0)] = (2/pi) t ln t, and scaling it by pi/2 adds the drift
  (2/pi) beta g ln g at beta = -1, g = pi/2, so that
  E[exp(t Z)] = exp(t ln t).  Probability-weighted sums then land exactly
  on the entropy: sum_j p_j Z_j ~ F(1,-1,pi/2,H) with H = -sum p_j ln p_j.
  To make that identity hold with a plus sign, the location of the skewed
  law enters negated relative to the symmetric one, matching the
  convention of the entropy-sketch literature.

Sketches are streamed.  A protocol only needs ``data @ S^T`` (or
``S @ x``), so :class:`StableSketch` generates S one block of rows at a
time and contracts each block before drawing the next; only a sketch that
fits in one block is ever held whole.  The stream
contract fixes every cell: one PCG64 stream seeded from the sketch's
``SeedSequence`` supplies the uniforms at raw positions [0, k*n) and the
exponentials from position k*n on, and cells are numbered row-major, so
cell (i, j) takes the (i*n + j)-th uniform and the (i*n + j)-th
exponential.  Two cursors on that stream, the second advanced by k*n,
reproduce the draws of one generator that draws all k*n uniforms first.
``MAX_SKETCH_CELLS`` still caps k*n: streaming would let it go, but the
benchmark's smoke test asserts the ``MemoryError`` it raises, so lifting
it waits on a change to the benchmark.

theta_p, the median of |Z| for Z ~ D_p, is analytic at p in {1, 2}, and
elsewhere the root of F(x) = 3/4 found by bisection, with F the CDF of
D_p in Zolotarev's integral form (Nolan 1997, "Numerical calculation of
stable densities and distribution functions", Theorem 1 at beta = 0):

    F(x) = c + (s / pi) * integral_0^{pi/2} exp(-x^a V(t)) dt,  x > 0,
    V(t) = (cos t / sin pt)^a cos((p - 1) t) / cos t,  a = p / (p - 1),

with (c, s) = (1/2, +1) for p < 1 and (1, -1) for p > 1.  The integral
is a fixed composite Gauss-Legendre rule, 64 nodes on each of 32 equal
pieces of [0, pi/2], the first piece split into 8 geometric pieces down
to 1e-12 of its width because the integrand goes like t^{p/(1-p)} near
0.  theta_p is then good to 1e-11 relative for p in [0.05, 2) (against
the rule on 800 pieces) and matches scipy's ``levy_stable`` quantile to
1e-10 on [0.2, 1.9].
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .streams import as_seed_sequence

# Default precision of sketch entries: entries are stored as the integers
# round(sample / eta).
DEFAULT_ETA = 2.0**-30

# Refuse sketches above this many cells.
MAX_SKETCH_CELLS = 50_000_000

# A sketch is generated in row blocks of about BLOCK_CELLS cells, and each
# block's elementwise transform runs over CHUNK_CELLS cells at a time, which
# keeps its operands in cache.  The rows of a block are a multiple of
# BLOCK_ROW_MULTIPLE, so OpenBLAS tiles a block product as it tiles the same
# rows of the whole product, and on the benchmark's shapes every block
# product equals its columns of the whole product bit for bit (blocks of 1,
# 2 or 4 rows move the last bits of some sums; multiples of 8 do not).
# OpenBLAS routes some small products through other kernels, so with only
# two or three data rows a block product can still differ in the last bits.
BLOCK_CELLS = 1 << 18
BLOCK_ROW_MULTIPLE = 32
CHUNK_CELLS = 1 << 13

# F(1, -1, pi/2, 0) from the standard skewed draw: scale by pi/2, then add
# the drift (2/pi) beta g ln g at beta = -1, g = pi/2.
SKEWED_SCALE = math.pi / 2.0
SKEWED_DRIFT = (2.0 / np.pi) * -1.0 * SKEWED_SCALE * math.log(SKEWED_SCALE)


def block_rows(k: int, width: int) -> int:
    """Rows per block for a k-row operand whose rows are ``width`` cells wide."""
    rows = BLOCK_CELLS // width // BLOCK_ROW_MULTIPLE * BLOCK_ROW_MULTIPLE
    return min(k, max(BLOCK_ROW_MULTIPLE, rows))


@dataclass(frozen=True)
class StableSketch:
    """Integer-precision stable sketch: entries equal round(sample / eta).

    A handle, not a matrix: ``blocks()`` regenerates the entries row block
    by row block from ``seed`` (see the module docstring for the stream
    contract), and ``apply`` contracts data with them block by block.
    The law is D_p, or F(1, -1, pi/2, 0) when ``skewed``.  Entries are
    float64 but integer-valued, so eta^-1 * S is exactly integral; the
    scaled sketch is eta * entries.
    """

    k: int
    n: int
    eta: float
    seed: np.random.SeedSequence = field(repr=False)
    p: float
    skewed: bool = False

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield (first row, entries of the block's rows) down the sketch.

        The yielded array is reused for the next block.
        """
        total = self.k * self.n
        uniforms = np.random.Generator(np.random.PCG64(self.seed))
        bits = np.random.PCG64(self.seed)
        bits.advance(total)
        exponentials = np.random.Generator(bits)
        rows = block_rows(self.k, self.n)
        buf = np.empty(rows * self.n)
        w = np.empty(min(CHUNK_CELLS, buf.size))
        for r0 in range(0, self.k, rows):
            block = buf[:min(rows, self.k - r0) * self.n]
            for c0 in range(0, block.size, CHUNK_CELLS):
                z = block[c0:c0 + CHUNK_CELLS]
                uniforms.random(out=z)
                exponentials.standard_exponential(out=w[:z.size])
                self._entries(z, w[:z.size])
            yield r0, block.reshape(-1, self.n)

    def _entries(self, z: np.ndarray, w: np.ndarray) -> None:
        """Turn uniforms ``z`` and exponentials ``w`` into entries, in place in ``z``."""
        z -= 0.5
        z *= np.pi
        if self.skewed:
            kernels.cms_skewed_one(-1.0, z, w)
            z *= SKEWED_SCALE
            z += SKEWED_DRIFT
        else:
            kernels.cms_symmetric(self.p, z, w)
        z /= self.eta
        np.rint(z, out=z)

    def apply(self, data: np.ndarray) -> np.ndarray:
        """``data @ S^T`` for (m, n) data, ``S @ x`` for a length-n vector x.

        S is the integer entries; eta is a power of two, so ``eta * apply``
        is the product with the scaled sketch bit for bit.  Each block
        product is written straight into its columns of the result (see
        BLOCK_ROW_MULTIPLE for when it equals the whole product bit for
        bit).
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim not in (1, 2) or data.shape[-1] != self.n:
            raise ValueError(f"expected length-{self.n} rows, got {data.shape}")
        out = np.empty(data.shape[:-1] + (self.k,))
        for r0, block in self.blocks():
            rows = slice(r0, r0 + block.shape[0])
            if data.ndim == 1:
                np.matmul(block, data, out=out[rows])
            else:
                np.matmul(data, block.T, out=out[:, rows])
        return out


def _quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Nodes on (0, pi/2) and weights / pi of the rule in the module docstring."""
    x, w = np.polynomial.legendre.leggauss(64)
    first = np.geomspace(1e-12, 1.0, 8, endpoint=False)
    edges = np.pi / 64 * np.concatenate([[0.0], first, np.arange(1, 33)])
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel() / np.pi


@functools.lru_cache(maxsize=None)
def median_abs(p: float) -> float:
    """theta_p: median of |Z| for Z ~ D_p (see the module docstring)."""
    if not 0.0 < p <= 2.0:
        raise ValueError(f"stability index p must be in (0,2], got {p}")
    if p == 1.0:
        return 1.0
    if p == 2.0:
        # D_2 is N(0, 2); median |Z| = sqrt(2) * Phi^-1(3/4)
        return math.sqrt(2.0) * 0.6744897501960817
    t, w = _quadrature()
    a = p / (p - 1.0)
    log_v = a * np.log(np.cos(t) / np.sin(p * t)) + np.log(np.cos((p - 1.0) * t) / np.cos(t))
    c, s = (0.5, 1.0) if p < 1.0 else (1.0, -1.0)

    def below(log_x: float) -> bool:
        """Whether F(e^log_x) < 3/4, i.e. e^log_x < theta_p."""
        with np.errstate(over="ignore"):
            return c + s * float(w @ np.exp(-np.exp(a * log_x + log_v))) < 0.75

    lo, hi = -1.0, 1.0
    while not below(lo):
        lo *= 2.0
    while below(hi):
        hi *= 2.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return math.exp(0.5 * (lo + hi))


def build_sketch(
    k: int,
    n: int,
    p: float,
    eta: float = DEFAULT_ETA,
    seed=0,
    skewed: bool = False,
) -> StableSketch:
    """k x n sketch of i.i.d. stable draws at precision eta.

    The draws follow the symmetric p-stable law D_p, p in (0, 2], or, with
    ``skewed`` (only at p = 1), the maximally skewed F(1, -1, pi/2, 0)
    that entropy uses.

    Returns a :class:`StableSketch` handle; nothing is drawn until its
    blocks are used.  Cell (i, j) is made from the (i*n + j)-th uniform
    and the (i*n + j)-th exponential of one PCG64 stream seeded by
    ``seed``: the uniforms take raw positions [0, k*n) and the
    exponentials follow from position k*n.  Draws are not clamped: at
    small p a clamp of (M n m)^3 moves the row median.  Raises
    ``MemoryError`` on sketches larger than ``MAX_SKETCH_CELLS``, a cap
    kept although no sketch is materialized because the benchmark's smoke
    test asserts it.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k, n >= 1, got k={k} n={n}")
    if not 0.0 < p <= 2.0:
        raise ValueError(f"stability index p must be in (0,2], got {p}")
    if skewed and p != 1.0:
        raise ValueError(f"the skewed law is only drawn at p = 1, got p={p}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0,1], got {eta}")
    if k * n > MAX_SKETCH_CELLS:
        raise MemoryError(f"sketch of {k}x{n} cells exceeds cap {MAX_SKETCH_CELLS}")
    return StableSketch(k=k, n=n, eta=eta, seed=as_seed_sequence(seed), p=p, skewed=skewed)
