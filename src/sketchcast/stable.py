"""p-stable laws, the |Z| median normalizer, and streamed sketch matrices.

The symmetric family D_p has characteristic function e^{-|t|^p}; draws
come from the Chambers-Mallows-Stuck transform of a (uniform, exponential)
pair.  Linear combinations collapse: sum_i Z_i x_i ~ ||x||_p Z, which is
what makes a k x n matrix of i.i.d. draws a norm sketch.

The skewed family is only supported at p=1 (maximally skewed rows for
entropy estimation).  Its standardization is pinned by the moment
generating function: the standard draw Z0 satisfies
ln E[exp(t Z0)] = (2/pi) t ln t for beta=-1, so F(1,-1,pi/2,0) satisfies
E[exp(t Z)] = exp(t ln t).  Probability-weighted sums then land exactly on
the entropy: sum_j p_j Z_j ~ F(1,-1,pi/2,H) with H = -sum p_j ln p_j.  To
make that identity hold with a plus sign, the location parameter of the
skewed family enters negated relative to the symmetric family, matching
the convention of the entropy-sketch literature.

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

theta_p, the median of |Z| for Z ~ D_p, is analytic at p in {1, 2} and a
pinned fixed-seed Monte-Carlo constant elsewhere; regenerate the table
with :func:`montecarlo_median_abs`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .streams import as_seed_sequence, generator

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

# Fixed seed and sample count behind every pinned Monte-Carlo constant.
_PIN_SEED = 914
_PIN_SAMPLES = 40_000_000

# theta_p at the pinned grid, from montecarlo_median_abs(p) at the seed and
# sample count above (relative standard error < 1e-3 across the grid).
# p=1 and p=2 are analytic: |Cauchy| has median 1; D_2 = N(0, 2) gives
# sqrt(2) * Phi^-1(3/4).
_MEDIAN_TABLE = {
    0.25: 2.537526,
    0.5: 1.284163,
    0.75: 1.065007,
    1.25: 0.978664,
    1.5: 0.968694,
    1.75: 0.961069,
}


@dataclass(frozen=True)
class StableParams:
    """Parameters (p, beta, gamma_scale, delta_loc) of a stable law."""

    p: float
    beta: float = 0.0
    gamma_scale: float = 1.0
    delta_loc: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.p <= 2.0:
            raise ValueError(f"stability index p must be in (0,2], got {self.p}")
        if not -1.0 <= self.beta <= 1.0:
            raise ValueError(f"skewness beta must be in [-1,1], got {self.beta}")
        if self.gamma_scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.gamma_scale}")
        if self.beta != 0.0 and self.p != 1.0:
            raise ValueError("beta != 0 is only supported at p = 1")


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
    ``law`` is F(p, beta, gamma, 0); ``cap`` clamps the raw draws |z|
    before eta-scaling.  Entries are float64 but integer-valued, so
    eta^-1 * S is exactly integral; the scaled sketch is eta * entries.
    """

    k: int
    n: int
    eta: float
    seed: np.random.SeedSequence = field(repr=False)
    law: StableParams
    cap: float | None = None

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
        law = self.law
        g = law.gamma_scale
        if law.beta == 0.0:
            kernels.cms_symmetric(law.p, z, w)
            z *= g
        else:
            kernels.cms_skewed_one(law.beta, z, w)
            # Skewed p=1 family: scaling adds the (2/pi) beta g ln g drift.
            z *= g
            z += (2.0 / np.pi) * law.beta * g * math.log(g)
        if self.cap is not None:
            np.clip(z, -self.cap, self.cap, out=z)
        z /= self.eta
        np.rint(z, out=z)

    def apply(self, data: np.ndarray, scaled: bool = False) -> np.ndarray:
        """``data @ S^T`` for (m, n) data, ``S @ x`` for a length-n vector x.

        S is the integer entries, or eta * entries with ``scaled``.  Each
        block product is written straight into its columns of the result
        (see BLOCK_ROW_MULTIPLE for when it equals the whole product bit
        for bit).
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim not in (1, 2) or data.shape[-1] != self.n:
            raise ValueError(f"expected length-{self.n} rows, got {data.shape}")
        out = np.empty(data.shape[:-1] + (self.k,))
        for r0, block in self.blocks():
            if scaled:
                block *= self.eta
            rows = slice(r0, r0 + block.shape[0])
            if data.ndim == 1:
                np.matmul(block, data, out=out[rows])
            else:
                np.matmul(data, block.T, out=out[:, rows])
        return out


def _sample_standard(p: float, beta: float, rng: np.random.Generator, size: int) -> np.ndarray:
    u = (rng.random(size) - 0.5) * np.pi
    w = rng.standard_exponential(size)
    if beta == 0.0:
        return kernels.cms_symmetric(p, u, w)
    return kernels.cms_skewed_one(beta, u, w)


def montecarlo_median_abs(p: float, samples: int = _PIN_SAMPLES, seed: int = _PIN_SEED) -> float:
    """Fixed-seed Monte-Carlo estimate of median |Z|, Z ~ D_p.

    This is the oracle behind the pinned ``_MEDIAN_TABLE`` constants; it is
    deterministic for fixed (samples, seed).
    """
    rng = generator(seed, 0)
    chunk = 5_000_000
    draws = []
    remaining = samples
    while remaining > 0:
        take = min(chunk, remaining)
        draws.append(np.abs(_sample_standard(p, 0.0, rng, take)))
        remaining -= take
    return float(np.median(np.concatenate(draws)))


@functools.lru_cache(maxsize=None)
def median_abs(p: float) -> float:
    """theta_p: median of |Z| for Z ~ D_p, relative precision ~1e-3."""
    if not 0.0 < p <= 2.0:
        raise ValueError(f"stability index p must be in (0,2], got {p}")
    if p == 1.0:
        return 1.0
    if p == 2.0:
        # D_2 is N(0, 2); median |Z| = sqrt(2) * Phi^-1(3/4)
        return math.sqrt(2.0) * 0.6744897501960817
    for pin, value in _MEDIAN_TABLE.items():
        if abs(p - pin) < 1e-12:
            return value
    return montecarlo_median_abs(p, samples=20_000_000)


def build_sketch(
    k: int,
    n: int,
    p: float,
    eta: float = DEFAULT_ETA,
    seed=0,
    beta: float = 0.0,
    gamma_scale: float = 1.0,
    entry_cap: float | None = None,
) -> StableSketch:
    """k x n sketch of i.i.d. F(p, beta, gamma, 0) draws at precision eta.

    Returns a :class:`StableSketch` handle; nothing is drawn until its
    blocks are used.  Cell (i, j) is made from the (i*n + j)-th uniform
    and the (i*n + j)-th exponential of one PCG64 stream seeded by
    ``seed``: the uniforms take raw positions [0, k*n) and the
    exponentials follow from position k*n.  ``entry_cap`` clamps the raw
    draws |z| before eta-scaling; protocols pass their tail-conditioning
    bound here.  Raises ``MemoryError`` on sketches larger than
    ``MAX_SKETCH_CELLS``, a cap kept although no sketch is materialized
    because the benchmark's smoke test asserts it.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k, n >= 1, got k={k} n={n}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0,1], got {eta}")
    if k * n > MAX_SKETCH_CELLS:
        raise MemoryError(f"sketch of {k}x{n} cells exceeds cap {MAX_SKETCH_CELLS}")
    law = StableParams(p=p, beta=beta, gamma_scale=gamma_scale)
    return StableSketch(k=k, n=n, eta=eta, seed=as_seed_sequence(seed), law=law,
                        cap=entry_cap)
