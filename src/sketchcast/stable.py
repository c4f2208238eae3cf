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

Sketches are streamed and column-addressable, as a streaming algorithm
holds them: it never stores S, and on an update (i, delta) it regenerates
column i from the seed and adds delta * S[:, i] (Indyk, "Stable
distributions, pseudorandom generators, embeddings, and data stream
computation", J. ACM 2006).  The stream contract fixes every cell on its
own.  Cells are numbered column-major, cell (i, j) being c = j*k + i, and
one PCG64 stream seeded from the sketch's ``SeedSequence`` supplies cell
c's uniform U at raw position c and the double V behind its exponential
at raw position k*n + c, where W = -log1p(-V) is drawn by the inverse
CDF.  ``Generator.random`` turns one raw output into each double, so both
positions are affine in c and a cursor reaches any column by
``PCG64.advance``.  ``columns`` keeps this contract: it returns the
cells of any column set, each at its own stream positions.

A protocol only needs ``data @ S^T`` (or ``S @ x``), and ``apply``
returns a product with that law, not with one fixed S:

- it draws only the columns in which some row of the data is nonzero: a
  zero column adds nothing to the product, and the cursors skip its
  cells without drawing them;
- held columns whose data are identical, one repeated column of an
  (m, n) matrix or one repeated value of a vector, form a group, and a
  group of g draws only its first column, scaled before the eta rounding
  to the law of the group's sum.  The sum of g i.i.d. D_p cells has the
  law of g^{1/p} Z (Indyk 2006), and that of g i.i.d. skewed cells, for
  which E[exp(t Z)] = exp(t ln t), the law of g Z - g ln g (Samorodnitsky
  & Taqqu, "Stable non-Gaussian random processes", 1994, Propositions
  1.2.1 and 1.2.3 at alpha = 1).  A group's data column times its scaled
  cells thus has the law of the group's share of the product.  A group of
  one is scaled by exactly 1, so data with no repeated held column get
  the product with the sketch of ``columns``.

Count data repeat columns often, so this draws one column per distinct
count pattern rather than one per held coordinate.  Within one ``apply``
call every row of the data meets the same cells, so the rows' products
sum to the pooled row's product with those cells, as a tree sum needs;
calls on different data group their columns differently, so their cells
differ.  The drawn
columns come in blocks and each block is contracted before the next is
drawn, so only a sketch that fits in one block is ever held whole.  The
result is the sum of the block products in block order: it is fixed by
(data, seed) and the column blocking, but it is not the one GEMM over all
columns bit for bit, since a block boundary splits the sum over columns.
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

# The held columns of a sketch are drawn in blocks of about BLOCK_CELLS
# cells (BLOCK_CELLS // k columns, at least one), and each block's
# elementwise transform runs over chunks of CHUNK_CELLS // k whole columns
# (at least one), so a chunk can scale its columns before the rounding:
# each of its four chunk-sized operands is at most 256 KB, so together they
# stay in a 2 MB per-core L2, and chunks that large spend little on
# per-call numpy overhead.  Cells are elementwise and each takes its draws
# from its own stream positions, so the chunk size moves no entry.
BLOCK_CELLS = 1 << 18
CHUNK_CELLS = 1 << 15

# F(1, -1, pi/2, 0) from the standard skewed draw: scale by pi/2, then add
# the drift (2/pi) beta g ln g at beta = -1, g = pi/2.
SKEWED_SCALE = math.pi / 2.0
SKEWED_DRIFT = (2.0 / np.pi) * -1.0 * SKEWED_SCALE * math.log(SKEWED_SCALE)


class _HeldCells:
    """A cursor on the sketch's stream that reads the cells of held columns only.

    Cell c is raw position ``offset + c``.  ``starts`` and ``ends`` bound
    the runs [a, b) of consecutive held columns, ascending, so a run is
    cells [a*k, b*k).  ``draw(out)`` fills ``out`` with the doubles of the
    next held cells, one ``random`` call per run it touches, and crosses
    the cells of empty columns between runs with ``PCG64.advance``.
    Positions stay Python ints: ``advance`` refuses numpy int64.
    """

    def __init__(self, seed, offset: int, k: int, starts: list, ends: list):
        self._bits = np.random.PCG64(seed)
        self._bits.advance(offset)
        self._gen = np.random.Generator(self._bits)
        self._k = k
        self._runs = zip(starts, ends)
        self._cell = 0  # the cell at the stream's position
        self._end = 0  # the end of the current run

    def draw(self, out: np.ndarray) -> None:
        done = 0
        while done < out.size:
            if self._cell == self._end:
                a, b = next(self._runs)
                if a * self._k > self._cell:
                    self._bits.advance(a * self._k - self._cell)
                self._cell, self._end = a * self._k, b * self._k
            take = min(out.size - done, self._end - self._cell)
            self._gen.random(out=out[done:done + take])
            done += take
            self._cell += take


@dataclass(frozen=True)
class StableSketch:
    """Integer-precision stable sketch: entries equal round(sample / eta).

    A handle, not a matrix: ``columns`` regenerates the entries of any
    set of columns from ``seed``, each at its own stream positions (see
    the module docstring for the stream contract).  ``apply`` contracts
    data with the columns it holds, drawing one scaled column per group
    of identical data columns, so its product is exact in law rather than
    the product with the entries of ``columns``.  The law is D_p, or
    F(1, -1, pi/2, 0) when ``skewed``.  Entries are float64 but
    integer-valued, so eta^-1 * S is exactly integral; the scaled sketch
    is eta * entries.
    """

    k: int
    n: int
    eta: float
    seed: np.random.SeedSequence = field(repr=False)
    p: float
    skewed: bool = False

    def columns(self, cols) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (column ids, their entries as a (ids, k) array) over ``cols``, block by block.

        ``cols`` is a strictly increasing sequence of column ids in
        [0, n); a block holds ``BLOCK_CELLS // k`` of them, at least one.
        Row r of a block's array is column ``ids[r]`` of the sketch, drawn
        at its own stream positions whatever the other ids.  The array is
        reused for the next block.
        """
        cols = np.asarray(cols, dtype=np.int64)
        if cols.ndim != 1 or (cols.size and (cols[0] < 0 or cols[-1] >= self.n)) \
                or np.any(np.diff(cols) <= 0):
            raise ValueError(f"columns must be strictly increasing ids in [0, {self.n})")
        if cols.size:
            yield from self._blocks(cols)

    def _blocks(self, cols: np.ndarray, sizes: np.ndarray | None = None):
        """``columns`` over valid ``cols``; with ``sizes``, column r stands for sizes[r] columns.

        Such a column is drawn once, at its own stream positions, and
        scaled before the eta rounding to the law of the sum of sizes[r]
        i.i.d. cells (see ``apply``).
        """
        k = int(self.k)
        cut = np.flatnonzero(np.diff(cols) != 1) + 1
        starts = cols[np.r_[0, cut]].tolist()
        ends = (cols[np.r_[cut - 1, cols.size - 1]] + 1).tolist()
        uniforms = _HeldCells(self.seed, 0, k, starts, ends)
        exponentials = _HeldCells(self.seed, k * int(self.n), k, starts, ends)
        mult = shift = None
        if sizes is not None:
            g = sizes.astype(np.float64)
            mult = g if self.skewed else g ** (1.0 / self.p)
            shift = g * np.log(g) if self.skewed else None
        width = max(1, BLOCK_CELLS // k)
        step = max(1, CHUNK_CELLS // k)  # whole columns per chunk
        buf = np.empty(min(width, cols.size) * k)
        w = np.empty(min(step * k, buf.size))
        for b0 in range(0, cols.size, width):
            ids = cols[b0:b0 + width]
            block = buf[:ids.size * k]
            uniforms.draw(block)
            for c0 in range(0, ids.size, step):
                z = block[c0 * k:(c0 + step) * k]
                v = w[:z.size]
                exponentials.draw(v)
                # W = -log1p(-V), the inverse CDF of Exp(1)
                np.negative(v, out=v)
                np.log1p(v, out=v)
                np.negative(v, out=v)
                self._transform(z, v)
                if mult is not None:
                    cells = z.reshape(-1, k)
                    group = slice(b0 + c0, b0 + c0 + cells.shape[0])
                    cells *= mult[group, None]
                    if shift is not None:
                        cells -= shift[group, None]
                z /= self.eta
                np.rint(z, out=z)
            yield ids, block.reshape(ids.size, k)

    def _transform(self, z: np.ndarray, w: np.ndarray) -> None:
        """Turn uniforms ``z`` and exponentials ``w`` into unrounded draws, in place in ``z``."""
        z -= 0.5
        z *= np.pi
        if self.skewed:
            kernels.cms_skewed_one(-1.0, z, w)
            z *= SKEWED_SCALE
            z += SKEWED_DRIFT
        else:
            kernels.cms_symmetric(self.p, z, w)

    def apply(self, data: np.ndarray) -> np.ndarray:
        """``data @ S^T`` for (m, n) data, ``S @ x`` for a length-n vector x, exact in law.

        S is the integer entries; eta is a power of two, so ``eta * apply``
        is the product with the scaled sketch bit for bit.  Only the
        columns in which some row of the data is nonzero are drawn, and
        all-zero data returns zeros without drawing anything.  Held
        columns whose data are identical, a repeated column of a matrix
        or a repeated value of a vector, form one group, and a group of g
        draws only its first column's cells, scaled before the eta
        rounding to the law of the sum of g i.i.d. cells (the module
        docstring gives both identities).  A group of one is scaled by
        exactly 1, so data with no repeated held column get the product
        with the sketch of ``columns``.  The result is
        ``sum_b data[:, J_b] @ T[:, J_b]^T`` over the column blocks J_b of
        the groups' first columns, T their scaled entries, added in block
        order; the first block's product is written straight into the
        result.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.ndim not in (1, 2) or data.shape[-1] != self.n:
            raise ValueError(f"expected length-{self.n} rows, got {data.shape}")
        held = np.flatnonzero(data.any(axis=0) if data.ndim == 2 else data)
        if not held.size:
            return np.zeros(data.shape[:-1] + (self.k,))
        firsts, sizes = _groups(data, held)
        out = np.empty(data.shape[:-1] + (self.k,))
        every = firsts.size == self.n  # then a block's columns are a slice
        for b, (ids, block) in enumerate(self._blocks(firsts, sizes)):
            part = data[..., ids[0]:ids[-1] + 1] if every else data[..., ids]
            if b == 0:
                np.matmul(part, block, out=out)
            else:
                out += part @ block
        return out


@functools.lru_cache(maxsize=None)
def _key_weights(m: int) -> np.ndarray:
    """Fixed random integer weights in [1, 2^26) that key a column of an m-row matrix as w @ column."""
    w = np.random.Generator(np.random.PCG64(0x5EED)).integers(1, 1 << 26, m).astype(np.float64)
    w.flags.writeable = False  # shared by every caller through the cache
    return w


def _groups(data: np.ndarray, held: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(first column of each group of identical held data columns, group sizes), by first column.

    A vector's column is keyed by its value, a matrix's by w @ column.  On
    integer counts whose keys stay below 2^53 every partial sum of w @
    column is an exact integer, so no summation order moves a key and
    equal columns get equal keys; on other data a rounded key can at
    worst leave equal columns unmerged.  When every key is distinct no
    column is merged: the sizes are None and no copy of the held columns
    is made.  Otherwise the held columns are grouped by their bytes, so
    columns that differ in any bit are never merged.
    """
    keys = data[held] if data.ndim == 1 else (_key_weights(data.shape[0]) @ data)[held]
    if np.unique(keys).size == held.size:
        return held, None
    cols = np.ascontiguousarray(data.T[held]).reshape(held.size, -1)
    rows = cols.view(np.dtype((np.void, cols.strides[0])))[:, 0]
    _, first, sizes = np.unique(rows, return_index=True, return_counts=True)
    if sizes.max() == 1:
        return held, None
    order = np.argsort(first)
    return held[first[order]], sizes[order]


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
    columns are used.  Cells are numbered column-major: cell (i, j) is
    c = j*k + i, and takes its uniform from raw position c and its
    exponential, -log1p(-V), from the double V at raw position k*n + c of
    one PCG64 stream seeded by ``seed``.  Any set of columns is thus drawn
    on its own by ``columns``, and a column the data never touches costs
    nothing.  ``apply`` draws one column per group of identical data
    columns, scaled to the law of the group's sum: g^{1/p} Z for D_p,
    g Z - g ln g for the skewed law.  A product is summed over column
    blocks, so its last bits are fixed by the blocking, not by one GEMM
    over all columns.  Draws are not
    clamped: at small p a clamp of (M n m)^3 moves the row median.  Raises
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
