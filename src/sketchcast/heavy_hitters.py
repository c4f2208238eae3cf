"""Count-sketch point estimation and L2 heavy hitters over a convergecast.

Each of the ell rows hashes coordinates into w buckets with the pairwise
multiply-mod-prime hash (a x + b mod p) mod w, and flips signs by the low
bit of a 4-wise cubic mod p (Carter & Wegman 1979), over p = 2^31 - 1.
Coefficients and points lie below p, so each Horner step acc * x + c
stays below 2^63, exact in uint64.  The universe is n < 2^31 - 1, and mod
w leaves the buckets within w/p of uniform.  Every player builds its local
ell-by-w table, the flattened tables are aggregated through the rounding
convergecast, and the coordinator reports the lower median of the signed
bucket reads per coordinate.  The estimates satisfy
||x_tilde - X||_inf <= eps ||X_tail(1/eps^2)||_2 with high probability.
The heavy hitter threshold's F_2 is the lower median over rows of the
aggregated table's sums of squared buckets: the 4-wise independent signs
make each row an unbiased AMS estimate with variance about 2 F_2^2 / w
(Charikar, Chen & Farach-Colton 2002), so hh runs no second convergecast.

Table cells are integers (signed sums of counts), so exact-codec
aggregation is bit-identical to a count-sketch of the pooled vector.

``matrix_product`` shares these hash families and this tabler: amp's
sketch is a one-row ``CountSketchSpec`` of width k, drawn by
``CountSketchSpec.draw`` and tabled by ``bucket_sums``.  The tabler
reads data as ``Cells``, its nonzero entries; ``nonzero_cells`` takes
them from a dense array, which hh's ``local_table`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import CommStats, sum_convergecast
from .fp_high import as_count_matrix, lower_median
from .streams import DOMAIN_HASHES, generator
from .topology import SpanningTree

MERSENNE_31 = (1 << 31) - 1
_P31 = np.uint64(MERSENNE_31)


def _poly31(coeffs: tuple[tuple[int, ...], ...], n: int) -> np.ndarray:
    """(rows, n): row i is the polynomial coeffs[i] over GF(2^31 - 1) at 0..n-1.

    Coefficients run from the leading one down, evaluated by Horner's rule;
    they and the points lie below 2^31, so acc * x + c < 2^63 is exact.
    """
    if n >= MERSENNE_31:
        raise ValueError(f"hash points must stay below 2^31 - 1, got n={n}")
    c = np.array(coeffs, dtype=np.uint64)
    x = np.arange(n, dtype=np.uint64)
    acc = np.repeat(c[:, :1], n, axis=1)
    for j in range(1, c.shape[1]):
        acc *= x
        acc += c[:, j:j + 1]
        acc %= _P31
    return acc


@dataclass(frozen=True)
class CountSketchSpec:
    """Table shape plus the hash coefficients that reconstruct it.

    rows = ceil(2 log2 n) and width = ceil(6 / eps^2); h_coeffs holds
    (a, b) per row for the bucket hash (a x + b mod p) mod width, g_coeffs
    a degree-3 coefficient tuple per row, leading first, whose low output
    bit gives the Rademacher sign; p = 2^31 - 1 and every one lies below p.
    """

    n: int
    rows: int
    width: int
    h_coeffs: tuple[tuple[int, int], ...]
    g_coeffs: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if self.rows < 1 or self.width < 6:
            raise ValueError(f"need rows >= 1 and width >= 6, got {self.rows}x{self.width}")

    @staticmethod
    def shape(n: int, eps: float) -> tuple[int, int]:
        if n < 2:
            raise ValueError(f"need n >= 2 coordinates, got {n}")
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {eps}")
        return math.ceil(2 * math.log2(n)), math.ceil(6.0 / eps**2)

    @classmethod
    def build(cls, n: int, eps: float, seed) -> "CountSketchSpec":
        rows, width = cls.shape(n, eps)
        return cls.draw(n, rows, width, generator(seed, DOMAIN_HASHES))

    @classmethod
    def draw(cls, n: int, rows: int, width: int, rng: np.random.Generator) -> "CountSketchSpec":
        """A rows x width table over n coordinates, its hash coefficients drawn from ``rng``.

        Every row's bucket pair is drawn before any row's sign polynomial.
        """
        def coeff(lo: int) -> int:
            return int(rng.integers(lo, MERSENNE_31))

        h = tuple((coeff(1), coeff(0)) for _ in range(rows))
        g = tuple((coeff(1), coeff(0), coeff(0), coeff(0)) for _ in range(rows))
        return cls(n, rows, width, h, g)

    def bucket_of(self) -> np.ndarray:
        """(rows, n) bucket index per coordinate."""
        return (_poly31(self.h_coeffs, self.n) % np.uint64(self.width)).astype(np.int64)

    def sign_of(self) -> np.ndarray:
        """(rows, n) Rademacher sign per coordinate."""
        odd = (_poly31(self.g_coeffs, self.n) & np.uint64(1)).astype(np.float64)
        return 2.0 * odd - 1.0


class Cells(NamedTuple):
    """The nonzero entries of (players, n, t) data, as four arrays in row-major order.

    Entry i holds ``value[i]`` at (``player[i]``, ``coord[i]``,
    ``column[i]``), and the entries run in ascending (player, coord,
    column) order; ``shape`` is the (players, n, t) of the data.
    """

    shape: tuple[int, int, int]
    player: np.ndarray
    coord: np.ndarray
    column: np.ndarray
    value: np.ndarray


def nonzero_cells(data: np.ndarray) -> Cells:
    """The ``Cells`` of (players, n, t) array ``data``: its entries other than +-0."""
    players, n, t = data.shape
    flat = data.ravel()
    at = np.flatnonzero(flat != 0)  # (v * n + q) * t + c
    row, column = np.divmod(at, t)
    player, coord = np.divmod(row, n)
    return Cells((players, n, t), player, coord, column, flat[at])


def bucket_sums(cells: Cells, bucket: np.ndarray, sign: np.ndarray,
                width: int) -> np.ndarray:
    """(players, rows, width, t) count-sketch tables of ``cells``.

    Cell (v, i, b, c) sums sign[i, q] * data[v, q, c] over the q with
    bucket[i, q] == b.  Each sketch row is one ``bincount`` over
    (v * width + bucket) * t + c, fed the nonzero entries in row-major
    order, so each cell adds its terms in ascending q.  The skipped terms
    are +-0, and adding them never changes a sum that starts at +0 (a sum
    of nonzero terms rounds to +0, never -0), so every cell is
    bit-identical to the plain ascending sum over all its terms.  The work
    is O(rows * (nnz + players * width * t)).
    """
    players, _, t = cells.shape
    offset = cells.player * (width * t) + cells.column
    table = np.empty((players, bucket.shape[0], width, t))
    for i in range(bucket.shape[0]):
        sums = np.bincount(offset + bucket[i, cells.coord] * t,
                           weights=sign[i, cells.coord] * cells.value,
                           minlength=players * width * t)
        table[:, i] = sums.reshape(players, width, t)
    return table


def local_table(x: np.ndarray, spec: CountSketchSpec,
                bucket: np.ndarray | None = None,
                sign: np.ndarray | None = None) -> np.ndarray:
    """(rows, width) count-sketch table of one vector, or (players, rows, width) of a matrix.

    Tabled by ``bucket_sums``, so each player's table is bit-identical to
    tabling that player's vector alone.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.n:
        raise ValueError(f"expected length-{spec.n} vectors, got {x.shape}")
    bucket = spec.bucket_of() if bucket is None else bucket
    sign = spec.sign_of() if sign is None else sign
    table = bucket_sums(nonzero_cells(x.reshape(-1, spec.n, 1)), bucket, sign, spec.width)
    return table.reshape(x.shape[:-1] + (spec.rows, spec.width))


def estimates_from_table(table: np.ndarray, spec: CountSketchSpec,
                         bucket: np.ndarray | None = None,
                         sign: np.ndarray | None = None) -> np.ndarray:
    """Per-coordinate lower median of g_i(q) * A[i, h_i(q)]."""
    bucket = spec.bucket_of() if bucket is None else bucket
    sign = spec.sign_of() if sign is None else sign
    reads = sign * np.take_along_axis(table, bucket, axis=1)
    order = np.sort(reads, axis=0)
    return order[(spec.rows - 1) // 2]


def point_estimate_all(inputs, tree: SpanningTree, spec: CountSketchSpec, eps: float,
                       seed, codec: str = "rounding") -> tuple[np.ndarray, CommStats, float]:
    """Aggregate per-player tables up ``tree``; return (x_tilde, stats, f2).

    Only the players that hold data table their counts.  A vertex sends
    rows*width cells rounded on the grid gamma_for builds for failure mass
    1/4, or only the 1-bit flag if its subtree's tables are all zero.
    codec="exact" reproduces a pooled count-sketch bit-for-bit.
    """
    m = tree.m
    data = as_count_matrix(inputs, m)
    bucket, sign = spec.bucket_of(), spec.sign_of()

    held = np.flatnonzero(data.any(axis=1))
    rows = data if held.size == m else data[held]
    tables = local_table(rows, spec, bucket, sign).reshape(held.size, spec.rows * spec.width)

    M = float(max(1.0, data.max(initial=0.0)))
    vec, stats = sum_convergecast(codec, tables, tree, seed, eps=eps, delta=0.25,
                                  n=spec.n, M=M, ids=held)

    table = vec.reshape(spec.rows, spec.width)
    f2 = lower_median(np.sum(table**2, axis=1))
    return estimates_from_table(table, spec, bucket, sign), stats, f2


def heavy_hitters(x_tilde: np.ndarray, eps: float, f2_estimate: float) -> list[int]:
    """Indices with |estimate| >= (eps/2) sqrt(F2), largest magnitude first.

    The half-threshold absorbs point-estimation error so every truly
    eps-heavy coordinate survives; output is capped at ceil(8/eps^2)
    entries, twice the count the threshold admits for consistent inputs.
    """
    if f2_estimate < 0:
        raise ValueError("f2_estimate must be non-negative")
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    thresh = 0.5 * eps * math.sqrt(f2_estimate)
    idx = np.nonzero((np.abs(x_tilde) >= thresh) & (x_tilde != 0.0))[0]
    order = np.argsort(-np.abs(x_tilde[idx]), kind="stable")
    cap = math.ceil(8.0 / eps**2)
    return [int(i) for i in idx[order][:cap]]
