"""Count-sketch point estimation and L2 heavy hitters over a convergecast.

Each of the ell rows hashes coordinates into w buckets with a pairwise
multiply-shift hash and flips signs with a 4-wise polynomial hash, both
over the Mersenne field 2^61 - 1.  Every player builds its local
ell-by-w table, the flattened tables are aggregated through the rounding
convergecast, and the coordinator reports the lower median of the signed
bucket reads per coordinate.  The estimates satisfy
||x_tilde - X||_inf <= eps ||X_tail(1/eps^2)||_2 with high probability.

Table cells are integers (signed sums of counts), so exact-codec
aggregation is bit-identical to a count-sketch of the pooled vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import CommStats, sum_convergecast
from .fp_high import as_count_matrix
from .rounding import gamma_for
from .streams import DOMAIN_HASHES, generator
from .topology import Topology, center, spanning_tree

MERSENNE_61 = (1 << 61) - 1


_LOW32 = np.uint64(0xFFFFFFFF)
_P61 = np.uint64(MERSENNE_61)


def _fold61(v: np.ndarray) -> np.ndarray:
    """Reduce uint64 values mod 2^61 - 1 into [0, 2^61 - 1), in place."""
    hi = v >> np.uint64(61)
    v &= _P61
    v += hi
    v -= _P61 * (v >= _P61)
    return v


def _mulmod61(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a * x mod 2^61 - 1 for a < 2^61 - 1 and 0 <= x < 2^32, exact in uint64.

    a is split into 32-bit limbs, a = a1 2^32 + a0, so both partial
    products fit in 64 bits.  With 2^61 = 1 (mod 2^61 - 1),
    a1 x 2^32 = (a1 x >> 29) + ((a1 x mod 2^29) << 32), and every term of
    the sum stays below 2^61 (Thorup, "High speed hashing for integers
    and strings").
    """
    low = _fold61((a & _LOW32) * x)
    high = (a >> np.uint64(32)) * x
    low += high >> np.uint64(29)
    low += (high & np.uint64((1 << 29) - 1)) << np.uint64(32)
    return _fold61(low)


def _poly61(coeffs: tuple[tuple[int, ...], ...], n: int) -> np.ndarray:
    """(rows, n): row i is the polynomial coeffs[i] over GF(2^61 - 1) at 0..n-1.

    Coefficients run from the leading one down, evaluated by Horner's rule.
    """
    if n > 1 << 32:
        raise ValueError(f"hash points must stay below 2^32, got n={n}")
    c = np.array(coeffs, dtype=np.uint64)
    x = np.arange(n, dtype=np.uint64)
    acc = np.zeros((c.shape[0], n), dtype=np.uint64)
    for j in range(c.shape[1]):
        acc = _mulmod61(acc, x)
        acc += c[:, j:j + 1]
        _fold61(acc)
    return acc


@dataclass(frozen=True)
class CountSketchSpec:
    """Table shape plus the hash coefficients that reconstruct it.

    rows = ceil(c_ell * log2 n) and width = ceil(6 / eps^2); h_coeffs
    holds (a, b) per row for the pairwise bucket hash, g_coeffs a
    degree-3 coefficient tuple per row whose low output bit gives the
    Rademacher sign.
    """

    n: int
    rows: int
    width: int
    h_coeffs: tuple[tuple[int, int], ...]
    g_coeffs: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if self.rows < 1 or self.width < 6:
            raise ValueError(f"need rows >= 1 and width >= 6, got {self.rows}x{self.width}")

    @classmethod
    def build(cls, n: int, eps: float, seed, c_ell: float = 2.0) -> "CountSketchSpec":
        if n < 2:
            raise ValueError(f"need n >= 2 coordinates, got {n}")
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {eps}")
        rows = max(1, math.ceil(c_ell * math.log2(n)))
        width = math.ceil(6.0 / eps**2)
        rng = generator(seed, DOMAIN_HASHES)

        def draw(lo: int) -> int:
            return int(rng.integers(lo, MERSENNE_61))

        h = tuple((draw(1), draw(0)) for _ in range(rows))
        g = tuple((draw(1), draw(0), draw(0), draw(0)) for _ in range(rows))
        return cls(n, rows, width, h, g)

    def bucket_of(self) -> np.ndarray:
        """(rows, n) bucket index per coordinate."""
        return (_poly61(self.h_coeffs, self.n) % np.uint64(self.width)).astype(np.int64)

    def sign_of(self) -> np.ndarray:
        """(rows, n) Rademacher sign per coordinate."""
        odd = (_poly61(self.g_coeffs, self.n) & np.uint64(1)).astype(np.float64)
        return 2.0 * odd - 1.0


def local_table(x: np.ndarray, spec: CountSketchSpec,
                bucket: np.ndarray | None = None,
                sign: np.ndarray | None = None) -> np.ndarray:
    """(rows, width) count-sketch table of one vector, or (players, rows, width) of a matrix.

    A matrix of players is tabled with one ``bincount`` per sketch row over
    player * width + bucket.  Each cell still sums its coordinates in
    ascending order, so every player's table is bit-identical to tabling
    that player alone.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.n:
        raise ValueError(f"expected length-{spec.n} vectors, got {x.shape}")
    bucket = spec.bucket_of() if bucket is None else bucket
    sign = spec.sign_of() if sign is None else sign
    players = x.reshape(-1, spec.n)
    count = players.shape[0]
    offset = np.arange(count)[:, None] * spec.width
    table = np.empty((count, spec.rows, spec.width))
    for i in range(spec.rows):
        sums = np.bincount((offset + bucket[i]).ravel(), weights=(sign[i] * players).ravel(),
                           minlength=count * spec.width)
        table[:, i] = sums.reshape(count, spec.width)
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


def point_estimate_all(inputs, topo: Topology, spec: CountSketchSpec, eps: float,
                       seed, delta: float = 0.25, codec: str = "rounding",
                       C_exponent: float = 1.0) -> tuple[np.ndarray, CommStats]:
    """Aggregate per-player tables down the tree; return (x_tilde, stats).

    Every player ships exactly rows*width rounded cells.  codec="exact"
    reproduces a pooled-data count-sketch bit-for-bit (integer cells).
    """
    m = topo.m
    data = as_count_matrix(inputs, m)
    if data.shape[1] != spec.n:
        raise ValueError(f"inputs have {data.shape[1]} coordinates, spec has {spec.n}")
    tree = spanning_tree(topo, center(topo))
    bucket, sign = spec.bucket_of(), spec.sign_of()

    payload = local_table(data, spec, bucket, sign).reshape(m, -1)

    M = float(max(1.0, data.max(initial=0.0)))
    vec, stats = sum_convergecast(codec, payload, tree, seed, lambda: gamma_for(
        eps, delta, max(1, tree.depth), spec.n, m, C_exponent=C_exponent, M=M))

    table = vec.reshape(spec.rows, spec.width)
    return estimates_from_table(table, spec, bucket, sign), stats


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
    idx = np.nonzero(np.abs(x_tilde) >= thresh)[0]
    if thresh == 0.0:
        idx = np.nonzero(x_tilde != 0.0)[0]
    order = np.argsort(-np.abs(x_tilde[idx]), kind="stable")
    cap = math.ceil(8.0 / eps**2)
    return [int(i) for i in idx[order][:cap]]
