"""p-stable sampling, the |Z| median normalizer, and sketch matrices.

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

theta_p, the median of |Z| for Z ~ D_p, is analytic at p in {1, 2} and a
pinned fixed-seed Monte-Carlo constant elsewhere; regenerate the table
with :func:`montecarlo_median_abs`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .streams import as_seed_sequence, generator

# Default precision of sketch entries: entries are stored as the integers
# round(sample / eta).
DEFAULT_ETA = 2.0**-30

# Refuse to materialize sketches above this many cells.
MAX_SKETCH_CELLS = 50_000_000

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

# Median of the standard maximally skewed law F(1,-1,pi/2,0), same pinning
# scheme; used by location-recovery checks.
MEDIAN_SKEWED_STANDARD = -1.356524


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


@dataclass(frozen=True)
class SketchMatrix:
    """Integer-precision stable sketch: entries equal round(sample / eta).

    ``build_sketch`` regenerates it bit-identically from the same
    arguments.  ``entries`` is float64 but integer-valued, so eta^-1 * S
    is exactly integral; ``scaled()`` returns eta * entries.
    """

    k: int
    n: int
    eta: float
    entries: np.ndarray = field(repr=False)

    def scaled(self) -> np.ndarray:
        return self.entries * self.eta


def _sample_standard(p: float, beta: float, rng: np.random.Generator, size: int) -> np.ndarray:
    u = (rng.random(size) - 0.5) * np.pi
    w = rng.standard_exponential(size)
    if beta == 0.0:
        return kernels.cms_symmetric(p, u, w)
    return kernels.cms_skewed_one(beta, u, w)


def sample_stable_array(params: StableParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vector of i.i.d. draws from F(p, beta, gamma, delta)."""
    z = _sample_standard(params.p, params.beta, rng, size)
    g = params.gamma_scale
    if params.beta == 0.0:
        return g * z + params.delta_loc
    # Skewed p=1 family: scaling adds the (2/pi) beta g ln g drift and the
    # location enters negated (see module docstring).
    return g * z + (2.0 / np.pi) * params.beta * g * math.log(g) - params.delta_loc


def sample_stable(params: StableParams, rng: np.random.Generator) -> float:
    """One draw from F(p, beta, gamma, delta); symmetric about delta for beta=0."""
    return float(sample_stable_array(params, rng, 1)[0])


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
) -> SketchMatrix:
    """k x n sketch of i.i.d. F(p, beta, gamma, 0) draws at precision eta.

    ``entry_cap`` clamps the raw draws |z| before eta-scaling; protocols
    pass their tail-conditioning bound here.  Raises on sketches larger
    than ``MAX_SKETCH_CELLS``.
    """
    if k < 1 or n < 1:
        raise ValueError(f"need k, n >= 1, got k={k} n={n}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0,1], got {eta}")
    if k * n > MAX_SKETCH_CELLS:
        raise MemoryError(f"sketch of {k}x{n} cells exceeds cap {MAX_SKETCH_CELLS}")
    seq = as_seed_sequence(seed)
    rng = np.random.Generator(np.random.PCG64(seq))
    params = StableParams(p=p, beta=beta, gamma_scale=gamma_scale)
    z = sample_stable_array(params, rng, k * n).reshape(k, n)
    if entry_cap is not None:
        np.clip(z, -entry_cap, entry_cap, out=z)
    entries = np.rint(z / eta)
    return SketchMatrix(k=k, n=n, eta=eta, entries=entries)
