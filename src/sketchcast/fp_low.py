"""F_p estimation for p in (0, 1] with p-stable sketches sent as rounded values.

Each player sketches its counts with a shared p-stable matrix at
precision eta (``stable``): only the columns some player holds are drawn,
one per distinct column of counts, scaled to the law of the columns it
stands for, and the tree sums the k rows as fp p > 1 does
(``fp_high._sketch_sum``): stochastically rounded on every hop, or
exactly with ``codec="exact"``.  The root reports
(lower_median |y_i| / theta_p)^p.  The grid is ``gamma_for``'s at eps,
failure mass 1/4 and M the largest count, so a row costs O(log) bits per
edge, as at p > 1.  The paper states the rounding bound for p in (1, 2];
at p <= 1, sum_j |S_ij| x_j is itself of order ||x||_p, so relative
rounding of the partial sums adds only O(gamma) ||x||_p.  The message
code carries any exponent, so D_p's heavy tails cost bits but never fail
a trial; the network verb stops at ``NETWORK_MIN_P``, where the draws
themselves near float64's range.

Also hosts the log-cosine streaming estimator in random-oracle mode: it
maintains y = S X (exactly, or through signed Morris counters) plus an
independent coarse sketch y' and returns
R = y'_med * (-ln mean_i cos(y_i / y'_med)).  S is never stored: its
columns are regenerated from the seed, one per distinct count among the
coordinates the stream touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import kernels
from .engine import CommStats
from .fp_high import _sketch_sum, stable_norm, stream_counts
from .morris import counter_base_offset, estimates_signed, signed_updates
from .stable import build_sketch
from .streams import DOMAIN_DATA, DOMAIN_SKETCH, generator, substream
from .topology import SpanningTree


# The smallest p the network verb takes, set by float64: D_p's tail draws
# grow like U^(-1/p).  With warnings as errors, p in {0.04, 0.05, 0.07,
# 0.1} ran clean at seeds 0-2 on star m=16 at n=1e4 and 6e4 (4.8e7 cells,
# near MAX_SKETCH_CELLS), line m=257, and grid 8x8 at n=1e5 and eps 0.25;
# at p = 0.03 a draw over eta (``stable``) overflowed on line m=257 at
# seed 0 (800 x 1000 cells).  Without warnings as errors that inf fails
# the finiteness check of ``fp_high._sketch_sum``.
NETWORK_MIN_P = 0.05


@dataclass(frozen=True)
class FpLowConfig:
    """Moment p and accuracy target eps of the low-moment protocol.

    The constants are fixed: k = max(16, ceil(c_k / eps^2)) sketch rows
    at precision eta.  delta = 1/(200k) is the delta' of the stream
    verb's counter base, and only ``base_minus_one`` reads it: the
    network verb rounds at ``FpHighConfig.delta``, as fp p > 1 does.
    """

    p: float
    eps: float
    c_k: ClassVar[float] = 8.0
    eta: ClassVar[float] = 2.0 ** -20

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must be in (0,1], got {self.p}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")

    @property
    def k(self) -> int:
        return max(16, math.ceil(self.c_k / self.eps**2))

    @property
    def delta(self) -> float:
        return 1.0 / (200.0 * self.k)

    def base_minus_one(self, n: int) -> float:
        """Counter base offset b - 1 (see ``morris.counter_base_offset``)."""
        if n < 2:
            raise ValueError(f"need n >= 2 coordinates, got {n}")
        return counter_base_offset(self.eps, self.delta, n, self.p)


def estimate_fp_low(inputs, tree: SpanningTree, cfg: FpLowConfig, seed,
                    codec: str = "rounding") -> tuple[float, CommStats]:
    """Sum the k sketch rows up ``tree`` as ``codec`` values; returns (fp, stats).

    ``inputs`` is an (m, n) array of non-negative per-player counts.
    """
    vec, stats = _sketch_sum(inputs, tree, cfg, seed, codec)
    norm = stable_norm(vec, cfg.p)
    return norm**cfg.p, stats


LOGCOSINE_MODES = ("exact-y", "morris-y")


def stream_fp_logcosine(stream, p: float, eps: float, mode: str = "exact-y",
                        seed=0, n: int | None = None) -> float:
    """Log-cosine ||X||_p estimate of an insertion-only stream, p in (0,1).

    mode="exact-y" aggregates y = S X exactly; mode="morris-y" routes the
    same integer sketch increments through signed Morris counters, which
    is how a space-bounded streamer would hold y.  Both modes share the
    precision-eta sketch and the exact coarse normalizer y', so they
    differ only by counting noise.  Empty or all-zero streams return 0.
    ``FpLowConfig`` also takes p = 1, for the network verb; this one does not.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    cfg = FpLowConfig(p=p, eps=eps)
    if mode not in LOGCOSINE_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    x = stream_counts(stream, n)
    if not x.any():
        return 0.0
    n = x.size
    if n < 2:
        x = np.append(x, 0.0)
        n = 2

    k = cfg.k
    kp = math.ceil(8.0 / eps**2)

    sk = build_sketch(k, n, p, cfg.eta, substream(seed, DOMAIN_SKETCH, 0))
    sk_norm = build_sketch(kp, n, p, cfg.eta, substream(seed, DOMAIN_SKETCH, 1))

    y_coarse = cfg.eta * sk_norm.apply(x)
    y_med = stable_norm(y_coarse, p)
    if y_med == 0.0:
        return 0.0

    counts = sk.apply(x)
    if mode == "exact-y":
        y = cfg.eta * counts
    else:
        bm1 = cfg.base_minus_one(n)
        rng = generator(seed, DOMAIN_DATA, 2)
        state = np.zeros(2 * k)
        kernels.morris_add_batch(rng, state, signed_updates(counts), math.log1p(bm1))
        y = cfg.eta * estimates_signed(state, bm1)

    mean_cos = max(float(np.mean(np.cos(y / y_med))), 1e-300)
    return y_med * (-math.log(mean_cos))
