"""F_p estimation for p in (0, 1) with p-stable sketches over Morris counters.

Each player feeds the integer sketch coordinates eta^-1 <S_i, X_j> into
one signed Morris counter per row, counters merge up the tree, and the
root reports (eta * lower_median |estimate(C_i)| / theta_p)^p.  The
counter base b = 1 + (eps' * delta')^2 is tuned so that counting noise
stays below eps' relative to the absorbed mass.  Each state travels in
an Elias delta code (``engine.send_counters``); at this base, within
1e-30 of 1, a state is about the count it holds, so it costs about log2
of that count, not the O(log log) of a statistics-scale base.  The entry
cap, the base and the state bound are derived in :func:`counter_sum`
only, which entropy shares.

Also hosts the log-cosine streaming estimator in random-oracle mode: it
maintains y = S X (exactly, or through signed Morris counters) plus an
independent coarse sketch y' and returns
R = y'_med * (-ln mean_i cos(y_i / y'_med)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import kernels
from .engine import CommStats, morris_sum_convergecast
from .fp_high import as_count_matrix, lower_median, stream_counts
from .morris import counter_base_offset, estimates_signed, signed_updates, state_field_bits
from .stable import build_sketch, median_abs
from .streams import DOMAIN_DATA, DOMAIN_SKETCH, generator, substream
from .topology import SpanningTree


@dataclass(frozen=True)
class FpLowConfig:
    """Moment p and accuracy target eps of the low-moment protocol.

    The constants are fixed: k = max(16, ceil(c_k / eps^2)) sketch rows
    at precision eta.  delta = 1/(200k) is both the per-row failure
    budget and the delta' in the counter base (the two roles share one
    symbol upstream, kept literal here).
    """

    p: float
    eps: float
    c_k: ClassVar[float] = 8.0
    eta: ClassVar[float] = 2.0 ** -20

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0,1), got {self.p}")
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


def counter_sum(inputs, tree: SpanningTree, cfg, seed, lanes_of) -> tuple[np.ndarray, CommStats]:
    """Sum ``lanes_of(data, entry_cap)`` up ``tree`` in signed Morris counters.

    Returns (lane estimates, stats).  ``data`` is the (m, n) player counts,
    ``cfg`` an FpLowConfig or EntropyConfig, and entry_cap = (M n m)^3 for
    M the largest count.  The base is ``cfg.base_minus_one(n)``; the state
    bound holds what the public update-mass bound m n M entry_cap / eta can
    reach, and a state past it raises CounterOverflowError.
    """
    m = tree.m
    data = as_count_matrix(inputs, m)
    n = data.shape[1]
    M = float(max(1.0, data.max()))
    entry_cap = (M * n * m) ** 3
    bm1 = cfg.base_minus_one(n)
    bound = state_field_bits(m * n * M * entry_cap / cfg.eta, bm1)
    counters, stats = morris_sum_convergecast(lanes_of(data, entry_cap), tree,
                                              math.log1p(bm1), seed, state_bits=bound)
    return estimates_signed(counters, bm1), stats


def estimate_fp_low(inputs, tree: SpanningTree, cfg: FpLowConfig,
                    seed) -> tuple[float, CommStats]:
    """One counter pair per sketch row per edge (:func:`counter_sum`); returns (fp, stats)."""
    def lanes(data, entry_cap):
        return build_sketch(cfg.k, data.shape[1], cfg.p, cfg.eta,
                            substream(seed, DOMAIN_SKETCH), entry_cap=entry_cap).apply(data)

    est, stats = counter_sum(inputs, tree, cfg, seed, lanes)
    norm = cfg.eta * lower_median(np.abs(est)) / median_abs(cfg.p)
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
    """
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
    y_med = lower_median(np.abs(y_coarse)) / median_abs(p)
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
