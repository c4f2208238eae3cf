"""F_p estimation for p in (0, 1) with p-stable sketches over Morris counters.

Each player feeds the integer sketch coordinates eta^-1 <S_i, X_j> into
one signed Morris counter per row, counters merge up the tree, and the
root reports (eta * lower_median |estimate(C_i)| / theta_p)^p.  The
counter base b = 1 + (eps' * delta')^2 is tuned so that counting noise
stays below eps' relative to the absorbed mass, while a counter state
occupies O(log log) bits on the wire regardless of tree depth.

Also hosts the log-cosine streaming estimator in random-oracle mode: it
maintains y = S X (exactly, or through signed Morris counters) plus an
independent coarse sketch y' and returns
R = y'_med * (-ln mean_i cos(y_i / y'_med)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .engine import CommStats, morris_sum_convergecast
from .fp_high import as_count_matrix, lower_median
from .morris import estimates_signed, state_bound
from .stable import build_sketch, median_abs
from .streams import DOMAIN_DATA, DOMAIN_SKETCH, generator, substream
from .topology import Topology, center, spanning_tree


@dataclass(frozen=True)
class FpLowConfig:
    """Accuracy knobs for the low-moment protocol.

    delta = 1/(200k) is both the per-row failure budget and the delta'
    in the counter base; eps' shrinks with delta^{1/p} so that the
    Morris error stays below the p-stable tail scale (the two roles
    share one symbol upstream, kept literal here).
    """

    p: float
    eps: float
    c_k: float = 8.0
    c_prime: float = 0.25
    eta: float = 2.0 ** -20

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must be in (0,1), got {self.p}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {self.eps}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")

    @property
    def k(self) -> int:
        return max(16, math.ceil(self.c_k / self.eps**2))

    @property
    def delta(self) -> float:
        return 1.0 / (200.0 * self.k)

    def eps_prime(self, n: int) -> float:
        if n < 2:
            raise ValueError(f"need n >= 2 coordinates, got {n}")
        ep = (self.c_prime * self.eps * self.delta ** (1.0 / self.p)
              / math.log2(n / self.delta))
        if not 0.0 < ep < self.eps:
            raise ValueError(f"eps_prime {ep} outside (0, eps); p too small for float grid")
        return ep

    def base_minus_one(self, n: int) -> float:
        """Counter base b - 1 = (eps' * delta')^2.

        Kept as the offset: protocol bases are within 1e-33 of 1, below
        float64 resolution around 1.0.
        """
        bm1 = (self.eps_prime(n) * self.delta) ** 2
        if bm1 <= 0.0:
            raise ValueError("counter base degenerates to 1; parameters too extreme")
        return bm1


def state_field_bits(total_updates: float, b_minus_1: float) -> int:
    """Fixed wire width holding any state reachable from the update bound."""
    worst = state_bound(total_updates, b_minus_1)
    return max(1, int(worst).bit_length() + 1)


def estimate_fp_low(inputs, topo: Topology, cfg: FpLowConfig, seed) -> tuple[float, CommStats]:
    """One Morris convergecast; returns (fp_estimate, stats).

    The wire carries one insertion/deletion counter pair per sketch row
    per edge, in state fields sized from the public update-mass bound, so
    max_edge_bits is independent of the tree depth.  A counter outgrowing
    its field raises CounterOverflowError rather than returning a
    silently wrong estimate.
    """
    m = topo.m
    data = as_count_matrix(inputs, m)
    n = data.shape[1]
    tree = spanning_tree(topo, center(topo))

    M = float(max(1.0, data.max()))
    entry_cap = (M * n * m) ** 3
    bm1 = cfg.base_minus_one(n)
    sk = build_sketch(cfg.k, n, cfg.p, cfg.eta, substream(seed, DOMAIN_SKETCH),
                      entry_cap=entry_cap)
    payload = sk.apply(data)

    width = state_field_bits(m * n * M * entry_cap / cfg.eta, bm1)
    counters, stats = morris_sum_convergecast(payload, tree, math.log1p(bm1),
                                              seed, state_bits=width)
    est = estimates_signed(counters.ins, counters.dels, bm1)
    norm = cfg.eta * lower_median(np.abs(est)) / median_abs(cfg.p)
    return norm**cfg.p, stats


def _materialize(stream, n: int | None) -> np.ndarray:
    """Accumulate an insertion-only (index, delta) stream into counts."""
    updates = list(stream)
    for i, delta in updates:
        if delta < 0:
            raise ValueError(f"insertion-only stream got delta {delta} at index {i}")
        if i < 0 or (n is not None and i >= n):
            raise ValueError(f"index {i} outside [0, {n})")
    if n is None:
        n = max((i for i, _ in updates), default=-1) + 1
    x = np.zeros(max(n, 1), dtype=np.float64)
    for i, delta in updates:
        x[i] += delta
    return x


def stream_fp_logcosine(stream, p: float, eps: float, mode: str = "exact-y",
                        seed=0, n: int | None = None,
                        c_k: float = 8.0, k_prime: int | None = None) -> float:
    """Log-cosine ||X||_p estimate of an insertion-only stream, p in (0,1).

    mode="exact-y" aggregates y = S X exactly; mode="morris-y" routes the
    same integer sketch increments through signed Morris counters, which
    is how a space-bounded streamer would hold y.  Both modes share the
    precision-eta sketch and the exact coarse normalizer y', so they
    differ only by counting noise.  Empty or all-zero streams return 0.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    if mode not in ("exact-y", "morris-y"):
        raise ValueError(f"unknown mode {mode!r}")
    x = _materialize(stream, n)
    if not x.any():
        return 0.0
    n = x.size
    if n < 2:
        x = np.append(x, 0.0)
        n = 2

    cfg = FpLowConfig(p=p, eps=eps, c_k=c_k)
    k = cfg.k
    kp = math.ceil(8.0 / eps**2) if k_prime is None else k_prime

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
        ins = np.zeros(k)
        dels = np.zeros(k)
        kernels.morris_add_batch(rng, ins, np.maximum(counts, 0.0), math.log1p(bm1))
        kernels.morris_add_batch(rng, dels, np.maximum(-counts, 0.0), math.log1p(bm1))
        y = cfg.eta * estimates_signed(ins, dels, bm1)

    mean_cos = max(float(np.mean(np.cos(y / y_med))), 1e-300)
    return y_med * (-math.log(mean_cos))
