"""Hot numeric kernels, vectorised in numpy.

Six kernels carry every protocol's arithmetic: the Chambers-Mallows-Stuck
stable transforms (``cms_symmetric``, ``cms_skewed_one``), stochastic
rounding onto the (1+gamma) grid and its wire length (``round_to_grid``,
``rounded_bits``), and the Morris counter batch update and merge
(``morris_add_batch``, ``morris_merge``).  The transforms overwrite
their pre-drawn (uniform, exponential) pairs with the draws, the rounding
consumes pre-drawn uniforms, and the Morris kernels draw from the
generator they are given.
"""

from __future__ import annotations

import math

import numpy as np

# Kept for run metadata; numpy is the only backend.
BACKEND = "numpy"

_LN2 = math.log(2.0)
# Floor for exponential/cosine factors inside the stable transforms; keeps
# a zero-probability draw from producing inf without moving any quantile.
_TINY = 1e-300


# ---------------------------------------------------------------------------
# Chambers-Mallows-Stuck stable transforms.
#
# Symmetric case, stability p, from U ~ Uniform(-pi/2, pi/2), W ~ Exp(1):
#     Z = sin(p U) / cos(U)^(1/p) * (cos((1-p) U) / W)^((1-p)/p)
# which has characteristic function e^{-|t|^p}.  At p=1 this degenerates to
# tan(U).  The p=1 skewed case (skewness beta) is
#     Z = (2/pi) [ (pi/2 + beta U) tan U
#                  - beta ln( (pi/2 W cos U) / (pi/2 + beta U) ) ]
# in the parameterization where ln E[exp(t Z)] = (2/pi) t ln t for beta=-1.
# ---------------------------------------------------------------------------


def cms_symmetric(p: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Symmetric transform of the pairs (u, w), computed in place in ``u``.

    ``w`` is overwritten as scratch.  Every operation is the one of the
    textbook expression, in the same order, so the result is the same bit
    for bit as evaluating it with fresh temporaries.
    """
    if p == 1.0:
        return np.tan(u, out=u)
    np.maximum(w, _TINY, out=w)
    # (cos((1-p) U) / W)^((1-p)/p); the power operator keeps numpy's
    # special cases for exponents such as 1 and 0.5
    t = np.multiply(u, 1.0 - p)
    np.cos(t, out=t)
    t /= w
    t **= (1.0 - p) / p
    # cos(U)^(1/p), clamped away from zero
    cu = np.cos(u, out=w)
    np.maximum(cu, _TINY, out=cu)
    cu **= 1.0 / p
    u *= p
    np.sin(u, out=u)
    u /= cu
    u *= t
    return u


def cms_skewed_one(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Skewed p=1 transform of the pairs (u, w), computed in place in ``u``.

    ``w`` is overwritten as scratch; the result is bit-identical to the
    textbook expression, as for :func:`cms_symmetric`.
    """
    hp = 0.5 * np.pi
    np.maximum(w, _TINY, out=w)
    w *= hp
    t = np.cos(u)
    np.maximum(t, _TINY, out=t)
    w *= t
    # a = pi/2 + beta U
    a = np.multiply(u, beta, out=t)
    a += hp
    w /= a
    np.log(w, out=w)
    w *= beta
    np.tan(u, out=u)
    u *= a
    u -= w
    u *= 2.0 / np.pi
    return u


# ---------------------------------------------------------------------------
# Stochastic rounding onto the grid {±(1+gamma)^i}.
#
# Given r with ln|r| >= log_floor, find i with (1+g)^i <= |r| <= (1+g)^(i+1)
# and round up with probability p_r = (|r| - lo)/(hi - lo), which makes the
# rounding exactly unbiased.  Values below the floor are truncated to an
# exact zero.  Inputs outside [exp_min, exp_max] after rounding indicate a
# mis-sized window and are flagged rather than silently clipped.
# ---------------------------------------------------------------------------


def round_to_grid(
    x: np.ndarray,
    unif: np.ndarray,
    log_gamma: float,
    log_floor: float,
    exp_min: int,
    exp_max: int,
):
    """Round each lane of ``x``; returns (exponents, is_zero, decoded, ok).

    ``ok`` is False when a live exponent left [exp_min, exp_max].
    """
    ax = np.abs(x)
    nonzero = ax > 0.0
    lv = np.full(x.shape, -np.inf)
    np.log(ax, out=lv, where=nonzero)
    # exact zeros stay zero even when there is no floor (log_floor = -inf)
    is_zero = ~nonzero | (lv < log_floor)
    lv[is_zero] = 0.0
    e0 = np.floor(lv / log_gamma).astype(np.int64)
    # one-step boundary corrections; the float division is off by at most 1
    for _ in range(2):
        e0 += (e0 + 1) * log_gamma <= lv
    for _ in range(2):
        e0 -= e0 * log_gamma > lv

    # The engine rounds a whole tree layer per call, so layer-sized
    # temporaries set its memory: the rest works in place.
    # pr = (|x| - lo) / (hi - lo)
    lo = np.exp(e0 * log_gamma, out=lv)
    hi = np.exp((e0 + 1) * log_gamma)
    hi -= lo
    pr = np.subtract(ax, lo, out=ax)
    pr /= hi
    np.clip(pr, 0.0, 1.0, out=pr)
    exponents = e0
    exponents += unif < pr
    exponents[is_zero] = 0

    live = ~is_zero
    ok = bool(
        np.all((exponents[live] >= exp_min) & (exponents[live] <= exp_max))
        if live.any()
        else True
    )
    decoded = np.multiply(exponents, log_gamma, out=hi)
    np.exp(decoded, out=decoded)
    decoded *= np.sign(x)
    decoded[is_zero] = 0.0
    return exponents, is_zero, decoded, ok


# ---------------------------------------------------------------------------
# Wire-length accounting for the lane format stated on
# engine.send_rounded.
# ---------------------------------------------------------------------------


def _floor_log2_f64(v: np.ndarray) -> np.ndarray:
    # frexp gives v = m * 2^e with m in [0.5, 1), so floor(log2 v) = e - 1
    _, e = np.frexp(v)
    return (e - 1).astype(np.int64)


def rounded_bits(exponents: np.ndarray, is_zero: np.ndarray) -> np.ndarray:
    """Wire length in bits of each rounded lane."""
    zz = np.where(exponents >= 0, 2 * exponents, -2 * exponents - 1)
    glen = 2 * _floor_log2_f64((zz + 1).astype(np.float64)) + 1
    return np.where(is_zero, 1, 2 + glen).astype(np.int64)


# ---------------------------------------------------------------------------
# Morris counter chains.
#
# A counter in state C absorbs one update by incrementing with probability
# b^(-C).  add_batch plays `u` updates against lane states `c` without
# iterating per update: while the increment probability q = b^(-C) is >= 1/2
# it samples the first failure time T of the inhomogeneous success chain
# (quadratic inversion of the survival function), and once q < 1/2 it
# samples the geometric gap to the next increment.  Both branches follow
# the exact per-update law.
#
# merge plays counter Y into counter Z = X via the chain that increments Z
# with probability b^(-Z + i - 1) at step i = 1..Y.  Writing W = Z - i + 1,
# W stays constant on success and drops by one on failure, so runs of
# successes are geometric with fixed rate and the loop costs one iteration
# per failure.
#
# When every step's failure probability p_j is tiny (protocol bases sit
# within 1e-30 of 1 while batches reach 1e30 updates), both chains reduce
# to counting rare failures: the total F is within total variation
# max(p_j) of Poisson(sum p_j) for any number of steps (Barbour & Hall
# 1984), so one Poisson draw replaces the loop whenever max_p <= 1e-8.
# Beyond lam = 1e17 the Poisson itself is sampled through its normal limit
# (relative error ~ 1/sqrt(lam)).
#
# The same draw also replaces the loop where it would run more than
# _MANY_FAILURES iterations (it runs one per failure, about lam of them)
# and max_p <= _MANY_FAILURES_P.  A merge of states near 5e24 at
# log_b ~ 3e-32 has p ~ 1.4e-7 and lam ~ 7e17, which the loop cannot
# finish.  lam sums the p_j as if no failure had happened yet; each
# failure lowers the merge's W, or the add chain's state, by one, so lam
# overstates the true sum by a relative lam/W (merge) or 2 lam/u (add)
# at most, and the drawn count is within total variation max_p <= 1e-4 of
# Poisson of the true sum.  At the recorded merge both terms are about
# 1.4e-7.  Lanes whose loop would finish within _MANY_FAILURES iterations
# keep the exact loop and its draws, and statistics-scale bases, where
# max_p > 1e-4 from the first update, take neither shortcut.
#
# Lanes may draw from one generator or from one generator per row of a
# 2-D state array (a tree layer, one row per vertex).  Each row then sees
# exactly the draws, in the same order, that it would see alone.
# ---------------------------------------------------------------------------

_RARE_P = 1e-8
_MANY_FAILURES = 1e4
_MANY_FAILURES_P = 1e-4
_POISSON_LAM_MAX = 1e17


def _poisson_path(lam: np.ndarray, max_p: np.ndarray) -> np.ndarray:
    # max_p <= _RARE_P, or lam > _MANY_FAILURES with max_p <= _MANY_FAILURES_P
    return max_p <= np.where(lam > _MANY_FAILURES, _MANY_FAILURES_P, _RARE_P)


def _draw(gens, lanes: np.ndarray, width: int, sample) -> np.ndarray:
    """``sample(gen, lo, hi)`` for each row's run of ``lanes[lo:hi]``, concatenated.

    ``lanes`` are ascending flat lane indices, never empty, into a
    ``(len(gens), width)`` state array, so each row's lanes form one run.
    A run that covers all of ``lanes`` goes straight to its generator.
    """
    if len(gens) == 1:
        return sample(gens[0], 0, lanes.size)
    first, last = int(lanes[0]) // width, int(lanes[-1]) // width
    if first == last:
        return sample(gens[first], 0, lanes.size)
    cuts = np.searchsorted(lanes, np.arange(first + 1, last + 1) * width).tolist()
    return np.concatenate([sample(gens[row], lo, hi) for row, lo, hi
                           in zip(range(first, last + 1), [0, *cuts], [*cuts, lanes.size])
                           if hi > lo])


def _uniforms(gens, lanes, width):
    return _draw(gens, lanes, width, lambda g, lo, hi: g.random(hi - lo))


def _rare_failures(gens, lanes, width, lam: np.ndarray) -> np.ndarray:
    big = lam > _POISSON_LAM_MAX
    if not big.any():
        return _draw(gens, lanes, width, lambda g, lo, hi: g.poisson(lam[lo:hi]))
    f = np.empty_like(lam)
    small = ~big
    if small.any():
        lam_s = lam[small]
        f[small] = _draw(gens, lanes[small], width, lambda g, lo, hi: g.poisson(lam_s[lo:hi]))
    lam_b = lam[big]
    f[big] = np.maximum(np.rint(_draw(
        gens, lanes[big], width,
        lambda g, lo, hi: g.normal(lam_b[lo:hi], np.sqrt(lam_b[lo:hi])))), 0.0)
    return f


def _streams(gen):
    return (gen,) if isinstance(gen, np.random.Generator) else gen


def _flat_view(c: np.ndarray) -> np.ndarray:
    if not c.flags.c_contiguous:
        raise ValueError("counter states must be a C-contiguous array")
    return c.reshape(-1)


def morris_add_batch(gen, c: np.ndarray, u: np.ndarray, log_b: float):
    """Play u[i] updates into counter state c[i] in place; returns c.

    ``gen`` is one Generator, or a sequence of one per row of a 2-D ``c``.
    """
    gens, width = _streams(gen), c.shape[-1]
    cf = _flat_view(c)
    rem = u.astype(np.float64).reshape(-1)
    active = rem >= 1.0
    while active.any():
        idx = np.flatnonzero(active)
        ci, ui = cf[idx], rem[idx]
        lam = log_b * (ci * ui + 0.5 * ui * (ui - 1.0))
        rare = _poisson_path(lam, (ci + ui) * log_b)
        if rare.any():
            ri = idx[rare]
            f = np.minimum(_rare_failures(gens, ri, width, lam[rare]), ui[rare])
            cf[ri] += ui[rare] - f
            rem[ri] = 0.0
            idx = idx[~rare]
            if not idx.size:
                break
        ci = cf[idx]
        draws = _uniforms(gens, idx, width)
        fast = ci * log_b <= _LN2
        # failure-time branch
        fi = idx[fast]
        if fi.size:
            t = -np.log1p(-draws[fast])
            a = 2.0 * cf[fi] - 1.0
            big = np.floor(0.5 * (-a + np.sqrt(a * a + 8.0 * t / log_b))) + 1.0
            done = big > rem[fi]
            cf[fi] += np.where(done, rem[fi], big - 1.0)
            rem[fi] = np.where(done, 0.0, rem[fi] - big)
        # geometric-gap branch
        gi = idx[~fast]
        if gi.size:
            q = np.exp(-cf[gi] * log_b)
            gap = np.floor(np.log1p(-draws[~fast]) / np.log1p(-q)) + 1.0
            hit = gap <= rem[gi]
            cf[gi] += np.where(hit, 1.0, 0.0)
            rem[gi] = np.where(hit, rem[gi] - gap, 0.0)
        active = rem >= 1.0
    return c


def morris_merge(gen, cx: np.ndarray, cy: np.ndarray, log_b: float):
    """Fold counter states cy into cx in place; returns cx.

    ``gen`` is one Generator, or a sequence of one per row of a 2-D ``cx``.
    """
    gens, width = _streams(gen), cx.shape[-1]
    xf = _flat_view(cx)
    y = np.asarray(cy, dtype=np.float64).reshape(-1)
    rem = y.copy()
    active = rem >= 1.0
    while active.any():
        idx = np.nonzero(active)[0]
        w = xf[idx] - y[idx] + rem[idx]
        free = w <= 0.0
        fi = idx[free]
        if fi.size:
            xf[fi] += rem[fi]
            rem[fi] = 0.0
        p = -np.expm1(-w * log_b)
        rare = ~free & _poisson_path(p * rem[idx], p)
        ri = idx[rare]
        if ri.size:
            f = np.minimum(_rare_failures(gens, ri, width, p[rare] * rem[ri]), rem[ri])
            xf[ri] += rem[ri] - f
            rem[ri] = 0.0
        keep = ~free & ~rare
        gi = idx[keep]
        if gi.size:
            runs = np.floor(-np.log1p(-_uniforms(gens, gi, width)) / (w[keep] * log_b))
            done = runs >= rem[gi]
            xf[gi] += np.where(done, rem[gi], runs)
            rem[gi] = np.where(done, 0.0, rem[gi] - runs - 1.0)
        active = rem >= 1.0
    return cx
