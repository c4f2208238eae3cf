"""Hot numeric kernels, vectorised in numpy.

Seven kernels carry every protocol's arithmetic: the Chambers-Mallows-Stuck
stable transforms (``cms_symmetric``, ``cms_skewed_one``), stochastic
rounding onto the (1+gamma) grid, which also returns each rounded
message's extents (``round_to_grid``, once per layer), the wire lengths of
rounded messages in their two-part code from those extents
(``rounded_bits``, once per run) and of a counter message in Elias delta
codes (``counter_bits``), and the Morris counter batch update and merge
(``morris_add_batch``, ``morris_merge``).
Of the counter kernels only ``morris_add_batch`` runs in a protocol, the
stream verb; ``morris_merge`` and ``counter_bits`` serve the engine's
counter family, which no protocol runs (see ``engine``).
The transforms overwrite their pre-drawn (uniform, exponential) pairs
with the draws, the rounding consumes pre-drawn uniforms, and the Morris
kernels draw from the generator they are given.
"""

from __future__ import annotations

import math

import numpy as np

# Kept for run metadata; numpy is the only backend.
BACKEND = "numpy"

_LN2 = math.log(2.0)
# Floor for the exponential factor inside the stable transforms; keeps a
# zero-probability draw from producing inf without moving any quantile.
_TINY = 1e-300


# ---------------------------------------------------------------------------
# Chambers-Mallows-Stuck stable transforms (Chambers, Mallows & Stuck 1976).
#
# Symmetric case, stability p, from U ~ Uniform(-pi/2, pi/2), W ~ Exp(1):
#     Z = sin(p U) / cos(U)^(1/p) * (cos((1-p) U) / W)^((1-p)/p)
# which has characteristic function e^{-|t|^p}.  At p=1 this degenerates to
# tan(U).  The p=1 skewed case (skewness beta) is
#     Z = (2/pi) [ (pi/2 + beta U) tan U
#                  - beta ln( (pi/2 W cos U) / (pi/2 + beta U) ) ]
# in the parameterization where ln E[exp(t Z)] = (2/pi) t ln t for beta=-1.
#
# Both are evaluated from tangents only; no cell calls sin or cos.  With
# t = tan U and h = tan((1-p) U), writing pU = U - (1-p)U gives exactly
#     sin(p U) = sin U cos((1-p)U) - cos U sin((1-p)U)
#              = cos U cos((1-p)U) (t - h),
#     cos U = (1 + t^2)^(-1/2),   cos((1-p)U) = (1 + h^2)^(-1/2).
# The two square roots take the positive branch because |U| < pi/2 and
# |(1-p)U| <= |U| < pi/2 for every p in (0, 2].  Substituting, and with
# cos(U)^(1 - 1/p) = cos(U)^(-(1-p)/p),
#     Z = (t - h) cos((1-p)U) (cos((1-p)U) / (W cos U))^((1-p)/p)
#       = (t - h) / sqrt(1 + h^2) * (sqrt((1 + t^2) / (1 + h^2)) / W)^((1-p)/p),
# and in the skewed case W cos U = W / sqrt(1 + t^2).  The float U never
# reaches +-pi/2 (float(pi)/2 is below pi/2), so |t| <= 1.7e16, t^2 stays
# far from overflow and sqrt(1 + t^2) >= 1 needs no clamp.  The result
# differs from the sin/cos form by a few ulp: at most 5.5e-15 relative
# over p in {0.1, ..., 2}, U within 1e-15 of +-pi/2 included.
# ---------------------------------------------------------------------------


def cms_symmetric(p: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Symmetric transform of the pairs (u, w), computed in place in ``u``.

    Evaluated from t = tan U and h = tan((1-p) U) as derived in the comment
    above.  ``w`` is overwritten as scratch.  Every operation is the one of
    the tangent expression, in the same order, so every finite result is
    the same bit for bit as evaluating it with fresh temporaries.
    """
    if p == 1.0:
        return np.tan(u, out=u)
    np.maximum(w, _TINY, out=w)
    h = np.multiply(u, 1.0 - p)
    np.tan(h, out=h)
    t = np.tan(u, out=u)
    # 1 + h^2
    q = np.multiply(h, h)
    q += 1.0
    # t - h, in h; divided by sqrt(1 + h^2) at the end
    np.subtract(t, h, out=h)
    # (sqrt((1 + t^2) / (1 + h^2)) / W)^((1-p)/p), in u; the power operator
    # keeps numpy's special cases for exponents such as 1 and 0.5
    np.multiply(t, t, out=u)
    u += 1.0
    u /= q
    np.sqrt(u, out=u)
    u /= w
    u **= (1.0 - p) / p
    np.sqrt(q, out=q)
    h /= q
    u *= h
    # |t| near 1.7e16 over a clamped W overflows the power's base to inf,
    # which the power turns into inf at p < 1 and into 0 at p > 1 (the only
    # other 0 is U = 0, which the repair leaves at 0).  Split the power as
    # the sin/cos form does.  |h| <= |t|, and h shares t's sign at p < 1 and
    # has the other at p > 1, so |t| = |t - h| +- |h|, read back from the
    # arrays (t - h)/q and q.
    if not (np.isfinite(u).all() if p < 1.0 else u.all()):
        bad = ~np.isfinite(u) if p < 1.0 else u == 0.0
        hb, qb = h[bad], q[bad]
        t = np.abs(hb) * qb + math.copysign(1.0, 1.0 - p) * np.sqrt(qb * qb - 1.0)
        u[bad] = hb * (np.sqrt(1.0 + t * t) / qb) ** ((1.0 - p) / p) * w[bad] ** ((p - 1.0) / p)
    return u


def cms_skewed_one(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Skewed p=1 transform of the pairs (u, w), computed in place in ``u``.

    cos U is taken as 1 / sqrt(1 + tan^2 U) (see the comment above).  ``w``
    is overwritten as scratch; the result is bit-identical to the tangent
    expression, as for :func:`cms_symmetric`.
    """
    hp = 0.5 * np.pi
    # a = pi/2 + beta U
    a = np.multiply(u, beta)
    a += hp
    t = np.tan(u, out=u)
    np.maximum(w, _TINY, out=w)
    w *= hp
    # pi/2 W cos U = pi/2 W / sqrt(1 + t^2)
    c = np.multiply(t, t)
    c += 1.0
    np.sqrt(c, out=c)
    w /= c
    w /= a
    np.log(w, out=w)
    w *= beta
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
# exact zero.  Exponents are not bounded: the message code carries any
# exponent a finite lane can reach (see the ``rounding`` module).  A zero
# lane's log is taken as 0, so its exponent is 0: with a floor of at most
# 1, as every layer floor is, |x| < 1 = lo leaves it nothing to round up.
# ---------------------------------------------------------------------------


# Lanes per ``round_to_grid`` block: a block holds whole rows, as many as
# fit in this many lanes, and at least one.
ROUND_BLOCK_LANES = 1 << 15


def round_to_grid(x: np.ndarray, unif: np.ndarray, log_gamma: float, log_floor: float):
    """Round each lane of ``x`` and meter each row; returns (exponents, is_zero, decoded, extents).

    ``exponents`` are float64 integers, 0 in zero lanes.  ``extents`` has
    shape ``x.shape[:-1] + (3,)``, float64: each row's zero-lane count and
    its lowest and highest live exponent, NaN for a row with no live lane
    (see :func:`rounded_bits`).  Lanes must be finite: a NaN lane would
    come out as a zero lane.  ``unif`` has the shape of ``x``, and lane i
    compares against ``unif``'s lane i.

    The rows are rounded in blocks of at most ``ROUND_BLOCK_LANES``
    lanes, and at least one row, each written into the full-size outputs:
    the engine rounds a whole tree layer per call, and a call holds only
    one block's temporaries.  Every step is per lane or per row, so the
    blocks change no bit.
    """
    lanes = x.shape[-1]
    if x.size <= max(ROUND_BLOCK_LANES, lanes):  # one block: most layers
        return _round_rows(x, unif, log_gamma, log_floor)
    rows = x.size // lanes
    step = max(1, ROUND_BLOCK_LANES // lanes)
    out = (np.empty(x.shape), np.empty(x.shape, dtype=bool), np.empty(x.shape),
           np.empty(x.shape[:-1] + (3,)))
    flat = [a.reshape(rows, a.shape[-1]) for a in (x, unif, *out)]
    for start in range(0, rows, step):
        block = [a[start:start + step] for a in flat]
        _round_rows(*block[:2], log_gamma, log_floor, *block[2:])
    return out


def _round_rows(x, unif, log_gamma, log_floor, exponents=None, is_zero=None, decoded=None,
                extents=None):
    """``round_to_grid`` on one block of rows, into the outputs given or new ones."""
    # A block's temporaries set the rounding's memory: the work happens in
    # place where it can.
    ax = np.abs(x)
    is_zero = np.equal(ax, 0.0, out=is_zero)
    # ln|x|, with ln 1 = 0 in an exact zero's place: exact zeros stay zero
    # even when there is no floor (log_floor = -inf).  A NaN lane fails the
    # floor test, so it is cut with the lanes under the floor.
    lv = np.add(ax, is_zero)
    np.log(lv, out=lv)
    cut = ~(lv >= log_floor)
    is_zero |= cut
    np.putmask(lv, cut, 0.0)
    # Exponents stay float64 throughout: integers far below 2^53, so every
    # product with log_gamma is the one an int64 exponent would give.
    e0 = np.divide(lv, log_gamma, out=exponents)
    np.floor(e0, out=e0)
    # ln lo and ln hi as the products e0 * log_gamma and (e0 + 1) *
    # log_gamma (e0 + 1 is exact).  The float division is off by at most
    # 1, which one check against both products finds.  lo's buffer later
    # holds the decoded values.
    lo = np.multiply(e0, log_gamma, out=decoded)
    hi = np.add(e0, 1.0)
    hi *= log_gamma
    off = lo > lv
    off |= hi <= lv
    if off.any():
        # one-step boundary corrections; a pass that moves nothing leaves
        # nothing for the next one
        for _ in range(2):
            step = (e0 + 1.0) * log_gamma <= lv
            if not step.any():
                break
            e0 += step
        for _ in range(2):
            step = e0 * log_gamma > lv
            if not step.any():
                break
            e0 -= step
        np.multiply(e0, log_gamma, out=lo)
        np.add(e0, 1.0, out=hi)
        hi *= log_gamma

    # pr = (|x| - lo) / (hi - lo); uniforms in [0, 1) compare against pr as
    # against pr clipped to [0, 1], and a NaN pr rounds down either way.
    np.exp(lo, out=lo)
    np.exp(hi, out=hi)
    pr = np.subtract(ax, lo, out=ax)
    pr /= np.subtract(hi, lo, out=lv)
    exponents = e0
    exponents += unif < pr
    # exp(exponents * log_gamma) is lo or hi: the same product of the same
    # float64 operands
    decoded = np.multiply(exponents, log_gamma, out=lo)
    np.exp(decoded, out=decoded)
    np.copysign(decoded, x, out=decoded)
    np.putmask(decoded, is_zero, 0.0)

    # the extents, from the live exponents in hi's buffer: NaN in a zero
    # lane drops it from fmin and fmax, and a row of NaN reduces to NaN
    if extents is None:
        extents = np.empty(x.shape[:-1] + (3,))
    np.add.reduce(is_zero, axis=-1, dtype=np.float64, out=extents[..., 0])
    live = hi
    np.copyto(live, exponents)
    np.putmask(live, is_zero, np.nan)
    np.fmin.reduce(live, axis=-1, out=extents[..., 1])
    np.fmax.reduce(live, axis=-1, out=extents[..., 2])
    return exponents, is_zero, decoded, extents


# ---------------------------------------------------------------------------
# Wire length of the two-part message code stated on engine.send_rounded.
# A message's length depends on its lanes only through three numbers, its
# extents: its zero-lane count and its lowest and highest live exponents.
# ``round_to_grid`` returns the extents of each row it rounds, and the
# engine meters all of a run's rows in one ``rounded_bits`` call.
# Exponents are reduced as float64, exact below 2^53; frexp's exponent is
# the bit length of a non-negative integer.  With bl = bit_length,
# gamma_len(zigzag(lo) + 1) = 2 bl(|lo|) + 1 and gamma_len(w + 1) =
# 2 bl(w + 1) - 1, so a live row's header is 2 bl(|lo|) + 2 bl(w + 1).  A
# row without live lanes has NaN extents, which are read as lo = hi = 0:
# a finite header, which its zero live count then drops.
# ---------------------------------------------------------------------------

# 2 * bit_length(w + 1) for every width w a 64-bit spread can have
_GAMMA_W = np.array([2 * (w + 1).bit_length() for w in range(65)])


def rounded_bits(extents: np.ndarray, lanes: int) -> np.ndarray:
    """Wire length in bits of each rounded message of ``lanes`` lanes, from its extents.

    ``extents`` are rows of :func:`round_to_grid`'s extents.  A message
    with ``live`` live lanes, live exponents in [lo, hi] and
    w = bit_length(hi - lo) costs
    lanes + gamma_len(zigzag(lo) + 1) + gamma_len(w + 1) + live * (1 + w)
    bits, or ``lanes`` when no lane is live.
    """
    extents = np.nan_to_num(extents)
    live = lanes - extents[..., 0].astype(np.int64)
    lo, hi = extents[..., 1], extents[..., 2]
    w = np.frexp(hi - lo)[1]
    header = 2 * np.frexp(np.abs(lo))[1] + _GAMMA_W[w]
    return lanes + live * (1 + w) + header * (live > 0)


# ---------------------------------------------------------------------------
# Wire length of the Elias delta codes stated on engine.send_counters.
# A state s travels as delta(s + 1); with N = bit_length(s + 1) that is
# N + 2 bit_length(N) - 2 bits.  States are integer-valued float64 up to
# about 7e19, past 2^53 and 2^64, so they are never cast to an integer
# type: N is read from the biased exponent field (bits 52-62) of a float
# in [2^(N-1), 2^N), which holds N + 1022.
#
# That float is s + c with c = 1 - 2^-53, the largest double below 1, in
# one correctly rounded add.  The exact sum s + 1 - 2^-53 lies 2^-53 below
# s + 1, so it rounds to s + 1 wherever s + 1 is a double and the spacing
# below it is at least 2^-51, which holds for 2 <= s < 2^53 (at s = 1 the
# sum ties and goes to the even 2).  From 2^53 on the spacing is 2 or
# more, so it rounds to s instead, which has the bit length of s + 1
# because s is even.  A plain s + 1 would round 2^54 - 2 + 1 up to 2^54,
# one bit too many.  s = 0 gives c itself, exponent field 1022, which the
# table maps to the 1-bit code of N = 1.
# ---------------------------------------------------------------------------

_BELOW_ONE = 1.0 - 2.0**-53
# code length N + 2 * bit_length(N) - 2 by exponent field N + 1022; the
# fields below 1023 are only read for s = 0
_DELTA_LEN = np.array([n + 2 * n.bit_length() - 2
                       for n in (max(e - 1022, 1) for e in range(2048))])


def counter_bits(state: np.ndarray) -> np.ndarray:
    """Wire length in bits of each counter message, one per row of the last axis.

    Each state s costs the Elias delta code of s + 1, N + 2 bit_length(N) - 2
    bits for N = bit_length(s + 1): one bit for a zero state.
    """
    exponent = (state + _BELOW_ONE).view(np.int64)
    exponent >>= 52
    return np.take(_DELTA_LEN, exponent).sum(axis=-1)


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
# Failures of many lanes are drawn as one Poisson(sum lam) total, split
# over the lanes in proportion to lam by a multinomial only when the total
# is not zero: by the Poisson splitting theorem the split counts are
# independent Poisson(lam_i), the same joint law as one draw per lane.  At
# the protocol bases the total is almost always zero, so a batch costs one
# scalar draw.  Lanes past _POISSON_LAM_MAX take the normal limit, and a
# batch whose total passes it takes one per-lane Poisson call.  numpy's
# Poisson sampler spreads wider than the law above about 1e15: over 2e4
# draws, (f - lam) / sqrt(lam) has standard deviation 1.01 at 1e15, 1.2 at
# 1e16 and 1.28 at 1e17.
# ---------------------------------------------------------------------------

_RARE_P = 1e-8
_MANY_FAILURES = 1e4
_MANY_FAILURES_P = 1e-4
_POISSON_LAM_MAX = 1e15


def _poisson_path(lam: np.ndarray, max_p: np.ndarray) -> np.ndarray:
    # max_p <= _RARE_P, or lam > _MANY_FAILURES with max_p <= _MANY_FAILURES_P
    return max_p <= np.where(lam > _MANY_FAILURES, _MANY_FAILURES_P, _RARE_P)


def _rare_failures(gen, lam: np.ndarray) -> np.ndarray:
    """Independent Poisson(lam[i]) failure counts, one per lane."""
    f = np.zeros_like(lam)
    big = lam > _POISSON_LAM_MAX
    small = slice(None)
    if big.any():
        lam_b = lam[big]
        f[big] = np.maximum(np.rint(gen.normal(lam_b, np.sqrt(lam_b))), 0.0)
        small = ~big
    lam_s = lam[small]
    total = lam_s.sum()
    if total > _POISSON_LAM_MAX:
        f[small] = gen.poisson(lam_s)
    elif failures := gen.poisson(total):
        f[small] = gen.multinomial(failures, lam_s / total)
    return f


def _flat_view(c: np.ndarray) -> np.ndarray:
    if not c.flags.c_contiguous:
        raise ValueError("counter states must be a C-contiguous array")
    return c.reshape(-1)


def morris_add_batch(gen, c: np.ndarray, u: np.ndarray, log_b: float):
    """Play u[i] updates into counter state c[i] in place; returns c.

    ``c`` may have any shape, such as one row per vertex of a tree layer;
    every lane draws from ``gen``.
    """
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
            f = np.minimum(_rare_failures(gen, lam[rare]), ui[rare])
            cf[ri] += ui[rare] - f
            rem[ri] = 0.0
            idx = idx[~rare]
            if not idx.size:
                break
        ci = cf[idx]
        draws = gen.random(idx.size)
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

    ``cx`` may have any shape, as in :func:`morris_add_batch`; every lane
    draws from ``gen``.
    """
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
            f = np.minimum(_rare_failures(gen, p[rare] * rem[ri]), rem[ri])
            xf[ri] += rem[ri] - f
            rem[ri] = 0.0
        keep = ~free & ~rare
        gi = idx[keep]
        if gi.size:
            runs = np.floor(-np.log1p(-gen.random(gi.size)) / (w[keep] * log_b))
            done = runs >= rem[gi]
            xf[gi] += np.where(done, rem[gi], runs)
            rem[gi] = np.where(done, 0.0, rem[gi] - runs - 1.0)
        active = rem >= 1.0
    return cx
