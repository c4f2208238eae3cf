"""Dense reference sketches: the oracles the streamed sketches are checked against.

``dense_entries`` draws a stable sketch as one dense matrix: one
generator draws all k*n uniforms, then the k*n doubles V behind the
exponentials -log1p(-V), the transform runs with fresh temporaries, and
cell c fills column c // k, row c % k; ``dense_draws`` are its values
before the eta rounding.  The column-addressable ``StableSketch`` must
reproduce any of its columns bit for bit.  ``blocked_product`` sums a
product as ``StableSketch.apply`` does: the block products over the
data's held columns, in block order.  ``grouped_product`` is the product
``apply`` must return: held columns with identical data (``data_groups``)
draw their group's first column once, scaled to the law of the group's
sum before the rounding (``grouped_entries``).
``count_sketch`` is amp's count sketch as a dense matrix, and
``dense_amp_payload`` and ``sketch_product`` multiply by it: the per-player
payload and the pooled sketch product; ``dense_amp_estimate`` runs amp's
convergecast on the payload of dense player slices.  The stable samplers
here are the test suite's source of plain i.i.d. stable draws from any
F(p, beta, gamma, loc), described by a ``StableLaw`` record, and
``montecarlo_median_abs`` is the sampling oracle for ``stable.median_abs``.

``cms_symmetric`` and ``cms_skewed_one`` are the tangent expressions the
kernels evaluate, written with fresh temporaries, so the in-place kernels
are checked against them bit for bit.  The textbook sin/cos expressions,
the definitions of the laws, are kept as ``cms_symmetric_sincos`` and
``cms_skewed_one_sincos``; ``transform_gaps`` measures how far the
kernels are from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sketchcast import kernels
from sketchcast.engine import sum_convergecast
from sketchcast.heavy_hitters import CountSketchSpec
from sketchcast.streams import DOMAIN_SKETCH, as_seed_sequence, generator

# Median of the standard maximally skewed law F(1,-1,pi/2,0), a fixed-seed
# Monte-Carlo pin; used by location-recovery checks.
MEDIAN_SKEWED_STANDARD = -1.356524

_TINY = 1e-300


@dataclass(frozen=True)
class StableLaw:
    """A stable law F(p, beta, gamma_scale, 0); beta != 0 is drawn only at p = 1."""

    p: float
    beta: float = 0.0
    gamma_scale: float = 1.0


# The law of build_sketch(..., skewed=True): entropy's F(1, -1, pi/2, 0).
SKEWED = StableLaw(p=1.0, beta=-1.0, gamma_scale=math.pi / 2)


def cms_symmetric(p: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The symmetric transform from t = tan U and h = tan((1-p) U), as the kernel evaluates it."""
    w = np.maximum(w, _TINY)
    if p == 1.0:
        return np.tan(u)
    t = np.tan(u)
    h = np.tan((1.0 - p) * u)
    return (t - h) / np.sqrt(1.0 + h * h) * (np.sqrt((1.0 + t * t) / (1.0 + h * h)) / w) ** (
        (1.0 - p) / p
    )


def cms_skewed_one(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The skewed p=1 transform with cos U = 1 / sqrt(1 + tan^2 U), as the kernel evaluates it."""
    w = np.maximum(w, _TINY)
    hp = 0.5 * np.pi
    a = hp + beta * u
    t = np.tan(u)
    return (2.0 / np.pi) * (a * t - beta * np.log((hp * w / np.sqrt(1.0 + t * t)) / a))


def cms_symmetric_sincos(p: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The textbook Chambers-Mallows-Stuck expression: the definition of the symmetric law."""
    w = np.maximum(w, _TINY)
    if p == 1.0:
        return np.tan(u)
    cu = np.maximum(np.cos(u), _TINY)
    return (np.sin(p * u) / cu ** (1.0 / p)) * (np.cos((1.0 - p) * u) / w) ** (
        (1.0 - p) / p
    )


def cms_skewed_one_sincos(beta: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The textbook skewed p=1 expression, with cos U: the definition of the skewed law."""
    w = np.maximum(w, _TINY)
    hp = 0.5 * np.pi
    a = hp + beta * u
    return (2.0 / np.pi) * (
        a * np.tan(u) - beta * np.log((hp * w * np.maximum(np.cos(u), _TINY)) / a)
    )


# Stabilities at which the kernels are checked against the sin/cos forms.
AGREEMENT_P = (0.1, 0.25, 0.5, 0.9, 1.1, 1.5, 1.9, 2.0)
AGREEMENT_BETA = (-1.0, -0.5, 0.5, 1.0)


def _gap(got: np.ndarray, want: np.ndarray, floor: float) -> float:
    """max |got - want| / (floor + |want|); equal values (infinities too) count as 0."""
    gap = np.abs(got - want) / (floor + np.abs(want))
    return float(np.max(np.where(got == want, 0.0, gap)))


def transform_gaps() -> dict[str, float]:
    """Largest gap of each kernel to its sin/cos form.

    The (U, W) pairs are 1e5 random draws, tail draws U = +-(pi/2 - delta)
    with delta over geomspace(1e-15, 1e-1), and the edge draws u = 0,
    which the sketch maps to U = -pi/2 exactly, and w = 0, which the
    kernels clamp, each paired with an ordinary value of the other and
    the two paired together.
    Keys are "p=<p>" (relative gap of ``kernels.cms_symmetric``) and
    "beta=<beta>" (gap of ``kernels.cms_skewed_one`` relative to 1 + |Z|,
    absolute near zero, where the skewed draw's two terms cancel).  A NaN
    on either side makes the gap NaN.
    """
    rng = np.random.default_rng(13)
    delta = np.geomspace(1e-15, 1e-1, 57)
    u = np.concatenate([(rng.random(10**5) - 0.5) * np.pi,
                        0.5 * np.pi - delta, delta - 0.5 * np.pi,
                        [(0.0 - 0.5) * np.pi, 0.3, (0.0 - 0.5) * np.pi]])
    w = rng.standard_exponential(u.size)
    w[-2:] = 0.0
    gaps = {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for p in AGREEMENT_P:
            want = cms_symmetric_sincos(p, u, w)
            gaps[f"p={p}"] = _gap(kernels.cms_symmetric(p, u.copy(), w.copy()), want, 0.0)
        for beta in AGREEMENT_BETA:
            want = cms_skewed_one_sincos(beta, u, w)
            gaps[f"beta={beta}"] = _gap(kernels.cms_skewed_one(beta, u.copy(), w.copy()), want,
                                        1.0)
    return gaps


def stable_from(params: StableLaw, u: np.ndarray, w: np.ndarray, loc: float = 0.0) -> np.ndarray:
    """Draws from F(p, beta, gamma, loc) of uniforms ``u`` on (-pi/2, pi/2) and exponentials ``w``."""
    if params.beta == 0.0:
        z = cms_symmetric(params.p, u, w)
    else:
        z = cms_skewed_one(params.beta, u, w)
    g = params.gamma_scale
    if params.beta == 0.0:
        return g * z + loc
    # Skewed p=1 family: scaling adds the (2/pi) beta g ln g drift and the
    # location enters negated.
    return g * z + (2.0 / np.pi) * params.beta * g * math.log(g) - loc


def sample_stable_array(params: StableLaw, rng: np.random.Generator, size: int,
                        loc: float = 0.0) -> np.ndarray:
    """Vector of i.i.d. draws from F(p, beta, gamma, loc)."""
    u = (rng.random(size) - 0.5) * np.pi
    return stable_from(params, u, rng.standard_exponential(size), loc)


def sample_stable(params: StableLaw, rng: np.random.Generator) -> float:
    """One draw from F(p, beta, gamma, 0); symmetric about 0 for beta=0."""
    return float(sample_stable_array(params, rng, 1)[0])


def montecarlo_median_abs(p: float, samples: int, seed: int) -> float:
    """Fixed-seed Monte-Carlo estimate of median |Z|, Z ~ D_p."""
    z = sample_stable_array(StableLaw(p=p), generator(seed, 0), samples)
    return float(np.median(np.abs(z)))


def dense_draws(k: int, n: int, p: float, seed=0, skewed: bool = False,
                cols=None) -> np.ndarray:
    """The unrounded k x n draws of build_sketch(...), or the k x len(cols) of columns ``cols``.

    The transform runs on 2^20 cells at a time, which moves no value: it
    is elementwise.
    """
    rng = np.random.Generator(np.random.PCG64(as_seed_sequence(seed)))
    cols = np.arange(n) if cols is None else np.asarray(cols)
    u = rng.random(k * n).reshape(n, k)[cols]
    v = rng.random(k * n).reshape(n, k)[cols]
    law = SKEWED if skewed else StableLaw(p=p)
    step = max(1, (1 << 20) // k)
    for a in range(0, cols.size, step):
        w = -np.log1p(-v[a:a + step])
        u[a:a + step] = stable_from(law, (u[a:a + step] - 0.5) * np.pi, w)
    return u.T


def dense_entries(k: int, n: int, p: float, eta: float, seed=0,
                  skewed: bool = False) -> np.ndarray:
    """The k x n integer entries of build_sketch(...) drawn as one dense matrix."""
    return np.rint(dense_draws(k, n, p, seed, skewed) / eta)


def streamed_entries(sk, cols=None) -> np.ndarray:
    """The k x len(cols) entries of a StableSketch's columns (all by default), from its blocks."""
    cols = range(sk.n) if cols is None else cols
    return np.concatenate([block.copy() for _, block in sk.columns(cols)]).T


def blocked_product(entries: np.ndarray, data: np.ndarray, width: int) -> np.ndarray:
    """``data @ entries^T`` as ``StableSketch.apply`` sums it: blocks of ``width`` held columns.

    Held columns are those in which some row of the data is nonzero.  Each
    block's product takes the block's columns of the data and its entries
    as a contiguous (columns, k) array; the products are added in block
    order, the first one to nothing.
    """
    held = np.flatnonzero(data.any(axis=0) if data.ndim == 2 else data)
    out = np.zeros(data.shape[:-1] + (entries.shape[0],))
    for b0 in range(0, held.size, width):
        ids = held[b0:b0 + width]
        part = data[..., ids] @ np.ascontiguousarray(entries[:, ids].T)
        out = part if b0 == 0 else out + part
    return out


def data_groups(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first column of each group, group sizes) of the held columns with identical data bytes."""
    held = np.flatnonzero(data.any(axis=0) if data.ndim == 2 else data)
    groups: dict[bytes, list[int]] = {}
    for j in held.tolist():
        groups.setdefault(data[..., j].tobytes(), []).append(j)
    return (np.array([g[0] for g in groups.values()], dtype=np.int64),
            np.array([len(g) for g in groups.values()], dtype=np.int64))


def grouped_entries(k: int, p: float, eta: float, seed, data: np.ndarray,
                    skewed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(the groups' first columns, their k x groups entries) that ``StableSketch.apply`` multiplies.

    Each group of g held columns with identical data takes the unrounded
    dense draws of its first column, scaled to the law of a sum of g
    cells (g^{1/p} Z, or g Z - g ln g for the skewed law), then
    eta-rounded.  With no repeated column every g is 1 and these are the
    dense entries of the held columns.
    """
    firsts, sizes = data_groups(data)
    g = sizes.astype(np.float64)
    z = dense_draws(k, data.shape[-1], p, seed, skewed, cols=firsts)
    if skewed:
        z *= g
        z -= g * np.log(g)
    else:
        z *= g ** (1.0 / p)
    z /= eta
    return firsts, np.rint(z, out=z)


def grouped_product(k: int, p: float, eta: float, seed, data: np.ndarray, width: int,
                    skewed: bool = False) -> np.ndarray:
    """The product ``StableSketch.apply`` returns: the blocked product over the groups' first columns."""
    firsts, entries = grouped_entries(k, p, eta, seed, data, skewed)
    return blocked_product(entries, data[..., firsts], width)


def count_sketch(n: int, k: int, seed) -> np.ndarray:
    """The shared k x n amp sketch as a dense matrix: column j holds g(j) in row h(j)."""
    spec = CountSketchSpec.draw(n, 1, k, generator(seed, DOMAIN_SKETCH))
    s = np.zeros((k, n))
    s[spec.bucket_of()[0], np.arange(n)] = spec.sign_of()[0]
    return s


def dense_amp_payload(xs: np.ndarray, ys: np.ndarray, k: int, seed) -> np.ndarray:
    """Per-player amp payload rows (S X_v).ravel(), (S Y_v).ravel() over the whole S."""
    s = count_sketch(xs.shape[1], k, seed)
    return np.stack([np.concatenate([(s @ x).ravel(), (s @ y).ravel()])
                     for x, y in zip(xs, ys)])


def dense_amp_estimate(xs: np.ndarray, ys: np.ndarray, tree, cfg, seed,
                       codec: str) -> tuple[np.ndarray, object]:
    """amp from dense (m, n, t1) and (m, n, t2) player slices, as it ran before cells.

    The players with a nonzero slice send their ``dense_amp_payload``
    rows, and M is the largest slice entry.  On integer data every payload
    cell is an exact sum, so this is the run ``amp_estimate`` must make
    from the slices' nonzero cells, bit for bit.
    """
    held = np.flatnonzero(xs.any(axis=(1, 2)) | ys.any(axis=(1, 2)))
    payload = dense_amp_payload(xs[held], ys[held], cfg.k, seed)
    M = float(max(1.0, xs.max(initial=0.0), ys.max(initial=0.0)))
    vec, stats = sum_convergecast(codec, payload, tree, seed, eps=cfg.eps0, delta=cfg.delta,
                                  n=xs.shape[1], M=M, ids=held)
    split = cfg.k * cfg.t1
    return vec[:split].reshape(cfg.k, cfg.t1).T @ vec[split:].reshape(cfg.k, cfg.t2), stats


def sketch_product(x_total: np.ndarray, y_total: np.ndarray, cfg, seed) -> np.ndarray:
    """(S X)^T (S Y) on pooled matrices with the same sketch draw."""
    x = np.asarray(x_total, dtype=np.float64)
    y = np.asarray(y_total, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"pooled shapes {x.shape} and {y.shape} do not align")
    s = count_sketch(x.shape[0], cfg.k, seed)
    return (s @ x).T @ (s @ y)
