"""Approximate matrix product: config, sketches, accuracy."""

import math

import numpy as np
import pytest

from sketch_reference import dense_amp_payload, gaussian_sketch, sketch_product
from sketchcast.matrix_product import (
    AmpConfig,
    _sketch_payload,
    amp_estimate,
    sketch_matrix,
)
from sketchcast.oracles import matrix_product
from sketchcast.streams import DOMAIN_SKETCH, generator
from sketchcast.topology import line, star


def test_config_validation():
    AmpConfig(t1=4, t2=4, eps=0.25)
    with pytest.raises(ValueError):
        AmpConfig(t1=0, t2=4, eps=0.25)
    with pytest.raises(ValueError):
        AmpConfig(t1=4, t2=0, eps=0.25)
    with pytest.raises(ValueError):
        AmpConfig(t1=1, t2=1, eps=0.0)
    with pytest.raises(ValueError):
        AmpConfig(t1=1, t2=1, eps=0.25, delta=1.0)


def test_config_row_count():
    cfg = AmpConfig(t1=4, t2=4, eps=0.25)
    assert cfg.eps0 == 0.0625
    assert cfg.k == math.ceil(1.0 / (0.125 * 0.0625**2))
    assert AmpConfig(t1=1, t2=1, eps=0.9, c_k=1e-6).k == 16


def test_sketch_matrix_shape_and_scale():
    s = gaussian_sketch(400, 2048, seed=0)
    assert s.shape == (2048, 400)
    assert not np.array_equal(s, gaussian_sketch(400, 2048, seed=1))
    # row blocks of one generator reproduce the whole draw
    rng = generator(0, DOMAIN_SKETCH)
    blocks = [sketch_matrix(rng, np.empty((rows, 400)), 2048).copy() for rows in (96, 1, 1951)]
    assert np.array_equal(np.concatenate(blocks), s)
    # variance 1/k pins column norms near 1
    norms = np.linalg.norm(s, axis=0)
    assert abs(norms.mean() - 1.0) < 0.01


@pytest.mark.parametrize("m, n, t1, t2, k", [
    (4, 40, 2, 2, 2048),     # the fingerprint's amp star
    (1024, 200, 2, 2, 512),  # the mesh-grid amp: one block, many player groups
    (8, 3000, 1, 3, 200),    # several row blocks, one group
])
def test_blocked_payload_is_within_rounding_of_per_player_products(m, n, t1, t2, k):
    # One product per row block sums each cell in another order than the
    # per-player products over the whole S, so cells may differ in their
    # last bits: by at most 2 n u sum_l |S_il X_lj| with u = 2^-53.
    rng = np.random.default_rng(5)
    xs = rng.integers(0, 9, (m, n, t1)) * (rng.random((m, n, t1)) < 0.3)
    ys = rng.integers(0, 9, (m, n, t2)) * (rng.random((m, n, t2)) < 0.3)
    xs, ys = xs.astype(np.float64), ys.astype(np.float64)
    got = _sketch_payload(xs, ys, k, seed=6)
    want = dense_amp_payload(xs, ys, k, seed=6)
    s = np.abs(gaussian_sketch(n, k, seed=6))
    scale = np.stack([np.concatenate([(s @ x).ravel(), (s @ y).ravel()])
                      for x, y in zip(xs, ys)])
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2 * n * 2.0**-53 * scale)


def test_player_matrix_validation():
    cfg = AmpConfig(t1=2, t2=3, eps=0.25)
    xs = np.ones((2, 5, 2))
    ys = np.ones((2, 5, 3))
    amp_estimate(xs, ys, line(2), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(np.ones((2, 5, 3)), ys, line(2), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(np.ones((3, 5, 2)), ys, line(2), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(-xs, ys, line(2), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(xs, np.ones((2, 6, 3)), line(2), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(xs, ys, line(2), cfg, seed=0, codec="brotli")


def test_zero_side_returns_zero_product():
    cfg = AmpConfig(t1=2, t2=2, eps=0.25)
    xs = np.ones((3, 8, 2))
    r, stats = amp_estimate(xs, np.zeros((3, 8, 2)), star(3), cfg, seed=0)
    assert np.array_equal(r, np.zeros((2, 2)))
    # x side still ships, so edges are not flag-only; an all-zero run is
    rz, stats_z = amp_estimate(np.zeros((3, 8, 2)), np.zeros((3, 8, 2)),
                               star(3), cfg, seed=0)
    assert np.array_equal(rz, np.zeros((2, 2)))
    assert stats_z.max_edge_bits == 1
    assert stats.max_edge_bits > 1


def test_unit_columns_recover_inner_product():
    # X = Y = e_1 as n x 1 columns: X^T Y = [[1]]
    cfg = AmpConfig(t1=1, t2=1, eps=0.25)
    xs = np.zeros((1, 32, 1))
    xs[0, 0, 0] = 1.0
    hits = 0
    for t in range(20):
        r, _ = amp_estimate(xs, xs, star(1), cfg, seed=t)
        hits += abs(r[0, 0] - 1.0) <= cfg.eps
    assert hits >= 14


def test_exact_codec_matches_pooled_sketch_product():
    cfg = AmpConfig(t1=3, t2=2, eps=0.25)
    rng = np.random.default_rng(4)
    xs = rng.integers(0, 9, size=(5, 40, 3)).astype(np.float64)
    ys = rng.integers(0, 9, size=(5, 40, 2)).astype(np.float64)
    r, _ = amp_estimate(xs, ys, line(5), cfg, seed=6, codec="exact")
    pooled = sketch_product(xs.sum(axis=0), ys.sum(axis=0), cfg, seed=6)
    np.testing.assert_allclose(r, pooled, rtol=1e-10)


def test_sketch_norm_preservation():
    cfg = AmpConfig(t1=4, t2=4, eps=0.25)
    rng = np.random.default_rng(7)
    hits = 0
    for t in range(40):
        x = rng.integers(0, 10, size=(64, 4)).astype(np.float64)
        s = gaussian_sketch(64, cfg.k, seed=t)
        lhs = np.linalg.norm(s @ x)
        rhs = np.linalg.norm(x)
        hits += abs(lhs - rhs) <= cfg.eps0 * rhs
    assert hits >= 33


def test_frobenius_error_against_exact_product():
    cfg = AmpConfig(t1=4, t2=4, eps=0.25)
    rng = np.random.default_rng(9)
    hits = 0
    for t in range(20):
        xs = rng.integers(0, 4, size=(8, 100, 4)).astype(np.float64)
        ys = rng.integers(0, 4, size=(8, 100, 4)).astype(np.float64)
        xs *= rng.random(size=xs.shape) < 0.2
        ys *= rng.random(size=ys.shape) < 0.2
        r, _ = amp_estimate(xs, ys, star(8), cfg, seed=300 + t)
        x, y = xs.sum(axis=0), ys.sum(axis=0)
        err = np.linalg.norm(r - matrix_product(x, y))
        hits += err <= cfg.eps * np.linalg.norm(x) * np.linalg.norm(y)
    assert hits >= 14


def test_sketch_product_validation():
    cfg = AmpConfig(t1=2, t2=2, eps=0.25)
    with pytest.raises(ValueError):
        sketch_product(np.ones((4, 2)), np.ones((5, 2)), cfg, seed=0)
    with pytest.raises(ValueError):
        sketch_product(np.ones(4), np.ones((4, 2)), cfg, seed=0)
