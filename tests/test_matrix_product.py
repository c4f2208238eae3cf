"""Approximate matrix product: config, sketches, accuracy."""

import math

import numpy as np
import pytest

from helpers import tree_of
from sketch_reference import count_sketch, dense_amp_payload, sketch_product
from sketchcast.matrix_product import AmpConfig, amp_estimate, sketch_matrix
from sketchcast.oracles import matrix_product
from sketchcast.topology import line, star


def test_config_validation():
    AmpConfig(t1=4, t2=4, eps=0.25)
    with pytest.raises(ValueError):
        AmpConfig(t1=0, t2=4, eps=0.25)
    with pytest.raises(ValueError):
        AmpConfig(t1=4, t2=0, eps=0.25)
    with pytest.raises(ValueError):
        AmpConfig(t1=1, t2=1, eps=0.0)


def test_config_row_count():
    cfg = AmpConfig(t1=4, t2=4, eps=0.25)
    assert cfg.eps0 == 0.0625
    assert cfg.k == math.ceil(1.0 / (0.125 * 0.0625**2))
    assert AmpConfig(t1=1, t2=1, eps=0.9).k == 159  # k > 128 / eps^2 > 128


def test_sketch_matrix_shape_and_scale():
    # a player holding the identity on both sides sends S itself, twice
    n, k = 400, 159
    eye = np.eye(n)[None]

    def sketch(seed):
        tables, ids = sketch_matrix(eye, eye, k, seed)
        assert tables.shape == (1, 2 * k * n) and ids.tolist() == [0]
        row = tables[0]
        assert np.array_equal(row[:k * n], row[k * n:])
        return row[:k * n].reshape(k, n)

    s = sketch(0)
    assert np.all(np.count_nonzero(s, axis=0) == 1)
    assert set(np.abs(s[s != 0])) == {1.0}
    assert np.array_equal(s, count_sketch(n, k, seed=0))
    assert np.array_equal(s, sketch(0))
    assert not np.array_equal(s, sketch(1))


@pytest.mark.parametrize("m, n, t1, t2, k", [
    (4, 40, 2, 2, 2048),     # the fingerprint's amp star
    (1024, 200, 2, 2, 512),  # the mesh-grid amp's shape with every player holding data
    (8, 3000, 1, 3, 200),    # n >> k: most buckets sum several coordinates
    (64, 200, 4, 4, 2048),   # many held players, each with several columns
])
def test_blocked_payload_is_within_rounding_of_per_player_products(m, n, t1, t2, k):
    # integer data: every cell is an exact sum, whatever order it is taken in
    rng = np.random.default_rng(5)
    xs = rng.integers(0, 9, (m, n, t1)) * (rng.random((m, n, t1)) < 0.3)
    ys = rng.integers(0, 9, (m, n, t2)) * (rng.random((m, n, t2)) < 0.3)
    xs, ys = xs.astype(np.float64), ys.astype(np.float64)
    tables, ids = sketch_matrix(xs, ys, k, seed=6)
    assert np.array_equal(ids, np.arange(m))  # every player holds data
    assert np.array_equal(tables, dense_amp_payload(xs, ys, k, seed=6))


def test_empty_players_get_no_rows_and_leave_held_rows_alone():
    m, n, k, t = 64, 40, 1000, 2
    rng = np.random.default_rng(5)
    xs = rng.integers(0, 9, (m, n, t)).astype(np.float64)
    ys = rng.integers(0, 9, (m, n, t)).astype(np.float64)
    empty = np.r_[3, 16:32, 48:64]  # player 3 sits between held players
    held = np.setdiff1d(np.arange(m), empty)
    sparse_x, sparse_y = xs.copy(), ys.copy()
    sparse_x[empty] = sparse_y[empty] = 0.0
    got, ids = sketch_matrix(sparse_x, sparse_y, k, seed=6)
    full, every = sketch_matrix(xs, ys, k, seed=6)
    assert np.array_equal(ids, held)
    assert np.array_equal(every, np.arange(m))
    assert got.tobytes() == full[held].tobytes()
    want = dense_amp_payload(sparse_x, sparse_y, k, seed=6)
    assert np.allclose(got, want[held], rtol=0.0, atol=1e-12 * np.abs(want).max())
    # with no player holding data there are no rows at all
    none, no_ids = sketch_matrix(np.zeros_like(xs), np.zeros_like(ys), k, seed=6)
    assert none.shape == (0, k * 2 * t) and no_ids.size == 0


def test_player_matrix_validation():
    cfg = AmpConfig(t1=2, t2=3, eps=0.25)
    xs = np.ones((2, 5, 2))
    ys = np.ones((2, 5, 3))
    amp_estimate(xs, ys, tree_of(line(2)), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(np.ones((2, 5, 3)), ys, tree_of(line(2)), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(np.ones((3, 5, 2)), ys, tree_of(line(2)), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(-xs, ys, tree_of(line(2)), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(xs, np.ones((2, 6, 3)), tree_of(line(2)), cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(xs, ys, tree_of(line(2)), cfg, seed=0, codec="brotli")


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entries_rejected(bad, side):
    cfg = AmpConfig(t1=2, t2=2, eps=0.25)
    xs, ys = np.ones((3, 50, 2)), np.ones((3, 50, 2))
    (xs if side == "x" else ys)[1, 7, 0] = bad
    with pytest.raises(ValueError, match=f"{side}_inputs entries must be finite"):
        amp_estimate(xs, ys, tree_of(star(3)), cfg, seed=0)


def test_zero_side_returns_zero_product():
    cfg = AmpConfig(t1=2, t2=2, eps=0.25)
    xs = np.ones((3, 8, 2))
    r, stats = amp_estimate(xs, np.zeros((3, 8, 2)), tree_of(star(3)), cfg, seed=0)
    assert np.array_equal(r, np.zeros((2, 2)))
    # x side still ships, so edges are not flag-only; an all-zero run is
    rz, stats_z = amp_estimate(np.zeros((3, 8, 2)), np.zeros((3, 8, 2)),
                               tree_of(star(3)), cfg, seed=0)
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
        r, _ = amp_estimate(xs, xs, tree_of(star(1)), cfg, seed=t)
        hits += abs(r[0, 0] - 1.0) <= cfg.eps
    assert hits >= 14


def test_exact_codec_matches_pooled_sketch_product():
    cfg = AmpConfig(t1=3, t2=2, eps=0.25)
    rng = np.random.default_rng(4)
    xs = rng.integers(0, 9, size=(5, 40, 3)).astype(np.float64)
    ys = rng.integers(0, 9, size=(5, 40, 2)).astype(np.float64)
    r, _ = amp_estimate(xs, ys, tree_of(line(5)), cfg, seed=6, codec="exact")
    pooled = sketch_product(xs.sum(axis=0), ys.sum(axis=0), cfg, seed=6)
    assert np.array_equal(r, pooled)


def test_sketch_norm_preservation():
    cfg = AmpConfig(t1=4, t2=4, eps=0.25)
    rng = np.random.default_rng(7)
    hits = 0
    for t in range(40):
        x = rng.integers(0, 10, size=(64, 4)).astype(np.float64)
        s = count_sketch(64, cfg.k, seed=t)
        lhs = np.linalg.norm(s @ x)
        rhs = np.linalg.norm(x)
        hits += abs(lhs - rhs) <= cfg.eps0 * rhs
    assert hits >= 33


def test_squared_error_matches_the_count_sketch_second_moment():
    # n = 4000 against k = 159, so most buckets sum many coordinates.  The
    # exact second moment is (1/k)(|x|^2 |y|^2 + <x,y>^2 - 2 sum_i x_i^2 y_i^2);
    # a biased bucket or sign hash moves the mean squared error off it.  A
    # bucket hash onto half the buckets lands 6.7 to 8.2 sigma off at 500
    # seeds; a heavier head fattens the tail of the squared error and hides it.
    cfg = AmpConfig(t1=1, t2=1, eps=0.9)
    n, seeds = 4000, 500
    rng = np.random.default_rng(3)
    head = np.rint(60 * np.arange(1, 41) ** -1.1)
    x = rng.integers(0, 10, n).astype(np.float64)
    y = rng.integers(0, 10, n).astype(np.float64)
    x[:40] += head
    y[rng.permutation(n)[:40]] += head
    want = (x @ x * (y @ y) + (x @ y) ** 2 - 2 * np.sum(x**2 * y**2)) / cfg.k
    tree = tree_of(star(1))
    err = np.empty(seeds)
    for seed in range(seeds):
        r, _ = amp_estimate(x[None, :, None], y[None, :, None], tree, cfg, seed, codec="exact")
        err[seed] = (r[0, 0] - x @ y) ** 2
    sigma = err.std(ddof=1) / math.sqrt(seeds)
    assert abs(err.mean() - want) <= 4 * sigma


def test_frobenius_error_against_exact_product():
    cfg = AmpConfig(t1=4, t2=4, eps=0.25)
    rng = np.random.default_rng(9)
    hits = 0
    for t in range(20):
        xs = rng.integers(0, 4, size=(8, 100, 4)).astype(np.float64)
        ys = rng.integers(0, 4, size=(8, 100, 4)).astype(np.float64)
        xs *= rng.random(size=xs.shape) < 0.2
        ys *= rng.random(size=ys.shape) < 0.2
        r, _ = amp_estimate(xs, ys, tree_of(star(8)), cfg, seed=300 + t)
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
