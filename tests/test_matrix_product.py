"""Approximate matrix product: config, sketches, accuracy."""

import math
import tracemalloc

import numpy as np
import pytest

from helpers import tree_of
from sketch_reference import count_sketch, dense_amp_estimate, dense_amp_payload, sketch_product
from sketchcast.harness import (ExperimentSpec, generate_matrix, run_trial, split_cells,
                                split_units)
from sketchcast.heavy_hitters import nonzero_cells
from sketchcast.matrix_product import AmpConfig, amp_estimate, sketch_matrix
from sketchcast.oracles import matrix_product
from sketchcast.topology import from_spec, line, star


def amp_dense(xs, ys, tree, cfg, seed, codec="rounding"):
    """amp_estimate on the nonzero cells of dense (m, n, t) player slices."""
    return amp_estimate(nonzero_cells(xs), nonzero_cells(ys), tree, cfg, seed, codec=codec)


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
        tables, ids = sketch_matrix(nonzero_cells(eye), nonzero_cells(eye), k, seed)
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
    tables, ids = sketch_matrix(nonzero_cells(xs), nonzero_cells(ys), k, seed=6)
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
    got, ids = sketch_matrix(nonzero_cells(sparse_x), nonzero_cells(sparse_y), k, seed=6)
    full, every = sketch_matrix(nonzero_cells(xs), nonzero_cells(ys), k, seed=6)
    assert np.array_equal(ids, held)
    assert np.array_equal(every, np.arange(m))
    assert got.tobytes() == full[held].tobytes()
    want = dense_amp_payload(sparse_x, sparse_y, k, seed=6)
    assert np.allclose(got, want[held], rtol=0.0, atol=1e-12 * np.abs(want).max())
    # with no player holding data there are no rows at all
    zeros = nonzero_cells(np.zeros_like(xs))
    none, no_ids = sketch_matrix(zeros, zeros, k, seed=6)
    assert none.shape == (0, k * 2 * t) and no_ids.size == 0


def test_player_matrix_validation():
    cfg = AmpConfig(t1=2, t2=3, eps=0.25)
    tree = tree_of(line(2))
    xs = nonzero_cells(np.ones((2, 5, 2)))
    ys = nonzero_cells(np.ones((2, 5, 3)))
    amp_estimate(xs, ys, tree, cfg, seed=0)
    bad_x = [
        nonzero_cells(np.ones((2, 5, 3))),              # three columns, t1 = 2
        nonzero_cells(np.ones((3, 5, 2))),              # three players, m = 2
        xs._replace(value=-xs.value),                   # negative entries
        xs._replace(player=xs.player + 1),              # a player outside [0, m)
        xs._replace(coord=xs.coord - 1),                # a coordinate outside [0, n)
        xs._replace(column=xs.column * 2),              # a column outside t1
        xs._replace(coord=xs.coord[:-1]),               # arrays of unequal lengths
        xs._replace(column=xs.column.astype(np.float64)),  # non-integer columns
    ]
    for bad in bad_x:
        with pytest.raises(ValueError, match="x_inputs"):
            amp_estimate(bad, ys, tree, cfg, seed=0)
    bad_y = [
        nonzero_cells(np.ones((2, 5, 2))),              # two columns, t2 = 3
        ys._replace(player=ys.player - 2),              # a player outside [0, m)
        ys._replace(coord=ys.coord + 1),                # a coordinate outside [0, n)
        ys._replace(column=ys.column + 1),              # a column outside t2
    ]
    for bad in bad_y:
        with pytest.raises(ValueError, match="y_inputs"):
            amp_estimate(xs, bad, tree, cfg, seed=0)
    with pytest.raises(ValueError, match="inner dimensions differ: 5 vs 6"):
        amp_estimate(xs, nonzero_cells(np.ones((2, 6, 3))), tree, cfg, seed=0)
    with pytest.raises(TypeError, match="x_inputs must be Cells"):
        amp_estimate(np.ones((2, 5, 2)), ys, tree, cfg, seed=0)
    with pytest.raises(ValueError):
        amp_estimate(xs, ys, tree, cfg, seed=0, codec="brotli")


@pytest.mark.parametrize("side", ["x", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entries_rejected(bad, side):
    cfg = AmpConfig(t1=2, t2=2, eps=0.25)
    xs, ys = np.ones((3, 50, 2)), np.ones((3, 50, 2))
    (xs if side == "x" else ys)[1, 7, 0] = bad
    with pytest.raises(ValueError, match=f"{side}_inputs entries must be finite"):
        amp_dense(xs, ys, tree_of(star(3)), cfg, seed=0)


def test_zero_side_returns_zero_product():
    cfg = AmpConfig(t1=2, t2=2, eps=0.25)
    xs = np.ones((3, 8, 2))
    r, stats = amp_dense(xs, np.zeros((3, 8, 2)), tree_of(star(3)), cfg, seed=0)
    assert np.array_equal(r, np.zeros((2, 2)))
    # x side still ships, so edges are not flag-only; an all-zero run is
    rz, stats_z = amp_dense(np.zeros((3, 8, 2)), np.zeros((3, 8, 2)), tree_of(star(3)), cfg,
                            seed=0)
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
        r, _ = amp_dense(xs, xs, tree_of(star(1)), cfg, seed=t)
        hits += abs(r[0, 0] - 1.0) <= cfg.eps
    assert hits >= 14


def test_exact_codec_matches_pooled_sketch_product():
    cfg = AmpConfig(t1=3, t2=2, eps=0.25)
    rng = np.random.default_rng(4)
    xs = rng.integers(0, 9, size=(5, 40, 3)).astype(np.float64)
    ys = rng.integers(0, 9, size=(5, 40, 2)).astype(np.float64)
    r, _ = amp_dense(xs, ys, tree_of(line(5)), cfg, seed=6, codec="exact")
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
        r, _ = amp_dense(x[None, :, None], y[None, :, None], tree, cfg, seed, codec="exact")
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
        r, _ = amp_dense(xs, ys, tree_of(star(8)), cfg, seed=300 + t)
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


# m <= 20 on the star and the line, so that uniform:20's cells, zipf:1.1's
# head and, on the star, sparse:0.1's values of 7 to 10 go to every player;
# on grid:8x8, m = 64, only zipf's head does
@pytest.mark.parametrize("codec", ["rounding", "exact"])
@pytest.mark.parametrize("dist", ["sparse:0.1", "zipf:1.1", "uniform:20"])
@pytest.mark.parametrize("topology, m", [("star", 7), ("line", 20), ("grid:8x8", 64)])
def test_amp_from_split_cells_equals_amp_from_dense_slices(topology, m, dist, codec):
    spec = ExperimentSpec(protocol="amp", topology=topology, m=m, n=60, dist=dist, eps=0.5,
                          t1=2, t2=3)
    tree = tree_of(from_spec(topology, m))
    cfg = spec.config()
    rng = np.random.default_rng(8)
    xmat, ymat = generate_matrix(spec, 2, rng), generate_matrix(spec, 3, rng)
    for y in (ymat, np.zeros_like(ymat)):  # the second run has an all-zero side
        r, stats = amp_estimate(split_cells(xmat, m), split_cells(y, m), tree, cfg, seed=3,
                                codec=codec)
        want, want_stats = dense_amp_estimate(split_units(xmat, m), split_units(y, m), tree,
                                              cfg, seed=3, codec=codec)
        assert r.tobytes() == want.tobytes()
        assert stats.per_edge_bits == want_stats.per_edge_bits
        assert stats.max_edge_bits > 1


def _amp_trial_peak_mib(spec: ExperimentSpec) -> float:
    """tracemalloc's peak, in MiB, of one amp run_trial after a first one."""
    run_trial(spec, 0)  # builds the tree and its cached schedule
    tracemalloc.start()
    try:
        run_trial(spec, 1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Each bound is the peak measured with numpy 2.4 plus 50%.  Before amp took
# its players' nonzero cells, the dense (m, n, t) split of the matrices and
# a whole-layer rounding put the peaks at 20.1 and 129.9 MiB.
@pytest.mark.parametrize("topology, m, n, measured", [
    ("star", 16, 10**4, 8.8),           # sketch-wide's amp: the 16,384-lane payload
    ("grid:100x100", 10**4, 200, 2.8),  # m = 10^4: ten players hold data
])
def test_amp_trial_memory_peak(topology, m, n, measured):
    spec = ExperimentSpec(protocol="amp", topology=topology, m=m, n=n, trials=2)
    assert _amp_trial_peak_mib(spec) <= 1.5 * measured
