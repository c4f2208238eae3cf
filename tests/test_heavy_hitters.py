"""Count-sketch tables, point estimates, and the heavy hitter filter."""

import dataclasses
import functools
import math
import sys

import numpy as np
import pytest

from helpers import paper_exponent_bracket, tree_of
from sketchcast.fp_high import lower_median
from sketchcast.harness import ExperimentSpec, generate_players
from sketchcast.heavy_hitters import (
    MERSENNE_31,
    CountSketchSpec,
    _poly31,
    bucket_sums,
    estimates_from_table,
    heavy_hitters,
    local_table,
    nonzero_cells,
    point_estimate_all,
)
from sketchcast.oracles import tail_l2
from sketchcast.topology import grid, line, star


def _poly_mod(coeffs: tuple[int, ...], n: int) -> list[int]:
    """Evaluate a polynomial over GF(2^31 - 1) at 0..n-1 by Horner, in Python integers."""
    out = []
    for x in range(n):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % MERSENNE_31
        out.append(acc)
    return out


def toy_spec():
    # one row, identity-ish hashes: bucket = x mod 6, sign from low bit of x^3
    return CountSketchSpec(n=4, rows=1, width=6,
                           h_coeffs=((1, 0),), g_coeffs=(((1, 0, 0, 0)),))


def test_poly_mod_matches_horner_by_hand():
    assert _poly_mod((3, 5), 4) == [5, 8, 11, 14]
    assert _poly_mod((1, 0, 0, 0), 4) == [0, 1, 8, 27]
    # wraparound stays inside the field
    assert _poly_mod((MERSENNE_31 - 1, 1), 2) == [1, MERSENNE_31 - 1 + 1 - MERSENNE_31]


@pytest.mark.parametrize("coeffs", [
    (0, 0),
    (MERSENNE_31 - 1, MERSENNE_31 - 1),
    (0, 0, 0, 0),
    (MERSENNE_31 - 1, MERSENNE_31 - 1, MERSENNE_31 - 1, MERSENNE_31 - 1),
    (MERSENNE_31 - 1, 0, MERSENNE_31 - 1, 0),
])
def test_vectorised_hashes_equal_horner_at_extreme_coefficients(coeffs):
    # n from a single point to 10^5, with a second row, the coefficients
    # reversed, hashed in the same call
    rows = (coeffs, coeffs[::-1])
    for n in (1, 2047, 2048, 2049, 4095, 4096, 4097, 10_000, 10**5):
        got = _poly31(rows, n)
        assert got.shape == (2, n) and got.dtype == np.uint64
        for row, c in zip(got, rows):
            assert np.array_equal(row, np.array(_poly_mod(c, n), dtype=np.uint64))


def test_bucket_and_sign_equal_horner_oracle():
    # four rows keep the pure-Python Horner oracle fast
    full = CountSketchSpec.build(10**5, 0.3, seed=2)
    spec = dataclasses.replace(full, rows=4, h_coeffs=full.h_coeffs[:4],
                               g_coeffs=full.g_coeffs[:4])
    bucket, sign = spec.bucket_of(), spec.sign_of()
    for i in range(spec.rows):
        h = _poly_mod(spec.h_coeffs[i], spec.n)
        g = _poly_mod(spec.g_coeffs[i], spec.n)
        assert bucket[i].tolist() == [v % spec.width for v in h]
        assert sign[i].tolist() == [1.0 if v & 1 else -1.0 for v in g]


def test_build_shapes_and_determinism():
    spec = CountSketchSpec.build(1000, 0.25, seed=5)
    assert spec.rows == 20  # ceil(2 log2 1000)
    assert spec.width == 96  # ceil(6 / 0.0625)
    assert spec == CountSketchSpec.build(1000, 0.25, seed=5)
    assert spec != CountSketchSpec.build(1000, 0.25, seed=6)
    for a, b in spec.h_coeffs:
        assert 1 <= a < MERSENNE_31 and 0 <= b < MERSENNE_31


def test_build_validation():
    with pytest.raises(ValueError):
        CountSketchSpec.build(1, 0.25, seed=0)
    with pytest.raises(ValueError):
        CountSketchSpec.build(100, 0.0, seed=0)
    with pytest.raises(ValueError):
        CountSketchSpec(n=4, rows=0, width=6, h_coeffs=(), g_coeffs=())
    with pytest.raises(ValueError):
        CountSketchSpec(n=4, rows=1, width=5, h_coeffs=((1, 0),),
                        g_coeffs=((1, 0, 0, 0),))


def test_hash_ranges():
    spec = CountSketchSpec.build(200, 0.3, seed=1)
    bucket, sign = spec.bucket_of(), spec.sign_of()
    assert bucket.shape == sign.shape == (spec.rows, 200)
    assert bucket.min() >= 0 and bucket.max() < spec.width
    assert set(np.unique(sign)) == {-1.0, 1.0}


class _NoNumpy:
    """Stands in for numpy where no array may be made."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} reached before the universe guard")


@pytest.mark.parametrize("n", [MERSENNE_31, 1 << 32])
def test_hashes_reject_universe_past_the_field_before_allocating(n, monkeypatch):
    spec = CountSketchSpec(n=n, rows=1, width=6, h_coeffs=((1, 0),), g_coeffs=((1, 0, 0, 0),))
    monkeypatch.setattr(sys.modules[CountSketchSpec.__module__], "np", _NoNumpy())
    for hashes in (spec.bucket_of, spec.sign_of, lambda: _poly31(spec.h_coeffs, n)):
        with pytest.raises(ValueError, match="2\\^31 - 1"):
            hashes()


# Spec draws per independence test, each one row, hashed as one table: the
# tolerances are 4 sigma of the mean of this many draws.
_LAW_DRAWS = 20_000


@functools.cache
def _drawn_rows(width: int) -> CountSketchSpec:
    rng = np.random.default_rng(11)
    specs = [CountSketchSpec.draw(1000, 1, width, rng) for _ in range(_LAW_DRAWS)]
    return CountSketchSpec(1000, _LAW_DRAWS, width,
                           tuple(s.h_coeffs[0] for s in specs),
                           tuple(s.g_coeffs[0] for s in specs))


@pytest.mark.parametrize("width", [6, 37])
def test_bucket_pairs_collide_at_rate_one_over_width(width):
    bucket = _drawn_rows(width).bucket_of()
    for x1, x2 in [(0, 1), (2, 999), (500, 501)]:
        rate = np.mean(bucket[:, x1] == bucket[:, x2])
        sigma = math.sqrt((1 / width) * (1 - 1 / width) / _LAW_DRAWS)
        assert abs(rate - 1 / width) < 4 * sigma, (x1, x2, rate)


def test_sign_pairs_and_quadruples_are_uncorrelated():
    sign = _drawn_rows(6).sign_of()
    sigma = 1 / math.sqrt(_LAW_DRAWS)
    for points in [(0, 1), (3, 998), (0, 1, 2, 3), (0, 7, 500, 999)]:
        mean = np.prod(sign[:, points], axis=1).mean()
        assert abs(mean) < 4 * sigma, (points, mean)


def test_local_table_by_hand():
    spec = toy_spec()
    table = local_table(np.array([5.0, 6.0, 7.0, 8.0]), spec)
    # signs from x^3 low bit: -,+,-,+ ; buckets 0..3
    assert np.array_equal(table, [[-5.0, 6.0, -7.0, 8.0, 0.0, 0.0]])


def test_estimates_invert_collision_free_table():
    spec = toy_spec()
    x = np.array([5.0, 6.0, 7.0, 8.0])
    assert np.array_equal(estimates_from_table(local_table(x, spec), spec), x)


def test_local_table_is_linear():
    spec = CountSketchSpec.build(50, 0.3, seed=2)
    rng = np.random.default_rng(0)
    x, y = rng.integers(0, 20, 50).astype(float), rng.integers(0, 20, 50).astype(float)
    assert np.array_equal(local_table(x + y, spec),
                          local_table(x, spec) + local_table(y, spec))


def test_local_table_rejects_bad_shape():
    spec = CountSketchSpec.build(50, 0.3, seed=2)
    with pytest.raises(ValueError):
        local_table(np.ones(49), spec)


def test_point_estimate_rejects_mismatched_universe():
    spec = CountSketchSpec.build(8, 0.3, seed=0)
    with pytest.raises(ValueError):
        point_estimate_all(np.ones((2, 9)), tree_of(star(2)), spec, 0.3, seed=0)
    with pytest.raises(ValueError):
        point_estimate_all(np.ones((2, 8)), tree_of(star(2)), spec, 0.3, seed=0, codec="gzip")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_counts_rejected(bad):
    data = np.ones((3, 50))
    data[1, 7] = bad
    spec = CountSketchSpec.build(50, 0.3, seed=0)
    with pytest.raises(ValueError, match="finite"):
        point_estimate_all(data, tree_of(star(3)), spec, 0.3, seed=0)


def test_single_support_recovered_exactly():
    spec = CountSketchSpec.build(64, 0.25, seed=3)
    data = np.zeros((4, 64))
    data[2, 7] = 100.0
    xt, _, _ = point_estimate_all(data, tree_of(star(4)), spec, 0.25, seed=3, codec="exact")
    assert xt[7] == 100.0


def test_zero_inputs_give_zero_estimates_for_one_bit():
    spec = CountSketchSpec.build(64, 0.25, seed=4)
    xt, stats, _ = point_estimate_all(np.zeros((4, 64)), tree_of(star(4)), spec, 0.25, seed=4)
    assert not xt.any()
    assert stats.max_edge_bits == 1


def test_exact_codec_matches_pooled_count_sketch():
    # integer cells sum exactly, so the distributed table and estimates
    # agree bit-for-bit with a single sketch of the pooled vector
    spec = CountSketchSpec.build(128, 0.3, seed=8)
    rng = np.random.default_rng(1)
    data = rng.integers(0, 30, size=(6, 128)).astype(np.float64)
    xt, _, _ = point_estimate_all(data, tree_of(grid(2, 3)), spec, 0.3, seed=8, codec="exact")
    pooled = estimates_from_table(local_table(data.sum(axis=0), spec), spec)
    assert np.array_equal(xt, pooled)


def test_exact_codec_f2_is_the_row_median_of_the_pooled_table():
    spec = CountSketchSpec.build(128, 0.3, seed=8)
    rng = np.random.default_rng(1)
    data = rng.integers(0, 30, size=(6, 128)).astype(np.float64)
    _, _, f2 = point_estimate_all(data, tree_of(grid(2, 3)), spec, 0.3, seed=8, codec="exact")
    assert f2 == lower_median(np.sum(local_table(data.sum(axis=0), spec) ** 2, axis=1))


@pytest.mark.parametrize("dist", ["zipf:1.1", "planted:1000:3"])
def test_rounded_table_f2_is_within_eps_on_a_deep_line(dist):
    # the rounded root table of a depth-32 tree still gives F_2 to within eps
    eps = 0.25
    spec = ExperimentSpec(protocol="hh", topology="line", m=65, n=1000, dist=dist,
                          eps=eps, tokens=200)
    tree = tree_of(line(65))
    for t in range(10):
        players = generate_players(spec, np.random.default_rng(t))
        f2 = float(np.sum(players.sum(axis=0) ** 2))
        cs = CountSketchSpec.build(spec.n, eps, seed=t)
        _, _, est = point_estimate_all(players, tree, cs, eps, seed=t)
        assert abs(est - f2) <= eps * f2, (t, est, f2)


def test_messages_respect_the_per_lane_budget():
    from bitcodec import rounded_len_bound
    from sketchcast.rounding import gamma_for

    spec = CountSketchSpec.build(64, 0.25, seed=9)
    rng = np.random.default_rng(2)
    data = rng.integers(0, 100, size=(6, 64)).astype(np.float64)
    tree = tree_of(grid(2, 3))
    _, stats, _ = point_estimate_all(data, tree, spec, 0.25, seed=9)
    params = gamma_for(0.25, 0.25, max(1, tree.depth), 64, 6, M=float(data.max()))
    # the paper's O(log) bound: every lane live, exponents across its bracket
    budget = rounded_len_bound(spec.rows * spec.width, *paper_exponent_bracket(params, 6))
    for bits in stats.per_edge_bits.values():
        assert bits <= 1 + budget


def test_heavy_hitters_threshold_and_ordering():
    xt = np.array([10.0, 3.0, 0.0, -9.0])
    assert heavy_hitters(xt, 0.5, 100.0) == [0, 3, 1]
    assert heavy_hitters(xt, 0.5, 10000.0) == []


def test_heavy_hitters_cap():
    xt = np.array([10.0, 9.0, 8.0, 7.0, 6.0, 5.0])
    assert heavy_hitters(xt, 1.5, 4.0) == [0, 1, 2, 3]  # cap = ceil(8/2.25)


def test_heavy_hitters_zero_f2_returns_nonzero_support():
    assert heavy_hitters(np.array([0.0, 2.0, 0.0]), 0.5, 0.0) == [1]
    with pytest.raises(ValueError):
        heavy_hitters(np.array([1.0]), 0.5, -1.0)


def test_two_equal_heavies_both_surface():
    n = 200
    x = np.ones(n)
    x[30] = x[160] = 300.0
    spec = CountSketchSpec.build(n, 0.25, seed=11)
    data = np.tile(x / 4, (4, 1))
    xt, _, _ = point_estimate_all(data, tree_of(star(4)), spec, 0.25, seed=11, codec="exact")
    found = heavy_hitters(xt, 0.25, float(np.sum(x**2)))
    assert set(found[:2]) == {30, 160}


def test_uniform_ones_have_no_heavy_hitter():
    # threshold (eps/2) sqrt(n) ~ 3.95 sits above every estimate at this
    # seed, so the empty set is the correct answer
    n, eps = 1000, 0.25
    spec = CountSketchSpec.build(n, eps, seed=0)
    data = np.zeros((4, n))
    data[0] = 1.0
    xt, _, _ = point_estimate_all(data, tree_of(star(4)), spec, eps, seed=0, codec="exact")
    assert heavy_hitters(xt, eps, float(n)) == []


def test_linf_guarantee_at_desk_scale():
    n, eps, m = 256, 0.25, 8
    x = np.floor(1000.0 * (np.arange(1, n + 1) ** -1.5))
    rng = np.random.default_rng(99)
    hits = 0
    for t in range(20):
        data = np.zeros((m, n))
        owner = rng.integers(0, m, size=n)
        for v in range(m):
            data[v, owner == v] = x[owner == v]
        spec = CountSketchSpec.build(n, eps, 700 + t)
        xt, _, _ = point_estimate_all(data, tree_of(star(m)), spec, eps, seed=700 + t)
        hits += np.abs(xt - x).max() <= eps * tail_l2(x, 16)
    assert hits >= 18


def test_local_table_of_players_matches_one_at_a_time():
    spec = CountSketchSpec.build(200, 0.3, seed=4)
    rng = np.random.default_rng(1)
    # non-integer values, so a cell's sum depends on the order of its terms
    players = rng.integers(-50, 50, (9, 200)) * rng.random((9, 200))
    players[rng.random(players.shape) < 0.5] = 0.0
    # all-zero players, a sparse row, and -0.0 entries: the table skips them all
    players[[2, 5]] = 0.0
    players[6, rng.random(200) < 0.97] = 0.0
    players[7, players[7] == 0.0] = -0.0
    bucket, sign = spec.bucket_of(), spec.sign_of()
    tables = local_table(players, spec)
    assert tables.shape == (9, spec.rows, spec.width)
    for v in range(9):
        assert tables[v].tobytes() == local_table(players[v], spec).tobytes()
        # every coordinate, zeros included, summed in ascending order
        dense = [np.bincount(bucket[i], weights=sign[i] * players[v], minlength=spec.width)
                 for i in range(spec.rows)]
        assert tables[v].tobytes() == np.stack(dense).tobytes()
    assert tables[[2, 5]].tobytes() == np.zeros((2, spec.rows, spec.width)).tobytes()


def test_bucket_sums_equal_a_per_cell_loop():
    # several sketch rows and columns together, which neither caller uses
    spec = CountSketchSpec.build(60, 0.9, seed=8)
    bucket, sign = spec.bucket_of(), spec.sign_of()
    rng = np.random.default_rng(2)
    # non-integer values, so a cell's sum depends on the order of its terms
    data = rng.integers(-50, 50, (5, 60, 3)) * rng.random((5, 60, 3))
    data[rng.random(data.shape) < 0.5] = 0.0
    data[1] = 0.0          # an all-zero player
    data[3, :, 2] = 0.0    # an all-zero column
    data[4, data[4] == 0.0] = -0.0
    got = bucket_sums(nonzero_cells(data), bucket, sign, spec.width)
    want = np.zeros((5, spec.rows, spec.width, 3))
    for v in range(5):
        for i in range(spec.rows):
            for c in range(3):
                for q in range(60):  # every coordinate, zeros included, in ascending order
                    want[v, i, bucket[i, q], c] += sign[i, q] * data[v, q, c]
    assert spec.rows > 1 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
