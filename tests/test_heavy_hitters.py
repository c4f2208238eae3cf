"""Count-sketch tables, point estimates, and the heavy hitter filter."""

import numpy as np
import pytest

from sketchcast.heavy_hitters import (
    MERSENNE_61,
    CountSketchSpec,
    _poly61,
    estimates_from_table,
    heavy_hitters,
    local_table,
    point_estimate_all,
)
from sketchcast.oracles import tail_l2
from sketchcast.topology import grid, star


def _poly_mod(coeffs: tuple[int, ...], n: int) -> list[int]:
    """Evaluate a polynomial over GF(2^61 - 1) at 0..n-1 by Horner, in Python integers."""
    out = []
    for x in range(n):
        acc = 0
        for c in coeffs:
            acc = (acc * x + c) % MERSENNE_61
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
    assert _poly_mod((MERSENNE_61 - 1, 1), 2) == [1, MERSENNE_61 - 1 + 1 - MERSENNE_61]


@pytest.mark.parametrize("coeffs", [
    (0, 0),
    (MERSENNE_61 - 1, MERSENNE_61 - 1),
    (0, 0, 0, 0),
    (MERSENNE_61 - 1, MERSENNE_61 - 1, MERSENNE_61 - 1, MERSENNE_61 - 1),
    (MERSENNE_61 - 1, 0, MERSENNE_61 - 1, 0),
])
def test_vectorised_hashes_equal_horner_at_extreme_coefficients(coeffs):
    n = 10**5
    want = np.array(_poly_mod(coeffs, n), dtype=np.uint64)
    assert np.array_equal(_poly61((coeffs,), n)[0], want)


def test_bucket_and_sign_equal_horner_oracle():
    spec = CountSketchSpec.build(10**5, 0.3, seed=2, c_ell=0.2)
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
        assert 1 <= a < MERSENNE_61 and 0 <= b < MERSENNE_61


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
        point_estimate_all(np.ones((2, 9)), star(2), spec, 0.3, seed=0)
    with pytest.raises(ValueError):
        point_estimate_all(np.ones((2, 8)), star(2), spec, 0.3, seed=0, codec="gzip")


def test_single_support_recovered_exactly():
    spec = CountSketchSpec.build(64, 0.25, seed=3)
    data = np.zeros((4, 64))
    data[2, 7] = 100.0
    xt, _ = point_estimate_all(data, star(4), spec, 0.25, seed=3, codec="exact")
    assert xt[7] == 100.0


def test_zero_inputs_give_zero_estimates_for_one_bit():
    spec = CountSketchSpec.build(64, 0.25, seed=4)
    xt, stats = point_estimate_all(np.zeros((4, 64)), star(4), spec, 0.25, seed=4)
    assert not xt.any()
    assert stats.max_edge_bits == 1


def test_exact_codec_matches_pooled_count_sketch():
    # integer cells sum exactly, so the distributed table and estimates
    # agree bit-for-bit with a single sketch of the pooled vector
    spec = CountSketchSpec.build(128, 0.3, seed=8)
    rng = np.random.default_rng(1)
    data = rng.integers(0, 30, size=(6, 128)).astype(np.float64)
    xt, _ = point_estimate_all(data, grid(2, 3), spec, 0.3, seed=8, codec="exact")
    pooled = estimates_from_table(local_table(data.sum(axis=0), spec), spec)
    assert np.array_equal(xt, pooled)


def test_messages_respect_the_per_lane_budget():
    from bitcodec import gamma_len, zigzag
    from sketchcast.rounding import gamma_for
    from sketchcast.topology import center, spanning_tree

    spec = CountSketchSpec.build(64, 0.25, seed=9)
    rng = np.random.default_rng(2)
    data = rng.integers(0, 100, size=(6, 64)).astype(np.float64)
    topo = grid(2, 3)
    _, stats = point_estimate_all(data, topo, spec, 0.25, seed=9)
    depth = spanning_tree(topo, center(topo)).depth
    params = gamma_for(0.25, 0.25, max(1, depth), 64, 6, M=float(data.max()))
    per_lane = 2 + gamma_len(zigzag(max(-params.exponent_min, params.exponent_max)) + 1)
    lanes = spec.rows * spec.width
    for bits in stats.per_edge_bits.values():
        assert bits <= 1 + lanes * per_lane


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
    xt, _ = point_estimate_all(data, star(4), spec, 0.25, seed=11, codec="exact")
    found = heavy_hitters(xt, 0.25, float(np.sum(x**2)))
    assert set(found[:2]) == {30, 160}


def test_uniform_ones_have_no_heavy_hitter():
    # threshold (eps/2) sqrt(n) ~ 3.95 sits above every estimate at this
    # seed, so the empty set is the correct answer
    n, eps = 1000, 0.25
    spec = CountSketchSpec.build(n, eps, seed=0)
    data = np.zeros((4, n))
    data[0] = 1.0
    xt, _ = point_estimate_all(data, star(4), spec, eps, seed=0, codec="exact")
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
        xt, _ = point_estimate_all(data, star(m), spec, eps, seed=700 + t)
        hits += np.abs(xt - x).max() <= eps * tail_l2(x, 16)
    assert hits >= 18


def test_local_table_of_players_matches_one_at_a_time():
    spec = CountSketchSpec.build(200, 0.3, seed=4)
    rng = np.random.default_rng(1)
    players = rng.integers(-50, 50, (9, 200)).astype(float)
    players[rng.random(players.shape) < 0.5] = 0.0
    tables = local_table(players, spec)
    assert tables.shape == (9, spec.rows, spec.width)
    for v in range(9):
        assert tables[v].tobytes() == local_table(players[v], spec).tobytes()
