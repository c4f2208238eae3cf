"""High-moment estimation: input handling, medians, truncation, accuracy."""

import math

import numpy as np
import pytest

from bitcodec import gamma_len, zigzag
from sketchcast import kernels
from sketchcast.fp_high import (
    FpHighConfig,
    as_count_matrix,
    estimate_fp_high,
    lower_median,
)
from sketchcast.oracles import frequency_moment, lp_norm
from sketchcast.stable import build_sketch, median_abs
from sketchcast.streams import DOMAIN_SKETCH, substream
from sketchcast.topology import center, line, spanning_tree, star


def test_lower_median_odd_and_even():
    assert lower_median(np.array([3.0, 1.0, 2.0])) == 2.0
    assert lower_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.0
    assert lower_median(np.array([7.0])) == 7.0


def test_as_count_matrix_passes_arrays_through():
    data = np.array([[1.0, 2.0], [0.0, 3.0]])
    assert np.array_equal(as_count_matrix(data, 2), data)


def test_as_count_matrix_rejects_bad_array_shape():
    with pytest.raises(ValueError):
        as_count_matrix(np.zeros((3, 4)), m=2)
    with pytest.raises(ValueError):
        as_count_matrix(np.zeros(4), m=4)


def test_as_count_matrix_rejections():
    with pytest.raises(ValueError):
        as_count_matrix(np.array([[-1.0]]), m=1)
    with pytest.raises(ValueError):
        as_count_matrix(np.array([[2.0, -0.5], [1.0, 1.0]]), m=2)


def test_config_validation():
    FpHighConfig(p=2.0, eps=0.1)
    with pytest.raises(ValueError):
        FpHighConfig(p=1.0, eps=0.1)
    with pytest.raises(ValueError):
        FpHighConfig(p=2.1, eps=0.1)
    with pytest.raises(ValueError):
        FpHighConfig(p=1.5, eps=0.5)
    with pytest.raises(ValueError):
        FpHighConfig(p=1.5, eps=0.1, delta=0.0)


def test_config_row_count():
    assert FpHighConfig(p=1.5, eps=0.1, c_k=12.0).k == 1200
    # the floor keeps tiny instances from degenerate one-row medians
    assert FpHighConfig(p=1.5, eps=0.45, c_k=1.0).k == 16


def truncated_at(x, layer, params):
    """Zero-flag lanes of one layer's rounding, as the convergecast runs it."""
    x = np.asarray(x, dtype=np.float64)
    out = kernels.round_to_grid(x, np.full(x.shape, 0.5), params.log_gamma,
                                params.log_floor(layer), params.exponent_min,
                                params.exponent_max)
    assert out[3]
    return out[1], out[2]


def test_truncate_message_cases():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    params = cfg.rounding_params(n=64, m=16, depth=4, M=10.0)
    floor0 = math.exp(params.log_floor(0))
    is_zero, decoded = truncated_at([0.0, 2 * floor0, -2 * floor0, floor0 / 2], 0, params)
    assert list(is_zero) == [True, False, False, True]
    assert decoded[0] == decoded[3] == 0.0
    assert decoded[1] > 0.0 > decoded[2]


def test_truncation_floor_rises_with_layer():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    params = cfg.rounding_params(n=64, m=16, depth=4, M=10.0)
    r = 2 * math.exp(params.log_floor(0))
    assert not truncated_at([r], 0, params)[0][0]
    assert truncated_at([r], 4, params)[0][0]


def test_all_zero_inputs_cost_one_bit_per_edge():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    norm, fp, stats = estimate_fp_high(np.zeros((5, 16)), line(5), cfg, seed=0)
    assert norm == 0.0 and fp == 0.0
    assert stats.max_edge_bits == 1


def test_fp_estimate_is_norm_to_the_p():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    data = np.arange(32.0).reshape(4, 8)
    norm, fp, _ = estimate_fp_high(data, star(4), cfg, seed=3)
    assert fp == norm**1.5


def test_unknown_codec_rejected():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    with pytest.raises(ValueError):
        estimate_fp_high(np.ones((2, 4)), line(2), cfg, seed=0, codec="utf-8")


def test_single_player_l2_norm_of_3_4():
    # ||X||_2 = 5; the median estimator should land within 10% most runs.
    cfg = FpHighConfig(p=2.0, eps=0.1)
    data = np.zeros((1, 8))
    data[0, 0], data[0, 1] = 3.0, 4.0
    hits = 0
    for t in range(100):
        norm, _, stats = estimate_fp_high(data, star(1), cfg, seed=t)
        hits += 4.5 <= norm <= 5.5
        assert stats.total_bits == 0
    assert hits >= 75


def test_exact_codec_matches_pooled_estimator():
    # Shipping raw float64 sketches must reproduce the centralized
    # median-of-coordinates estimate on the pooled counts.
    cfg = FpHighConfig(p=1.5, eps=0.25)
    rng = np.random.default_rng(11)
    data = rng.integers(0, 50, size=(6, 40)).astype(np.float64)
    seed = 17
    norm, fp, _ = estimate_fp_high(data, star(6), cfg, seed, codec="exact")

    sk = build_sketch(cfg.k, 40, cfg.p, cfg.eta, substream(seed, DOMAIN_SKETCH))
    pooled = sk.apply(data.sum(axis=0), scaled=True)
    want = lower_median(np.abs(pooled)) / median_abs(cfg.p)
    assert math.isclose(norm, want, rel_tol=1e-12)
    assert math.isclose(fp, want**cfg.p, rel_tol=1e-12)


def test_rounding_stays_within_eps_of_exact_pipeline():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    rng = np.random.default_rng(2)
    topo = line(16)
    hits = 0
    for t in range(40):
        data = rng.integers(0, 100, size=(16, 64)).astype(np.float64)
        rounded, _, _ = estimate_fp_high(data, topo, cfg, seed=1000 + t)
        exact, _, _ = estimate_fp_high(data, topo, cfg, seed=1000 + t, codec="exact")
        hits += abs(rounded - exact) <= cfg.eps * lp_norm(data.sum(axis=0), cfg.p)
    assert hits >= 38


def test_every_message_fits_the_window_bound():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    rng = np.random.default_rng(9)
    data = rng.integers(0, 1000, size=(12, 64)).astype(np.float64)
    topo = line(12)
    _, _, stats = estimate_fp_high(data, topo, cfg, seed=4)

    depth = spanning_tree(topo, center(topo)).depth
    params = cfg.rounding_params(n=64, m=12, depth=depth, M=float(data.max()))
    worst_exp = max(-params.exponent_min, params.exponent_max)
    per_lane = 2 + gamma_len(zigzag(worst_exp) + 1)
    for bits in stats.per_edge_bits.values():
        assert bits <= 1 + cfg.k * per_lane


def test_relative_error_against_moment_oracle():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    rng = np.random.default_rng(21)
    topo = star(8)
    hits = 0
    for t in range(20):
        data = np.floor(rng.pareto(1.1, size=(8, 64)) + 1.0)
        est = estimate_fp_high(data, topo, cfg, seed=500 + t)[1]
        truth = frequency_moment(data.sum(axis=0), cfg.p)
        hits += abs(est - truth) <= cfg.eps * truth
    assert hits >= 14
