"""High-moment estimation: input handling, medians, truncation, accuracy."""

import math

import numpy as np
import pytest

from bitcodec import rounded_len_bound
from helpers import paper_exponent_bracket, tree_of
from sketch_reference import data_groups, dense_entries
from sketchcast import kernels
from sketchcast.engine import CODECS
from sketchcast.fp_high import (
    FpHighConfig,
    _sketch_sum,
    as_count_matrix,
    estimate_fp_high,
    lower_median,
    stable_norm,
)
from sketchcast.oracles import frequency_moment, lp_norm
from sketchcast.rounding import gamma_for
from sketchcast.stable import median_abs
from sketchcast.streams import DOMAIN_SKETCH, substream
from sketchcast.topology import line, star


def test_lower_median_odd_and_even():
    assert lower_median(np.array([3.0, 1.0, 2.0])) == 2.0
    assert lower_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.0
    assert lower_median(np.array([7.0])) == 7.0


def test_stable_norm_is_the_lower_median_magnitude_over_the_stable_median():
    y = np.array([-4.0, 1.0, -3.0, 2.0])
    assert stable_norm(y, 1.0) == 2.0  # median_abs(1) = 1
    assert stable_norm(y, 1.5) == 2.0 / median_abs(1.5)


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


def test_config_row_count():
    assert FpHighConfig(p=1.5, eps=0.1).k == 1200
    assert FpHighConfig(p=1.5, eps=0.45).k == 60
    # eps < 1/2 keeps k above 48, far from degenerate one-row medians
    assert FpHighConfig(p=1.5, eps=0.4999).k == 49


def truncated_at(x, layer, params):
    """Zero-flag lanes of one layer's rounding, as the convergecast runs it."""
    x = np.asarray(x, dtype=np.float64)
    decoded, _ = kernels.round_to_grid(x, np.full(x.shape, 0.5), params.log_gamma,
                                       params.log_floor(layer))
    return decoded == 0.0, decoded


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_lane_names_its_player_and_lane(codec, bad):
    # Without the check a NaN lane rounds to a zero flag and goes out
    # without a word, and an exact lane goes out as it is.
    def lanes_of(data, cfg, seed):
        lanes = np.ones((data.shape[0], 5))
        lanes[2, 3] = bad
        return lanes

    with pytest.raises(ValueError, match=f"player 2, lane 3: sketch value {bad} is not finite"):
        _sketch_sum(np.ones((4, 8)), tree_of(line(4)), FpHighConfig(p=1.5, eps=0.25), 0,
                    codec, lanes_of)


@pytest.mark.parametrize("codec", CODECS)
def test_non_finite_lane_names_the_vertex_id_of_its_player(codec):
    # players 0-6 hold nothing, so player 7's lanes are the only row
    def lanes_of(data, cfg, seed):
        assert data.shape == (1, 8)
        lanes = np.ones((1, 5))
        lanes[0, 3] = math.inf
        return lanes

    inputs = np.zeros((8, 8))
    inputs[7] = 1.0
    with pytest.raises(ValueError, match="player 7, lane 3: sketch value inf is not finite"):
        _sketch_sum(inputs, tree_of(line(8)), FpHighConfig(p=1.5, eps=0.25), 0, codec, lanes_of)


def test_truncate_message_cases():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    params = gamma_for(cfg.eps, cfg.delta, 4, 64, 16, M=10.0)
    floor0 = math.exp(params.log_floor(0))
    is_zero, decoded = truncated_at([0.0, 2 * floor0, -2 * floor0, floor0 / 2], 0, params)
    assert list(is_zero) == [True, False, False, True]
    assert decoded[0] == decoded[3] == 0.0
    assert decoded[1] > 0.0 > decoded[2]


def test_truncation_floor_rises_with_layer():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    params = gamma_for(cfg.eps, cfg.delta, 4, 64, 16, M=10.0)
    r = 2 * math.exp(params.log_floor(0))
    assert not truncated_at([r], 0, params)[0][0]
    assert truncated_at([r], 4, params)[0][0]


def test_all_zero_inputs_cost_one_bit_per_edge():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    norm, fp, stats = estimate_fp_high(np.zeros((5, 16)), tree_of(line(5)), cfg, seed=0)
    assert norm == 0.0 and fp == 0.0
    assert stats.max_edge_bits == 1


def test_fp_estimate_is_norm_to_the_p():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    data = np.arange(32.0).reshape(4, 8)
    norm, fp, _ = estimate_fp_high(data, tree_of(star(4)), cfg, seed=3)
    assert fp == norm**1.5


def test_unknown_codec_rejected():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    with pytest.raises(ValueError):
        estimate_fp_high(np.ones((2, 4)), tree_of(line(2)), cfg, seed=0, codec="utf-8")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_counts_rejected(bad):
    data = np.ones((3, 50))
    data[1, 7] = bad
    with pytest.raises(ValueError, match="finite"):
        estimate_fp_high(data, tree_of(star(3)), FpHighConfig(p=1.5, eps=0.25), seed=0)


def test_single_player_l2_norm_of_3_4():
    # ||X||_2 = 5; the median estimator should land within 10% most runs.
    cfg = FpHighConfig(p=2.0, eps=0.1)
    data = np.zeros((1, 8))
    data[0, 0], data[0, 1] = 3.0, 4.0
    hits = 0
    for t in range(100):
        norm, _, stats = estimate_fp_high(data, tree_of(star(1)), cfg, seed=t)
        hits += 4.5 <= norm <= 5.5
        assert stats.total_bits == 0
    assert hits >= 75


def test_exact_codec_matches_pooled_estimator():
    # Shipping raw float64 sketches must reproduce the centralized
    # median-of-coordinates estimate on the pooled counts.  The players
    # repeat no column, so their sketch is the fixed dense one.
    cfg = FpHighConfig(p=1.5, eps=0.25)
    rng = np.random.default_rng(11)
    data = rng.integers(0, 50, size=(6, 40)).astype(np.float64)
    assert data_groups(data)[0].size == np.count_nonzero(data.any(axis=0))
    seed = 17
    norm, fp, _ = estimate_fp_high(data, tree_of(star(6)), cfg, seed, codec="exact")

    entries = dense_entries(cfg.k, 40, cfg.p, cfg.eta, substream(seed, DOMAIN_SKETCH))
    pooled = cfg.eta * (entries @ data.sum(axis=0))
    want = lower_median(np.abs(pooled)) / median_abs(cfg.p)
    assert math.isclose(norm, want, rel_tol=1e-12)
    assert math.isclose(fp, want**cfg.p, rel_tol=1e-12)


def test_rounding_stays_within_eps_of_exact_pipeline():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    rng = np.random.default_rng(2)
    tree = tree_of(line(16))
    hits = 0
    for t in range(40):
        data = rng.integers(0, 100, size=(16, 64)).astype(np.float64)
        rounded, _, _ = estimate_fp_high(data, tree, cfg, seed=1000 + t)
        exact, _, _ = estimate_fp_high(data, tree, cfg, seed=1000 + t, codec="exact")
        hits += abs(rounded - exact) <= cfg.eps * lp_norm(data.sum(axis=0), cfg.p)
    assert hits >= 38


def test_every_message_fits_the_window_bound():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    rng = np.random.default_rng(9)
    data = rng.integers(0, 1000, size=(12, 64)).astype(np.float64)
    tree = tree_of(line(12))
    _, _, stats = estimate_fp_high(data, tree, cfg, seed=4)

    params = gamma_for(cfg.eps, cfg.delta, tree.depth, 64, 12, M=float(data.max()))
    # the paper's O(log) bound: every lane live, exponents across its bracket
    budget = rounded_len_bound(cfg.k, *paper_exponent_bracket(params, 12))
    for bits in stats.per_edge_bits.values():
        assert bits <= 1 + budget


def test_relative_error_against_moment_oracle():
    cfg = FpHighConfig(p=1.5, eps=0.25)
    rng = np.random.default_rng(21)
    tree = tree_of(star(8))
    hits = 0
    for t in range(20):
        data = np.floor(rng.pareto(1.1, size=(8, 64)) + 1.0)
        est = estimate_fp_high(data, tree, cfg, seed=500 + t)[1]
        truth = frequency_moment(data.sum(axis=0), cfg.p)
        hits += abs(est - truth) <= cfg.eps * truth
    assert hits >= 14
