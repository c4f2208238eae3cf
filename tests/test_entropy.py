"""Entropy estimation: config bounds, formula collapse, accuracy, streaming."""

import math

import numpy as np
import pytest

from helpers import tree_of
from sketchcast.entropy import (
    EntropyConfig,
    _entropy_from_rows,
    entropy_to_bits,
    estimate_entropy,
    stream_entropy,
)
from sketchcast.harness import zipf_weights
from sketchcast.oracles import entropy_nats
from sketch_reference import MEDIAN_SKEWED_STANDARD
from sketchcast.stable import build_sketch
from sketchcast.streams import DOMAIN_SKETCH, substream
from sketchcast.topology import line, spanning_tree, star


def test_config_validation():
    EntropyConfig(eps=0.2)
    with pytest.raises(ValueError):
        EntropyConfig(eps=0.0)
    with pytest.raises(ValueError):
        EntropyConfig(eps=1.0)


def test_config_derived_fields():
    cfg = EntropyConfig(eps=0.2)
    assert cfg.k == 300
    assert EntropyConfig(eps=0.9).k == 16


def test_injected_rows_collapse_to_exact_entropy():
    h, raw, clamped = _entropy_from_rows(np.full(16, -0.7), n=100)
    assert math.isclose(h, 0.7, abs_tol=1e-12)
    assert math.isclose(raw, 0.7, abs_tol=1e-12)
    assert clamped == 0


def test_negative_raw_clamps_to_zero():
    h, raw, clamped = _entropy_from_rows(np.full(16, 0.5), n=100)
    assert h == 0.0
    assert math.isclose(raw, -0.5, abs_tol=1e-12)
    assert clamped == 1


def test_oversized_raw_clamps_to_log_n():
    h, raw, clamped = _entropy_from_rows(np.full(16, -10.0), n=4)
    assert h == math.log(4)
    assert math.isclose(raw, 10.0, abs_tol=1e-12)
    assert clamped == 1


def test_zero_aggregate_raises():
    with pytest.raises(ValueError):
        estimate_entropy(np.zeros((3, 8)), tree_of(line(3)), EntropyConfig(eps=0.2), seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_counts_rejected(bad):
    data = np.ones((3, 50))
    data[1, 7] = bad
    with pytest.raises(ValueError, match="finite"):
        estimate_entropy(data, tree_of(star(3)), EntropyConfig(eps=0.2), seed=0)


def test_single_coordinate_universe_has_zero_entropy():
    data = np.array([[10.0], [30.0]])
    h, stats = estimate_entropy(data, tree_of(line(2)), EntropyConfig(eps=0.2), seed=1)
    assert h == 0.0
    assert stats.comm.rounds == 1


def test_single_support_aggregate_is_near_zero_entropy():
    cfg = EntropyConfig(eps=0.2)
    data = np.zeros((4, 8))
    data[:, 0] = 100.0
    hits = 0
    for t in range(10):
        h, _ = estimate_entropy(data, tree_of(star(4)), cfg, seed=t)
        hits += abs(h) <= cfg.eps
    assert hits >= 7


def test_uniform_four_coordinates_near_ln4():
    cfg = EntropyConfig(eps=0.2)
    data = np.tile(np.array([0.0] * 4 + [25.0] * 4), (4, 1))
    hits = 0
    for t in range(10):
        h, _ = estimate_entropy(data, tree_of(line(4)), cfg, seed=50 + t)
        hits += abs(h - math.log(4)) <= cfg.eps
    assert hits >= 7


def test_sketch_rows_center_on_shifted_skewed_median():
    # Normalized rows follow the maximally skewed law with location -H,
    # so their median sits near the standard median minus the entropy.
    n = 4
    x = np.full(n, 50.0)
    h_true = math.log(n)
    sk = build_sketch(10**4, n, p=1.0, eta=2.0**-20,
                      seed=substream(123, DOMAIN_SKETCH), skewed=True)
    y = 2.0**-20 * sk.apply(x) / x.sum()
    assert abs(np.median(y) - (MEDIAN_SKEWED_STANDARD - h_true)) < 0.05


def test_exact_y_estimator_is_eps_additive():
    # 90/10 split: H = 0.3251 nats.
    cfg = EntropyConfig(eps=0.2)
    truth = entropy_nats(np.array([9000.0, 1000.0]))
    hits = 0
    for t in range(20):
        stream = [(0, 9000), (1, 1000)]
        h = stream_entropy(stream, cfg, seed=t)
        hits += abs(h - truth) <= cfg.eps
    assert hits >= 18


def test_stream_entropy_rejects_empty():
    cfg = EntropyConfig(eps=0.2)
    with pytest.raises(ValueError):
        stream_entropy([], cfg)
    with pytest.raises(ValueError):
        stream_entropy([(0, 0)], cfg)


def test_stream_verb_is_the_network_protocol_on_one_player():
    # one player sends nothing, so the root sums its own lanes exactly
    cfg = EntropyConfig(eps=0.3)
    rng = np.random.default_rng(21)
    tree = spanning_tree(star(1), 0)
    for t in range(20):
        counts = rng.multinomial(2000, zipf_weights(80, 1.3))
        stream = np.column_stack([np.arange(80), counts])
        want, _ = estimate_entropy(counts[None].astype(float), tree, cfg, seed=t)
        assert math.isclose(stream_entropy(stream, cfg, seed=t), want, abs_tol=1e-12)


def test_stream_single_item_near_zero():
    cfg = EntropyConfig(eps=0.2)
    hits = 0
    for t in range(10):
        hits += abs(stream_entropy([(0, 500)], cfg, seed=t, n=8)) <= cfg.eps
    assert hits >= 7


def test_stream_uniform_universe_near_ln_n():
    cfg = EntropyConfig(eps=0.2)
    stream = [(i, 100) for i in range(100)]
    hits = 0
    for t in range(10):
        h = stream_entropy(stream, cfg, seed=200 + t)
        hits += abs(h - math.log(100)) <= cfg.eps
    assert hits >= 8


def test_distributed_matches_oracle_on_skewed_mass():
    cfg = EntropyConfig(eps=0.25)
    data = np.tile(np.array([40.0, 10.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0]), (4, 1))
    truth = entropy_nats(data.sum(axis=0))
    hits = 0
    for t in range(10):
        h, _ = estimate_entropy(data, tree_of(star(4)), cfg, seed=400 + t)
        hits += abs(h - truth) <= cfg.eps
    assert hits >= 7


def test_entropy_to_bits():
    assert math.isclose(entropy_to_bits(math.log(2.0)), 1.0, rel_tol=1e-12)
    assert math.isclose(entropy_to_bits(1.0), 1.0 / math.log(2.0), rel_tol=1e-12)
