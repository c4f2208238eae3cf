"""Convergecast engine: metering, scheduling, determinism, message families."""

import math

import numpy as np
import pytest

from sketchcast.engine import (
    ZERO,
    CommStats,
    CounterOverflowError,
    CounterVector,
    CounterVectorCodec,
    baseline_codec_bits,
    exact_sum_convergecast,
    morris_sum_convergecast,
    rounded_sum_convergecast,
    run_convergecast,
)
from sketchcast.rounding import RoundingParams, WindowError, gamma_for
from sketchcast.topology import line, spanning_tree, star


class CountingCodec:
    """Codec stub whose byte-count is the payload itself."""

    def bits(self, msg):
        return int(msg)


def sum_transform(v, own, children, gen):
    return own + sum(c for c in children if c is not ZERO)


def test_single_vertex_sends_nothing():
    tree = spanning_tree(star(1), 0)
    out, stats = run_convergecast(tree, [42], sum_transform, CountingCodec())
    assert out == 42
    assert stats.per_edge_bits == {}
    assert stats.max_edge_bits == 0 and stats.total_bits == 0 and stats.rounds == 0


def test_star_sum_meters_every_leaf_edge():
    tree = spanning_tree(star(4), 0)
    out, stats = run_convergecast(tree, [1, 2, 3, 4], sum_transform, CountingCodec())
    assert out == 10
    assert set(stats.per_edge_bits) == {(1, 0), (2, 0), (3, 0)}
    # leaves forward their own value; the codec charges 1 flag + value bits
    assert stats.per_edge_bits[(3, 0)] == 1 + 4
    assert stats.rounds == 1


def test_zero_sentinel_costs_one_bit():
    def transform(v, own, children, gen):
        if own == 0 and all(c is ZERO for c in children):
            return ZERO
        return sum_transform(v, own, children, gen)

    tree = spanning_tree(star(4), 0)
    out, stats = run_convergecast(tree, [5, 0, 7, 0], transform, CountingCodec())
    assert out == 12
    assert stats.per_edge_bits[(1, 0)] == 1
    assert stats.per_edge_bits[(3, 0)] == 1
    assert stats.per_edge_bits[(2, 0)] == 1 + 7


def test_children_are_consumed_before_parents():
    seen = []

    def transform(v, own, children, gen):
        seen.append(v)
        return sum_transform(v, own, children, gen)

    g = line(6)
    tree = spanning_tree(g, 2)
    run_convergecast(tree, [1] * 6, transform, CountingCodec())
    pos = {v: i for i, v in enumerate(seen)}
    for v in range(6):
        if v != tree.root:
            assert pos[v] < pos.get(tree.parent[v], len(seen))
    assert seen.count(2) == 1 and len(seen) == 6


def test_each_vertex_sends_exactly_one_message():
    g = line(7)
    tree = spanning_tree(g, 3)
    _, stats = run_convergecast(tree, [1] * 7, sum_transform, CountingCodec())
    assert set(stats.per_edge_bits) == {(v, tree.parent[v]) for v in range(7) if v != 3}
    assert stats.rounds == tree.depth == 3


def test_window_error_names_the_vertex():
    params = RoundingParams(gamma=0.5, exponent_min=-4, exponent_max=4,
                            log_mk=50.0, depth=1)
    payload = np.full((2, 1), 1e12)
    with pytest.raises(WindowError, match="vertex"):
        rounded_sum_convergecast(payload, spanning_tree(star(2), 0), params, seed=0)


def test_comm_stats_merge_is_edgewise():
    a = CommStats(per_edge_bits={(1, 0): 5, (2, 0): 3}, rounds=1)
    b = CommStats(per_edge_bits={(1, 0): 2, (3, 0): 9}, rounds=2)
    c = a.merged(b)
    assert c.per_edge_bits == {(1, 0): 7, (2, 0): 3, (3, 0): 9}
    assert c.max_edge_bits == 9 and c.total_bits == 19 and c.rounds == 2


def test_baseline_codec_bits():
    assert baseline_codec_bits(1) == 64
    assert baseline_codec_bits(400) == 25600


# ---------------------------------------------------------------------------
# Rounded value vectors.
# ---------------------------------------------------------------------------


def test_rounded_sum_is_near_exact_at_tiny_gamma():
    rng = np.random.default_rng(0)
    payload = rng.standard_normal((4, 32)) * 10.0
    params = RoundingParams(gamma=1e-8, exponent_min=-(2**40), exponent_max=2**40)
    tree = spanning_tree(line(4), 0)
    out, _ = rounded_sum_convergecast(payload, tree, params, seed=1)
    np.testing.assert_allclose(out, payload.sum(axis=0), rtol=1e-4)


def test_rounded_sum_is_unbiased_end_to_end():
    payload = np.full((4, 1), 3.7)
    params = RoundingParams(gamma=0.1, exponent_min=-(2**30), exponent_max=2**30)
    tree = spanning_tree(line(4), 0)
    outs = np.array([
        rounded_sum_convergecast(payload, tree, params, seed=s)[0][0]
        for s in range(10**4)
    ])
    exact = 4 * 3.7
    assert abs(outs.mean() - exact) < 4 * outs.std() / math.sqrt(outs.size)


def test_rounded_sum_all_zero_ships_flags_only():
    params = gamma_for(0.1, 0.25, d=1, n=8, m=3)
    tree = spanning_tree(star(3), 0)
    out, stats = rounded_sum_convergecast(np.zeros((3, 8)), tree, params, seed=0)
    assert np.array_equal(out, np.zeros(8))
    assert stats.max_edge_bits == 1


def test_rounded_sum_root_is_not_rounded():
    # A single-vertex tree must return its own payload bit-for-bit.
    params = gamma_for(0.1, 0.25, d=1, n=4, m=1)
    tree = spanning_tree(star(1), 0)
    payload = np.array([[0.3, -1.7, 0.0, 2.9]])
    out, stats = rounded_sum_convergecast(payload, tree, params, seed=0)
    assert np.array_equal(out, payload[0])
    assert stats.total_bits == 0


def test_rounded_sum_is_deterministic_per_seed():
    rng = np.random.default_rng(4)
    payload = rng.standard_normal((5, 16))
    params = gamma_for(0.2, 0.25, d=4, n=16, m=5, M=10)
    tree = spanning_tree(line(5), 2)
    a = rounded_sum_convergecast(payload, tree, params, seed=7)
    b = rounded_sum_convergecast(payload, tree, params, seed=7)
    c = rounded_sum_convergecast(payload, tree, params, seed=8)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]
    assert not np.array_equal(a[0], c[0])


# ---------------------------------------------------------------------------
# Exact vectors.
# ---------------------------------------------------------------------------


def test_exact_sum_is_lossless_and_meters_64_per_scalar():
    payload = np.arange(12.0).reshape(3, 4)
    tree = spanning_tree(star(3), 0)
    out, stats = exact_sum_convergecast(payload, tree, seed=0)
    assert np.array_equal(out, payload.sum(axis=0))
    assert stats.per_edge_bits[(1, 0)] == 1 + 64 * 4


def test_exact_sum_zero_subtree_uses_flag():
    payload = np.zeros((3, 4))
    payload[2, 1] = 5.0
    tree = spanning_tree(star(3), 0)
    out, stats = exact_sum_convergecast(payload, tree, seed=0)
    assert out[1] == 5.0
    assert stats.per_edge_bits[(1, 0)] == 1
    assert stats.per_edge_bits[(2, 0)] == 1 + 64 * 4


# ---------------------------------------------------------------------------
# Signed Morris counter vectors.
# ---------------------------------------------------------------------------


def test_counter_codec_bits_ignore_values():
    codec = CounterVectorCodec(state_bits=12)
    small = CounterVector(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    large = CounterVector(np.array([4000.0, 1.0]), np.array([0.0, 0.0]))
    assert codec.bits(small) == codec.bits(large) == 2 * (8 + 24)


def test_counter_codec_overflow_raises():
    codec = CounterVectorCodec(state_bits=4)
    with pytest.raises(CounterOverflowError):
        codec.bits(CounterVector(np.array([16.0]), np.array([0.0])))


def test_morris_sum_recovers_exact_counts_at_protocol_base():
    # Near-1 bases put every counter in the exact-count regime, so the
    # root states are the exact signed column sums.
    rng = np.random.default_rng(5)
    payload = np.rint(rng.standard_normal((6, 8)) * 40.0)
    tree = spanning_tree(line(6), 3)
    log_b = math.log1p(1e-30)
    counters, stats = morris_sum_convergecast(payload, tree, log_b, seed=0)
    assert np.array_equal(counters.ins, np.maximum(payload, 0.0).sum(axis=0))
    assert np.array_equal(counters.dels, np.maximum(-payload, 0.0).sum(axis=0))
    assert stats.max_edge_bits == 8 * (8 + 2 * 64) + 1


def test_morris_sum_message_size_is_depth_invariant():
    # Fixed aggregate, two depths: every non-flag message has one size.
    total = np.full(8, 64.0)
    log_b = math.log1p(1e-30)
    sizes = set()
    for m in (4, 16):
        payload = np.tile(total / m, (m, 1))
        tree = spanning_tree(line(m), 0)
        _, stats = morris_sum_convergecast(payload, tree, log_b, seed=0, state_bits=20)
        sizes.update(stats.per_edge_bits.values())
    assert sizes == {8 * (8 + 2 * 20) + 1}


def test_morris_sum_zero_subtrees_send_flags():
    payload = np.zeros((4, 3))
    payload[0, 0] = 2.0  # only the root holds mass
    tree = spanning_tree(star(4), 0)
    counters, stats = morris_sum_convergecast(payload, tree, math.log1p(1e-30), seed=0)
    assert set(stats.per_edge_bits.values()) == {1}
    assert counters.ins[0] == 2.0


def test_morris_sum_all_zero_returns_zero_states():
    tree = spanning_tree(star(3), 0)
    counters, stats = morris_sum_convergecast(np.zeros((3, 5)), tree,
                                              math.log1p(1e-30), seed=0)
    assert not counters.ins.any() and not counters.dels.any()
    assert stats.max_edge_bits == 1
