"""Convergecast engine: metering, scheduling, determinism, message families."""

import math
from functools import partial

import numpy as np
import pytest

from bitcodec import encode_counters, encode_rounded
from helpers import tree_of
from sketchcast import engine, kernels, streams, topology
from sketchcast.engine import (
    CommStats,
    CounterOverflowError,
    Uniforms,
    baseline_codec_bits,
    exact_sum_convergecast,
    morris_sum_convergecast,
    rounded_sum_convergecast,
    run_convergecast,
    send_counters,
)
from sketchcast.entropy import EntropyConfig, estimate_entropy
from sketchcast.fp_high import FpHighConfig, estimate_fp_high
from sketchcast.fp_low import FpLowConfig, estimate_fp_low
from sketchcast.heavy_hitters import CountSketchSpec, nonzero_cells, point_estimate_all
from sketchcast.matrix_product import AmpConfig, amp_estimate
from sketchcast.morris import estimates_signed
from sketchcast.rounding import RoundingParams, gamma_for
from sketchcast.streams import DOMAIN_NODES, generator
from sketchcast.topology import (
    balanced_binary,
    center,
    grid,
    line,
    random_connected,
    spanning_tree,
    star,
)


class CountingCodec:
    """Send stub: the message is the state, its bit count the (one-lane) value itself."""

    def __call__(self, verts, state, gen):
        return state, state[:, 0].astype(np.int64)


def sum_combine(verts, x, prev, slots, gen):
    for rows, src in slots:
        x[rows] += prev[src]
    return x


def column(values):
    return np.array(values, dtype=np.float64)[:, None]


def test_single_vertex_sends_nothing():
    tree = spanning_tree(star(1), 0)
    out, stats = run_convergecast(tree, column([42]), sum_combine, CountingCodec())
    assert out == 42
    assert stats.per_edge_bits == {}
    assert stats.max_edge_bits == 0 and stats.total_bits == 0 and stats.rounds == 0


def test_star_sum_meters_every_leaf_edge():
    tree = spanning_tree(star(4), 0)
    out, stats = run_convergecast(tree, column([1, 2, 3, 4]), sum_combine, CountingCodec())
    assert out == 10
    assert set(stats.per_edge_bits) == {(1, 0), (2, 0), (3, 0)}
    # leaves forward their own value; the send stub charges 1 flag + value bits
    assert stats.per_edge_bits[(3, 0)] == 1 + 4
    assert stats.rounds == 1


def test_zero_sentinel_costs_one_bit():
    seen = []

    def combine(verts, x, prev, slots, gen):
        seen.extend(verts)
        return sum_combine(verts, x, prev, slots, gen)

    tree = spanning_tree(star(4), 0)
    out, stats = run_convergecast(tree, column([5, 0, 7, 0]), combine, CountingCodec())
    assert out == 12
    assert stats.per_edge_bits[(1, 0)] == 1
    assert stats.per_edge_bits[(3, 0)] == 1
    assert stats.per_edge_bits[(2, 0)] == 1 + 7
    # all-zero subtrees send only the flag and never reach combine
    assert seen == [2, 0]


def test_children_are_consumed_before_parents():
    seen = []

    def combine(verts, x, prev, slots, gen):
        seen.extend(verts)
        return sum_combine(verts, x, prev, slots, gen)

    g = line(6)
    tree = spanning_tree(g, 2)
    run_convergecast(tree, column([1] * 6), combine, CountingCodec())
    pos = {v: i for i, v in enumerate(seen)}
    for v in range(6):
        if v != tree.root:
            assert pos[v] < pos.get(tree.parent[v], len(seen))
    assert seen.count(2) == 1 and len(seen) == 6


def test_each_vertex_sends_exactly_one_message():
    g = line(7)
    tree = spanning_tree(g, 3)
    _, stats = run_convergecast(tree, column([1] * 7), sum_combine, CountingCodec())
    assert set(stats.per_edge_bits) == {(v, tree.parent[v]) for v in range(7) if v != 3}
    assert stats.rounds == tree.depth == 3


def test_baseline_codec_bits():
    assert baseline_codec_bits(1) == 64
    assert baseline_codec_bits(400) == 25600


# ---------------------------------------------------------------------------
# Rounded value vectors.
# ---------------------------------------------------------------------------


def test_rounded_sum_is_near_exact_at_tiny_gamma():
    rng = np.random.default_rng(0)
    payload = rng.standard_normal((4, 32)) * 10.0
    params = RoundingParams(gamma=1e-8)
    tree = spanning_tree(line(4), 0)
    out, _ = rounded_sum_convergecast(payload, tree, params, seed=1)
    np.testing.assert_allclose(out, payload.sum(axis=0), rtol=1e-4)


def test_rounded_sum_is_unbiased_end_to_end():
    payload = np.full((4, 1), 3.7)
    params = RoundingParams(gamma=0.1)
    tree = spanning_tree(line(4), 0)
    outs = np.array([
        rounded_sum_convergecast(payload, tree, params, seed=s)[0][0]
        for s in range(10**4)
    ])
    exact = 4 * 3.7
    assert abs(outs.mean() - exact) < 4 * outs.std() / math.sqrt(outs.size)


def test_rounded_sum_all_zero_ships_flags_only():
    params = gamma_for(0.1, 0.25, d=1, n=8, m=3, M=1000)
    tree = spanning_tree(star(3), 0)
    out, stats = rounded_sum_convergecast(np.zeros((3, 8)), tree, params, seed=0)
    assert np.array_equal(out, np.zeros(8))
    assert stats.max_edge_bits == 1


def test_rounded_sum_root_is_not_rounded():
    # A single-vertex tree must return its own payload bit-for-bit.
    params = gamma_for(0.1, 0.25, d=1, n=4, m=1, M=1000)
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


def counter_bits(msg, state_bits):
    sent, bits = send_counters(list(range(len(msg))), msg, [], state_bits=state_bits)
    assert sent is msg
    return bits.tolist()


def test_counter_codec_bits_are_delta_code_lengths():
    # two lanes, laid out [insertions | deletions]; a state s costs the delta
    # code of s + 1: 1 bit for 0, 4 for 1 and 2, 18 for 4000 (N = 12, and
    # 12 has 4 bits: 12 + 2 * 4 - 2)
    small = [1.0, 0.0, 0.0, 2.0]
    large = [4000.0, 1.0, 0.0, 0.0]
    assert counter_bits(np.array([small, large]), 12) == [4 + 1 + 1 + 4, 18 + 4 + 1 + 1]
    assert counter_bits(np.zeros((1, 4)), 12) == [4]


def test_counter_codec_overflow_raises():
    for state in ([16.0, 0.0], [0.0, 16.0]):  # an insertion, then a deletion state
        with pytest.raises(CounterOverflowError):
            counter_bits(np.array([state]), 4)


def test_morris_sum_recovers_exact_counts_at_protocol_base():
    # Near-1 bases put every counter in the exact-count regime, so the
    # root states are the exact signed column sums.
    rng = np.random.default_rng(5)
    payload = np.rint(rng.standard_normal((6, 8)) * 40.0)
    tree = spanning_tree(line(6), 3)
    log_b = math.log1p(1e-30)
    counters, stats = morris_sum_convergecast(payload, tree, log_b, seed=0)
    assert np.array_equal(counters, np.concatenate([np.maximum(payload, 0.0).sum(axis=0),
                                                    np.maximum(-payload, 0.0).sum(axis=0)]))
    # The busiest edge, 2 -> 3, carries rows 0-2: insertions [30, 65, 11, 17,
    # 45, 90, 8, 0] and deletions [35, 100, 35, 69, 67, 0, 25, 124].  A state
    # s costs delta(s + 1): 1 bit at s = 0, 8 at 7-14, 9 at 15-30, 10 at
    # 31-62 and 11 at 63-126.  Lane by lane, plus the flag:
    lanes = [9 + 10, 11 + 11, 8 + 10, 9 + 11, 10 + 11, 11 + 1, 8 + 9, 1 + 11]
    assert stats.max_edge_bits == 1 + sum(lanes) == 142
    assert stats.per_edge_bits == {(0, 1): 80, (1, 2): 137, (2, 3): 142, (4, 3): 108,
                                   (5, 4): 76}


def test_morris_sum_message_size_follows_subtree_mass_not_depth():
    # Fixed aggregate of 64 per lane, two depths, exact counting: the edge
    # out of a vertex whose subtree holds c per lane sends 8 lanes of
    # delta(c + 1) and delta(1), so its size is set by c, wherever the edge
    # sits.  delta(c + 1) costs 5 bits at c = 4, 8 at c = 8 and 12, 9 at
    # c = 16 to 28 and 10 at c = 32 to 60.
    cost = {4: 5, 8: 8, 12: 8} | {c: 9 for c in range(16, 32, 4)} | {
        c: 10 for c in range(32, 64, 4)}
    total = np.full(8, 64.0)
    log_b = math.log1p(1e-30)
    for m in (4, 16):
        payload = np.tile(total / m, (m, 1))
        tree = spanning_tree(line(m), 0)
        _, stats = morris_sum_convergecast(payload, tree, log_b, seed=0, state_bits=20)
        mass = {(v, v - 1): (m - v) * 64 // m for v in range(1, m)}
        assert stats.per_edge_bits == {e: 1 + 8 * (cost[c] + 1) for e, c in mass.items()}
        if m == 4:
            assert list(stats.per_edge_bits.values()) == [81, 89, 89]


def test_morris_sum_zero_subtrees_send_flags():
    payload = np.zeros((4, 3))
    payload[0, 0] = 2.0  # only the root holds mass
    tree = spanning_tree(star(4), 0)
    counters, stats = morris_sum_convergecast(payload, tree, math.log1p(1e-30), seed=0)
    assert set(stats.per_edge_bits.values()) == {1}
    assert counters[0] == 2.0


def test_morris_sum_all_zero_returns_zero_states():
    tree = spanning_tree(star(3), 0)
    counters, stats = morris_sum_convergecast(np.zeros((3, 5)), tree,
                                              math.log1p(1e-30), seed=0)
    assert counters.shape == (10,) and not counters.any()
    assert stats.max_edge_bits == 1


# ---------------------------------------------------------------------------
# Equivalence with a vertex-at-a-time engine.
#
# The reference below runs one vertex at a time, leaves first in (layer,
# id) order, all of them drawing from the run's one stream
# generator(seed, DOMAIN_NODES); children are added or merged in
# tree.children order, and ZERO stands for an all-zero subtree.  Each node
# transform returns its message and the message's bit length, which the
# reference works out on its own: from the reference encoder's code
# lengths for rounded lanes, at 64 bits per exact lane, and from the
# reference encoder's delta codes for Morris lanes.
#
# gen.random((rows, L)) draws what rows calls of gen.random(L) draw in
# turn, so the layer engine must reproduce the reference's root output and
# every per-edge bit count exactly for rounded and exact vectors.  Morris
# counters match exactly at a protocol base, where no failure is drawn.
# At a statistics-scale base the layer kernels draw for a whole layer at
# once, so the draws differ, and only the law of the root's estimates is
# checked.
# ---------------------------------------------------------------------------

ZERO = object()


def reference_convergecast(tree, inputs, node_transform, seed, root_transform):
    order = sorted((v for v in range(tree.m) if v != tree.root),
                   key=lambda v: (tree.layer[v], v))
    gen = generator(seed, DOMAIN_NODES)
    msgs = {}
    per_edge = {}
    for v in order:
        children = [msgs.pop(c) for c in tree.children[v]]
        msg, bits = node_transform(v, inputs[v], children, gen)
        per_edge[(v, tree.parent[v])] = 1 + bits
        msgs[v] = msg
    children = [msgs.pop(c) for c in tree.children[tree.root]]
    out = root_transform(tree.root, inputs[tree.root], children, gen)
    return out, CommStats(per_edge_bits=per_edge, rounds=tree.depth)


def _accumulate(own, children):
    x = np.asarray(own, dtype=np.float64).copy()
    for c in children:
        if c is not ZERO:
            x += c
    return x


def reference_rounded(payloads, tree, params, seed):
    def transform(v, own, children, gen):
        x = _accumulate(own, children)
        if all(c is ZERO for c in children) and not np.any(x):
            return ZERO, 0
        unif = gen.random(x.shape[0])
        exponents, is_zero, decoded, _ = kernels.round_to_grid(
            x, unif, params.log_gamma, params.log_floor(tree.layer[v]))
        return decoded, len(encode_rounded(is_zero, decoded < 0, exponents))

    def root(v, own, children, gen):
        return _accumulate(own, children)

    return reference_convergecast(tree, payloads, transform, seed, root)


def reference_exact(payloads, tree, seed):
    def transform(v, own, children, gen):
        x = _accumulate(own, children)
        nonzero = np.any(own) or any(c is not ZERO for c in children)
        return (x, 64 * x.size) if nonzero else (ZERO, 0)

    def root(v, own, children, gen):
        return _accumulate(own, children)

    return reference_convergecast(tree, payloads, transform, seed, root)


def reference_morris(values, tree, log_b, seed, state_bits=64):
    # one counter state per vertex, laid out [insertions | deletions]: one
    # add on both halves, then one merge per child
    def fold(v, own, children, gen):
        x = np.asarray(own, dtype=np.float64)
        if all(c is ZERO for c in children) and not np.any(x):
            return None
        state = np.zeros(2 * x.shape[0])
        kernels.morris_add_batch(gen, state, np.concatenate([np.maximum(x, 0.0),
                                                             np.maximum(-x, 0.0)]), log_b)
        for c in children:
            if c is not ZERO:
                kernels.morris_merge(gen, state, c, log_b)
        return state

    def transform(v, own, children, gen):
        out = fold(v, own, children, gen)
        if out is None:
            return ZERO, 0
        worst = out.max()
        if worst >= 2.0 ** state_bits:
            raise CounterOverflowError(
                f"counter state {worst:.0f} exceeds {state_bits}-bit bound")
        return out, len(encode_counters(out.tolist()))

    def root(v, own, children, gen):
        out = fold(v, own, children, gen)
        return np.zeros(2 * np.asarray(own).shape[0]) if out is None else out

    return reference_convergecast(tree, values, transform, seed, root)


def assert_same_run(layered, reference):
    assert layered[0].tobytes() == reference[0].tobytes()
    # same edges, bits and insertion order (tracers sum per-layer bits in it)
    assert list(layered[1].per_edge_bits.items()) == list(reference[1].per_edge_bits.items())
    assert layered[1].rounds == reference[1].rounds


def assert_families_match(topo, seed, lanes=6, zero_share=0.0, held=None):
    # with ``held``, only players 0, ..., held - 1 may hold data
    tree = spanning_tree(topo, center(topo))
    rng = np.random.default_rng(seed)
    payload = rng.standard_normal((topo.m, lanes)) * 30.0
    payload[rng.random(topo.m) < zero_share] = 0.0
    if held is not None:
        payload[held:] = 0.0
    params = gamma_for(0.3, 0.25, max(1, tree.depth), lanes, topo.m, M=100)
    assert_same_run(rounded_sum_convergecast(payload, tree, params, seed),
                    reference_rounded(payload, tree, params, seed))
    assert_same_run(exact_sum_convergecast(payload, tree, seed),
                    reference_exact(payload, tree, seed))
    if held is not None:  # the same runs from the rows of players 0, ..., held - 1 alone
        ids = np.arange(min(held, topo.m))
        assert_same_run(rounded_sum_convergecast(payload[ids], tree, params, seed, ids=ids),
                        reference_rounded(payload, tree, params, seed))
        assert_same_run(exact_sum_convergecast(payload[ids], tree, seed, ids=ids),
                        reference_exact(payload, tree, seed))
    counts = np.rint(payload)
    log_b = math.log1p(1e-30)
    assert_same_run(morris_sum_convergecast(counts, tree, log_b, seed),
                    reference_morris(counts, tree, log_b, seed))


GRID_SHAPES = [(1, 1), (1, 9), (2, 2), (3, 5), (4, 4), (5, 8), (7, 7), (6, 11), (12, 12)]


@pytest.mark.parametrize("shape,zero_share,held", [
    *(pytest.param(shape, share, None, id=f"{share}-shape{i}")
      for share in (0.0, 0.6) for i, shape in enumerate(GRID_SHAPES)),
    # the mesh-grid benchmark's runs with silent vertices: hh's data sit
    # with players 0-999, amp's with players 0-9
    pytest.param((32, 32), 0.0, 1000, id="grid32x32-held1000"),
    pytest.param((32, 32), 0.0, 10, id="grid32x32-held10"),
])
def test_layers_match_reference_on_grids(shape, zero_share, held):
    assert_families_match(grid(*shape), seed=sum(shape), zero_share=zero_share, held=held)


@pytest.mark.parametrize("m,p_edge,seed", [(2, 0.5, 0), (17, 0.1, 1), (40, 0.05, 2),
                                           (60, 0.3, 3)])
def test_layers_match_reference_on_random_graphs(m, p_edge, seed):
    assert_families_match(random_connected(m, p_edge, seed), seed, zero_share=0.3)


@pytest.mark.parametrize("topo,held", [
    pytest.param(line(9), None, id="line9"),
    pytest.param(line(30), None, id="line30"),
    pytest.param(star(12), None, id="star12"),
    pytest.param(balanced_binary(31), None, id="binary31"),
    # the deep-line benchmark's amp run: data with players 0-9
    pytest.param(line(257), 10, id="line257-held10"),
])
def test_layers_match_reference_on_lines_stars_and_trees(topo, held):
    assert_families_match(topo, seed=topo.m, held=held)
    assert_families_match(topo, seed=topo.m + 1, zero_share=0.5, held=held)


def test_all_zero_payload_matches_reference():
    assert_families_match(grid(4, 5), seed=3, zero_share=1.0)


@pytest.mark.parametrize("topo", [grid(5, 5), random_connected(20, 0.1, 1), line(16),
                                  balanced_binary(15)],
                         ids=["grid5x5", "random20", "line16", "binary15"])
def test_morris_root_estimates_follow_the_counter_law_at_a_statistics_base(topo):
    # At b = 1.05 the chains run their exact loops.  The root's insertion
    # and deletion states must each be one counter of its column's total N:
    # unbiased, with Var = (b - 1) N (N + 1) / 2 (morris.py).
    tree = spanning_tree(topo, center(topo))
    rng = np.random.default_rng(topo.m)
    counts = np.rint(rng.standard_normal((topo.m, 6)) * 10.0)
    counts[rng.random(topo.m) < 0.3] = 0.0
    b_minus_1, seeds = 0.05, 200
    roots = [morris_sum_convergecast(counts, tree, math.log1p(b_minus_1), seed)[0]
             for seed in range(seeds)]
    ests = estimates_signed(np.array(roots), b_minus_1)
    ins, dels = np.maximum(counts, 0.0).sum(axis=0), np.maximum(-counts, 0.0).sum(axis=0)
    var = b_minus_1 * (ins * (ins + 1) + dels * (dels + 1)) / 2
    assert np.all(np.abs(ests.mean(axis=0) - (ins - dels)) < 4 * np.sqrt(var / seeds))


def test_counter_overflow_matches_reference():
    payload = np.zeros((5, 3))
    payload[0, 2], payload[4, 1] = 5000.0, 7000.0  # both leaves overflow
    tree = spanning_tree(line(5), 2)
    log_b = math.log1p(1e-30)
    with pytest.raises(CounterOverflowError) as reference:
        reference_morris(payload, tree, log_b, seed=0, state_bits=12)
    with pytest.raises(CounterOverflowError) as layered:
        morris_sum_convergecast(payload, tree, log_b, seed=0, state_bits=12)
    assert str(layered.value) == str(reference.value)


# ---------------------------------------------------------------------------
# One kernel call per layer.
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name, module=kernels):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_kernels_run_once_per_layer_on_a_wide_grid(monkeypatch):
    topo = grid(32, 32)
    tree = spanning_tree(topo, center(topo))
    payload = np.random.default_rng(0).standard_normal((topo.m, 8)) * 30.0
    rounds = _count_calls(monkeypatch, "round_to_grid")
    adds = _count_calls(monkeypatch, "morris_add_batch")
    merges = _count_calls(monkeypatch, "morris_merge")
    params = gamma_for(0.3, 0.25, tree.depth, 8, topo.m, M=100)
    rounded_sum_convergecast(payload, tree, params, seed=0)
    assert len(rounds) <= tree.depth
    morris_sum_convergecast(np.rint(payload), tree, math.log1p(1e-30), seed=0)
    # insertions and deletions in one call, once per layer and once per
    # child slot of each layer (at most four children per grid vertex),
    # against 1024 adds and 1023 merges vertex by vertex
    assert len(adds) <= tree.depth + 1
    assert len(merges) <= 4 * tree.depth


def test_uniforms_hand_out_the_generator_stream_in_order():
    # layer-sized takes across batch boundaries, an empty take and takes
    # larger than a batch equal gen.random calls of the same shapes
    shapes = [(2, 192)] * 200 + [(3, 5), (0, 7), (1, Uniforms.BATCH + 3), (2, 1000),
                                 (3 * Uniforms.BATCH,), (2, 192)]
    uniforms = Uniforms(generator(5, DOMAIN_NODES), sum(math.prod(s) for s in shapes))
    gen = generator(5, DOMAIN_NODES)
    for shape in shapes:
        got = uniforms.random(shape)
        assert got.shape == shape
        assert got.tobytes() == gen.random(shape).tobytes()


@pytest.mark.parametrize("topo", [grid(12, 12), line(257)], ids=["grid12x12", "line257"])
def test_a_rounded_run_draws_exactly_its_uniforms(monkeypatch, topo):
    # a uniform per lane of each sending row below the root, and no more:
    # the run's generator ends where a fresh one ends after that many doubles
    built = []

    def keep(*args):
        built.append(generator(*args))
        return built[-1]

    monkeypatch.setattr(streams, "generator", keep)
    tree = spanning_tree(topo, center(topo))
    payload = np.random.default_rng(3).standard_normal((topo.m, 6)) * 30.0
    params = gamma_for(0.3, 0.25, tree.depth, 6, topo.m, M=100)
    for zero_from in (topo.m, topo.m // 3, 0):
        payload[zero_from:] = 0.0
        _, stats = rounded_sum_convergecast(payload, tree, params, seed=4)
        # an edge that sends carries its flag and a message; a silent one, the flag
        senders = sum(bits > 1 for bits in stats.per_edge_bits.values())
        assert senders > 0 or zero_from == 0
        fresh = generator(4, DOMAIN_NODES)
        fresh.random(senders * 6)
        assert built[-1].bit_generator.state == fresh.bit_generator.state


def test_a_run_builds_one_generator(monkeypatch):
    # every vertex draws from the run's one stream: a generator per vertex
    # would cost a SeedSequence and a kernel call per sending row
    built = _count_calls(monkeypatch, "generator", streams)
    topo = grid(32, 32)
    tree = spanning_tree(topo, center(topo))
    payload = np.rint(np.random.default_rng(1).standard_normal((topo.m, 4)) * 30.0)
    morris_sum_convergecast(payload, tree, math.log1p(1e-30), seed=0)
    assert len(built) == 1
    params = gamma_for(0.3, 0.25, tree.depth, 4, topo.m, M=100)
    rounded_sum_convergecast(payload, tree, params, seed=0)
    assert len(built) == 2


@pytest.mark.parametrize("topo", [grid(32, 32), line(257)], ids=["grid32x32", "line257"])
def test_a_rounded_run_meters_once_and_rounds_once_per_layer(monkeypatch, topo):
    # the run's rows are metered in one call from the extents each layer
    # keeps, whether every subtree holds data or only the low ids do
    tree = spanning_tree(topo, center(topo))
    payload = np.random.default_rng(0).standard_normal((topo.m, 8)) * 30.0
    params = gamma_for(0.3, 0.25, tree.depth, 8, topo.m, M=100)
    rounds = _count_calls(monkeypatch, "round_to_grid")
    metered = _count_calls(monkeypatch, "rounded_bits")
    for zero_from in (topo.m, topo.m // 3):
        payload[zero_from:] = 0.0
        rounds.clear()
        metered.clear()
        rounded_sum_convergecast(payload, tree, params, seed=0)
        assert len(metered) == 1
        assert len(rounds) <= tree.depth


def test_runs_on_one_tree_build_its_schedule_once(monkeypatch):
    built = _count_calls(monkeypatch, "layer_schedule", topology)
    topo = grid(6, 6)
    tree = spanning_tree(topo, center(topo))
    payload = np.random.default_rng(2).standard_normal((topo.m, 4))
    params = gamma_for(0.3, 0.25, tree.depth, 4, topo.m, M=10)
    rounded_sum_convergecast(payload, tree, params, seed=0)
    exact_sum_convergecast(payload, tree, seed=1)
    assert len(built) == 1


def test_rows_with_ids_must_name_ascending_vertices():
    tree = tree_of(line(4))
    run = partial(run_convergecast, tree, column([1, 2]), sum_combine, CountingCodec())
    assert run(ids=[1, 3])[0][0] == 3.0
    for ids in ([3, 1], [1, 1], [0], [2, 4], [-1, 2]):
        with pytest.raises(ValueError, match="ascending vertex ids"):
            run(ids=ids)
    with pytest.raises(ValueError, match="one payload row per vertex"):
        run()


class HeldRowsRecorder:
    """Checks every run against the same run on its rows laid out one per vertex.

    The protocols hand the engine the rows of the players that hold data
    and their ids; the recorder asserts that no run gets more rows than
    ``held``, and that the root output and every edge's bits equal those
    of the engine run on the zero-filled (m, lanes) payload.
    """

    def __init__(self, monkeypatch, held):
        self.held = held
        self.stats = []
        real = engine.run_convergecast

        def run(tree, rows, combine, send, seed=0, wire_bits=None, uniforms=False, ids=None):
            assert len(rows) <= self.held
            got = real(tree, rows, combine, send, seed, wire_bits, uniforms, ids)
            dense = np.zeros((tree.m, rows.shape[1]))
            dense[slice(None) if ids is None else ids] = rows
            assert_same_run(got, real(tree, dense, combine, send, seed, wire_bits, uniforms))
            self.stats.append(got[1])
            return got

        monkeypatch.setattr(engine, "run_convergecast", run)


def _protocol_runs(xs, ys, tree, seed):
    """Run fp p=1.5, fp p=0.5, entropy, hh and amp on counts ``xs`` (amp on ``xs`` and ``ys``)."""
    data = xs[..., 0]
    n = data.shape[1]
    yield lambda: estimate_fp_high(data, tree, FpHighConfig(p=1.5, eps=0.25), seed)
    yield lambda: estimate_fp_low(data, tree, FpLowConfig(p=0.5, eps=0.25), seed)
    yield lambda: estimate_entropy(data, tree, EntropyConfig(eps=0.25), seed)
    yield lambda: point_estimate_all(data, tree, CountSketchSpec.build(n, 0.4, seed), 0.4, seed)
    yield lambda: amp_estimate(nonzero_cells(xs), nonzero_cells(ys), tree,
                               AmpConfig(t1=2, t2=2, eps=0.5), seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_protocols_send_only_the_rows_of_players_holding_data(monkeypatch, seed):
    # on grid 8x8 only players 0-9 hold data; the root's output and every
    # edge's bits are those of the run on the dense payload
    m, n, held = 64, 120, 10
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 5, (m, n, 2)) * (rng.random((m, n, 2)) < 0.3)
    ys = rng.integers(0, 5, (m, n, 2)) * (rng.random((m, n, 2)) < 0.3)
    xs[held:] = ys[held:] = 0
    xs[:held, 0, 0] = 1  # every one of them holds data on both sides
    ys[:held, 0, 0] = 1
    tree = tree_of(grid(8, 8))
    recorder = HeldRowsRecorder(monkeypatch, held)
    for run in _protocol_runs(xs.astype(np.float64), ys.astype(np.float64), tree, seed):
        run()
    assert len(recorder.stats) == 5
    for stats in recorder.stats:
        assert stats.max_edge_bits > 1  # the players' data do travel


def test_protocols_with_no_player_holding_data_send_one_bit_per_edge(monkeypatch):
    tree = tree_of(grid(8, 8))
    recorder = HeldRowsRecorder(monkeypatch, 0)
    zeros = np.zeros((64, 120, 2))
    for i, run in enumerate(_protocol_runs(zeros, zeros, tree, 3)):
        if i == 2:  # entropy is undefined on an all-zero aggregate
            with pytest.raises(ValueError, match="all-zero aggregate"):
                run()
        else:
            run()
    assert len(recorder.stats) == 5
    for stats in recorder.stats:
        assert set(stats.per_edge_bits.values()) == {1}
        assert len(stats.per_edge_bits) == 63
