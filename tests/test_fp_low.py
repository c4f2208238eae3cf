"""Low-moment estimation: rounded sketches over a tree and the log-cosine stream."""

import math
import signal

import numpy as np
import pytest

from helpers import tree_of
from sketchcast import morris
from sketchcast.engine import CODECS
from sketchcast.entropy import EntropyConfig, estimate_entropy
from sketchcast.fp_high import lower_median, stream_counts
from sketchcast.fp_low import (
    NETWORK_MIN_P,
    FpLowConfig,
    estimate_fp_low,
    stream_fp_logcosine,
)
from sketchcast.harness import CHECK_THRESHOLDS, ExperimentSpec, run_experiment
from sketchcast.oracles import frequency_moment, lp_norm
from sketchcast.stable import build_sketch, median_abs
from sketchcast.streams import DOMAIN_SKETCH, substream
from sketchcast.topology import line, star


def test_config_validation():
    FpLowConfig(p=0.5, eps=0.2)
    FpLowConfig(p=1.0, eps=0.2)  # the paper's range is (0, 1]
    with pytest.raises(ValueError):
        FpLowConfig(p=1.5, eps=0.2)
    with pytest.raises(ValueError):
        FpLowConfig(p=0.0, eps=0.2)
    with pytest.raises(ValueError):
        FpLowConfig(p=0.5, eps=1.0)


def test_row_count_and_failure_budget():
    cfg = FpLowConfig(p=0.5, eps=0.2)
    assert cfg.k == 200
    assert cfg.delta == 1.0 / (200 * 200)


def test_eps_prime_bounds():
    # b - 1 = (eps' * delta)^2 with eps' in (0, eps); n < 2 is refused
    cfg = FpLowConfig(p=0.5, eps=0.2)
    ep = math.sqrt(cfg.base_minus_one(1000)) / cfg.delta
    assert 0.0 < ep < cfg.eps
    with pytest.raises(ValueError):
        cfg.base_minus_one(1)


def test_eps_prime_rejects_extreme_p():
    # delta^(1/p) underflows float64 long before p reaches 0.01
    with pytest.raises(ValueError):
        FpLowConfig(p=0.01, eps=0.2).base_minus_one(1000)


def test_counter_base_is_barely_above_one():
    cfg = FpLowConfig(p=0.5, eps=0.2)
    bm1 = cfg.base_minus_one(1000)
    assert 0.0 < bm1 < 1e-20
    ep = morris.C_PRIME * cfg.eps * cfg.delta ** (1.0 / cfg.p) / math.log2(1000 / cfg.delta)
    assert math.isclose(bm1, (ep * cfg.delta) ** 2, rel_tol=1e-12)


def test_all_zero_inputs_cost_one_bit_per_edge():
    cfg = FpLowConfig(p=0.5, eps=0.2)
    est, stats = estimate_fp_low(np.zeros((6, 16)), tree_of(line(6)), cfg, seed=0)
    assert est == 0.0
    assert set(stats.per_edge_bits.values()) == {1}
    assert len(stats.per_edge_bits) == 5


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_counts_rejected(bad):
    data = np.ones((3, 50))
    data[1, 7] = bad
    with pytest.raises(ValueError, match="finite"):
        estimate_fp_low(data, tree_of(star(3)), FpLowConfig(p=0.5, eps=0.2), seed=0)


def test_single_unit_coordinate_is_near_one():
    # F_p(e_1) = 1 for every p; spread over 100 sketch seeds.
    cfg = FpLowConfig(p=0.5, eps=0.2)
    data = np.zeros((1, 8))
    data[0, 0] = 1.0
    hits = 0
    for t in range(100):
        est, _ = estimate_fp_low(data, tree_of(star(1)), cfg, seed=t)
        hits += 0.8 <= est <= 1.2
    assert hits >= 70


def test_exact_codec_matches_the_uncompressed_formula():
    # codec="exact" sums the sketch rows unrounded, so the estimate is the
    # formula on the aggregate, and each sending edge meters 64 bits a row
    cfg = FpLowConfig(p=0.5, eps=0.2)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 6, size=(4, 8)).astype(np.float64)
    data[:, 0] = 5.0  # every player sends
    seed = 42
    est, stats = estimate_fp_low(data, tree_of(line(4)), cfg, seed, codec="exact")

    sk = build_sketch(cfg.k, 8, cfg.p, cfg.eta, substream(seed, DOMAIN_SKETCH))
    want = (cfg.eta * lower_median(np.abs(sk.apply(data.sum(axis=0))))
            / median_abs(cfg.p)) ** cfg.p
    assert math.isclose(est, want, rel_tol=1e-9)
    assert set(stats.per_edge_bits.values()) == {1 + 64 * cfg.k}


@pytest.mark.parametrize("run", [
    lambda data, tree, codec: estimate_fp_low(
        data, tree, FpLowConfig(p=0.5, eps=0.2), 5, codec=codec)[1],
    lambda data, tree, codec: estimate_entropy(
        data, tree, EntropyConfig(eps=0.2), 5, codec=codec)[1].comm,
], ids=["fp_low", "entropy"])
def test_max_edge_bits_is_flat_across_depth(run):
    # Fixed aggregate, entries divisible by both player counts, on a line
    # rooted at its center: the busiest edge carries the larger half of the
    # players, half the aggregate at either depth.  The exact codec meters
    # 64 bits a lane whatever the depth, so its busiest edge is flat; the
    # rounded lanes grow with log d (2,831 to 3,437 bits for fp_low, 3,944
    # to 4,851 for entropy) but stay under that flat baseline at both.
    total = np.arange(1.0, 17.0) * 16.0
    sizes = {}
    for m in (4, 16):
        data = np.tile(total / m, (m, 1))
        for codec in ("exact", "rounding"):
            sizes[m, codec] = run(data, tree_of(line(m)), codec).max_edge_bits
    assert sizes[4, "exact"] == sizes[16, "exact"]
    for m in (4, 16):
        assert sizes[m, "rounding"] < sizes[m, "exact"], m


def test_relative_error_against_moment_oracle():
    tree = tree_of(line(8))
    for p in (0.5, 1.0):
        cfg = FpLowConfig(p=p, eps=0.25)
        rng = np.random.default_rng(8)
        hits = 0
        for t in range(20):
            data = np.floor(rng.pareto(1.2, size=(8, 64)) + 1.0)
            est, _ = estimate_fp_low(data, tree, cfg, seed=900 + t)
            truth = frequency_moment(data.sum(axis=0), cfg.p)
            hits += abs(est - truth) <= cfg.eps * truth
        assert hits >= 14, p


@pytest.mark.parametrize("topology, m", [("line", 9), ("grid:8x8", 64)])
def test_rounded_and_exact_codecs_succeed_alike_at_the_p_floor(topology, m):
    # D_p's tails are heaviest at the floor, so partial sums span the most
    # exponents; the rounded code carries them all and tracks the exact sums.
    runs = [run_experiment(ExperimentSpec("fp", p=NETWORK_MIN_P, eps=0.25, topology=topology,
                                          m=m, trials=20, codec=codec))[1]
            for codec in CODECS]
    rounded, exact = (s["success_rate"] for s in runs)
    assert rounded == exact >= CHECK_THRESHOLDS["fp"]
    assert math.isclose(runs[0]["error_p50"], runs[1]["error_p50"], abs_tol=1e-3)


# ---------------------------------------------------------------------------
# Log-cosine streaming estimator.
# ---------------------------------------------------------------------------


def test_stream_validation():
    with pytest.raises(ValueError, match="p must be in"):  # only the network verb takes p = 1
        stream_fp_logcosine([(0, 1)], p=1.0, eps=0.2)
    with pytest.raises(ValueError):
        stream_fp_logcosine([(0, 1)], p=0.5, eps=0.2, mode="batched")
    with pytest.raises(ValueError):
        stream_fp_logcosine([(0, -1)], p=0.5, eps=0.2)
    with pytest.raises(ValueError):
        stream_fp_logcosine([(5, 1)], p=0.5, eps=0.2, n=4)
    with pytest.raises(ValueError):
        stream_fp_logcosine([(-1, 1)], p=0.5, eps=0.2)


def test_stream_counts_sums_updates_in_one_pass():
    rng = np.random.default_rng(31)
    updates = np.column_stack([rng.integers(0, 40, 500), rng.integers(0, 9, 500)])
    want = np.zeros(50)
    for i, d in updates:
        want[i] += d
    got = stream_counts(updates, 50)
    assert got.dtype == np.float64 and np.array_equal(got, want)
    assert np.array_equal(stream_counts([(2, 3)]), [0.0, 0.0, 3.0])
    assert np.array_equal(stream_counts([]), [0.0])
    with pytest.raises(ValueError, match="index 3 outside"):
        stream_counts([(0, 1), (3, 1)], 3)
    with pytest.raises(ValueError, match="delta -2 at index 1"):
        stream_counts([(0, 1), (1, -2)])
    with pytest.raises(ValueError, match="shape"):
        stream_counts(np.ones((2, 3), dtype=np.int64))


def test_empty_and_zero_streams_return_zero():
    assert stream_fp_logcosine([], p=0.5, eps=0.2) == 0.0
    assert stream_fp_logcosine([(3, 0)], p=0.5, eps=0.2) == 0.0


def test_modes_agree_in_exact_count_regime():
    rng = np.random.default_rng(12)
    stream = [(int(i), 1) for i in rng.integers(0, 50, size=2000)]
    a = stream_fp_logcosine(stream, p=0.5, eps=0.2, mode="exact-y", seed=7)
    b = stream_fp_logcosine(stream, p=0.5, eps=0.2, mode="morris-y", seed=7)
    assert math.isclose(a, b, rel_tol=1e-9)


def test_stream_norm_tracks_oracle():
    rng = np.random.default_rng(30)
    hits = 0
    for t in range(20):
        idx = rng.zipf(1.4, size=1000) - 1
        idx = idx[idx < 100]
        stream = [(int(i), 1) for i in idx]
        x = np.bincount(idx, minlength=100).astype(np.float64)
        est = stream_fp_logcosine(stream, p=0.5, eps=0.2, seed=100 + t, n=100)
        truth = lp_norm(x, 0.5)
        hits += abs(est - truth) <= 0.2 * truth
    assert hits >= 13


def test_stream_is_deterministic_per_seed():
    stream = [(i % 7, 2) for i in range(50)]
    a = stream_fp_logcosine(stream, p=0.5, eps=0.2, seed=3)
    b = stream_fp_logcosine(stream, p=0.5, eps=0.2, seed=3)
    c = stream_fp_logcosine(stream, p=0.5, eps=0.2, seed=4)
    assert a == b
    assert a != c


def test_deep_line_experiment_with_huge_root_counters_completes():
    # At this seed the root's rows once held Morris counter states near
    # 5e24, where one merge looped ~7e17 times.  The rows now travel as
    # rounded values; the alarm still turns a hang into a failure.
    def stalled(signum, frame):
        raise TimeoutError("fp p=0.5 experiment stalled")

    spec = ExperimentSpec("fp", p=0.5, eps=0.25, topology="line", m=257, n=200,
                          trials=1, seed=1021)
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(60)
    try:
        reports, summary = run_experiment(spec)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(reports) == 1 and reports[0].max_edge_bits > 0 and summary["success_rate"] == 1.0
