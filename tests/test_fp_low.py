"""Low-moment estimation: counter-compressed sketches and the log-cosine stream."""

import math
import signal

import numpy as np
import pytest

from sketchcast.fp_high import lower_median
from sketchcast.fp_low import (
    FpLowConfig,
    estimate_fp_low,
    state_field_bits,
    stream_fp_logcosine,
)
from sketchcast.harness import ExperimentSpec, run_experiment
from sketchcast.oracles import frequency_moment, lp_norm
from sketchcast.stable import build_sketch, median_abs
from sketchcast.streams import DOMAIN_SKETCH, substream
from sketchcast.topology import line, star


def test_config_validation():
    FpLowConfig(p=0.5, eps=0.2)
    with pytest.raises(ValueError):
        FpLowConfig(p=1.0, eps=0.2)
    with pytest.raises(ValueError):
        FpLowConfig(p=0.0, eps=0.2)
    with pytest.raises(ValueError):
        FpLowConfig(p=0.5, eps=1.0)
    with pytest.raises(ValueError):
        FpLowConfig(p=0.5, eps=0.2, eta=0.0)


def test_row_count_and_failure_budget():
    cfg = FpLowConfig(p=0.5, eps=0.2)
    assert cfg.k == 200
    assert cfg.delta == 1.0 / (200 * 200)


def test_eps_prime_bounds():
    cfg = FpLowConfig(p=0.5, eps=0.2)
    ep = cfg.eps_prime(1000)
    assert 0.0 < ep < cfg.eps
    with pytest.raises(ValueError):
        cfg.eps_prime(1)


def test_eps_prime_rejects_extreme_p():
    # delta^(1/p) underflows float64 long before p reaches 0.01
    with pytest.raises(ValueError):
        FpLowConfig(p=0.01, eps=0.2).eps_prime(1000)


def test_counter_base_is_barely_above_one():
    cfg = FpLowConfig(p=0.5, eps=0.2)
    bm1 = cfg.base_minus_one(1000)
    assert 0.0 < bm1 < 1e-20
    assert math.isclose(bm1, (cfg.eps_prime(1000) * cfg.delta) ** 2, rel_tol=1e-12)


def test_state_field_bits_exact_count_regime():
    # near-1 bases count exactly, so the worst state is the update total
    assert state_field_bits(100.0, 1e-30) == 8
    assert state_field_bits(1.0, 1e-30) == 2
    widths = [state_field_bits(10.0**e, 1e-30) for e in range(1, 12)]
    assert widths == sorted(widths)


def test_all_zero_inputs_cost_one_bit_per_edge():
    cfg = FpLowConfig(p=0.5, eps=0.2)
    est, stats = estimate_fp_low(np.zeros((6, 16)), line(6), cfg, seed=0)
    assert est == 0.0
    assert set(stats.per_edge_bits.values()) == {1}
    assert len(stats.per_edge_bits) == 5


@pytest.mark.parametrize("value", [0.0, 3.0])
def test_single_coordinate_is_rejected_whatever_the_counts(value):
    cfg = FpLowConfig(p=0.5, eps=0.2)
    with pytest.raises(ValueError, match="need n >= 2"):
        estimate_fp_low(np.full((3, 1), value), line(3), cfg, seed=0)


def test_single_unit_coordinate_is_near_one():
    # F_p(e_1) = 1 for every p; spread over 100 sketch seeds.
    cfg = FpLowConfig(p=0.5, eps=0.2)
    data = np.zeros((1, 8))
    data[0, 0] = 1.0
    hits = 0
    for t in range(100):
        est, _ = estimate_fp_low(data, star(1), cfg, seed=t)
        hits += 0.8 <= est <= 1.2
    assert hits >= 70


def test_counter_pipeline_matches_exact_sums():
    # Protocol bases sit in the exact-count regime, so the Morris layer
    # is deterministic and the estimate equals the uncompressed formula.
    cfg = FpLowConfig(p=0.5, eps=0.2)
    rng = np.random.default_rng(3)
    data = rng.integers(0, 6, size=(4, 8)).astype(np.float64)
    data[0, 0] = 5.0  # keep at least one positive entry
    seed = 42
    est, _ = estimate_fp_low(data, line(4), cfg, seed)

    total = data.sum(axis=0)
    M = float(data.max())
    entry_cap = (M * 8 * 4) ** 3
    sk = build_sketch(cfg.k, 8, cfg.p, cfg.eta, substream(seed, DOMAIN_SKETCH),
                      entry_cap=entry_cap)
    want = (cfg.eta * lower_median(np.abs(sk.apply(total)))
            / median_abs(cfg.p)) ** cfg.p
    assert math.isclose(est, want, rel_tol=1e-9)


def test_max_edge_bits_is_flat_across_depth():
    # Fixed aggregate, entries divisible by both player counts: the wire
    # width depends on m*M which stays constant, so messages are equal.
    total = np.arange(1.0, 17.0) * 16.0
    sizes = {}
    for m in (4, 16):
        data = np.tile(total / m, (m, 1))
        cfg = FpLowConfig(p=0.5, eps=0.2)
        _, stats = estimate_fp_low(data, line(m), cfg, seed=5)
        sizes[m] = stats.max_edge_bits
    assert sizes[4] == sizes[16]


def test_relative_error_against_moment_oracle():
    cfg = FpLowConfig(p=0.5, eps=0.25)
    rng = np.random.default_rng(8)
    topo = line(8)
    hits = 0
    for t in range(20):
        data = np.floor(rng.pareto(1.2, size=(8, 64)) + 1.0)
        est, _ = estimate_fp_low(data, topo, cfg, seed=900 + t)
        truth = frequency_moment(data.sum(axis=0), cfg.p)
        hits += abs(est - truth) <= cfg.eps * truth
    assert hits >= 14


# ---------------------------------------------------------------------------
# Log-cosine streaming estimator.
# ---------------------------------------------------------------------------


def test_stream_validation():
    with pytest.raises(ValueError):
        stream_fp_logcosine([(0, 1)], p=1.0, eps=0.2)
    with pytest.raises(ValueError):
        stream_fp_logcosine([(0, 1)], p=0.5, eps=0.2, mode="batched")
    with pytest.raises(ValueError):
        stream_fp_logcosine([(0, -1)], p=0.5, eps=0.2)
    with pytest.raises(ValueError):
        stream_fp_logcosine([(5, 1)], p=0.5, eps=0.2, n=4)
    with pytest.raises(ValueError):
        stream_fp_logcosine([(-1, 1)], p=0.5, eps=0.2)


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
    # At this seed the root merge meets counter states near 5e24, where
    # the Morris merge once looped ~7e17 times; the alarm turns a
    # regression into a failure instead of a hang.
    def stalled(signum, frame):
        raise TimeoutError("fp p=0.5 experiment stalled in the Morris kernels")

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
