"""Morris counters: estimates, the batch-update and merge kernels."""

import math

import numpy as np
from scipy import stats

from helpers import estimate_from_state, estimate_variance
from sketchcast import kernels
from sketchcast.morris import estimates_signed, signed_updates


def chi2_two_sample(a: np.ndarray, b: np.ndarray, min_count: int = 10) -> float:
    """p-value of a two-sample chi-square over pooled integer bins."""
    lo = int(min(a.min(), b.min()))
    hi = int(max(a.max(), b.max()))
    bins = np.arange(lo, hi + 2)
    ca, _ = np.histogram(a, bins=bins)
    cb, _ = np.histogram(b, bins=bins)
    # merge sparse bins left to right so every pooled cell has enough mass
    cells_a, cells_b, run_a, run_b = [], [], 0, 0
    for xa, xb in zip(ca, cb):
        run_a += xa
        run_b += xb
        if run_a + run_b >= min_count:
            cells_a.append(run_a)
            cells_b.append(run_b)
            run_a = run_b = 0
    if run_a + run_b:
        cells_a[-1] += run_a
        cells_b[-1] += run_b
    table = np.array([cells_a, cells_b])
    return stats.chi2_contingency(table).pvalue


def batch_states(trials: int, n: float, b: float, seed: int) -> np.ndarray:
    states = np.zeros(trials)
    kernels.morris_add_batch(np.random.default_rng(seed), states,
                             np.full(trials, float(n)), math.log(b))
    return states


def sequential_states(trials: int, n: int, b: float, seed: int) -> np.ndarray:
    """Literal one-update-at-a-time chains, vectorized across trials."""
    rng = np.random.default_rng(seed)
    c = np.zeros(trials)
    for _ in range(n):
        c += rng.random(trials) < b**-c
    return c


def test_estimate_hand_values():
    assert estimate_from_state(0.0, 1.0) == 0.0
    assert estimate_from_state(1.0, 1.0) == 1.0
    assert math.isclose(estimate_from_state(3.0, 1.0), 7.0, rel_tol=1e-12)


def test_estimate_variance_formula():
    assert estimate_variance(10.0, 0.2) == 0.2 * 10.0 * 11.0 / 2.0


def single_updates(start: float, b: float, trials: int, seed: int) -> np.ndarray:
    """States after one update played into ``trials`` counters at ``start``."""
    c = np.full(trials, start)
    kernels.morris_add_batch(np.random.default_rng(seed), c, np.ones(trials), math.log(b))
    return c


def test_first_increment_is_certain():
    for seed in range(20):
        assert np.all(single_updates(0.0, 1.7, 50, seed) == 1.0)


def test_second_increment_is_a_fair_coin_at_base_two():
    trials = 10**5
    c = single_updates(1.0, 2.0, trials, seed=1)
    assert set(np.unique(c)) <= {1.0, 2.0}
    hits = np.mean(c == 2.0)
    assert abs(hits - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_add_batch_zero_is_identity():
    c = np.array([5.0])
    kernels.morris_add_batch(np.random.default_rng(0), c, np.zeros(1), math.log(1.2))
    assert c[0] == 5.0


def test_add_batch_matches_sequential_increments():
    b, n, trials = 1.1, 1000, 10**4
    fast = batch_states(trials, n, b, seed=10)
    slow = sequential_states(trials, n, b, seed=11)
    assert chi2_two_sample(fast, slow) >= 0.01


def test_merge_with_zero_counter_is_identity():
    x = np.array([7.0])
    kernels.morris_merge(np.random.default_rng(2), x, np.zeros(1), math.log(1.2))
    assert x[0] == 7.0


def test_merge_into_zero_counter_reproduces_law():
    b, n, trials = 1.2, 500, 4000
    donor = batch_states(trials, n, b, seed=12)
    merged = np.zeros(trials)
    kernels.morris_merge(np.random.default_rng(13), merged, donor, math.log(b))
    fresh = batch_states(trials, n, b, seed=14)
    assert chi2_two_sample(merged, fresh) >= 0.01


def test_merge_is_exchangeable():
    b, trials = 1.2, 4000
    ax = batch_states(trials, 300, b, seed=15)
    ay = batch_states(trials, 700, b, seed=16)
    xy = ax.copy()
    kernels.morris_merge(np.random.default_rng(17), xy, ay, math.log(b))
    yx = ay.copy()
    kernels.morris_merge(np.random.default_rng(18), yx, ax, math.log(b))
    assert chi2_two_sample(xy, yx) >= 0.01


def test_signed_counter_bookkeeping():
    # In the near-1 base regime every increment succeeds, so +5 then -5
    # drives both sides to exact state 5 and the estimate cancels.
    rng = np.random.default_rng(3)
    bm1 = 1e-12
    state = np.zeros(2)  # [insertions | deletions] of one lane
    for x in (5.0, -5.0):
        kernels.morris_add_batch(rng, state, signed_updates(np.array([x])), math.log1p(bm1))
    assert list(state) == [5.0, 5.0]
    assert abs(estimates_signed(state, bm1)[0]) < 1e-9


def test_signed_counter_insertions_match_plain():
    signed = estimates_signed(np.array([4.0, 0.0]), 0.3)
    assert math.isclose(signed[0], estimate_from_state(4.0, 0.3), rel_tol=1e-12)


def test_estimates_signed_matches_scalar_path():
    ins = np.array([0.0, 3.0, 7.0])
    dels = np.array([1.0, 0.0, 2.0])
    bm1 = 0.2
    vec = estimates_signed(np.concatenate([ins, dels]), bm1)
    for i in range(3):
        want = estimate_from_state(ins[i], bm1) - estimate_from_state(dels[i], bm1)
        assert math.isclose(vec[i], want, rel_tol=1e-12)


def test_mean_is_unbiased_at_moderate_base():
    b, n, trials = 1.2, 10**3, 10**4
    states = batch_states(trials, n, b, seed=19)
    ests = estimates_signed(np.concatenate([states, np.zeros(trials)]), b - 1.0)
    sigma = math.sqrt(estimate_variance(n, b - 1.0) / trials)
    assert abs(ests.mean() - n) < 3 * sigma
