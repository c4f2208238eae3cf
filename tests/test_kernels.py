"""Hot kernels: rounding edge cases, wire lengths, and the Morris fast paths."""

import math
import time

import numpy as np
import pytest

from sketchcast import kernels

KERNELS = ("cms_symmetric", "cms_skewed_one", "round_to_grid", "rounded_bits",
           "morris_add_batch", "morris_merge")


def test_active_backend_is_known():
    # Run metadata stamps BACKEND, and span tracers wrap the kernels by
    # module attribute name, so both are part of the module's surface.
    assert kernels.BACKEND == "numpy"
    for name in KERNELS:
        assert callable(getattr(kernels, name))


def test_round_to_grid_truncates_below_floor():
    x = np.array([0.0, 1e-9, 5.0])
    unif = np.full(3, 0.5)
    exponents, is_zero, decoded = kernels.round_to_grid(x, unif, math.log1p(0.5), math.log(1e-6))
    assert list(is_zero) == [True, True, False]
    assert decoded[0] == decoded[1] == 0.0
    assert decoded[2] > 0.0


def reference_round_to_grid(x, unif, log_gamma, log_floor):
    """The plain form of round_to_grid, kept as its reference: three exps, two
    fixed correction passes each way, a clipped probability and a sign multiply."""
    ax = np.abs(x)
    nonzero = ax > 0.0
    lv = np.full(x.shape, -np.inf)
    np.log(ax, out=lv, where=nonzero)
    is_zero = ~nonzero | (lv < log_floor)
    lv[is_zero] = 0.0
    e0 = np.floor(lv / log_gamma).astype(np.int64)
    for _ in range(2):
        e0 += (e0 + 1) * log_gamma <= lv
    for _ in range(2):
        e0 -= e0 * log_gamma > lv
    lo = np.exp(e0 * log_gamma, out=lv)
    hi = np.exp((e0 + 1) * log_gamma)
    hi -= lo
    pr = np.subtract(ax, lo, out=ax)
    pr /= hi
    np.clip(pr, 0.0, 1.0, out=pr)
    exponents = e0
    exponents += unif < pr
    exponents[is_zero] = 0
    decoded = np.multiply(exponents, log_gamma, out=hi)
    np.exp(decoded, out=decoded)
    decoded *= np.sign(x)
    decoded[is_zero] = 0.0
    return exponents, is_zero, decoded


# ``window`` is a bracket the live exponents are checked against, and
# ``want_ok`` says whether they all fall inside it: the kernel neither clips
# nor flags an exponent outside it.
@pytest.mark.parametrize("shape", [(2, 192), (32, 608), (0, 5)])
@pytest.mark.parametrize("gamma, floor, window, spread, want_ok", [
    (1e-3, 1e-6, (-40_000, 40_000), (-20.0, 20.0), True),
    (0.05, 0.0, (-10**4, 10**4), (-300.0, 300.0), True),   # no floor
    (0.05, 1e-3, (50, 10**4), (5.0, 30.0), True),           # zero lanes sit outside
    (0.3, 1e-9, (-10, 10), (-20.0, 20.0), False),           # exponents escape
])
def test_round_to_grid_matches_reference_bit_for_bit(shape, gamma, floor, window, spread,
                                                      want_ok):
    rng = np.random.default_rng(abs(hash((shape, gamma))) % 2**32)
    x = np.exp(rng.uniform(*spread, shape)) * rng.choice([-1.0, 1.0], shape)
    special = rng.random(shape)
    x[special < 0.05] = 0.0
    x[(0.05 <= special) & (special < 0.1)] = -0.0
    x[(0.1 <= special) & (special < 0.12)] = np.nan
    if floor > 0.0:  # lanes under the floor truncate to zero
        x[(0.12 <= special) & (special < 0.2)] *= 1e-30
    unif = rng.random(shape)
    unif[special > 0.98] = 0.0
    args = (math.log1p(gamma), math.log(floor) if floor > 0.0 else -math.inf)
    got = kernels.round_to_grid(x, unif, *args)
    want = reference_round_to_grid(x, unif, *args)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    live = got[0][~got[1]]
    assert np.all((window[0] <= live) & (live <= window[1])) == (want_ok or x.size == 0)


def test_rounded_bits_formula():
    from bitcodec import encode_rounded, gamma_len, zigzag

    exponents = np.array([[0, -3, 17, 2], [9, 9, 9, 9], [4, 1, 1, 0]], dtype=np.int64)
    is_zero = np.array([[False, False, False, True], [False] * 4, [True] * 4])
    bits = kernels.rounded_bits(exponents, is_zero)
    # row 0: lo = -3, w = bit_length(20) = 5; row 1: w = 0; row 2: flags only
    want = [4 + gamma_len(zigzag(-3) + 1) + gamma_len(6) + 3 * 6,
            4 + gamma_len(zigzag(9) + 1) + gamma_len(1) + 4, 4]
    assert list(bits) == want
    assert want == [len(encode_rounded(z, [False] * 4, e))
                    for z, e in zip(is_zero.tolist(), exponents.tolist())]


def test_morris_add_batch_skips_zero_lanes():
    c = np.array([0.0, 4.0, 9.0])
    kernels.morris_add_batch(np.random.default_rng(3), c, np.zeros(3), math.log(1.3))
    assert list(c) == [0.0, 4.0, 9.0]


def test_rare_failure_path_is_exact_counting():
    # With (c + u) * log_b below the rare-failure guard the whole batch is
    # one Poisson draw whose mean is ~1e-10, so states equal exact counts.
    c = np.zeros(64)
    u = np.full(64, 10**6)
    kernels.morris_add_batch(np.random.default_rng(5), c, u, 1e-21)
    assert np.array_equal(c, u)


def test_rare_failure_path_is_unbiased_near_the_guard():
    # log_b placed just under the guard: failures are Poisson with mean
    # about 1, so states fall a few counts short of u and the estimator
    # must still be unbiased.
    log_b, u, lanes = 2e-15, 10**6, 2000
    assert (u * log_b) <= 1e-8  # the guard actually engages
    c = np.zeros(lanes)
    kernels.morris_add_batch(np.random.default_rng(6), c, np.full(lanes, float(u)), log_b)
    assert np.all(c <= u)
    ests = np.expm1(c * log_b) / math.expm1(log_b)
    sigma = math.sqrt(math.expm1(log_b) * u * (u + 1) / 2 / lanes)
    assert abs(ests.mean() - u) < 4 * sigma


def test_rare_merge_is_exact_addition():
    x = np.array([10.0, 1e6, 0.0])
    y = np.array([5.0, 2e6, 3.0])
    kernels.morris_merge(np.random.default_rng(7), x, y, 1e-21)
    assert list(x) == [15.0, 3e6, 3.0]


def test_merge_noop_cases():
    x = np.array([4.0])
    kernels.morris_merge(np.random.default_rng(8), x, np.array([0.0]), math.log(1.2))
    assert x[0] == 4.0


def test_merge_of_recorded_stall_states_finishes():
    # The root merge of fp p=0.5 on a 257-vertex line at experiment seed
    # 1021: p = w * log_b ~ 1.4e-7 is above the rare guard, and the
    # geometric-run loop would need ~7e17 iterations.  The failure count
    # is drawn at once instead: about Poisson(p * rem).
    log_b = 2.79e-32
    cx, cy = np.array([5.0e24]), np.array([4.7e24])
    start = time.perf_counter()
    out = kernels.morris_merge(np.random.default_rng(1021), cx.copy(), cy, log_b)
    assert time.perf_counter() - start < 1.0
    lam = -math.expm1(-cx[0] * log_b) * cy[0]
    failures = cx[0] + cy[0] - out[0]
    assert abs(failures - lam) < 8.0 * math.sqrt(lam) + 1e-9 * lam


def test_add_batch_with_many_failures_finishes():
    # u * log_b = 1e-7 is above the rare guard and the failure-time loop
    # would take ~5e5 iterations (one per failure).
    log_b, u = 1e-20, 1e13
    c = np.zeros(4)
    start = time.perf_counter()
    kernels.morris_add_batch(np.random.default_rng(2), c, np.full(4, u), log_b)
    assert time.perf_counter() - start < 1.0
    lam = log_b * 0.5 * u * (u - 1.0)
    assert np.all(np.abs((u - c) - lam) < 8.0 * math.sqrt(lam))


def test_poisson_path_takes_only_rare_or_long_loops():
    # (expected failures, largest failure probability) -> one Poisson draw?
    cases = {
        (1e6, 1e-9): True,     # rare: every step's p under the guard
        (5e3, 1e-7): False,    # the exact loop finishes in ~5e3 iterations
        (2e4, 1e-7): True,     # the loop would run ~2e4 iterations
        (1e6, 1e-3): False,    # p too large for the Poisson law
    }
    lam = np.array([k[0] for k in cases])
    max_p = np.array([k[1] for k in cases])
    assert list(kernels._poisson_path(lam, max_p)) == list(cases.values())


def test_rare_failures_are_independent_poisson_per_lane():
    # One Poisson total split by a multinomial must give each lane
    # Poisson(lam) failures, independent of the other lanes'.
    lam = np.tile([0.0, 0.3, 2.0, 7.0], 250)
    gen = np.random.default_rng(11)
    draws = 2000
    f = np.array([kernels._rare_failures(gen, lam) for _ in range(draws)])
    assert not f[:, lam == 0.0].any()
    for value in (0.3, 2.0, 7.0):
        group = f[:, lam == value]
        size = group.size
        assert abs(group.mean() - value) < 4 * math.sqrt(value / size)
        # Var(sample variance) ~ (mu4 - sigma^4) / size, mu4 = lam + 3 lam^2
        assert abs(group.var() - value) < 4 * math.sqrt((value + 2 * value**2) / size)
    # uncorrelated lanes: the total over lanes has variance sum(lam), which a
    # split of a fixed total would not reach
    totals = f.sum(axis=1)
    mass = lam.sum()
    assert abs(totals.var() - mass) < 4 * math.sqrt((mass + 2 * mass**2) / draws)
    corr = np.corrcoef(f[:, [1, 2, 3, 5]].T)  # a lane of each nonzero rate, and a 0.3 lane
    assert np.all(np.abs(corr[np.triu_indices(4, 1)]) < 4 / math.sqrt(draws))


def test_rare_failures_of_a_huge_batch_stay_within_poisson_limits():
    # 1e4 lanes at lam = 1e12 total 1e16, past _POISSON_LAM_MAX: the batch
    # takes a per-lane Poisson draw instead of one Poisson total.  Lanes at
    # 1e17 are each past it and take the normal limit.
    for value, seed in ((1e12, 14), (1e17, 12)):
        lam = np.full(10**4, value)
        f = kernels._rare_failures(np.random.default_rng(seed), lam)
        assert np.all(np.abs(f - lam) < 8 * np.sqrt(lam))
    # lanes past the limit take the normal limit beside ordinary lanes
    lam = np.array([1e18, 0.5, 3e18, 2.0])
    f = kernels._rare_failures(np.random.default_rng(13), lam)
    assert np.all(np.abs(f - lam) < 8 * np.sqrt(lam) + 10)


def test_layer_kernels_reject_non_contiguous_states():
    c = np.zeros((3, 4))[:, ::2]
    with pytest.raises(ValueError, match="contiguous"):
        kernels.morris_add_batch(np.random.default_rng(0), c, np.ones((3, 2)), 0.1)
