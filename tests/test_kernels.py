"""Hot kernels: rounding edge cases, wire lengths, and the Morris fast paths."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import rounded_extents
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
    exponents, is_zero, decoded, extents = kernels.round_to_grid(x, unif, math.log1p(0.5),
                                                                 math.log(1e-6))
    assert list(is_zero) == [True, True, False]
    assert decoded[0] == decoded[1] == 0.0
    assert decoded[2] > 0.0
    assert extents.tolist() == [2.0, exponents[2], exponents[2]]


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
    assert len(got) == 4
    # the kernel keeps its exponents as float64 integers
    assert got[0].dtype == np.float64 and np.array_equal(got[0], want[0])
    for g, w in zip(got[1:3], want[1:]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert got[3].shape == shape[:-1] + (3,)
    assert np.array_equal(got[3], rounded_extents(*want[:2]), equal_nan=True)
    live = got[0][~got[1]]
    assert np.all((window[0] <= live) & (live <= window[1])) == (want_ok or x.size == 0)


# A layer of three blocks and a ragged fourth, and rows wider than a block,
# which round one row per block.
@pytest.mark.parametrize("rows, lanes", [
    (3 * (kernels.ROUND_BLOCK_LANES // 3000) + 2, 3000),
    (3, kernels.ROUND_BLOCK_LANES + 123),
])
def test_round_to_grid_in_blocks_equals_row_by_row_calls(rows, lanes):
    rng = np.random.default_rng(rows)
    x = np.exp(rng.uniform(-30.0, 30.0, (rows, lanes))) * rng.choice([-1.0, 1.0], (rows, lanes))
    special = rng.random(x.shape)
    x[special < 0.05] = 0.0
    x[(0.05 <= special) & (special < 0.1)] = -0.0
    x[(0.1 <= special) & (special < 0.2)] *= 1e-30  # under the floor
    x[1] = 0.0  # rows with no live lane: NaN extents
    x[-1, ::2] = -0.0
    x[-1, 1::2] = 1e-40
    unif = rng.random(x.shape)
    args = (math.log1p(1e-3), math.log(1e-6))
    got = kernels.round_to_grid(x, unif, *args)
    # each row on its own consumes that row's uniforms, in lane order
    by_row = [kernels.round_to_grid(x[r], unif[r], *args) for r in range(rows)]
    for g, w in zip(got, zip(*by_row)):
        assert g.tobytes() == np.stack(w).tobytes()
    assert np.isnan(got[3][[1, -1], 1:]).all() and not np.isnan(got[3][0]).any()
    want = reference_round_to_grid(x, unif, *args)
    assert np.array_equal(got[0], want[0])
    assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()
    assert np.array_equal(got[3], rounded_extents(*want[:2]), equal_nan=True)


# numpy's AVX-512 exp, log, tan and power give other last bits than libm;
# the session turns them off (conftest.py), the benchmark runs with them on.
# On that path the child checks the rounding kernel against its reference
# (exponents, zero flags and decoded bytes, with -0.0, NaN, sub-floor and
# all-zero rows, and the extents), and at two chunk sizes a sketch's held
# columns against the dense oracle and its product on data holding about
# half the columns against the blocked oracle.  On a host without AVX-512
# it checks the libm path again.
_NATIVE = r"""
import math, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from helpers import rounded_extents
from test_kernels import reference_round_to_grid
from sketchcast import kernels, stable

rng = np.random.default_rng(16)
for shape, gamma, floor in [((2, 192), 1e-3, 1e-6), ((32, 608), 0.05, 0.0),
                            ((3, 2048), 3e-4, 1e-30), ((1, 5), 0.3, 1e-9)]:
    x = np.exp(rng.uniform(-40.0, 40.0, shape)) * rng.choice([-1.0, 1.0], shape)
    special = rng.random(shape)
    x[special < 0.05] = 0.0
    x[(0.05 <= special) & (special < 0.1)] = -0.0
    x[(0.1 <= special) & (special < 0.12)] = np.nan
    x[(0.12 <= special) & (special < 0.2)] *= 1e-30
    x[-1, :] = -0.0
    unif = rng.random(shape)
    args = (math.log1p(gamma), math.log(floor) if floor > 0.0 else -math.inf)
    exponents, is_zero, decoded, extents = kernels.round_to_grid(x, unif, *args)
    want = reference_round_to_grid(x, unif, *args)
    print(shape, np.array_equal(exponents, want[0]) and is_zero.tobytes() == want[1].tobytes()
          and decoded.tobytes() == want[2].tobytes()
          and np.array_equal(extents, rounded_extents(*want[:2]), equal_nan=True))

from sketch_reference import data_groups, dense_entries, grouped_product, streamed_entries

# about half the columns held, in runs of a few, many of them repeated
data = rng.integers(0, 4, (16, 3000)) * (rng.random((16, 3000)) < 0.05)
chunks = (1 << 13, stable.CHUNK_CELLS)
for p, skewed in [(0.5, False), (1.5, False), (1.0, True)]:
    sketch = stable.build_sketch(120, 3000, p, seed=17, skewed=skewed)
    entries = dense_entries(120, 3000, p, stable.DEFAULT_ETA, seed=17, skewed=skewed)
    held = np.flatnonzero(data.any(axis=0))
    want = grouped_product(120, p, stable.DEFAULT_ETA, 17, data, stable.BLOCK_CELLS // 120,
                           skewed).tobytes()
    products, columns = [], []
    for chunk in chunks:
        stable.CHUNK_CELLS = chunk
        products.append(sketch.apply(data).tobytes())
        columns.append(streamed_entries(sketch, held).tobytes())
    print(p, skewed, chunks[0] != chunks[1] and 0.3 < held.size / 3000 < 0.7
          and data_groups(data)[0].size < held.size
          and products[0] == products[1] == want
          and columns[0] == columns[1] == entries[:, held].tobytes())
"""


def test_rounding_and_chunked_sketches_hold_with_avx512_kernels_on():
    env = {key: value for key, value in os.environ.items()
           if key != "NPY_DISABLE_CPU_FEATURES"}
    tests = Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _NATIVE, str(tests)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")[:-1]
    assert len(lines) == 7 and all(line.endswith("True") for line in lines), proc.stdout


def test_rounded_bits_formula():
    from bitcodec import encode_rounded, gamma_len, zigzag

    exponents = np.array([[0, -3, 17, 2], [9, 9, 9, 9], [4, 1, 1, 0]], dtype=np.int64)
    is_zero = np.array([[False, False, False, True], [False] * 4, [True] * 4])
    # on the grid of powers of 2, 2^e rounds to e under a uniform of 1/2:
    # its probability of rounding up is within rounding of 0 from e, or of
    # 1 from e - 1
    x = np.where(is_zero, 0.0, 2.0 ** exponents)
    got_e, got_zero, _, extents = kernels.round_to_grid(x, np.full(x.shape, 0.5),
                                                        math.log(2.0), -math.inf)
    assert np.array_equal(got_zero, is_zero)
    assert np.array_equal(got_e[~is_zero], exponents[~is_zero])
    # NaN is the lowest and highest exponent of a row without live lanes
    want_extents = [[1, -3, 17], [0, 9, 9], [4, np.nan, np.nan]]
    assert np.array_equal(extents, want_extents, equal_nan=True)
    assert np.array_equal(rounded_extents(exponents, is_zero), want_extents, equal_nan=True)
    bits = kernels.rounded_bits(extents, 4)
    assert bits.dtype == np.int64
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
