"""Stable sampling: moments, tails, medians, and streamed sketches."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sketch_reference
from sketch_reference import (
    MEDIAN_SKEWED_STANDARD,
    dense_entries,
    sample_stable,
    sample_stable_array,
    streamed_entries,
)
from sketchcast import kernels, stable
from sketchcast.fp_high import FpHighConfig, estimate_fp_high
from sketchcast.stable import (
    MAX_SKETCH_CELLS,
    StableParams,
    build_sketch,
    median_abs,
    montecarlo_median_abs,
)
from sketchcast.topology import star


def draws(p, beta=0.0, gamma_scale=1.0, delta_loc=0.0, size=10**6, seed=0):
    params = StableParams(p=p, beta=beta, gamma_scale=gamma_scale, delta_loc=delta_loc)
    return sample_stable_array(params, np.random.default_rng(seed), size)


def test_params_validation():
    with pytest.raises(ValueError):
        StableParams(p=0.0)
    with pytest.raises(ValueError):
        StableParams(p=2.5)
    with pytest.raises(ValueError):
        StableParams(p=1.0, beta=1.5)
    with pytest.raises(ValueError):
        StableParams(p=1.0, gamma_scale=0.0)
    with pytest.raises(ValueError):
        StableParams(p=1.5, beta=-1.0)  # skew only at p=1


def test_gaussian_case_has_variance_two():
    z = draws(2.0, size=10**5, seed=1)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 2.0) < 0.06


def test_cauchy_case_is_centered():
    z = draws(1.0, size=10**5, seed=2)
    assert abs(np.median(z)) < 0.03


def test_symmetric_location_shift():
    z = draws(2.0, delta_loc=3.0, size=10**5, seed=3)
    assert abs(np.median(z) - 3.0) < 0.03


def test_half_stable_tail_decay_rate():
    z = np.abs(draws(0.5, size=10**6, seed=4))
    scaled = [np.mean(z > lam) * math.sqrt(lam) for lam in (10.0, 100.0, 1000.0)]
    assert max(scaled) < 2 * min(scaled)


@pytest.mark.parametrize("p", [0.5, 1.5])
def test_tail_log_log_slope_near_minus_p(p):
    z = np.abs(draws(p, size=10**6, seed=5))
    lams = np.geomspace(10.0, 1000.0, 5)
    fracs = np.array([np.mean(z > lam) for lam in lams])
    assert np.all(np.diff(fracs) < 0)
    slope = np.polyfit(np.log(lams), np.log(fracs), 1)[0]
    assert abs(slope + p) < 0.15


def test_one_stability_additivity():
    x = np.array([0.3, 1.2, 2.0, 0.5])
    rng = np.random.default_rng(6)
    params = StableParams(p=1.0)
    parts = sample_stable_array(params, rng, 4 * 10**5).reshape(4, 10**5)
    combined = x @ parts
    reference = x.sum() * sample_stable_array(params, rng, 10**5)
    assert stats.ks_2samp(combined, reference).pvalue >= 0.01


def test_median_abs_analytic_points():
    assert median_abs(1.0) == 1.0
    assert math.isclose(median_abs(2.0), math.sqrt(2.0) * stats.norm.ppf(0.75), rel_tol=1e-9)
    assert math.isclose(median_abs(2.0), 0.9539, rel_tol=1e-3)


def test_median_abs_pinned_points():
    assert median_abs(0.5) == 1.284163
    assert median_abs(0.25) == 2.537526
    assert median_abs(1.5) == 0.968694


def test_median_abs_off_grid_is_deterministic_and_ordered():
    # Falls back to fixed-seed Monte Carlo; theta_p decreases in p here.
    assert montecarlo_median_abs(0.6, samples=10**6) == montecarlo_median_abs(0.6, samples=10**6)
    assert median_abs(0.75) < median_abs(0.6) < median_abs(0.5)


@pytest.mark.parametrize("p", [0.5, 1.5])
def test_median_abs_is_a_fixed_point(p):
    z = np.abs(draws(p, size=10**6, seed=7))
    frac = np.mean(z < median_abs(p))
    assert 0.497 <= frac <= 0.503


def test_skewed_log_mgf_is_t_log_t():
    # At gamma = pi/2, beta = -1: E[exp(t Z)] = exp(t ln t).
    z = draws(1.0, beta=-1.0, gamma_scale=math.pi / 2, size=10**6, seed=8)
    assert abs(np.mean(np.exp(z)) - 1.0) < 0.01
    assert abs(np.mean(np.exp(0.5 * z)) - 2.0**-0.5) < 0.01
    assert abs(np.mean(np.exp(2.0 * z)) - 4.0) < 0.15


def test_skewed_standard_median_pin():
    z = draws(1.0, beta=-1.0, gamma_scale=math.pi / 2, size=10**6, seed=9)
    assert abs(np.median(z) - MEDIAN_SKEWED_STANDARD) < 0.01


def test_skewed_location_enters_negated():
    h = 1.7
    z = draws(1.0, beta=-1.0, gamma_scale=math.pi / 2, delta_loc=h, size=10**6, seed=10)
    assert abs(np.median(z) - (MEDIAN_SKEWED_STANDARD - h)) < 0.02


def test_sample_stable_scalar_matches_array_head():
    params = StableParams(p=1.5)
    a = sample_stable(params, np.random.default_rng(11))
    b = sample_stable_array(params, np.random.default_rng(11), 1)[0]
    assert a == b


def test_build_sketch_is_deterministic():
    a = streamed_entries(build_sketch(2, 3, 1.0, 1e-6, seed=0))
    b = streamed_entries(build_sketch(2, 3, 1.0, 1e-6, seed=0))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, streamed_entries(build_sketch(2, 3, 1.0, 1e-6, seed=1)))


def test_build_sketch_entries_are_integral():
    sk = build_sketch(20, 30, 1.5, 2.0**-20, seed=2)
    entries = streamed_entries(sk)
    assert np.array_equal(entries, np.rint(entries))
    assert np.array_equal(sk.apply(np.eye(30), scaled=True), entries.T * 2.0**-20)


def test_unit_eta_rounds_small_draws_to_zero():
    entries = streamed_entries(build_sketch(40, 40, 2.0, 1.0, seed=3))
    assert np.array_equal(entries, np.rint(entries))
    # P(|N(0, sqrt(2))| < 1/2) is about 0.28; at 1600 cells zeros must show up.
    assert np.mean(entries == 0.0) > 0.15


def test_build_sketch_distribution_matches_sampler():
    sk = build_sketch(100, 10**4, 1.5, 2.0**-30, seed=4)
    reference = draws(1.5, size=10**5, seed=12)
    result = stats.ks_2samp(streamed_entries(sk).ravel() * 2.0**-30, reference)
    assert result.pvalue >= 0.01


def test_build_sketch_capacity_cap():
    k = int(math.isqrt(MAX_SKETCH_CELLS)) + 1
    with pytest.raises(MemoryError):
        build_sketch(k, k + 2, 1.5, 2.0**-30, seed=0)


def test_entry_cap_clips_scaled_magnitude():
    sk = build_sketch(50, 50, 0.25, 2.0**-20, seed=5, entry_cap=10.0)
    assert np.max(np.abs(streamed_entries(sk))) * 2.0**-20 <= 10.0 + 2.0**-20


def test_build_sketch_validates_arguments():
    with pytest.raises(ValueError):
        build_sketch(0, 5, 1.5, 2.0**-30, seed=0)
    with pytest.raises(ValueError):
        build_sketch(5, 5, 1.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        build_sketch(5, 5, 1.5, 2.0, seed=0)


# ---------------------------------------------------------------------------
# Streamed sketches against the dense oracle.
# ---------------------------------------------------------------------------

ROWS = stable.BLOCK_ROW_MULTIPLE
CHUNK = stable.CHUNK_CELLS


@pytest.mark.parametrize("p, beta", [(0.25, 0.0), (0.5, 0.0), (1.0, 0.0), (1.5, 0.0),
                                     (2.0, 0.0), (1.0, -1.0)])
def test_in_place_transforms_equal_the_textbook_expressions(p, beta):
    # Raw draws, before eta-rounding hides the last bits.
    rng = np.random.default_rng(13)
    u = (rng.random(10**5) - 0.5) * np.pi
    w = rng.standard_exponential(10**5)
    if beta == 0.0:
        want = sketch_reference.cms_symmetric(p, u, w)
        got = kernels.cms_symmetric(p, u.copy(), w.copy())
    else:
        want = sketch_reference.cms_skewed_one(beta, u, w)
        got = kernels.cms_skewed_one(beta, u.copy(), w.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("k, n, p, beta, gamma_scale, cap", [
    (3 * ROWS + 5, 9000, 1.5, 0.0, 1.0, None),      # k not a multiple of the block rows
    (ROWS + 1, 1, 0.5, 0.0, 1.0, None),             # n = 1
    (3, CHUNK + 17, 0.5, 0.0, 1.0, None),           # one row larger than a chunk
    (70, 500, 0.25, 0.0, 1.0, 10.0),                # entry_cap clips
    (70, 5000, 1.0, -1.0, math.pi / 2, None),       # skewed p=1
    (70, 5000, 1.0, 0.0, 1.0, None),                # symmetric p=1, the tan path
    (70, 5000, 2.0, 0.0, 1.0, None),                # p=2
    (400, 700, 0.5, 0.0, 1.0, 1e12),                # several blocks of many rows
])
def test_streamed_entries_equal_dense_bit_for_bit(k, n, p, beta, gamma_scale, cap):
    kwargs = dict(seed=21, beta=beta, gamma_scale=gamma_scale, entry_cap=cap)
    want = dense_entries(k, n, p, 2.0**-20, **kwargs)
    sk = build_sketch(k, n, p, 2.0**-20, **kwargs)
    got = streamed_entries(sk)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if cap is not None:
        assert np.max(np.abs(got)) * 2.0**-20 <= cap + 2.0**-20


def test_block_rows_are_multiples_of_the_row_multiple():
    for k, width in [(800, 10**4), (800, 200), (5000, 1000), (7, 10**6), (2048, 128)]:
        rows = stable.block_rows(k, width)
        assert rows == k or rows % ROWS == 0
        assert 1 <= rows <= k


def test_apply_matches_dense_products_at_small_shapes():
    sk = build_sketch(50, 300, 1.5, 2.0**-30, seed=6)
    entries = dense_entries(50, 300, 1.5, 2.0**-30, seed=6)
    data = np.random.default_rng(7).integers(0, 9, size=(6, 300)).astype(np.float64)
    assert np.array_equal(sk.apply(data), data @ entries.T)
    assert np.array_equal(sk.apply(data, scaled=True), data @ (entries * 2.0**-30).T)
    assert np.array_equal(sk.apply(data[2]), entries @ data[2])
    with pytest.raises(ValueError):
        sk.apply(np.ones(299))


# The products of the benchmark's wide star (m=16 players, n=1e4) at each
# protocol's CLI accuracy, with BLAS on one thread as the benchmark runs it:
# (k, p, beta, gamma, cap, scaled, players).  Players = 0 is S @ x.
_WIDE_PRODUCTS = r"""
import math, sys
import numpy as np
from sketchcast.stable import build_sketch
sys.path.insert(0, sys.argv[1])
from sketch_reference import streamed_entries
cases = [(1200, 1.5, 0.0, 1.0, None, True, 16), (800, 0.5, 0.0, 1.0, (16 * 1e4 * 16) ** 3, False, 16),
         (300, 1.0, -1.0, math.pi / 2, (16 * 1e4 * 16) ** 3, False, 16),
         (356, 0.5, 0.0, 1.0, None, False, 0), (300, 1.0, -1.0, math.pi / 2, None, False, 0)]
rng = np.random.default_rng(8)
for k, p, beta, g, cap, scaled, m in cases:
    sk = build_sketch(k, 10**4, p, 2.0**-20, seed=9, beta=beta, gamma_scale=g, entry_cap=cap)
    s = streamed_entries(sk)
    if scaled:
        s *= sk.eta
    data = rng.integers(0, 4, size=(max(m, 1), 10**4)) * (rng.random((max(m, 1), 10**4)) < 0.3)
    data = data.astype(np.float64)
    if m == 0:
        ok = np.array_equal(sk.apply(data[0], scaled), s @ data[0])
    else:
        ok = np.array_equal(sk.apply(data, scaled), data @ s.T)
    print(k, m, ok)
"""


def test_apply_equals_dense_products_at_the_wide_star_shapes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", _WIDE_PRODUCTS, str(Path(__file__).parent)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")[:-1]
    assert len(lines) == 5 and all(line.endswith("True") for line in lines), proc.stdout


def test_fp_high_at_n_1e4_never_holds_the_sketch():
    # The dense 1200 x 1e4 sketch alone is 96 MB, and building it took about
    # 600 MB of temporaries; the streamed blocks take a few MB.
    data = np.random.default_rng(10).integers(0, 3, size=(16, 10**4)).astype(np.float64)
    tracemalloc.start()
    try:
        estimate_fp_high(data, star(16), FpHighConfig(p=1.5, eps=0.1), seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
