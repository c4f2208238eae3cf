"""Stable sampling: moments, tails, medians, and streamed sketches."""

import json
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
from helpers import tree_of
from sketch_reference import (
    MEDIAN_SKEWED_STANDARD,
    SKEWED,
    StableLaw,
    blocked_product,
    data_groups,
    dense_entries,
    grouped_entries,
    grouped_product,
    sample_stable,
    sample_stable_array,
    streamed_entries,
)
from sketchcast import kernels, stable
from sketchcast.fp_high import FpHighConfig, estimate_fp_high
from sketchcast.stable import (
    MAX_SKETCH_CELLS,
    build_sketch,
    median_abs,
)
from sketchcast.topology import star


def draws(p, beta=0.0, gamma_scale=1.0, loc=0.0, size=10**6, seed=0):
    params = StableLaw(p=p, beta=beta, gamma_scale=gamma_scale)
    return sample_stable_array(params, np.random.default_rng(seed), size, loc)


def test_params_validation():
    with pytest.raises(ValueError, match="p must be in"):
        build_sketch(5, 5, 0.0)
    with pytest.raises(ValueError, match="p must be in"):
        build_sketch(5, 5, 2.5)
    with pytest.raises(ValueError, match="only drawn at p = 1"):
        build_sketch(5, 5, 1.5, skewed=True)
    assert build_sketch(5, 5, 1.0, skewed=True).skewed


def test_gaussian_case_has_variance_two():
    z = draws(2.0, size=10**5, seed=1)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 2.0) < 0.06


def test_cauchy_case_is_centered():
    z = draws(1.0, size=10**5, seed=2)
    assert abs(np.median(z)) < 0.03


def test_symmetric_location_shift():
    z = draws(2.0, loc=3.0, size=10**5, seed=3)
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
    params = StableLaw(p=1.0)
    parts = sample_stable_array(params, rng, 4 * 10**5).reshape(4, 10**5)
    combined = x @ parts
    reference = x.sum() * sample_stable_array(params, rng, 10**5)
    assert stats.ks_2samp(combined, reference).pvalue >= 0.01


def test_median_abs_analytic_points():
    assert median_abs(1.0) == 1.0
    assert math.isclose(median_abs(2.0), math.sqrt(2.0) * stats.norm.ppf(0.75), rel_tol=1e-9)
    assert math.isclose(median_abs(2.0), 0.9539, rel_tol=1e-3)


def test_median_abs_pinned_points():
    # the quadrature's values, which scipy's levy_stable quantiles match
    assert math.isclose(median_abs(0.5), 1.28383277518933, rel_tol=1e-12)
    assert math.isclose(median_abs(0.25), 2.53608456031461, rel_tol=1e-12)
    assert math.isclose(median_abs(1.5), 0.968933181713583, rel_tol=1e-12)


def test_median_abs_off_grid_is_deterministic_and_ordered():
    # No sampling: an uncached call returns the same float; theta_p
    # decreases in p here.
    assert median_abs.__wrapped__(0.6) == median_abs.__wrapped__(0.6) == median_abs(0.6)
    assert median_abs(0.75) < median_abs(0.6) < median_abs(0.5)
    with pytest.raises(ValueError):
        median_abs(0.0)


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
    z = draws(1.0, beta=-1.0, gamma_scale=math.pi / 2, loc=h, size=10**6, seed=10)
    assert abs(np.median(z) - (MEDIAN_SKEWED_STANDARD - h)) < 0.02


def test_sample_stable_scalar_matches_array_head():
    params = StableLaw(p=1.5)
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
    assert np.array_equal(sk.eta * sk.apply(np.eye(30)), entries.T * 2.0**-20)


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

CHUNK = stable.CHUNK_CELLS


@pytest.mark.parametrize("p, beta", [(0.25, 0.0), (0.5, 0.0), (1.0, 0.0), (1.5, 0.0),
                                     (2.0, 0.0), (1.0, -1.0)])
def test_in_place_transforms_equal_the_textbook_expressions(p, beta):
    # Raw draws, before eta-rounding hides the last bits.  The reference is
    # the tangent form with fresh temporaries; the test below ties it to
    # the sin/cos form.
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


def assert_kernels_agree(gaps):
    assert len(gaps) == len(sketch_reference.AGREEMENT_P) + len(sketch_reference.AGREEMENT_BETA)
    assert all(gap <= 1e-13 for gap in gaps.values()), gaps


def test_tangent_kernels_agree_with_the_sincos_definitions():
    # Random, tail (U within 1e-15 of +-pi/2) and edge (u = 0, w = 0) draws.
    assert_kernels_agree(sketch_reference.transform_gaps())


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 1.1, 1.5])
def test_symmetric_kernel_at_both_edges_matches_sincos(p):
    # U = -pi/2 (a raw uniform of 0) with W = 0: the base of the tangent
    # form's one power overflows, which the power turns into inf at p < 1
    # and into 0 at p > 1.  The sin/cos form is -inf at p <= 0.5 but about
    # -2.2e51 at p = 0.9, -2.9e-13 at p = 1.1 and -5.1e-90 at p = 1.5.  The
    # ordinary cells around it keep the tangent form's bits.
    rng = np.random.default_rng(15)
    u = (rng.random(1000) - 0.5) * np.pi
    w = rng.standard_exponential(1000)
    u[500], w[500] = -0.5 * np.pi, 0.0
    with np.errstate(over="ignore"):
        got = kernels.cms_symmetric(p, u.copy(), w.copy())
        tangent = sketch_reference.cms_symmetric(p, u, w)
        want = sketch_reference.cms_symmetric_sincos(p, u[500], w[500])
    assert got[500] == want or abs(got[500] - want) <= 1e-13 * abs(want)
    others = np.arange(1000) != 500
    assert np.array_equal(got[others].view(np.int64), tangent[others].view(np.int64))


# numpy's AVX-512 tan and power give other last bits than libm; the session
# turns them off (conftest.py), the benchmark runs with them on.
_GAPS = "import json, sketch_reference; print(json.dumps(sketch_reference.transform_gaps()))"


def test_tangent_kernels_agree_with_avx512_kernels_on():
    env = {key: value for key, value in os.environ.items()
           if key != "NPY_DISABLE_CPU_FEATURES"}
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(Path(__file__).parent)])
    proc = subprocess.run([sys.executable, "-c", _GAPS], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert_kernels_agree(json.loads(proc.stdout))


def _kernel_input(size, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(size) - 0.5) * np.pi, rng.standard_exponential(size)


@pytest.mark.parametrize("p", [0.05, 0.25, 0.5, 0.9, 1.1, 1.5, 1.9, 2.0])
def test_kernel_draws_split_at_the_quadrature_median(p):
    # median_abs solves the stable CDF by quadrature and shares no code
    # with the kernel.
    z = kernels.cms_symmetric(p, *_kernel_input(10**6, 14))
    frac = np.mean(np.abs(z) < median_abs(p))
    assert 0.497 <= frac <= 0.503


def test_skewed_kernel_draws_split_at_the_standard_median():
    g = math.pi / 2
    z = kernels.cms_skewed_one(-1.0, *_kernel_input(10**6, 15))
    # F(1, -1, pi/2, 0), scaled as StableSketch scales it
    z = g * z - (2.0 / np.pi) * g * math.log(g)
    frac = np.mean(z < MEDIAN_SKEWED_STANDARD)
    assert 0.497 <= frac <= 0.503


@pytest.mark.parametrize("k, n, p, beta, gamma_scale", [
    (101, 9000, 1.5, 0.0, 1.0),               # four column blocks, the last one short
    (33, 1, 0.5, 0.0, 1.0),                   # n = 1
    (3, CHUNK + 17, 0.5, 0.0, 1.0),           # k does not divide the chunk
    (70, 500, 0.25, 0.0, 1.0),                # heavy tails at small p
    (70, 5000, 1.0, -1.0, math.pi / 2),       # skewed p=1
    (70, 5000, 1.0, 0.0, 1.0),                # symmetric p=1, the tan path
    (70, 5000, 2.0, 0.0, 1.0),                # p=2
    (400, 700, 0.5, 0.0, 1.0),                # two blocks of many rows
])
def test_streamed_entries_equal_dense_bit_for_bit(k, n, p, beta, gamma_scale):
    # (beta, gamma_scale) names the law: (0, 1) for D_p, (-1, pi/2) for the skewed law
    skewed = StableLaw(p, beta, gamma_scale) == SKEWED
    assert skewed or (beta, gamma_scale) == (0.0, 1.0)
    want = dense_entries(k, n, p, 2.0**-20, seed=21, skewed=skewed)
    got = streamed_entries(build_sketch(k, n, p, 2.0**-20, seed=21, skewed=skewed))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _column_sets(n, seed):
    """Column sets of a width-n sketch: gaps, both ends, single columns, long runs."""
    rng = np.random.default_rng(seed)
    sets = [np.sort(rng.choice(n, size=max(1, n // 3), replace=False)),
            np.unique([0, n - 1]), np.array([0]), np.array([n - 1]), np.array([n // 2]),
            np.r_[np.arange(0, 3 * n // 4), np.arange(3 * n // 4 + 7, n, 5)],
            np.arange(n)]
    return [cols for cols in sets if cols.size]


@pytest.mark.parametrize("k, n, p, skewed, block_cells", [
    (70, 5000, 1.5, False, stable.BLOCK_CELLS),  # a 3,750-column run spans two blocks
    (70, 5000, 1.0, True, stable.BLOCK_CELLS),
    (33, 1, 0.5, False, stable.BLOCK_CELLS),     # n = 1
    (70, 300, 0.5, False, 64),                   # k above the block: a column per block
    (3, CHUNK + 17, 0.25, False, stable.BLOCK_CELLS),
])
def test_columns_of_any_set_equal_the_dense_columns_bit_for_bit(monkeypatch, k, n, p, skewed,
                                                                block_cells):
    monkeypatch.setattr(stable, "BLOCK_CELLS", block_cells)
    sk = build_sketch(k, n, p, 2.0**-20, seed=22, skewed=skewed)
    want = dense_entries(k, n, p, 2.0**-20, seed=22, skewed=skewed)
    for cols in _column_sets(n, 23):
        got = streamed_entries(sk, cols)
        assert np.array_equal(got.view(np.int64), want[:, cols].view(np.int64))


def test_column_blocks_hold_block_cells_over_k_columns():
    sk = build_sketch(101, 9000, 1.5, seed=24)
    cols = np.sort(np.random.default_rng(25).choice(9000, size=6000, replace=False))
    width = stable.BLOCK_CELLS // 101
    blocks = [(ids.copy(), block) for ids, block in sk.columns(cols)]
    assert [ids.size for ids, _ in blocks] == [width, width, 6000 - 2 * width]
    assert np.array_equal(np.concatenate([ids for ids, _ in blocks]), cols)
    # one buffer of one full block serves every block
    assert all(block.shape == (ids.size, 101) for ids, block in blocks)
    assert len({block.__array_interface__["data"][0] for _, block in blocks}) == 1
    assert list(sk.columns([])) == []
    for bad in ([3, 3], [5, 2], [-1], [9000], [[1, 2]]):
        with pytest.raises(ValueError, match="strictly increasing"):
            next(sk.columns(bad))


def test_apply_matches_dense_products_at_small_shapes():
    # The data repeat no column, so every group is one column and apply is
    # the product with the dense sketch itself, one GEMM at this shape.
    sk = build_sketch(50, 300, 1.5, 2.0**-30, seed=6)
    entries = dense_entries(50, 300, 1.5, 2.0**-30, seed=6)
    data = np.random.default_rng(7).integers(0, 9, size=(6, 300)).astype(np.float64)
    assert data_groups(data)[0].size == 300
    assert np.array_equal(sk.apply(data), data @ entries.T)
    assert np.array_equal(sk.eta * sk.apply(data), data @ (entries * 2.0**-30).T)
    # a row repeats its values, so its groups draw once each
    assert data_groups(data[2])[0].size < 300
    want = grouped_product(50, 1.5, 2.0**-30, 6, data[2], stable.BLOCK_CELLS // 50)
    assert np.array_equal(sk.apply(data[2]), want)
    with pytest.raises(ValueError):
        sk.apply(np.ones(299))


def _held_data(m, n, cols, seed):
    """(m, n) counts held exactly on ``cols``: every listed column has a nonzero row."""
    rng = np.random.default_rng(seed)
    data = np.zeros((m, n))
    data[:, cols] = rng.integers(0, 5, size=(m, len(cols))) * (rng.random((m, len(cols))) < 0.5)
    data[rng.integers(0, m, len(cols)), cols] = rng.integers(1, 5, len(cols))
    return data


# Summed over blocks, a product differs from the dense one only in the
# order of its float additions, so each entry is within gamma_n of the sum
# of absolute terms (Higham, "Accuracy and Stability of Numerical
# Algorithms", 3.1): |got - want| <= n 2^-52 (|data| @ |S|^T).
def _dense_gap_ok(got, data, entries):
    want = data @ entries.T
    bound = data.shape[-1] * 2.0**-52 * (np.abs(data) @ np.abs(entries).T)
    return np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("k, n, p, skewed, block_cells", [
    (70, 5000, 0.5, False, stable.BLOCK_CELLS),
    (70, 5000, 1.0, True, stable.BLOCK_CELLS),
    (40, 900, 1.5, False, 4000),                 # blocks of 100 columns
    (70, 300, 0.5, False, 64),                   # a column per block
    (33, 1, 1.5, False, stable.BLOCK_CELLS),
])
def test_apply_on_held_columns_equals_the_blocked_oracle(monkeypatch, k, n, p, skewed,
                                                         block_cells):
    monkeypatch.setattr(stable, "BLOCK_CELLS", block_cells)
    sk = build_sketch(k, n, p, 2.0**-20, seed=26, skewed=skewed)
    width = max(1, block_cells // k)
    for cols in _column_sets(n, 27):
        data = _held_data(6, n, cols, 28)
        for x in (data, data[int(np.argmax(data.any(axis=1)))]):
            got = sk.apply(x)
            firsts, entries = grouped_entries(k, p, 2.0**-20, 26, x, skewed)
            want = blocked_product(entries, x[..., firsts], width)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert _dense_gap_ok(got, x[..., firsts], entries)


def test_apply_on_all_zero_data_draws_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cursor was built for all-zero data")

    sk = build_sketch(20, 50, 1.5, seed=29)
    monkeypatch.setattr(stable, "_HeldCells", refuse)
    for data in (np.zeros((4, 50)), np.zeros(50), -np.zeros((1, 50))):
        got = sk.apply(data)
        assert got.shape == data.shape[:-1] + (20,)
        assert not got.view(np.int64).any()  # +0.0 in every lane
    assert sk.seed.n_children_spawned == 0


@pytest.mark.parametrize("p, skewed", [(0.5, False), (1.0, False), (1.5, False), (2.0, False),
                                      (1.0, True)])
def test_grouped_apply_has_the_law_of_the_fixed_sketch_product(p, skewed):
    # 40 columns in two groups of repeated values: apply draws two columns,
    # scaled by group, where the fixed dense sketch sums all 40 per row.
    x = np.where(np.arange(40) % 3 == 0, 2.0, 5.0)
    assert data_groups(x)[1].tolist() == [14, 26]
    got = build_sketch(4000, 40, p, 2.0**-30, seed=31, skewed=skewed).apply(x)
    want = dense_entries(4000, 40, p, 2.0**-30, seed=32, skewed=skewed) @ x
    assert stats.ks_2samp(got, want).pvalue >= 0.01


def test_one_repeated_value_shifts_the_skewed_median_by_the_entropy():
    # x uniform on n coordinates has entropy H = ln n, and its normalized
    # rows, all drawn from one scaled column, follow F(1, -1, pi/2, H).
    n = 50
    x = np.full(n, 3.0)
    sk = build_sketch(4 * 10**5, n, 1.0, 2.0**-30, seed=33, skewed=True)
    rows = sk.eta * sk.apply(x) / x.sum()
    assert abs(np.median(rows) - (MEDIAN_SKEWED_STANDARD - math.log(n))) < 0.02


def _near_twins(m, pairs, seed):
    """(m, 2 pairs) counts in column pairs (2i, 2i + 1), no two pairs alike.

    The pairs of odd i are equal; those of even i are one ulp apart in one row.
    """
    rng = np.random.default_rng(seed)
    base = rng.integers(1, 4, size=(m, pairs)).astype(np.float64)
    base[0] = np.arange(1, pairs + 1)
    data = np.repeat(base, 2, axis=1)
    nudged = 4 * np.arange((pairs + 1) // 2) + 1
    rows = rng.integers(0, m, nudged.size)
    data[rows, nudged] = np.nextafter(data[rows, nudged], np.inf)
    return data, nudged


@pytest.mark.parametrize("weights", ["fixed", "colliding"])
def test_grouping_never_merges_unequal_columns(monkeypatch, weights):
    # Columns one ulp apart in one row stay apart, with the fixed key
    # weights and with weights under which every key collides.
    if weights == "colliding":
        monkeypatch.setattr(stable, "_key_weights", lambda m: np.zeros(m))
    data, nudged = _near_twins(5, 20, 34)
    sk = build_sketch(30, 40, 1.5, 2.0**-20, seed=35)
    firsts, sizes = data_groups(data)
    assert firsts.size == 30 and sizes.max() == 2 and np.all(np.isin(nudged, firsts))
    want = grouped_product(30, 1.5, 2.0**-20, 35, data, stable.BLOCK_CELLS // 30)
    assert np.array_equal(sk.apply(data).view(np.int64), want.view(np.int64))
    # with no repeated column, apply is the fixed sketch's product
    distinct = data[:, firsts]
    sk = build_sketch(30, distinct.shape[1], 1.5, 2.0**-20, seed=35)
    entries = dense_entries(30, distinct.shape[1], 1.5, 2.0**-20, seed=35)
    assert np.array_equal(sk.apply(distinct), distinct @ entries.T)


# The products of the benchmark's wide star (m=16 players, n=1e4) at each
# protocol's CLI accuracy, with BLAS on one thread as the benchmark runs it:
# (k, p, skewed, scaled, players).  Scaled compares eta * apply
# with the product of the eta-scaled sketch, as fp_high uses it.  Players
# = 0 is S @ x.  Each product must equal the blocked oracle over the
# groups' first columns and their scaled dense entries bit for bit, and
# their one-GEMM product within the summation bound of _dense_gap_ok.
_WIDE_PRODUCTS = r"""
import sys
import numpy as np
from sketchcast import stable
from sketchcast.stable import build_sketch
sys.path.insert(0, sys.argv[1])
from sketch_reference import blocked_product, grouped_entries
from test_stable import _dense_gap_ok
cases = [(1200, 1.5, False, True, 16), (800, 0.5, False, False, 16), (300, 1.0, True, False, 16),
         (356, 0.5, False, False, 0), (300, 1.0, True, False, 0)]
rng = np.random.default_rng(8)
for k, p, skewed, scaled, m in cases:
    sk = build_sketch(k, 10**4, p, 2.0**-20, seed=9, skewed=skewed)
    data = rng.integers(0, 4, size=(max(m, 1), 10**4)) * (rng.random((max(m, 1), 10**4)) < 0.3)
    data = data.astype(np.float64)
    x = data[0] if m == 0 else data
    firsts, s = grouped_entries(k, p, 2.0**-20, 9, x, skewed)
    if scaled:
        s *= sk.eta
    got = sk.apply(x)
    if scaled:
        got = sk.eta * got
    want = blocked_product(s, x[..., firsts], stable.BLOCK_CELLS // k)
    print(k, m, firsts.size < np.count_nonzero(x.any(axis=0) if m else x)
          and np.array_equal(got, want) and _dense_gap_ok(got, x[..., firsts], s))
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
        estimate_fp_high(data, tree_of(star(16)), FpHighConfig(p=1.5, eps=0.1), seed=11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
