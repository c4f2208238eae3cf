"""Exact scoring oracles, plus independent re-derivations of pinned constants.

The re-derivations use fresh seeds and different sample counts from the
pins they check, so a transcription error in a stored constant cannot
hide behind the code that produced it.
"""

import math

import numpy as np
import pytest
from scipy import stats

from sketch_reference import MEDIAN_SKEWED_STANDARD, sample_stable_array
from sketchcast import oracles
from sketchcast.stable import (
    StableParams,
    _MEDIAN_TABLE,
    median_abs,
    montecarlo_median_abs,
)

# ---------------------------------------------------------------------------
# Scoring oracles.
# ---------------------------------------------------------------------------


def test_frequency_moment_hand_values():
    assert oracles.frequency_moment(np.array([3.0, 4.0]), 2.0) == 25.0
    assert oracles.lp_norm(np.array([3.0, 4.0]), 2.0) == 5.0
    assert math.isclose(oracles.frequency_moment(np.array([4.0, 9.0]), 0.5), 5.0)


def test_frequency_moment_rejects_non_positive_p():
    with pytest.raises(ValueError):
        oracles.frequency_moment(np.ones(3), 0.0)


def test_entropy_hand_values():
    assert math.isclose(oracles.entropy_nats(np.ones(4)), math.log(4.0), rel_tol=1e-12)
    assert oracles.entropy_nats(np.array([0.0, 5.0, 0.0])) == 0.0


def test_entropy_ninety_ten_pin():
    # -0.9 ln 0.9 - 0.1 ln 0.1, quoted as 0.3251 nats in the acceptance runs.
    h = oracles.entropy_nats(np.array([9.0, 1.0]))
    assert math.isclose(h, -0.9 * math.log(0.9) - 0.1 * math.log(0.1), rel_tol=1e-12)
    assert round(h, 4) == 0.3251


def test_entropy_rejects_zero_vector():
    with pytest.raises(ValueError):
        oracles.entropy_nats(np.zeros(3))


def test_tail_l2_drops_largest():
    x = np.array([10.0, 1.0, 1.0, 1.0])
    assert math.isclose(oracles.tail_l2(x, 1), math.sqrt(3.0), rel_tol=1e-12)
    assert oracles.tail_l2(x, 0) == math.sqrt(103.0)
    assert oracles.tail_l2(x, 10) == 0.0
    with pytest.raises(ValueError):
        oracles.tail_l2(x, -1)


def test_matrix_product_oracle():
    x = np.arange(6.0).reshape(3, 2)
    y = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(oracles.matrix_product(x, y), x.T @ y)
    with pytest.raises(ValueError):
        oracles.matrix_product(x, y.T)


# ---------------------------------------------------------------------------
# Pinned-constant re-derivations.
# ---------------------------------------------------------------------------


def test_theta_two_from_inverse_cdf():
    assert math.isclose(median_abs(2.0), math.sqrt(2.0) * stats.norm.ppf(0.75), rel_tol=1e-12)


def test_theta_one_from_cauchy_cdf():
    # |Cauchy| has CDF (2/pi) arctan(x); the median solves arctan(x) = pi/4.
    assert math.isclose(median_abs(1.0), math.tan(math.pi / 4.0), rel_tol=1e-12)


@pytest.mark.parametrize("p", sorted(_MEDIAN_TABLE))
def test_theta_table_against_fresh_monte_carlo(p):
    # 2e6 fresh samples pin the median to ~0.7% at worst (p=0.25 has the
    # flattest density); the band catches transcription-level errors.
    fresh = montecarlo_median_abs(p, samples=2 * 10**6, seed=777)
    assert math.isclose(fresh, _MEDIAN_TABLE[p], rel_tol=1e-2)


def test_skewed_median_pin_against_fresh_monte_carlo():
    params = StableParams(p=1.0, beta=-1.0, gamma_scale=math.pi / 2)
    z = sample_stable_array(params, np.random.default_rng(778), 2 * 10**6)
    assert abs(np.median(z) - MEDIAN_SKEWED_STANDARD) < 5e-3


def test_entropy_exponential_identity_on_simplex():
    # For iid standard maximally skewed Z and a probability vector q,
    # E[exp(sum_j q_j Z_j)] = exp(-H(q)); this is the entropy mechanism,
    # checked here straight from the sampler.
    q = np.array([0.5, 0.2, 0.2, 0.05, 0.05])
    h = oracles.entropy_nats(q)
    params = StableParams(p=1.0, beta=-1.0, gamma_scale=math.pi / 2)
    rng = np.random.default_rng(779)
    rows = 10**6
    z = sample_stable_array(params, rng, rows * q.size).reshape(q.size, rows)
    mean = float(np.mean(np.exp(q @ z)))
    assert abs(mean - math.exp(-h)) < 0.01


def test_morris_variance_formula_against_simulation():
    from sketchcast import kernels
    from sketchcast.morris import estimate_variance, estimates_signed

    b, n, trials = 1.3, 200.0, 40_000
    states = np.zeros(trials)
    kernels.morris_add_batch(np.random.default_rng(780), states,
                             np.full(trials, n), math.log(b))
    ests = estimates_signed(states, np.zeros(trials), b - 1.0)
    assert abs(ests.mean() - n) < 4 * math.sqrt(estimate_variance(n, b - 1.0) / trials)
    assert 0.8 * estimate_variance(n, b - 1.0) < ests.var() < 1.2 * estimate_variance(n, b - 1.0)


def test_stable_row_mass_tail_lemma():
    # The L1 mass a sketch row absorbs, sum_j |S_ij x_j|, exceeds
    # C * lambda^{1/p} * ||x||_p with frequency at most ~1/lambda.  C is
    # fitted at the largest lambda and tested at the smaller ones.
    p, n, draws = 0.5, 32, 10**4
    x = np.abs(np.random.default_rng(781).standard_normal(n)) + 0.1
    norm = oracles.lp_norm(x, p)
    params = StableParams(p=p)
    z = sample_stable_array(params, np.random.default_rng(782), draws * n)
    mass = np.abs(z.reshape(draws, n) * x).sum(axis=1) / norm
    lam_fit = 16.0
    fitted_c = float(np.quantile(mass, 1.0 - 1.0 / lam_fit)) / lam_fit ** (1.0 / p)
    for lam in (2.0, 4.0, 8.0):
        freq = float(np.mean(mass > fitted_c * lam ** (1.0 / p)))
        assert freq <= 1.3 / lam
