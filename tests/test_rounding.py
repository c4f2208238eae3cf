"""Stochastic rounding: the grid kernel, its wire format, and grid derivation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitcodec import (decode_rounded, encode_rounded, gamma_len, rounded_len_bound,
                      zigzag)
from helpers import paper_exponent_bracket
from sketchcast import kernels
from sketchcast.rounding import RoundingParams, gamma_for

WIDE = RoundingParams(gamma=1.0)


def round_lanes(x, params, unif, log_floor=-math.inf):
    """kernels.round_to_grid on float lanes under ``params``."""
    x = np.asarray(x, dtype=np.float64)
    return kernels.round_to_grid(x, np.broadcast_to(unif, x.shape), params.log_gamma,
                                 log_floor)


def stratified(k):
    """k uniforms, one at the midpoint of each 1/k slice of [0, 1)."""
    return (np.arange(k) + 0.5) / k


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-6, max_value=1.0),
)
@settings(max_examples=300)
def test_interpolation_identity(r, gamma):
    # Rounding r is unbiased: averaged over stratified uniforms, the
    # decoded value is r up to one stratum of the bracket width hi - lo.
    params = RoundingParams(gamma=gamma)
    k = 4096
    # a uniform of 1 never rounds up, so it finds the lower grid point
    i = round_lanes([r], params, 1.0)[0][0]
    lo, hi = math.exp(i * params.log_gamma), math.exp((i + 1) * params.log_gamma)
    assert lo <= r * (1 + 1e-12) and r <= hi * (1 + 1e-12)
    exponents, _, decoded = round_lanes(np.full(k, r), params, stratified(k))
    assert set(exponents) <= {i, i + 1}
    assert abs(decoded.mean() - r) <= (hi - lo) / k + 1e-12 * r


def test_power_of_two_grid_brackets_five():
    k = 4000
    exponents, _, decoded = round_lanes(np.full(k, 5.0), WIDE, stratified(k))
    assert set(exponents) == {2, 3}
    assert math.isclose(decoded.min(), 4.0, rel_tol=1e-12)
    assert math.isclose(decoded.max(), 8.0, rel_tol=1e-12)
    assert np.mean(exponents == 3) == 0.25


def test_rounding_five_hits_eight_a_quarter_of_the_time():
    rng = np.random.default_rng(5)
    exponents, _, _ = round_lanes(np.full(4000, 5.0), WIDE, rng.random(4000))
    up = np.mean(exponents == 3)
    assert set(exponents) == {2, 3}
    # 4 sigma band around 0.25 at 4000 draws
    assert abs(up - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 4000)


def test_grid_points_round_to_themselves():
    rng = np.random.default_rng(0)
    exponents, is_zero, decoded = round_lanes(np.full(50, -4.0), WIDE, rng.random(50))
    assert not is_zero.any()
    assert set(exponents) == {2}
    np.testing.assert_allclose(decoded, -4.0, rtol=1e-12)


def test_zero_stays_zero():
    exponents, is_zero, decoded = round_lanes([0.0, 0.0], WIDE, 0.5)
    assert is_zero.all()
    assert not decoded.any()
    # an all-zero message is its zero flags alone
    assert kernels.rounded_bits(exponents, is_zero) == 2


def test_decode_examples():
    eight = round_lanes([8.0], WIDE, 0.5)
    assert eight[0][0] == 3 and math.isclose(eight[2][0], 8.0, rel_tol=1e-12)
    half = RoundingParams(gamma=0.5)
    minus_one = round_lanes([-1.0], half, 0.5)
    assert minus_one[0][0] == 0 and minus_one[2][0] == -1.0


def test_message_bits_hand_counts():
    # [0, -3]: 2 flags, gamma(zigzag(-3) + 1) = 5 bits, w = 2 so gamma(3) =
    # 3 bits, then 1 + 2 bits per lane; [_, 7] with lane 0 zero: 2 flags,
    # gamma(15) = 7, gamma(1) = 1 and a lone sign bit; all zero: 2 flags
    exponents = np.array([[0, -3], [5, 7], [0, 0]])
    is_zero = np.array([[False, False], [True, False], [True, True]])
    assert list(kernels.rounded_bits(exponents, is_zero)) == [16, 11, 2]
    assert encode_rounded([False, False], [False, True], [0, -3]) == "0000110011011100"


@pytest.mark.parametrize("exponent", range(-40, 41))
@pytest.mark.parametrize("sign", [1, -1])
def test_codec_round_trip_over_window(exponent, sign):
    # the lane beside a fixed exponent-3 lane, so lo, w and the residuals all
    # move with the exponent
    message = ([False, False], [sign < 0, False], [exponent, 3])
    bits = encode_rounded(*message)
    metered = kernels.rounded_bits(np.array(message[2]), np.array(message[0]))
    lo, w = min(exponent, 3), abs(exponent - 3).bit_length()
    assert len(bits) == metered == 2 + gamma_len(zigzag(lo) + 1) + gamma_len(w + 1) + 2 * (1 + w)
    assert decode_rounded(bits, 2) == (*message, len(bits))


def test_zero_codec_round_trip():
    bits = encode_rounded([True], [False], [0])
    assert bits == "1"
    assert len(bits) == kernels.rounded_bits(np.array([0]), np.array([True]))
    assert decode_rounded(bits, 1) == ([True], [False], [0], 1)


def test_rounded_vectors_are_realisable_at_the_metered_length():
    # Encode every message the kernel emits, one per row, zeros and
    # sub-floor values included, as one bit string: it must decode back
    # message by message and be exactly as long as the production meter says.
    rng = np.random.default_rng(12)
    params = RoundingParams(gamma=0.3)
    x = rng.standard_normal(3000) * 10.0 ** rng.integers(-9, 9, 3000)
    x[::11] = 0.0
    x = x.reshape(100, 30)
    x[7] = 0.0  # one all-zero message
    exponents, is_zero, _ = round_lanes(x, params, rng.random(x.shape),
                                        log_floor=math.log(1e-6))
    assert is_zero.sum() > x.size // 11
    negative = x < 0
    rows = list(zip(is_zero.tolist(), negative.tolist(), exponents.tolist()))
    stream = "".join(encode_rounded(*row) for row in rows)
    metered = kernels.rounded_bits(exponents, is_zero)
    assert metered.shape == (100,) and len(stream) == metered.sum()
    pos = 0
    for (z, neg, e), length in zip(rows, metered):
        start = pos
        got_zero, got_neg, got_e, pos = decode_rounded(stream, len(z), pos)
        assert got_zero == z
        assert [(a, b) for a, b, c in zip(got_neg, got_e, z) if not c] == \
            [(a, b) for a, b, c in zip(neg, e, z) if not c]
        assert pos - start == length
    assert pos == len(stream)


def test_variance_stays_under_grid_bound():
    # Var[round(r)] <= (gamma * r)^2 plus 3 sigma of the estimator.
    rng = np.random.default_rng(11)
    params = RoundingParams(gamma=0.5)
    for r in (1.0, 7.3):
        vals = round_lanes(np.full(20000, r), params, rng.random(20000))[2]
        dev2 = (vals - vals.mean()) ** 2
        slack = 3 * dev2.std() / math.sqrt(vals.size)
        assert dev2.mean() <= (params.gamma * r) ** 2 + slack


@pytest.mark.parametrize("gamma", [0.3, 1e-8])
def test_any_finite_exponent_rounds_and_meters_exactly(gamma):
    # No floor and lanes at +-1e-300 and +-1e300: exponents near
    # 690 / ln(1 + gamma) in magnitude, far outside the paper's bracket and
    # far below the 2^53 up to which rounded_bits reduces exactly.
    x = np.array([[1e-300, -1e300], [-1e-300, 1e300], [1e300, 0.0]])
    exponents, is_zero, decoded = round_lanes(x, RoundingParams(gamma=gamma), 0.5)
    live = ~is_zero
    assert live.sum() == 5
    assert np.all(np.abs(exponents[live]) * math.log1p(gamma) > 690)
    # a live lane decodes to a grid point of its bracket [lo, lo(1 + gamma)]
    np.testing.assert_allclose(decoded[live], x[live], rtol=gamma)
    metered = kernels.rounded_bits(exponents, is_zero)
    for z, neg, e, length in zip(is_zero.tolist(), (x < 0).tolist(), exponents.tolist(),
                                 metered):
        bits = encode_rounded(z, neg, e)
        assert len(bits) == length
        assert decode_rounded(bits, 2) == (z, neg, e, length)


def test_params_validation():
    with pytest.raises(ValueError):
        RoundingParams(gamma=0.0)
    with pytest.raises(ValueError):
        RoundingParams(gamma=2.0)


def test_gamma_for_formula_point():
    params = gamma_for(0.1, 0.1, d=2, n=10**4, m=16)
    expected = 0.01 / (2 * math.log2(160000))
    assert math.isclose(params.gamma, expected, rel_tol=1e-12)
    assert math.isclose(params.gamma, 2.90e-4, rel_tol=5e-3)


def test_gamma_for_doubling_depth_halves_gamma():
    g2 = gamma_for(0.1, 0.1, d=2, n=10**4, m=16).gamma
    g4 = gamma_for(0.1, 0.1, d=4, n=10**4, m=16).gamma
    assert math.isclose(g2, 2 * g4, rel_tol=1e-12)


def test_gamma_for_one_player_one_coordinate_uses_log2_of_two():
    assert gamma_for(0.1, 0.1, d=1, n=1, m=1).gamma == gamma_for(0.1, 0.1, d=1, n=2, m=1).gamma


def test_gamma_for_rejects_out_of_range():
    with pytest.raises(ValueError):
        gamma_for(0.0, 0.1, d=2, n=10, m=2)
    with pytest.raises(ValueError):
        gamma_for(0.1, 0.1, d=0, n=10, m=2)


def test_floor_ratio_between_layers():
    params = gamma_for(0.1, 0.25, d=4, n=1000, m=16)
    for layer in range(4):
        assert math.isclose(
            params.log_floor(layer + 1) - params.log_floor(layer),
            params.log_mk,
            rel_tol=1e-12,
        )


def test_desk_scale_messages_fit_in_48_bits():
    params = gamma_for(0.1, 0.25, d=4, n=1000, m=16, M=1000)
    lo, hi = paper_exponent_bracket(params, m=16)
    # one lane at either end of the paper's bracket, and both in one message
    alone = kernels.rounded_bits(np.array([[lo], [hi]]), np.zeros((2, 1), dtype=bool))
    assert alone.max() <= 48
    assert kernels.rounded_bits(np.array([lo, hi]), np.zeros(2, dtype=bool)) <= 2 * 48
    # any message of two or more lanes inside the bracket
    for lanes in (2, 3, 64, 4096):
        assert rounded_len_bound(lanes, lo, hi) <= 48 * lanes

