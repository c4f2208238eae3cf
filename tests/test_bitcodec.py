"""Round-trip and length checks for the zigzag, Elias gamma and message codes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitcodec import (decode_counters, decode_exact, decode_rounded, encode_counters,
                      encode_exact, encode_rounded, gamma_decode, gamma_encode, gamma_len,
                      rounded_len_bound, unzigzag, zigzag)
from sketchcast import kernels


def test_zigzag_interleaves_small_integers():
    assert [zigzag(e) for e in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]


@given(st.integers(min_value=-(2**50), max_value=2**50))
def test_zigzag_round_trip(e):
    assert unzigzag(zigzag(e)) == e


@given(st.integers(min_value=0, max_value=2**51))
def test_unzigzag_round_trip(u):
    assert zigzag(unzigzag(u)) == u


def test_gamma_hand_encodings():
    assert gamma_encode(1) == "1"
    assert gamma_encode(2) == "010"
    assert gamma_encode(6) == "00110"
    assert len(gamma_encode(6)) == 5


@given(st.integers(min_value=1, max_value=2**40))
def test_gamma_len_matches_encoding(v):
    assert gamma_len(v) == len(gamma_encode(v)) == 2 * (v.bit_length() - 1) + 1


@given(st.integers(min_value=1, max_value=2**40))
def test_gamma_round_trip(v):
    bits = gamma_encode(v)
    value, nxt = gamma_decode(bits)
    assert value == v
    assert nxt == len(bits)


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=20))
def test_gamma_stream_is_prefix_free(values):
    bits = "".join(gamma_encode(v) for v in values)
    pos = 0
    decoded = []
    for _ in values:
        v, pos = gamma_decode(bits, pos)
        decoded.append(v)
    assert decoded == values
    assert pos == len(bits)


@pytest.mark.parametrize("bad", [0, -1, -7])
def test_gamma_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        gamma_len(bad)
    with pytest.raises(ValueError):
        gamma_encode(bad)


LANE = st.tuples(st.booleans(), st.booleans(), st.integers(min_value=-(10**6), max_value=10**6))


def _message(lanes):
    return [list(col) for col in zip(*lanes)]


@given(st.lists(st.lists(LANE, min_size=1, max_size=12), min_size=1, max_size=6))
def test_rounded_messages_round_trip_at_the_metered_length(messages):
    # consecutive messages decode back one by one, so the code is
    # prefix-free given each message's public lane count
    messages = [_message(m) for m in messages]
    bits = "".join(encode_rounded(*m) for m in messages)
    pos = 0
    for is_zero, negative, exponents in messages:
        start = pos
        got_zero, got_neg, got_e, pos = decode_rounded(bits, len(is_zero), pos)
        assert got_zero == is_zero
        for z, neg, e, gn, ge in zip(is_zero, negative, exponents, got_neg, got_e):
            assert (gn, ge) == ((False, 0) if z else (neg, e))
        metered = kernels.rounded_bits(np.array(exponents), np.array(is_zero))
        assert pos - start == metered
        live = [e for z, e in zip(is_zero, exponents) if not z]
        if live:
            assert metered <= rounded_len_bound(len(is_zero), min(live), max(live))
    assert pos == len(bits)


def test_rounded_message_hand_encodings():
    assert encode_rounded([True, True], [False, False], [0, 0]) == "11"
    # flags 10, gamma(zigzag(-1) + 1) = 010, gamma(w + 1) = 1, sign 1
    assert encode_rounded([True, False], [False, True], [0, -1]) == "1001011"


def test_exact_and_counter_message_hand_encodings():
    # 1.0: sign 0, biased exponent 1023, zero mantissa; -2.0: sign 1, exponent 1024
    assert encode_exact([1.0, -2.0]) == "0" + "01111111111" + "0" * 52 + "1" + "1" + "0" * 62
    assert decode_exact(encode_exact([1.0, -2.0]), 2) == ([1.0, -2.0], 128)
    # [insertions 3, 0 | deletions 1, 2]: lane 0 sends 3 then 1, lane 1 sends 0 then 2
    assert encode_counters([3.0, 0.0, 1.0, 2.0], 3) == "011" "001" "000" "010"
    assert decode_counters("011001000010", 2, 3) == ([3, 0, 1, 2], 12)
    with pytest.raises(ValueError):
        encode_counters([8.0, 0.0], 3)
