"""Round-trip and length checks for the zigzag, Elias gamma and delta, and message codes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitcodec import (decode_counters, decode_exact, decode_rounded, delta_decode,
                      delta_encode, encode_counters, encode_exact, encode_rounded,
                      gamma_decode, gamma_encode, gamma_len, rounded_len_bound, unzigzag,
                      zigzag)
from helpers import message_bits
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


def test_delta_hand_encodings():
    assert delta_encode(1) == "1"
    assert delta_encode(2) == "0100"
    # N = 5: gamma(5) = 00101, then 0001
    assert delta_encode(17) == "001010001"


def delta_len(v):
    n = v.bit_length()
    return n + 2 * n.bit_length() - 2


@given(st.integers(min_value=1, max_value=2**80))
def test_delta_round_trip_at_its_length(v):
    bits = delta_encode(v)
    assert len(bits) == delta_len(v)
    assert delta_decode(bits) == (v, len(bits))


@given(st.lists(st.integers(min_value=1, max_value=2**70), min_size=1, max_size=20))
def test_delta_stream_is_prefix_free(values):
    bits = "".join(delta_encode(v) for v in values)
    pos = 0
    for v in values:
        got, pos = delta_decode(bits, pos)
        assert got == v
    assert pos == len(bits)


@pytest.mark.parametrize("bad", [0, -1])
def test_delta_rejects_non_positive(bad):
    with pytest.raises(ValueError):
        delta_encode(bad)


# integer-valued float64 states around the edges of exact float arithmetic:
# s + 1 rounds at 2^53 and beyond, to a power of two at 2^54 - 2
EDGE_STATES = [0.0, 1.0, 2.0**53 - 1, 2.0**53, 2.0**54 - 2, 2.0**64 + 2.0**12, 6.8e19]


@pytest.mark.parametrize("s", EDGE_STATES)
def test_counter_meter_matches_the_delta_code_of_each_state(s):
    assert kernels.counter_bits(np.array([s])) == len(delta_encode(int(s) + 1))


def test_counter_meter_matches_the_encoder_per_row():
    # one row of all the edge states and a zero state, and an all-zero row
    rows = np.array([EDGE_STATES + [0.0], [0.0] * 8])
    metered = kernels.counter_bits(rows)
    assert metered.shape == (2,)
    assert metered.tolist() == [len(encode_counters(row)) for row in rows.tolist()]
    assert metered[1] == 8
    # 2^54 - 2 + 1 has 54 bits, not the 55 of its rounded float
    assert kernels.counter_bits(np.array([2.0**54 - 2])) == 54 + 2 * 6 - 2


STATE = st.integers(min_value=0, max_value=2**70)


@given(st.lists(st.tuples(STATE, STATE), min_size=1, max_size=8))
def test_counter_messages_round_trip_at_the_metered_length(lanes):
    # [insertions | deletions], each state as the float64 the engine holds
    row = [float(s) for s in [i for i, _ in lanes] + [d for _, d in lanes]]
    bits = encode_counters(row)
    got, end = decode_counters(bits, len(row) // 2)
    assert got == [int(s) for s in row]
    assert end == len(bits) == kernels.counter_bits(np.array(row))


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
        metered = message_bits(np.array(exponents), np.array(is_zero))
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
    # [insertions 3, 0 | deletions 1, 2]: lane 0 sends delta(4) then delta(2),
    # lane 1 sends delta(1) then delta(3)
    assert encode_counters([3.0, 0.0, 1.0, 2.0]) == "01100" "0100" "1" "0101"
    assert decode_counters("011000100" "10101", 2) == ([3, 0, 1, 2], 14)
    for bad in ([0.5, 0.0], [-1.0, 0.0]):
        with pytest.raises(ValueError):
            encode_counters(bad)
