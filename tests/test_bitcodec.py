"""Round-trip and length checks for the zigzag and Elias gamma codes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitcodec import gamma_decode, gamma_encode, gamma_len, unzigzag, zigzag


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
