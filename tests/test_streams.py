"""Seed-path discipline: substreams must compose, regenerate, and separate."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from sketchcast.streams import as_seed_sequence, generator, substream


def test_as_seed_sequence_accepts_int_and_passthrough():
    ss = as_seed_sequence(7)
    assert isinstance(ss, np.random.SeedSequence)
    assert as_seed_sequence(ss) is ss


@given(st.integers(min_value=0, max_value=2**32), st.lists(st.integers(0, 100), max_size=4))
def test_substream_regeneration_is_identical(seed, key):
    a = generator(seed, *key).random(8)
    b = generator(seed, *key).random(8)
    assert np.array_equal(a, b)


def test_substream_composes_like_a_path():
    nested = substream(substream(3, 1), 2)
    flat = substream(3, 1, 2)
    assert nested.entropy == flat.entropy
    assert tuple(nested.spawn_key) == tuple(flat.spawn_key) == (1, 2)


def test_distinct_keys_give_distinct_draws():
    draws = {tuple(generator(0, k).random(4)) for k in range(20)}
    assert len(draws) == 20


def test_key_order_matters():
    assert not np.array_equal(generator(5, 1, 2).random(4), generator(5, 2, 1).random(4))


def test_parent_entropy_is_preserved():
    base = as_seed_sequence(123456)
    child = substream(base, 9)
    assert child.entropy == base.entropy
