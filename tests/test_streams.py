"""Seed-path discipline: substreams must compose, regenerate, and separate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchcast.streams import (
    DOMAIN_NODES,
    as_seed_sequence,
    generator,
    generator_from_words,
    substream,
    substream_words,
)


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


# Seeds that span one to four 32-bit words, and last keys at both ends of a word.
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1)
EDGE_KEYS = [0, 1, 2**32 - 1]

seed_sequences = st.builds(
    lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=key),
    st.integers(0, 2**128 - 1), st.lists(st.integers(0, 2**40), max_size=4))


@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), seed_sequences),
       prefix=st.lists(st.integers(0, 2**40), max_size=2),
       last=st.lists(st.one_of(st.sampled_from(EDGE_KEYS), st.integers(0, 2**32 - 1)),
                     min_size=1, max_size=4))
@example(seed=EDGE_SEEDS[0], prefix=[DOMAIN_NODES], last=EDGE_KEYS)
@example(seed=EDGE_SEEDS[1], prefix=[DOMAIN_NODES], last=EDGE_KEYS)
@example(seed=EDGE_SEEDS[2], prefix=[DOMAIN_NODES], last=EDGE_KEYS)
@example(seed=EDGE_SEEDS[3], prefix=[DOMAIN_NODES], last=EDGE_KEYS)
@example(seed=EDGE_SEEDS[4], prefix=[DOMAIN_NODES], last=EDGE_KEYS)
@example(seed=np.random.SeedSequence(2**64 + 5, spawn_key=(2**32, 5, 0, 2**40)),
         prefix=[DOMAIN_NODES], last=EDGE_KEYS)
@settings(max_examples=60, deadline=None)
def test_batched_words_equal_numpy_seed_sequence(seed, prefix, last):
    words = substream_words(seed, *prefix, last=np.array(last))
    assert words.shape == (len(last), 4) and words.dtype == np.uint64
    for row, k in zip(words, last):
        reference = substream(seed, *prefix, k)
        assert np.array_equal(row, reference.generate_state(4, np.uint64))
        batched, single = generator_from_words(row), generator(seed, *prefix, k)
        assert np.array_equal(batched.random(16), single.random(16))
        assert np.array_equal(batched.normal(size=3), single.normal(size=3))
        lam = [0.5, 40.0]  # both of numpy's Poisson samplers
        assert np.array_equal(batched.poisson(lam), single.poisson(lam))


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None,
                                  np.random.SeedSequence(1, pool_size=8)],
                         ids=["negative", "float", "str", "none", "pool8"])
def test_batched_words_reject_other_seeds(seed):
    with pytest.raises(ValueError):
        substream_words(seed, DOMAIN_NODES, last=np.arange(3))


@pytest.mark.parametrize("last", [[-1], [2**32], [[0, 1]], [1.5]])
def test_batched_words_reject_keys_that_are_not_one_word(last):
    with pytest.raises(ValueError):
        substream_words(0, DOMAIN_NODES, last=np.array(last))
