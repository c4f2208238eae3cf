"""Deterministic generator streams keyed by purpose.

Every source of randomness in the simulator is a numpy Generator derived
from a master ``SeedSequence`` plus an integer key path, e.g.
``(trial, DOMAIN_NODES, vertex)``.  Two streams with different key paths
are statistically independent, and regenerating a stream from the same
(seed, key path) is bit-identical, which is what makes whole experiment
runs reproducible byte for byte.

One-off streams (per trial, per sketch) come from :func:`generator`.  The
per-vertex streams of a convergecast are seeded in one batch:
:func:`substream_words` hashes every vertex key at once and
:func:`generator_from_words` builds vertex v's Generator from its row, which
equals ``generator(seed, DOMAIN_NODES, v)`` draw for draw, without a
``SeedSequence`` per vertex.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Key-path domain tags.  Fixed small integers; changing them changes every
# downstream random draw, so they are part of the wire-level contract.
DOMAIN_DATA = 1
DOMAIN_SKETCH = 2
DOMAIN_NODES = 3
DOMAIN_HASHES = 4
DOMAIN_TRIAL = 5
DOMAIN_TOPOLOGY = 6


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int or SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def substream(seed, *key: int) -> np.random.SeedSequence:
    """Child SeedSequence at ``key`` below ``seed``.

    The parent's entropy is preserved and the key path is appended to its
    spawn key, so nested calls compose: ``substream(substream(s, a), b)``
    equals ``substream(s, a, b)``.
    """
    base = as_seed_sequence(seed)
    return np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(base.spawn_key) + tuple(int(k) for k in key)
    )


def generator(seed, *key: int) -> np.random.Generator:
    """PCG64 Generator for the substream at ``key``."""
    return np.random.Generator(np.random.PCG64(substream(seed, *key)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, all arithmetic modulo 2**32.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _uint32_words(value) -> list[int]:
    """numpy's ``_coerce_to_uint32_array``: the little-endian 32-bit words of a
    non-negative int, or of each int of a sequence in turn."""
    if isinstance(value, (int, np.integer)):
        n = int(value)
        if n < 0:
            raise ValueError(f"seed words must be non-negative integers, got {n}")
        words = []
        while True:
            words.append(n & _MASK32)
            n >>= 32
            if not n:
                return words
    if isinstance(value, (tuple, list, np.ndarray)):
        return [w for v in value for w in _uint32_words(v)]
    raise ValueError(f"seed words must be integers, got {value!r}")


def _hash(value, const: int, mult: int):
    """One step of numpy's ``hashmix`` (``mult`` = MULT_A) or of
    ``generate_state`` (``mult`` = MULT_B); returns (hashed value, next constant).

    ``value`` is a Python int or a uint32 array; ``const`` and ``mult`` are ints.
    """
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ value >> _XSHIFT, nxt


def _mix(x, y):
    """numpy's ``mix`` of two pool words (ints or uint32 arrays)."""
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> _XSHIFT


def substream_words(seed, *prefix: int, last) -> np.ndarray:
    """PCG64 seed words of the substreams ``(*prefix, k)`` below ``seed``, one row per k.

    Row i equals ``substream(seed, *prefix, last[i]).generate_state(4,
    np.uint64)``: numpy's SeedSequence hash, with the words before the last
    key mixed once as scalars and only the last key and ``generate_state``
    run on arrays.  ``seed`` is a non-negative int or a SeedSequence with the
    default pool; each last key must fit one 32-bit word.
    """
    if isinstance(seed, (int, np.integer)):
        entropy, spawn_key = int(seed), ()
    elif isinstance(seed, np.random.SeedSequence) and seed.pool_size == _POOL_SIZE:
        entropy, spawn_key = seed.entropy, tuple(seed.spawn_key)
    else:
        raise ValueError(f"batched seeding needs an int or a default-pool SeedSequence, "
                         f"got {seed!r}")
    keys = np.asarray(last)
    if (keys.ndim != 1 or keys.dtype.kind not in "iu"
            or (keys.size and (keys.min() < 0 or keys.max() > _MASK32))):
        raise ValueError("last keys must be a 1-D array of integers in [0, 2**32)")
    run = _uint32_words(entropy)
    # a spawn key is present, so numpy pads the run entropy to the pool size
    words = run + [0] * (_POOL_SIZE - len(run)) + _uint32_words(spawn_key + prefix)

    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, const = _hash(words[i], const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in [*words[_POOL_SIZE:], keys.astype(np.uint32)]:
        for dst in range(_POOL_SIZE):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)

    # generate_state(4, np.uint64): eight uint32 words, paired little-endian
    state = np.empty((keys.size, 2 * _POOL_SIZE), dtype=np.uint32)
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        state[:, i], const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64)


@cache
def _words_seed_class():
    """The ISeedSequence that hands PCG64 precomputed words.

    Made on first use: importing ``numpy.random`` at module level would add
    its load time to every ``import sketchcast``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
                raise ValueError("seed words serve only PCG64's generate_state(4, uint64)")
            return self.words

    return SeedWords


def generator_from_words(words: np.ndarray) -> np.random.Generator:
    """PCG64 Generator seeded from one row of :func:`substream_words`."""
    return np.random.Generator(np.random.PCG64(_words_seed_class()(words)))
