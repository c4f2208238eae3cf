"""Deterministic generator streams keyed by purpose.

Every source of randomness in the simulator is a numpy Generator derived
from a master ``SeedSequence`` plus an integer key path, e.g.
``(trial, DOMAIN_SKETCH, 0)``.  Two streams with different key paths are
statistically independent, and regenerating a stream from the same
(seed, key path) is bit-identical, which is what makes whole experiment
runs reproducible byte for byte.  Each stream comes from
:func:`generator`; a convergecast draws from one, keyed ``DOMAIN_NODES``
below its seed.
"""

from __future__ import annotations

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
