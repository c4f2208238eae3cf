"""Reference encoders for the prefix-free integer codes of the simulated wire.

Two small pieces live here: zigzag mapping of signed integers onto the
non-negative integers, and the Elias gamma code for positive integers.
Gamma codes ``v >= 1`` as ``floor(log2 v)`` zero bits followed by the
binary expansion of ``v``, for a total of ``2*floor(log2 v) + 1`` bits.

Bit strings are plain ``str`` of '0'/'1'.  The simulator never ships real
bytes; it meters exact bit counts (``engine.send_rounded`` states the
rounded lane format), and the tests encode lanes with these functions to
check the counts against an actual prefix-free encoding.
"""

from __future__ import annotations


def zigzag(e: int) -> int:
    """Map a signed integer to an unsigned one: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    return 2 * e if e >= 0 else -2 * e - 1


def unzigzag(u: int) -> int:
    """Inverse of :func:`zigzag`."""
    return u // 2 if u % 2 == 0 else -(u + 1) // 2


def gamma_len(v: int) -> int:
    """Bit length of the Elias gamma code of ``v >= 1``."""
    if v < 1:
        raise ValueError(f"gamma code needs v >= 1, got {v}")
    return 2 * (int(v).bit_length() - 1) + 1


def gamma_encode(v: int) -> str:
    if v < 1:
        raise ValueError(f"gamma code needs v >= 1, got {v}")
    b = bin(int(v))[2:]
    return "0" * (len(b) - 1) + b


def gamma_decode(bits: str, pos: int = 0) -> tuple[int, int]:
    """Decode one gamma code starting at ``pos``; return (value, next pos)."""
    z = 0
    while bits[pos + z] == "0":
        z += 1
    value = int(bits[pos + z : pos + 2 * z + 1], 2)
    return value, pos + 2 * z + 1
