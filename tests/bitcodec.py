"""Reference encoders for the prefix-free codes of the simulated wire.

Six pieces live here: zigzag mapping of signed integers onto the
non-negative integers, the Elias gamma and delta codes for positive
integers, the two-part code of a rounded message that
``engine.send_rounded`` states, the fixed-width code of an exact message
that ``engine.send_exact`` states, and the delta-coded counter message
that ``engine.send_counters`` states.

Gamma codes ``v >= 1`` as ``floor(log2 v)`` zero bits followed by the
binary expansion of ``v``, for a total of ``2*floor(log2 v) + 1`` bits.
Delta codes ``v >= 1`` as the gamma code of N = bit_length(v) followed by
the N - 1 bits of ``v`` below its leading one, for a total of
``N + 2*bit_length(N) - 2`` bits (Elias 1975).

A rounded message of L lanes is L zero flags, then, if a lane is live, the
gamma codes of zigzag(lo) + 1 and w + 1 (lo and hi the smallest and
largest live exponents, w = bit_length(hi - lo)), then per live lane a
sign bit and exponent - lo in w bits.  A counter message of L lanes is,
lane by lane, the delta codes of the insertion state + 1 and the deletion
state + 1.

Bit strings are plain ``str`` of '0'/'1'.  The simulator never ships real
bytes; it meters exact bit counts, and the tests encode messages with
these functions to check the counts against an actual prefix-free
encoding that decodes back.  Integers are Python ints, exact at any size.
"""

from __future__ import annotations

import struct


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


def delta_encode(v: int) -> str:
    """Elias delta code of ``v >= 1``: gamma(bit_length(v)), then v below its leading one."""
    if v < 1:
        raise ValueError(f"delta code needs v >= 1, got {v}")
    b = bin(int(v))[2:]
    return gamma_encode(len(b)) + b[1:]


def delta_decode(bits: str, pos: int = 0) -> tuple[int, int]:
    """Decode one delta code starting at ``pos``; return (value, next pos)."""
    n, pos = gamma_decode(bits, pos)
    return int("1" + bits[pos : pos + n - 1], 2), pos + n - 1


def encode_rounded(is_zero, negative, exponents) -> str:
    """One rounded message in the two-part code stated on ``engine.send_rounded``.

    The three sequences hold one entry per lane; a zero lane's sign and
    exponent are not sent.
    """
    flags = "".join("1" if z else "0" for z in is_zero)
    live = [(bool(neg), int(e)) for z, neg, e in zip(is_zero, negative, exponents) if not z]
    if not live:
        return flags
    lo = min(e for _, e in live)
    w = (max(e for _, e in live) - lo).bit_length()
    body = "".join(("1" if neg else "0") + (format(e - lo, f"0{w}b") if w else "")
                   for neg, e in live)
    return flags + gamma_encode(zigzag(lo) + 1) + gamma_encode(w + 1) + body


def decode_rounded(bits: str, lanes: int, pos: int = 0):
    """Inverse of :func:`encode_rounded` for a message of ``lanes`` lanes.

    Returns (is_zero, negative, exponents, next pos) as lists; a zero lane
    decodes as not negative with exponent 0.
    """
    is_zero = [b == "1" for b in bits[pos : pos + lanes]]
    pos += lanes
    negative, exponents = [False] * lanes, [0] * lanes
    if all(is_zero):
        return is_zero, negative, exponents, pos
    zz, pos = gamma_decode(bits, pos)
    w, pos = gamma_decode(bits, pos)
    lo, w = unzigzag(zz - 1), w - 1
    for i in (i for i, z in enumerate(is_zero) if not z):
        negative[i] = bits[pos] == "1"
        exponents[i] = lo + (int(bits[pos + 1 : pos + 1 + w], 2) if w else 0)
        pos += 1 + w
    return is_zero, negative, exponents, pos


def rounded_len_bound(lanes: int, exponent_min: int, exponent_max: int) -> int:
    """Most bits a rounded message of ``lanes`` lanes can cost when every
    live exponent lies in [exponent_min, exponent_max]: all lanes live, lo
    at the window edge of larger zigzag, and w at the window's full width."""
    w = (exponent_max - exponent_min).bit_length()
    edge = max(zigzag(exponent_min), zigzag(exponent_max))
    return lanes + gamma_len(edge + 1) + gamma_len(w + 1) + lanes * (1 + w)


def encode_exact(values) -> str:
    """One exact message: each lane's value as a 64-bit IEEE-754 double."""
    return "".join(format(struct.unpack(">Q", struct.pack(">d", v))[0], "064b")
                   for v in values)


def decode_exact(bits: str, lanes: int, pos: int = 0) -> tuple[list[float], int]:
    """Inverse of :func:`encode_exact` for ``lanes`` lanes; returns (values, next pos)."""
    values = [struct.unpack(">d", struct.pack(">Q", int(bits[i : i + 64], 2)))[0]
              for i in range(pos, pos + 64 * lanes, 64)]
    return values, pos + 64 * lanes


def encode_counters(state) -> str:
    """One counter message of ``[insertions | deletions]`` state ``state``.

    Lane i sends its insertion state, then its deletion state, each state
    s as the delta code of s + 1.  States are integer-valued floats or
    ints; each converts to an exact Python int, so no size loses bits.
    """
    lanes = len(state) // 2
    codes = []
    for s in (state[j] for i in range(lanes) for j in (i, lanes + i)):
        if s != int(s) or s < 0:
            raise ValueError(f"state {s} is no unsigned integer")
        codes.append(delta_encode(int(s) + 1))
    return "".join(codes)


def decode_counters(bits: str, lanes: int, pos: int = 0):
    """Inverse of :func:`encode_counters` for ``lanes`` lanes.

    Returns the ``[insertions | deletions]`` state as a list, and the next pos.
    """
    states = []
    for _ in range(2 * lanes):
        v, pos = delta_decode(bits, pos)
        states.append(v - 1)
    return states[0::2] + states[1::2], pos
