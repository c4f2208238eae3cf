"""One-shot convergecast simulation with exact per-edge bit metering.

Vertices are processed leaves-first in layer order; every non-root sends
exactly one message to its tree parent, and the root combines without
sending.  ``node_transform`` is a pure function of (vertex, own input,
children messages, per-node generator), so a run is fully determined by
(seed, topology, inputs).

A node whose whole subtree holds exact zeros sends the ``ZERO`` sentinel,
which costs the 1-bit subtree-empty flag and nothing else; every other
message costs 1 flag bit plus its codec length.  Three message families
cover all protocols here: stochastically rounded value vectors, exact
64-bit-per-scalar vectors (the communication baseline, also used for
sketch-equivalence checks), and signed Morris counter vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .rounding import RoundingParams, WindowError
from .streams import DOMAIN_NODES, generator
from .topology import SpanningTree


class _ZeroMessage:
    """Singleton marker for an all-zero subtree."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO"


ZERO = _ZeroMessage()


class CounterOverflowError(RuntimeError):
    """A Morris counter exceeded the configured wire-size cap."""


@dataclass(frozen=True)
class CommStats:
    per_edge_bits: dict[tuple[int, int], int]
    rounds: int
    max_edge_bits: int = field(init=False)
    total_bits: int = field(init=False)

    def __post_init__(self):
        bits = self.per_edge_bits.values()
        object.__setattr__(self, "max_edge_bits", max(bits, default=0))
        object.__setattr__(self, "total_bits", sum(bits))

    def merged(self, other: "CommStats") -> "CommStats":
        """Edge-wise sum of two runs over the same tree."""
        combined = dict(self.per_edge_bits)
        for edge, b in other.per_edge_bits.items():
            combined[edge] = combined.get(edge, 0) + b
        return CommStats(per_edge_bits=combined, rounds=max(self.rounds, other.rounds))


def baseline_codec_bits(count: int) -> int:
    """Bits to ship ``count`` scalars at the flat 64-bit baseline."""
    return 64 * int(count)


def run_convergecast(tree, inputs, node_transform, message_codec, seed=0, root_transform=None):
    """Run one protocol over ``tree``; returns (root output, CommStats).

    ``inputs`` is indexable by vertex id.  ``message_codec.bits(msg)``
    meters every non-ZERO message; the 1-bit subtree flag is added here.
    ``root_transform`` (default ``node_transform``) produces the root
    output instead of a wire message.
    """
    order = sorted(
        (v for v in range(tree.m) if v != tree.root),
        key=lambda v: (tree.layer[v], v),
    )
    msgs: dict[int, object] = {}
    per_edge: dict[tuple[int, int], int] = {}
    for v in order:
        gen = generator(seed, DOMAIN_NODES, v)
        children = [msgs.pop(c) for c in tree.children[v]]
        try:
            msg = node_transform(v, inputs[v], children, gen)
        except WindowError as err:
            raise WindowError(f"vertex {v}: {err}") from err
        per_edge[(v, tree.parent[v])] = 1 + (
            0 if msg is ZERO else message_codec.bits(msg)
        )
        msgs[v] = msg
    gen = generator(seed, DOMAIN_NODES, tree.root)
    children = [msgs.pop(c) for c in tree.children[tree.root]]
    combine = root_transform if root_transform is not None else node_transform
    out = combine(tree.root, inputs[tree.root], children, gen)
    return out, CommStats(per_edge_bits=per_edge, rounds=tree.depth)


# ---------------------------------------------------------------------------
# Rounded value vectors (recursive randomized rounding).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoundedVector:
    exponents: np.ndarray
    is_zero: np.ndarray
    decoded: np.ndarray


class RoundedVectorCodec:
    """Wire format of a rounded value vector, lane by lane.

    A lane truncated to zero costs the single bit ``1``.  Any other lane
    is ``0``, a sign bit, then the Elias gamma code of zigzag(exponent) + 1
    (see ``bitcodec``), so it costs 2 + gamma_len(zigzag(exponent) + 1)
    bits.  Exponents come from ``kernels.round_to_grid`` and the lengths
    from ``kernels.rounded_bits``.  The code is prefix-free, so lanes
    concatenate without separators; the message's 1-bit subtree flag is
    added by :func:`run_convergecast`.
    """

    def __init__(self, params: RoundingParams):
        self.params = params

    def bits(self, msg: RoundedVector) -> int:
        return int(kernels.rounded_bits(msg.exponents, msg.is_zero).sum())


def _accumulate(own, children):
    x = np.asarray(own, dtype=np.float64).copy()
    for c in children:
        if c is not ZERO:
            x += c.decoded
    return x


def rounded_sum_convergecast(payloads, tree: SpanningTree, params: RoundingParams, seed):
    """Aggregate per-player value vectors with per-layer truncated rounding.

    Every interior value x_v = own_v + sum of children's rounded values is
    rounded once on the grid (values under the layer floor truncate to an
    exact zero); the root sum is returned unrounded.
    """
    lg = params.log_gamma

    def transform(v, own, children, gen):
        x = _accumulate(own, children)
        if all(c is ZERO for c in children) and not np.any(x):
            return ZERO
        unif = gen.random(x.shape[0])
        exponents, is_zero, decoded, ok = kernels.round_to_grid(
            x, unif, lg, params.log_floor(tree.layer[v]), params.exponent_min, params.exponent_max
        )
        if not ok:
            raise WindowError(
                f"rounded exponent escaped [{params.exponent_min}, {params.exponent_max}]"
            )
        return RoundedVector(exponents, is_zero, decoded)

    def root_combine(v, own, children, gen):
        return _accumulate(own, children)

    return run_convergecast(
        tree, payloads, transform, RoundedVectorCodec(params), seed, root_combine
    )


# ---------------------------------------------------------------------------
# Exact vectors: the 64-bit baseline codec.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactVector:
    values: np.ndarray


class ExactVectorCodec:
    """Wire format of an exact vector: one raw 64-bit float per lane.

    This is the flat communication baseline every other family is
    measured against; the 1-bit subtree flag comes on top.
    """

    def bits(self, msg: ExactVector) -> int:
        return baseline_codec_bits(msg.values.shape[0])


def exact_sum_convergecast(payloads, tree: SpanningTree, seed=0):
    """Lossless aggregation; bits metered at 64 per scalar."""

    def transform(v, own, children, gen):
        x = np.asarray(own, dtype=np.float64).copy()
        nonzero = np.any(x)
        for c in children:
            if c is not ZERO:
                x += c.values
                nonzero = True
        return ExactVector(x) if nonzero else ZERO

    def root_combine(v, own, children, gen):
        x = np.asarray(own, dtype=np.float64).copy()
        for c in children:
            if c is not ZERO:
                x += c.values
        return x

    return run_convergecast(tree, payloads, transform, ExactVectorCodec(), seed, root_combine)


# ---------------------------------------------------------------------------
# Signed Morris counter vectors.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterVector:
    ins: np.ndarray
    dels: np.ndarray


class CounterVectorCodec:
    """Wire format of a signed Morris counter vector.

    Per lane: an 8-bit base tag, then the insertion state and the deletion
    state, each as a fixed ``state_bits``-wide unsigned integer, so a lane
    costs 8 + 2 * state_bits bits.  The field width is chosen from public
    parameters (update-mass bound and base), never from the realized
    states, so a message's bit length is the same on every edge of every
    tree.  A state outside the field models the "safely fail" event:
    exceeding it raises :class:`CounterOverflowError`.  The 1-bit subtree
    flag comes on top.
    """

    def __init__(self, state_bits: int):
        self.state_bits = state_bits

    def bits(self, msg: CounterVector) -> int:
        worst = float(max(msg.ins.max(initial=0.0), msg.dels.max(initial=0.0)))
        if worst >= 2.0 ** self.state_bits:
            raise CounterOverflowError(
                f"counter state {worst:.0f} exceeds {self.state_bits}-bit field"
            )
        return msg.ins.size * (8 + 2 * self.state_bits)


def morris_sum_convergecast(values, tree: SpanningTree, log_b: float, seed, state_bits=64):
    """Aggregate signed integer-valued payloads via signed Morris counters.

    Each player batches its positive part into insertion counters and its
    negative part into deletion counters, then merges all children
    lane-wise.  Returns the root's (ins, dels) state arrays.
    """

    def fold(v, own, children, gen):
        x = np.asarray(own, dtype=np.float64)
        if all(c is ZERO for c in children) and not np.any(x):
            return None
        ins = np.zeros(x.shape[0])
        dels = np.zeros(x.shape[0])
        kernels.morris_add_batch(gen, ins, np.maximum(x, 0.0), log_b)
        kernels.morris_add_batch(gen, dels, np.maximum(-x, 0.0), log_b)
        for c in children:
            if c is not ZERO:
                kernels.morris_merge(gen, ins, c.ins, log_b)
                kernels.morris_merge(gen, dels, c.dels, log_b)
        return CounterVector(ins, dels)

    def transform(v, own, children, gen):
        out = fold(v, own, children, gen)
        return ZERO if out is None else out

    def root_combine(v, own, children, gen):
        out = fold(v, own, children, gen)
        if out is None:
            width = np.asarray(own).shape[0]
            return CounterVector(np.zeros(width), np.zeros(width))
        return out

    codec = CounterVectorCodec(state_bits)
    return run_convergecast(tree, values, transform, codec, seed, root_combine)
