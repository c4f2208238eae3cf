"""One-shot convergecast simulation with exact per-edge bit metering.

Every non-root vertex sends exactly one message to its tree parent, and
the root combines without sending.  A vertex whose whole subtree holds
exact zeros sends only the 1-bit subtree-empty flag; every other message
costs 1 flag bit plus its codec length.  Three message families cover all
protocols here: stochastically rounded value vectors, exact
64-bit-per-scalar vectors (the communication baseline, also used for
sketch-equivalence checks), and signed Morris counter vectors.

Layer schedule.  ``spanning_tree`` puts every child of a layer-L vertex in
layer L-1, so the tree is walked one layer at a time, leaves first: a
layer is one (vertices x lanes) matrix built from its own payload rows and
the previous layer's messages.  Kernels run on whole layers: one
``round_to_grid`` call per layer, and for Morris counters two
``morris_add_batch`` calls per layer and two ``morris_merge`` calls per
child slot.  Besides the payloads, only the previous layer's messages are
kept, so working memory is O(widest layer x lanes).

Addition order.  Child sums are formed by child slot: for j = 0, 1, ...,
``x[rows with a j-th child] += msg[j-th child]``, counting only children
that send a message, in ``tree.children[v]`` order.  Each vertex thus adds
its own payload, then its children one by one in the order a
vertex-at-a-time loop would, so every sum is bit-identical to that loop's
(``np.add.at`` on the parent index would not keep that order).

Random streams.  Vertex v draws only from ``generator(seed, DOMAIN_NODES,
v)``, with the same calls in the same order as if it were processed alone;
the layer kernels route each row's draws to that row's generator.  A
non-root vertex whose subtree is all zero creates no generator.  A run is
thus fully determined by (seed, topology, inputs), however its vertices
are batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .rounding import RoundingParams, WindowError
from .streams import DOMAIN_NODES, generator
from .topology import SpanningTree


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


def _slots(kids: list[list[int]]) -> list[tuple[slice | np.ndarray, np.ndarray]]:
    """Per child slot j: (rows with a j-th child, message row of that child).

    The rows are ``slice(None)`` when every row has a j-th child.
    """
    slots = []
    for j in range(max(map(len, kids), default=0)):
        rows = [i for i, k in enumerate(kids) if len(k) > j]
        src = np.array([kids[i][j] for i in rows])
        slots.append((slice(None) if len(rows) == len(kids) else np.array(rows), src))
    return slots


def _add_children(x: np.ndarray, slots, prev, field: str) -> np.ndarray:
    """Add each row's children's ``prev.<field>`` rows to ``x``, slot by slot."""
    for rows, src in slots:
        x[rows] += getattr(prev, field)[src]
    return x


def run_convergecast(tree, inputs, transform, codec, seed=0, root_transform=None):
    """Run one protocol over ``tree``, a layer at a time; returns (root output, CommStats).

    ``inputs`` holds one payload row per vertex.  For each layer below the
    root, ``transform(verts, own, prev, slots, gens)`` gets the layer's
    vertices that send a message (ascending ids), their payload rows as a
    fresh float64 matrix, the previous layer's message, the child slots
    (``(rows, src)`` pairs: row ``rows[i]`` has as its j-th child the sender
    in row ``src[i]`` of ``prev``; ``rows`` is ``slice(None)`` when every
    row has one) and one generator per vertex; it returns the layer's
    message.  A layer in which no vertex sends skips the call.
    ``codec.bits(msg)`` meters each row of the message; the 1-bit subtree
    flag is added here.  ``root_transform`` (default ``transform``) is
    called the same way with the root alone, whether or not its subtree
    holds anything, and its result is the root output.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    has_data = inputs.any(axis=1).tolist()
    by_layer: list[list[int]] = [[] for _ in range(tree.depth + 1)]
    for v in range(tree.m):
        by_layer[tree.layer[v]].append(v)
    row_of = [-1] * tree.m  # row of a sending vertex in its layer's message
    per_edge: dict[tuple[int, int], int] = {}
    prev = None
    for verts in by_layer[:-1]:
        kids = {v: [row_of[c] for c in tree.children[v] if row_of[c] >= 0] for v in verts}
        senders = [v for v in verts if kids[v] or has_data[v]]
        msg, bits = None, {}
        if senders:
            gens = [generator(seed, DOMAIN_NODES, v) for v in senders]
            msg = transform(senders, inputs[senders], prev,
                            _slots([kids[v] for v in senders]), gens)
            bits = dict(zip(senders, (1 + codec.bits(msg)).tolist()))
            for r, v in enumerate(senders):
                row_of[v] = r
        per_edge.update(((v, tree.parent[v]), bits.get(v, 1)) for v in verts)
        prev = msg
    root = tree.root
    combine = root_transform if root_transform is not None else transform
    kids = [[row_of[c] for c in tree.children[root] if row_of[c] >= 0]]
    out = combine([root], inputs[[root]], prev, _slots(kids),
                  [generator(seed, DOMAIN_NODES, root)])
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
    added by :func:`run_convergecast`.  ``bits`` gives one length per row
    of a layer's message.
    """

    def __init__(self, params: RoundingParams):
        self.params = params

    def bits(self, msg: RoundedVector) -> np.ndarray:
        return kernels.rounded_bits(msg.exponents, msg.is_zero).sum(axis=-1)


def rounded_sum_convergecast(payloads, tree: SpanningTree, params: RoundingParams, seed):
    """Aggregate per-player value vectors with per-layer truncated rounding.

    Every interior value x_v = own_v + sum of children's rounded values is
    rounded once on the grid (values under the layer floor truncate to an
    exact zero); the root sum is returned unrounded.
    """
    lg, lo, hi = params.log_gamma, params.exponent_min, params.exponent_max

    def transform(verts, own, prev, slots, gens):
        x = _add_children(own, slots, prev, "decoded")
        unif = np.empty_like(x)
        for row, gen in zip(unif, gens):
            gen.random(out=row)
        exponents, is_zero, decoded, ok = kernels.round_to_grid(
            x, unif, lg, params.log_floor(tree.layer[verts[0]]), lo, hi
        )
        if not ok:
            escaped = ~is_zero & ((exponents < lo) | (exponents > hi))
            v = verts[np.flatnonzero(escaped.any(axis=1))[0]]
            raise WindowError(f"vertex {v}: rounded exponent escaped [{lo}, {hi}]")
        return RoundedVector(exponents, is_zero, decoded)

    def root_combine(verts, own, prev, slots, gens):
        return _add_children(own, slots, prev, "decoded")[0]

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
    measured against; the 1-bit subtree flag comes on top.  ``bits`` gives
    one length per row of a layer's message.
    """

    def bits(self, msg: ExactVector) -> np.ndarray:
        return np.full(msg.values.shape[:-1], baseline_codec_bits(msg.values.shape[-1]))


def exact_sum_convergecast(payloads, tree: SpanningTree, seed=0):
    """Lossless aggregation; bits metered at 64 per scalar."""

    def transform(verts, own, prev, slots, gens):
        return ExactVector(_add_children(own, slots, prev, "values"))

    def root_combine(verts, own, prev, slots, gens):
        return _add_children(own, slots, prev, "values")[0]

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
    exceeding it raises :class:`CounterOverflowError`, naming the first
    row's largest state.  The 1-bit subtree flag comes on top.  ``bits``
    gives one length per row of a layer's message.
    """

    def __init__(self, state_bits: int):
        self.state_bits = state_bits

    def bits(self, msg: CounterVector) -> np.ndarray:
        worst = np.maximum(msg.ins, msg.dels).max(axis=-1, initial=0.0)
        over = worst >= 2.0 ** self.state_bits
        if over.any():
            raise CounterOverflowError(
                f"counter state {worst[over].flat[0]:.0f} exceeds {self.state_bits}-bit field"
            )
        return np.full(worst.shape, msg.ins.shape[-1] * (8 + 2 * self.state_bits))


def morris_sum_convergecast(values, tree: SpanningTree, log_b: float, seed, state_bits=64):
    """Aggregate signed integer-valued payloads via signed Morris counters.

    Each player batches its positive part into insertion counters and its
    negative part into deletion counters, then merges its children one
    child slot at a time, insertions before deletions.  Returns the root's
    (ins, dels) state arrays.
    """

    def transform(verts, own, prev, slots, gens):
        ins = np.zeros(own.shape)
        dels = np.zeros(own.shape)
        kernels.morris_add_batch(gens, ins, np.maximum(own, 0.0), log_b)
        kernels.morris_add_batch(gens, dels, np.maximum(-own, 0.0), log_b)
        for rows, src in slots:
            for mine, theirs in ((ins, prev.ins), (dels, prev.dels)):
                # rows without a j-th child merge zero states, which draw nothing
                child = np.zeros_like(mine)
                child[rows] = theirs[src]
                kernels.morris_merge(gens, mine, child, log_b)
        return CounterVector(ins, dels)

    def root_combine(verts, own, prev, slots, gens):
        out = transform(verts, own, prev, slots, gens)
        return CounterVector(out.ins[0], out.dels[0])

    codec = CounterVectorCodec(state_bits)
    return run_convergecast(tree, values, transform, codec, seed, root_combine)
