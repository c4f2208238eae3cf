"""One-shot convergecast simulation with exact per-edge bit metering.

Every non-root vertex sends exactly one message to its tree parent, and
the root combines without sending.  A vertex whose whole subtree holds
exact zeros sends only the 1-bit subtree-empty flag; every other message
costs 1 flag bit plus its wire length.  Two message families cover all
protocols here: stochastically rounded value vectors, and exact
64-bit-per-scalar vectors (the communication baseline, also used for
sketch-equivalence checks).  A third family, signed Morris counter
vectors (``morris_sum_convergecast``), serves no protocol: it is kept,
with ``kernels.morris_merge`` and :class:`CounterOverflowError`, only
because the benchmark under ``perfbench/`` imports and traces them by
name, and goes with the next change to the benchmark.

A family is two plain functions, and a third where metering is
deferred.  ``combine(verts, own, prev, slots, gen)`` builds a layer's
state from its own payload rows and its children's messages; row 0 of the
root's state is the run's output.  ``send(verts, state, gen)`` returns the
layer's message and one meter record per row; its docstring states the
family's wire format.  ``wire_bits(records)`` turns the records of all of
a run's sending rows into their wire lengths, in one call at the end of
the run.  The rounded family records each row's extents and meters them
with ``kernels.rounded_bits``.  The exact and Morris families have no
``wire_bits``: their records are the wire lengths themselves, 64 bits per
lane and the counters' delta-code lengths.  Messages are plain arrays:
rounded and exact vectors send their decoded values, Morris counters their
states, laid out ``[insertions | deletions]`` per row.

Layer schedule.  ``spanning_tree`` puts every child of a layer-L vertex in
layer L-1, so the tree is walked one layer at a time, leaves first: a
layer is one (vertices x lanes) matrix built from its own payload rows and
the previous layer's messages.  Each layer's vertices and child slots, and
the edges in (layer, id) order, are built once per tree
(``SpanningTree.schedule``) and serve every run on it.  A run uses the
slots as they are where every vertex of a layer and of the layer below
sends, and otherwise drops the children that send nothing from them.
Kernels run on whole layers: one ``round_to_grid`` call per layer, and for
Morris counters one ``morris_add_batch`` call per layer and one
``morris_merge`` call per child slot, on insertions and deletions alike.
Only the previous layer's messages are kept besides the payloads and the
per-row meter records: memory is O(widest layer x lanes + vertices).

Addition order.  Child sums are formed by child slot: for j = 0, 1, ...,
``x[rows with a j-th child] += msg[j-th child]``, in ``tree.children[v]``
order, skipping children that send no message.  Each vertex thus adds
its own payload, then its children one by one in the order a
vertex-at-a-time loop would, so every sum is bit-identical to that loop's
(``np.add.at`` on the parent index would not keep that order).

Random streams.  A run draws from one stream, ``generator(seed,
DOMAIN_NODES)``, built once: the vertices need randomness independent of
each other's, not a stream each.  Layers draw in turn, leaves first and
the root last, and each kernel call draws for its whole layer:
``send_rounded`` takes one ``gen.random`` of the layer's shape, which
equals one draw per vertex in (layer, id) order, and the Morris kernels
draw for the lanes of all the layer's rows together.  A vertex whose
subtree is all zero draws nothing.  A run is thus fully determined by
(seed, tree, inputs), drawn layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import kernels, streams
from .morris import signed_updates
from .rounding import RoundingParams, gamma_for
from .topology import SpanningTree


class CounterOverflowError(RuntimeError):
    """A Morris counter state reached the configured state bound."""


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


def baseline_codec_bits(count: int) -> int:
    """Bits to ship ``count`` scalars at the flat 64-bit baseline."""
    return 64 * int(count)


def _sending_slots(slots, here, below):
    """``slots`` cut down to the children that send, in message rows.

    ``here`` and ``below`` describe the layer and the layer below: None
    when every row sends, else (mask, pos), where mask marks the rows that
    send and pos[r] is row r's row in the layer's message.  Dropping a
    child from its slot keeps each row's other children in order, so every
    sum stays as it was (see "Addition order").
    """
    out = []
    for rows, src in slots:
        if below is not None:
            keep = below[0][src]
            if not keep.any():
                continue
            rows = np.flatnonzero(keep) if isinstance(rows, slice) else rows[keep]
            src = below[1][src[keep]]
        if here is not None:
            rows = here[1][rows]
        out.append((rows, src))
    return out


def run_convergecast(tree, inputs, combine, send, seed=0, wire_bits=None):
    """Run one protocol over ``tree``, a layer at a time; returns (root output, CommStats).

    ``inputs`` holds one payload row per vertex.  For each layer below the
    root, ``combine`` gets the layer's vertices that send a message
    (ascending ids), their payload rows as a fresh float64 matrix, the
    previous layer's message, the child slots (``(rows, src)`` pairs: row
    ``rows[i]`` has as its j-th child the sender in row ``src[i]`` of
    ``prev``; ``rows`` is ``slice(None)`` when every row has one) and the
    run's generator; ``send`` gets the vertices, the state and the
    generator, and returns the message and one meter record per row.
    ``wire_bits`` maps the records of all sending rows, stacked in (layer,
    id) order, to their wire lengths in one call; without it the records
    are the lengths.  The 1-bit subtree flag is added to each wire length
    here.  A layer in which no vertex sends skips both calls.  The root's
    ``combine`` runs whether or not its subtree holds anything.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    schedule = tree.schedule
    has_data = inputs.any(axis=1)
    sends = None  # per vertex, whether its subtree holds data; None when all do
    if not has_data.all():
        sends = has_data.tolist()
        for v, p in schedule.edges:  # children before parents
            if sends[v]:
                sends[p] = True
    gen = streams.generator(seed, streams.DOMAIN_NODES)
    records = []
    prev = below = None
    *lower, top = schedule.layers
    for layer in lower:
        senders, ids, slots, here = layer.verts, layer.ids, layer.slots, None
        if sends is not None:
            mask = [sends[v] for v in senders]
            if not all(mask):
                senders = ids = [v for v, s in zip(senders, mask) if s]
                mask = np.array(mask)
                here = (mask, np.cumsum(mask) - 1)
        if not senders:
            prev, below = None, here
            continue
        if here is not None or below is not None:
            slots = _sending_slots(slots, here, below)
        below = here
        state = combine(senders, inputs[ids], prev, slots, gen)
        prev, record = send(senders, state, gen)
        records.append(record)
    slots = top.slots if below is None else _sending_slots(top.slots, None, below)
    out = combine(top.verts, inputs[top.ids], prev, slots, gen)

    edges = schedule.edges
    bits = np.ones(len(edges), dtype=np.int64)
    if records:
        lengths = np.concatenate(records)
        if wire_bits is not None:
            lengths = wire_bits(lengths)
        if sends is None:
            bits += lengths
        else:
            bits[[sends[v] for v, _ in edges]] += lengths
    return out[0], CommStats(per_edge_bits=dict(zip(edges, bits.tolist())), rounds=tree.depth)


def add_children(verts, own, prev, slots, gen):
    """Combine of the value families: each payload row plus its children's messages.

    Children are added one child slot at a time (see "Addition order").
    """
    for rows, src in slots:
        own[rows] += prev[src]
    return own


# ---------------------------------------------------------------------------
# Rounded value vectors (recursive randomized rounding).
# ---------------------------------------------------------------------------


def send_rounded(verts, x, gen, *, tree: SpanningTree, params: RoundingParams):
    """Round a layer's sums once on the grid; the message is the decoded values.

    Wire format, one two-part code per message of L lanes:

    - L zero flags, ``1`` for a lane truncated or exactly zero;
    - if any lane is live, a header: the Elias gamma codes of
      zigzag(lo) + 1 and w + 1, where lo and hi are the smallest and
      largest live exponents and w = bit_length(hi - lo);
    - for each live lane in order, a sign bit and exponent - lo in w bits.

    A message with ``live`` live lanes thus costs
    L + gamma_len(zigzag(lo) + 1) + gamma_len(w + 1) + live * (1 + w) bits.
    The receiver needs only L, which is public; ``tests/bitcodec.py``
    holds a reference encoder and decoder.  Values under the layer floor
    truncate to an exact zero.  No exponent is bounded: the header carries
    any lo, so any finite sum is sent and metered as it is (the
    ``rounding`` module says why).

    Metering is deferred: each row's record is its extents
    (``kernels.rounded_extents``: its zero-lane count, lo and hi), all the
    length depends on, and ``kernels.rounded_bits`` meters the whole run's
    records in one call at its end.
    """
    exponents, is_zero, decoded = kernels.round_to_grid(
        x, gen.random(x.shape), params.log_gamma, params.log_floor(tree.layer[verts[0]]))
    return decoded, kernels.rounded_extents(exponents, is_zero)


def rounded_sum_convergecast(payloads, tree: SpanningTree, params: RoundingParams, seed):
    """Aggregate per-player value vectors with per-layer truncated rounding.

    Every interior value x_v = own_v + sum of children's rounded values is
    rounded once on the grid (values under the layer floor truncate to an
    exact zero); the root sum is returned unrounded.
    """
    send = partial(send_rounded, tree=tree, params=params)
    wire_bits = partial(kernels.rounded_bits, lanes=np.shape(payloads)[-1])
    return run_convergecast(tree, payloads, add_children, send, seed, wire_bits)


# ---------------------------------------------------------------------------
# Exact vectors: the 64-bit baseline.
# ---------------------------------------------------------------------------


def send_exact(verts, values, gen):
    """Send a layer's sums as they are.

    Wire format: one raw 64-bit float per lane.  This is the flat
    communication baseline every other family is measured against.
    """
    return values, np.full(len(verts), baseline_codec_bits(values.shape[-1]))


def exact_sum_convergecast(payloads, tree: SpanningTree, seed=0):
    """Lossless aggregation; bits metered at 64 per scalar."""
    return run_convergecast(tree, payloads, add_children, send_exact, seed)


CODECS = ("rounding", "exact")


def sum_convergecast(codec: str, payloads, tree: SpanningTree, seed, *,
                     eps: float, delta: float, n: int, M: float):
    """Aggregate value vectors with the family ``codec`` names.

    ``"rounding"`` runs :func:`rounded_sum_convergecast` on the grid
    ``gamma_for`` sizes for accuracy eps, failure mass delta, the tree's
    depth and player count, n coordinates and input bound M.  ``"exact"``
    runs :func:`exact_sum_convergecast`.  Any other name raises ValueError.
    """
    if codec == "rounding":
        params = gamma_for(eps, delta, max(1, tree.depth), n, tree.m, M=M)
        return rounded_sum_convergecast(payloads, tree, params, seed)
    if codec == "exact":
        return exact_sum_convergecast(payloads, tree, seed)
    raise ValueError(f"unknown codec {codec!r}")


# ---------------------------------------------------------------------------
# Signed Morris counter vectors.
# ---------------------------------------------------------------------------


def merge_counters(verts, own, prev, slots, gen, *, log_b: float):
    """Combine of the Morris family.

    Each row batches its payload into one ``[insertions | deletions]``
    state row, then merges its children one child slot at a time.
    """
    state = np.zeros((own.shape[0], 2 * own.shape[1]))
    kernels.morris_add_batch(gen, state, signed_updates(own), log_b)
    for rows, src in slots:
        # rows without a j-th child merge zero states, which draw nothing
        child = np.zeros_like(state)
        child[rows] = prev[src]
        kernels.morris_merge(gen, state, child, log_b)
    return state


def send_counters(verts, state, gen, *, state_bits: int):
    """Send the counter states as they are.

    Wire format, lane by lane: lane i's insertion state, then its deletion
    state (columns i and lanes + i of its ``[insertions | deletions]``
    row), each state s as the Elias delta code of s + 1.  With
    N = bit_length(s + 1) a state costs N + 2 * bit_length(N) - 2 bits, so
    a zero state costs 1 bit and a message costs what its states hold
    (``kernels.counter_bits``).  The code is self-delimiting, so the
    receiver needs only the lane count; no base is sent either: every
    receiver derives it from public parameters (eps, n, p).
    ``tests/bitcodec.py`` holds a reference encoder and decoder.
    ``state_bits`` bounds the states, not the wire: a state of
    ``state_bits`` bits or more models the "safely fail" event and raises
    :class:`CounterOverflowError`, naming the first row's largest state.
    """
    worst = state.max(axis=-1, initial=0.0)
    over = worst >= 2.0 ** state_bits
    if over.any():
        raise CounterOverflowError(
            f"counter state {worst[over].flat[0]:.0f} exceeds {state_bits}-bit bound"
        )
    return state, kernels.counter_bits(state)


def morris_sum_convergecast(values, tree: SpanningTree, log_b: float, seed, state_bits=64):
    """Aggregate signed integer-valued payloads via signed Morris counters.

    Returns the root's ``[insertions | deletions]`` state, merged as in
    :func:`merge_counters`.
    """
    return run_convergecast(tree, values, partial(merge_counters, log_b=log_b),
                            partial(send_counters, state_bits=state_bits), seed)
