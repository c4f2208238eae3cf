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
the run.  The rounded family records each row's extents, which
``kernels.round_to_grid`` returns with the rounding, and meters them with
``kernels.rounded_bits``.  The exact and Morris families have no
``wire_bits``: their records are the wire lengths themselves, 64 bits per
lane and the counters' delta-code lengths.  Messages are plain arrays:
rounded and exact vectors send their decoded values, Morris counters their
states, laid out ``[insertions | deletions]`` per row.

Layer schedule.  ``spanning_tree`` puts every child of a layer-L vertex in
layer L-1, so the tree is walked one layer at a time, leaves first: a
layer is one (vertices x lanes) matrix built from its own payload rows and
the previous layer's messages.  One function, ``topology.layer_schedule``,
decides a run's layers, child slots and sending edges in (layer, id)
order.  A run in which every vertex sends walks the schedule cached on
its tree (``SpanningTree.schedule``); a run with silent vertices builds
its own from the mask of vertices whose subtree holds data, so each layer
holds its senders and each sender's slots its sending children.
Kernels run on whole layers: one ``round_to_grid`` call per layer, which
rounds the layer in blocks of rows and returns its rows' meter records,
and for Morris counters one ``morris_add_batch`` call per layer and one
``morris_merge`` call per child slot, on insertions and deletions alike.
Payload rows come only for the vertices that hold data, with their ids,
and a layer gathers the rows of its own vertices, a zero row for each
vertex that holds none.  Only the previous layer's messages are kept
besides those rows and the per-row meter records, and the rounding holds
one block's temporaries, of at most ``kernels.ROUND_BLOCK_LANES`` lanes
or one row: memory is O((held rows + widest layer) x lanes + vertices),
with a small constant on the widest layer.

Addition order.  Child sums are formed by child slot: for j = 0, 1, ...,
``x[rows with a j-th child] += msg[j-th child]``, in ``tree.children[v]``
order, skipping children that send no message.  Each vertex thus adds
its own payload, then its children one by one in the order a
vertex-at-a-time loop would, so every sum is bit-identical to that loop's
(``np.add.at`` on the parent index would not keep that order).

Random streams.  A run draws from one stream, ``generator(seed,
DOMAIN_NODES)``, built once: the vertices need randomness independent of
each other's, not a stream each.  Layers draw in turn, leaves first and
the root last, and each kernel call draws for its whole layer.  The
rounded family draws nothing but uniforms, so it gets them from
:class:`Uniforms`, which draws them from the generator in batches of at
least 32K doubles, capped at what the run still needs (a uniform per
lane of each sending row below the root), and hands them out in
(layer, id) order:
``send_rounded`` takes the next uniforms of the layer's shape, which
equal what one ``gen.random`` of that shape draws, and one draw per
vertex in (layer, id) order.  The Morris family gets the generator
itself, and its kernels draw for the lanes of all the layer's rows
together.  A vertex whose subtree is all zero draws nothing.  A run is
thus fully determined by (seed, tree, inputs), drawn layer by layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import kernels, streams
from .morris import signed_updates
from .rounding import RoundingParams, gamma_for
from .topology import SpanningTree, layer_schedule


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


class Uniforms:
    """The run's uniforms, drawn from its generator in batches and handed out in order.

    ``random(shape)`` returns the next uniforms in the stream, so its
    values equal those of ``gen.random(shape)`` calls made in the same
    order: ``Generator.random`` turns one 64-bit output into each double,
    whatever the size of the call.  A batch holds at least ``BATCH``
    doubles, so a deep tree's small layers share one generator call, but
    no more than the run's ``total`` need leaves: the generator ends
    where ``total`` single draws would leave it.
    """

    BATCH = 1 << 15

    def __init__(self, gen, total):
        self._gen = gen
        self._left = total  # doubles of the run's need not yet drawn
        self._buf = np.empty(0)
        self._pos = 0

    def random(self, shape):
        size = math.prod(shape)
        end = self._pos + size
        if end > self._buf.size:
            rest = self._buf[self._pos:]
            fresh = self._gen.random(min(self._left, max(self.BATCH, size - rest.size)))
            self._left -= fresh.size
            self._buf = np.concatenate((rest, fresh)) if rest.size else fresh
            self._pos, end = 0, size
        out = self._buf[self._pos:end].reshape(shape)
        self._pos = end
        return out


def run_convergecast(tree, payloads, combine, send, seed=0, wire_bits=None, uniforms=False,
                     ids=None):
    """Run one protocol over ``tree``, a layer at a time; returns (root output, CommStats).

    ``payloads`` holds the payload rows of the vertices ``ids`` names, in
    ascending id order; without ``ids`` there is one row per vertex.  A
    vertex with no row has a zero payload, and the vertices whose subtree
    holds a nonzero row send.  For each layer below the
    root, ``combine`` gets the layer's vertices that send a message
    (ascending ids), their payload rows as a fresh float64 matrix, the
    previous layer's message, the child slots (``(rows, src)`` pairs: row
    ``rows[i]`` has as its j-th child the sender in row ``src[i]`` of
    ``prev``; ``rows`` may be a slice) and the run's generator; ``send``
    gets the vertices, the state and the generator, and returns the
    message and one meter record per row.  With ``uniforms`` both get the
    run's :class:`Uniforms` in the generator's place, for families that
    draw one uniform per lane of each sending row below the root and
    nothing else.  ``wire_bits`` maps the records of all sending
    rows, stacked in (layer, id) order, to their wire lengths in one call;
    without it the records are the lengths.  The 1-bit subtree flag is
    added to each wire length here, and an edge that sends no message
    costs the flag alone; ``per_edge_bits`` keeps every tree edge in
    (layer, id) order.  A layer in which no vertex sends skips both
    calls.  The root's ``combine`` runs whether or not its subtree holds
    anything.
    """
    payloads = np.asarray(payloads, dtype=np.float64)
    m, lanes = tree.m, payloads.shape[1]
    if ids is not None:
        ids = np.asarray(ids, dtype=np.intp)
        if ids.shape != payloads.shape[:1] or np.any(np.diff(ids) <= 0) or (
                ids.size and (ids[0] < 0 or ids[-1] >= m)):
            raise ValueError(f"ids must be {payloads.shape[0]} ascending vertex ids in [0, {m})")
        if ids.size == m:  # then ids is 0, ..., m - 1
            ids = None
    elif payloads.shape[0] != m:
        raise ValueError(f"need one payload row per vertex, got {payloads.shape[0]} for {m}")
    schedule = tree.schedule
    edges = schedule.edges  # every tree edge, in (layer, id) order
    has_data = payloads.any(axis=1)
    if ids is not None:  # from per row to per vertex
        held = np.zeros(m, dtype=bool)
        held[ids[has_data]] = True
        has_data = held
    if not has_data.all():
        sends = has_data.tolist()  # per vertex, whether its subtree holds data
        for v, p in edges:  # children before parents
            if sends[v]:
                sends[p] = True
        schedule = layer_schedule(tree, sends)
    if ids is None:
        def own(layer):
            return payloads[layer.ids]
    else:
        row_of = np.full(m, -1)
        row_of[ids] = np.arange(ids.size)
        some = payloads if ids.size else np.zeros((1, lanes))  # a row to gather, then zero

        def own(layer):
            at = row_of[layer.ids]  # -1 for a vertex with no row
            out = some[at]
            out[at < 0] = 0.0
            return out
    gen = streams.generator(seed, streams.DOMAIN_NODES)
    if uniforms:
        gen = Uniforms(gen, len(schedule.edges) * lanes)
    records = []
    prev = None
    *lower, top = schedule.layers
    for layer in lower:
        if not layer.verts:
            prev = None
            continue
        state = combine(layer.verts, own(layer), prev, layer.slots, gen)
        prev, record = send(layer.verts, state, gen)
        records.append(record)
    out = combine(top.verts, own(top), prev, top.slots, gen)

    bits = dict.fromkeys(edges, 1)  # a silent edge costs the flag alone
    if records:
        lengths = np.concatenate(records)
        if wire_bits is not None:
            lengths = wire_bits(lengths)
        bits.update(zip(schedule.edges, (lengths + 1).tolist()))
    return out[0], CommStats(per_edge_bits=bits, rounds=tree.depth)


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

    Metering is deferred: each row's record is its extents, all the
    length depends on, which ``kernels.round_to_grid`` returns with the
    rounding (its zero-lane count, lo and hi), and
    ``kernels.rounded_bits`` meters the whole run's records in one call
    at its end.  ``gen`` is the run's :class:`Uniforms`.
    """
    _, _, decoded, extents = kernels.round_to_grid(
        x, gen.random(x.shape), params.log_gamma, params.log_floor(tree.layer[verts[0]]))
    return decoded, extents


def rounded_sum_convergecast(payloads, tree: SpanningTree, params: RoundingParams, seed, *,
                             ids=None):
    """Aggregate per-player value vectors with per-layer truncated rounding.

    ``payloads`` holds the rows of the vertices ``ids`` names, or one row
    per vertex (see :func:`run_convergecast`).  Every interior value
    x_v = own_v + sum of children's rounded values is
    rounded once on the grid (values under the layer floor truncate to an
    exact zero); the root sum is returned unrounded.
    """
    send = partial(send_rounded, tree=tree, params=params)
    wire_bits = partial(kernels.rounded_bits, lanes=np.shape(payloads)[-1])
    return run_convergecast(tree, payloads, add_children, send, seed, wire_bits,
                            uniforms=True, ids=ids)


# ---------------------------------------------------------------------------
# Exact vectors: the 64-bit baseline.
# ---------------------------------------------------------------------------


def send_exact(verts, values, gen):
    """Send a layer's sums as they are.

    Wire format: one raw 64-bit float per lane.  This is the flat
    communication baseline every other family is measured against.
    """
    return values, np.full(len(verts), baseline_codec_bits(values.shape[-1]))


def exact_sum_convergecast(payloads, tree: SpanningTree, seed=0, *, ids=None):
    """Lossless aggregation of the rows of the vertices ``ids`` names; 64 bits per scalar."""
    return run_convergecast(tree, payloads, add_children, send_exact, seed, ids=ids)


CODECS = ("rounding", "exact")


def sum_convergecast(codec: str, payloads, tree: SpanningTree, seed, *,
                     eps: float, delta: float, n: int, M: float, ids=None):
    """Aggregate value vectors with the family ``codec`` names.

    ``payloads`` holds the rows of the vertices ``ids`` names, in
    ascending order, or one row per vertex without ``ids``.
    ``"rounding"`` runs :func:`rounded_sum_convergecast` on the grid
    ``gamma_for`` sizes for accuracy eps, failure mass delta, the tree's
    depth and player count, n coordinates and input bound M.  ``"exact"``
    runs :func:`exact_sum_convergecast`.  Any other name raises ValueError.
    """
    if codec == "rounding":
        params = gamma_for(eps, delta, max(1, tree.depth), n, tree.m, M=M)
        return rounded_sum_convergecast(payloads, tree, params, seed, ids=ids)
    if codec == "exact":
        return exact_sum_convergecast(payloads, tree, seed, ids=ids)
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
