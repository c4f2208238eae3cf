"""Span tracer that wraps sketchcast's functions from outside the package.

Nothing under ``src/`` knows about it: ``install()`` swaps each target
function for a wrapper that records one span per call (group, name,
start, end, self time, parent span, and the trial span it belongs to) and
``remove()`` puts the originals back.  Modules import functions by name
(``from .topology import center``), so a function is replaced in every
sketchcast module that binds it, not only where it is defined.  Methods
are patched on their class.

A span's self time is its duration minus the time of its child spans and
of the tracer's own bookkeeping for them.  Counts (sketch cells, hash
evaluations, vertices, bits per tree layer) are taken by per-target hooks
that read the call's arguments and result after the span has closed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import time
from collections import defaultdict

import numpy as np

from sketchcast.engine import CounterOverflowError
from sketchcast.rounding import WindowError

_PROTOCOL_GROUPS = ("fp_high", "fp_low", "entropy", "heavy_hitters.point_estimate",
                    "matrix_product")


def _cells(tracer, call, result):
    tracer.counts["stable.cells"] += result.k * result.n


def _hash_evals(tracer, call, result):
    spec = call.arguments["self"]
    tracer.counts["heavy_hitters.hash_evals"] += spec.rows * spec.n


def _convergecast(tracer, call, result):
    """Vertices, zero-flag edges, and bits per lane on each tree layer."""
    tree = call.arguments["tree"]
    lanes = np.asarray(call.args[0]).shape[1]
    bits = result[1].per_edge_bits
    tracer.counts["engine.vertices"] += tree.m
    tracer.counts["engine.edges"] += len(bits)
    tracer.counts["engine.zero_edges"] += sum(b == 1 for b in bits.values())
    caller = next((f.group for f in reversed(tracer.stack) if f.group in _PROTOCOL_GROUPS),
                  "other")
    profile = tracer.layer_bits[caller]
    for (v, _), b in bits.items():
        cell = profile[tree.layer[v]]
        cell[0] += b / lanes
        cell[1] += 1
    leaf = [b for (v, _), b in bits.items() if tree.layer[v] == 0]
    root = [bits[(c, tree.root)] for c in tree.children[tree.root]]
    if leaf:
        tracer.mean("engine.bits_per_row_leaf", sum(leaf) / len(leaf) / lanes)
    if root:
        tracer.mean("engine.bits_per_row_root", sum(root) / len(root) / lanes)


def _protocol_bits(key, stats_of, lanes_of):
    def hook(tracer, call, result):
        tracer.mean(key, stats_of(result).max_edge_bits / lanes_of(call.arguments))
    return hook


# (module, attribute, group, hook).  "Class.method" attributes patch the class.
TARGETS = (
    ("sketchcast.harness", "run_trial", "harness.trial", None),
    ("sketchcast.harness", "generate_players", "harness.generate", None),
    ("sketchcast.harness", "generate_aggregate", "harness.generate", None),
    ("sketchcast.harness", "generate_matrix", "harness.generate", None),
    ("sketchcast.harness", "generate_stream", "harness.generate", None),
    ("sketchcast.oracles", "frequency_moment", "oracles.score", None),
    ("sketchcast.oracles", "lp_norm", "oracles.score", None),
    ("sketchcast.oracles", "entropy_nats", "oracles.score", None),
    ("sketchcast.oracles", "tail_l2", "oracles.score", None),
    ("sketchcast.oracles", "matrix_product", "oracles.score", None),
    ("sketchcast.topology", "from_spec", "topology.from_spec", None),
    ("sketchcast.topology", "center", "topology.center", None),
    ("sketchcast.topology", "spanning_tree", "topology.spanning_tree", None),
    ("sketchcast.stable", "build_sketch", "stable.build_sketch", _cells),
    ("sketchcast.kernels", "cms_symmetric", "kernels.cms", None),
    ("sketchcast.kernels", "cms_skewed_one", "kernels.cms", None),
    ("sketchcast.kernels", "round_to_grid", "kernels.round_to_grid", None),
    ("sketchcast.kernels", "rounded_bits", "kernels.rounded_bits", None),
    ("sketchcast.kernels", "morris_add_batch", "kernels.morris_add", None),
    ("sketchcast.kernels", "morris_merge", "kernels.morris_merge", None),
    ("sketchcast.engine", "run_convergecast", "engine", None),
    ("sketchcast.engine", "rounded_sum_convergecast", "engine", _convergecast),
    ("sketchcast.engine", "exact_sum_convergecast", "engine", _convergecast),
    ("sketchcast.engine", "morris_sum_convergecast", "engine", _convergecast),
    ("sketchcast.heavy_hitters", "CountSketchSpec.bucket_of", "heavy_hitters.hash", _hash_evals),
    ("sketchcast.heavy_hitters", "CountSketchSpec.sign_of", "heavy_hitters.hash", _hash_evals),
    ("sketchcast.heavy_hitters", "local_table", "heavy_hitters.local_table", None),
    ("sketchcast.heavy_hitters", "estimates_from_table", "heavy_hitters.decode", None),
    ("sketchcast.heavy_hitters", "heavy_hitters", "heavy_hitters.decode", None),
    ("sketchcast.heavy_hitters", "point_estimate_all", "heavy_hitters.point_estimate",
     _protocol_bits("heavy_hitters.bits_per_row", lambda r: r[1],
                    lambda a: a["spec"].rows * a["spec"].width)),
    ("sketchcast.matrix_product", "sketch_matrix", "matrix_product.sketch", None),
    ("sketchcast.matrix_product", "amp_estimate", "matrix_product",
     _protocol_bits("matrix_product.bits_per_row", lambda r: r[1],
                    lambda a: a["cfg"].k * (a["cfg"].t1 + a["cfg"].t2))),
    ("sketchcast.fp_high", "estimate_fp_high", "fp_high",
     _protocol_bits("fp_high.bits_per_row", lambda r: r[2], lambda a: a["cfg"].k)),
    ("sketchcast.fp_low", "estimate_fp_low", "fp_low",
     _protocol_bits("fp_low.bits_per_row", lambda r: r[1], lambda a: a["cfg"].k)),
    ("sketchcast.fp_low", "stream_fp_logcosine", "fp_low", None),
    ("sketchcast.entropy", "estimate_entropy", "entropy",
     _protocol_bits("entropy.bits_per_row", lambda r: r[1].comm, lambda a: a["cfg"].k + 1)),
    ("sketchcast.entropy", "stream_entropy", "entropy", None),
)

# Exceptions counted where they are raised: (span name, class) -> counter.
ERRORS = {
    ("run_convergecast", WindowError): "engine.window_errors",
    ("run_convergecast", CounterOverflowError): "engine.counter_overflows",
    ("build_sketch", MemoryError): "stable.cap_errors",
}


class _Frame:
    __slots__ = ("id", "group", "child")

    def __init__(self, span_id, group):
        self.id = span_id
        self.group = group
        self.child = 0.0


class Tracer:
    """Records spans and counts while installed; ``reset()`` starts a new batch."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # span: (trial span id, span id, parent id, group, name, start, end, self seconds)
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.means: defaultdict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self.layer_bits = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        self.failed: set[int] = set()
        self._trial = None

    def mean(self, key: str, value: float) -> None:
        cell = self.means[key]
        cell[0] += value
        cell[1] += 1

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, group, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            wrapper = self._wrap(original, group, name, hook)
            if path:
                self._patch(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "sketchcast":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, fn, group, name, hook):
        signature = inspect.signature(fn) if hook is not None else None
        errors = {cls: key for (where, cls), key in ERRORS.items() if where == name}
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(next(self._ids), group)
            if parent is None:
                self._trial = frame.id
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                for cls, key in errors.items():
                    if isinstance(exc, cls):
                        self.counts[key] += 1
                if parent is None:
                    self.failed.add(frame.id)
                raise
            finally:
                end = clock()
                stack.pop()
                parent_id = parent.id if parent else None
                self.spans.append((self._trial, frame.id, parent_id, group, name, start, end,
                                   end - start - frame.child))
                if parent is not None:
                    parent.child += end - start
            if hook is not None:
                hook(self, signature.bind(*args, **kwargs), result)
                if parent is not None:
                    parent.child += clock() - end
            return result

        return traced

    def summary(self) -> dict:
        """Per-group calls, self seconds and outermost inclusive seconds.

        Spans of trials that raised are left out, so an aborted trial does
        not count its time; counts its hooks took before it raised stay.
        """
        spans = [s for s in self.spans if s[0] not in self.failed]
        group_of = {s[1]: s[3] for s in spans}
        groups = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "outer_s": 0.0})
        for _, _, parent, group, _, start, end, self_s in spans:
            g = groups[group]
            g["calls"] += 1
            g["self_s"] += self_s
            if group_of.get(parent) != group:
                g["outer_s"] += end - start
        return {
            "trials": sum(1 for s in spans if s[2] is None),
            "groups": dict(groups),
            "counts": dict(self.counts),
            "means": {k: list(v) for k, v in self.means.items()},
            "layer_bits": {caller: {layer: list(cell) for layer, cell in sorted(prof.items())}
                           for caller, prof in self.layer_bits.items()},
        }
