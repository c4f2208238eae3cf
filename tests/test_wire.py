"""Every message of a whole protocol run is realisable.

Hooks around ``engine.send_rounded`` and ``engine.send_exact`` encode
each sending row's message with the ``bitcodec`` encoder of its family
and decode it knowing only public parameters: the lane count and the
grid ratio.
The encoding must be exactly as long as the edge's metered bits less the
1-bit subtree flag, and it must decode to the message the engine passes to
the parent; for a rounded message the decoded lanes must also be the
row's zero mask, signs and exponents.  The hooked runs' reports must equal
those of unhooked runs.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from bitcodec import decode_exact, decode_rounded, encode_exact, encode_rounded
from sketchcast import engine, kernels
from sketchcast.harness import ExperimentSpec, run_experiment

# every network protocol sends value vectors, rounded or exact
PROTOCOLS = {
    "fp": dict(protocol="fp", p=1.5, n=60, eps=0.25, tokens=200),
    "fp-p0.5": dict(protocol="fp", p=0.5, n=60, eps=0.25, tokens=200),
    "entropy": dict(protocol="entropy", n=40, eps=0.3, dist="zipf:1.1", tokens=200),
    "hh": dict(protocol="hh", n=60, eps=0.3, dist="planted:500:1"),
    "amp": dict(protocol="amp", n=40, eps=0.3, dist="sparse:0.2", t1=2, t2=2),
}
TOPOLOGIES = {"star": 6, "line": 9, "grid:8x8": 64}


class WireRecorder:
    """Encodes and decodes every message while installed."""

    def __init__(self, monkeypatch):
        self.runs = 0
        self.messages: Counter[str] = Counter()  # family -> messages checked
        self.encoded: dict[int, int] = {}  # sending vertex -> encoding length
        self._rounded = []
        monkeypatch.setattr(kernels, "round_to_grid", self._round_to_grid(kernels.round_to_grid))
        monkeypatch.setattr(engine, "send_rounded", self._send_rounded(engine.send_rounded))
        monkeypatch.setattr(engine, "send_exact", self._send_exact(engine.send_exact))
        monkeypatch.setattr(engine, "run_convergecast",
                            self._convergecast(engine.run_convergecast))

    def _round_to_grid(self, real):
        def round_to_grid(*args):
            out = real(*args)
            self._rounded.append(out)
            return out
        return round_to_grid

    def _record(self, family, verts, lengths, encodings):
        for v, length, bits in zip(verts, lengths, encodings):
            assert len(bits) == length
            self.encoded[v] = len(bits)
            self.messages[family] += 1

    def _send_rounded(self, real):
        def send_rounded(verts, x, gen, *, tree, params):
            msg, lengths = real(verts, x, gen, tree=tree, params=params)
            exponents, is_zero, _ = self._rounded.pop()
            assert not self._rounded
            lanes = x.shape[-1]
            encodings = []
            for r in range(len(verts)):
                live = ~is_zero[r]
                bits = encode_rounded(is_zero[r], x[r] < 0, exponents[r])
                got_zero, got_neg, got_e, end = decode_rounded(bits, lanes)
                assert end == len(bits)
                assert np.array_equal(got_zero, is_zero[r])
                assert np.array_equal(np.array(got_neg)[live], (x[r] < 0)[live])
                assert np.array_equal(np.array(got_e)[live], exponents[r][live])
                # the receiver rebuilds the parent's addend from the bits alone
                value = np.exp(np.array(got_e) * params.log_gamma)
                value[np.array(got_neg)] *= -1.0
                value[np.array(got_zero)] = 0.0
                assert np.array_equal(value, msg[r])
                encodings.append(bits)
            self._record("rounded", verts, lengths, encodings)
            return msg, lengths
        return send_rounded

    def _send_exact(self, real):
        def send_exact(verts, values, gen):
            msg, lengths = real(verts, values, gen)
            encodings = [encode_exact(row.tolist()) for row in msg]
            for row, bits in zip(msg, encodings):
                got, end = decode_exact(bits, msg.shape[-1])
                assert end == len(bits)
                assert np.array(got).tobytes() == row.tobytes()
            self._record("exact", verts, lengths, encodings)
            return msg, lengths
        return send_exact

    def _convergecast(self, real):
        def run_convergecast(tree, inputs, combine, send, seed=0):
            self.encoded = {}
            out, stats = real(tree, inputs, combine, send, seed)
            want = {(v, tree.parent[v]): 1 + self.encoded.get(v, 0)
                    for v in range(tree.m) if v != tree.root}
            assert stats.per_edge_bits == want
            self.runs += 1
            return out, stats
        return run_convergecast


def _reports(spec):
    return [dataclasses.replace(r, wall_time=0.0) for r in run_experiment(spec)[0]]


def _check_run(spec, family, monkeypatch):
    plain = _reports(spec)
    recorder = WireRecorder(monkeypatch)
    assert _reports(spec) == plain
    assert recorder.runs == spec.trials
    assert set(recorder.messages) == {family}


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_every_rounded_message_of_a_run_is_realisable(protocol, topology, monkeypatch):
    spec = ExperimentSpec(topology=topology, m=TOPOLOGIES[topology], trials=2, seed=3,
                          **PROTOCOLS[protocol])
    _check_run(spec, "rounded", monkeypatch)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_every_exact_message_of_a_run_is_realisable(protocol, topology, monkeypatch):
    spec = ExperimentSpec(topology=topology, m=TOPOLOGIES[topology], trials=2, seed=3,
                          codec="exact", **PROTOCOLS[protocol])
    _check_run(spec, "exact", monkeypatch)
