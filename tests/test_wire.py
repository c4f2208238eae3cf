"""Every rounded message of a whole protocol run is realisable.

A hook around ``engine.send_rounded`` encodes each sending row's message
with ``bitcodec.encode_rounded`` and decodes it knowing only the public
lane count and grid ratio.  The encoding must be exactly as long as the
edge's metered bits less the 1-bit subtree flag, the decoded lanes must be
the row's zero mask, signs and exponents, and the values they name must be
the ones the engine passes to the parent.  The hooked runs' reports must
equal those of unhooked runs.
"""

import dataclasses

import numpy as np
import pytest

from bitcodec import decode_rounded, encode_rounded
from sketchcast import engine, kernels
from sketchcast.harness import ExperimentSpec, run_experiment

PROTOCOLS = {
    "fp": dict(protocol="fp", p=1.5, n=60, eps=0.25, tokens=200),
    "hh": dict(protocol="hh", n=60, eps=0.3, dist="planted:500:1"),
    "amp": dict(protocol="amp", n=40, eps=0.3, dist="sparse:0.2", t1=2, t2=2),
}
TOPOLOGIES = {"star": 6, "line": 9, "grid:8x8": 64}


class WireRecorder:
    """Encodes and decodes every rounded message while installed."""

    def __init__(self, monkeypatch):
        self.runs = 0
        self.messages = 0
        self.encoded: dict[int, int] = {}  # sending vertex -> encoding length
        self._rounded = []
        monkeypatch.setattr(kernels, "round_to_grid", self._round_to_grid(kernels.round_to_grid))
        monkeypatch.setattr(engine, "send_rounded", self._send(engine.send_rounded))
        monkeypatch.setattr(engine, "rounded_sum_convergecast",
                            self._convergecast(engine.rounded_sum_convergecast))

    def _round_to_grid(self, real):
        def round_to_grid(*args):
            out = real(*args)
            self._rounded.append(out)
            return out
        return round_to_grid

    def _send(self, real):
        def send_rounded(verts, x, gens, *, tree, params):
            msg, lengths = real(verts, x, gens, tree=tree, params=params)
            exponents, is_zero, _, _ = self._rounded.pop()
            assert not self._rounded
            lanes = x.shape[-1]
            for r, v in enumerate(verts):
                live = ~is_zero[r]
                bits = encode_rounded(is_zero[r], x[r] < 0, exponents[r])
                got_zero, got_neg, got_e, end = decode_rounded(bits, lanes)
                assert end == len(bits) == lengths[r]
                assert np.array_equal(got_zero, is_zero[r])
                assert np.array_equal(np.array(got_neg)[live], (x[r] < 0)[live])
                assert np.array_equal(np.array(got_e)[live], exponents[r][live])
                # the receiver rebuilds the parent's addend from the bits alone
                value = np.exp(np.array(got_e) * params.log_gamma)
                value[np.array(got_neg)] *= -1.0
                value[np.array(got_zero)] = 0.0
                assert np.array_equal(value, msg[r])
                self.encoded[v] = len(bits)
                self.messages += 1
            return msg, lengths
        return send_rounded

    def _convergecast(self, real):
        def rounded_sum_convergecast(payloads, tree, params, seed):
            self.encoded = {}
            out, stats = real(payloads, tree, params, seed)
            want = {(v, tree.parent[v]): 1 + self.encoded.get(v, 0)
                    for v in range(tree.m) if v != tree.root}
            assert stats.per_edge_bits == want
            self.runs += 1
            return out, stats
        return rounded_sum_convergecast


def _reports(spec):
    return [dataclasses.replace(r, wall_time=0.0) for r in run_experiment(spec)[0]]


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_every_rounded_message_of_a_run_is_realisable(protocol, topology, monkeypatch):
    spec = ExperimentSpec(topology=topology, m=TOPOLOGIES[topology], trials=2, seed=3,
                          **PROTOCOLS[protocol])
    plain = _reports(spec)
    recorder = WireRecorder(monkeypatch)
    assert _reports(spec) == plain
    assert recorder.runs == spec.trials and recorder.messages > 0
