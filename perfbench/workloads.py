"""The benchmark's workloads: fixed sets of experiment specs.

A workload runs in passes.  One pass calls ``run_experiment`` once per
spec, each with ``TRIALS_PER_SPEC`` trials, seeded from the workload seed
and the pass index, so a (workload, seed) pair always yields the same
inputs.  ``passes`` is the number of distinct passes a run plays; it plays
them again from the first until its time is up.  The quality metrics
(bits, success, error ratio) and the attempted and failed counts come
from the first round only, which is what makes them repeat for a fixed
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from sketchcast.entropy import EntropyConfig
from sketchcast.fp_high import FpHighConfig
from sketchcast.fp_low import FpLowConfig
from sketchcast.harness import ExperimentSpec
from sketchcast.heavy_hitters import CountSketchSpec
from sketchcast.matrix_product import AmpConfig

TRIALS_PER_SPEC = 1

STREAM = "zipf:1.3:100000"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[ExperimentSpec, ...]
    passes: int


def _tree_specs(topology: str, m: int) -> tuple[ExperimentSpec, ...]:
    base = dict(topology=topology, m=m, n=200, trials=TRIALS_PER_SPEC)
    return (
        ExperimentSpec("fp", p=1.5, eps=0.25, **base),
        ExperimentSpec("fp", p=0.5, eps=0.25, **base),
        ExperimentSpec("entropy", eps=0.25, dist="zipf:1.1", tokens=200, **base),
        ExperimentSpec("hh", eps=0.4, dist="planted:1000:1", **base),
        ExperimentSpec("amp", eps=0.5, t1=2, t2=2, dist="sparse:0.1", **base),
    )


_WIDE = dict(topology="star", m=16, n=10000, trials=TRIALS_PER_SPEC)

# Pass counts are sized so the first round takes 18-27 s on a 2-vCPU x86-64
# VM with the numpy backend, and about the 38 s run length when the host is
# in its slower state; the tail percentile is fixed from them (see run.py).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sketch-wide",
            "sketch generation and hashing dominate; the tree is a depth-1 star",
            (
                ExperimentSpec("fp", p=1.5, eps=0.1, **_WIDE),
                ExperimentSpec("fp", p=0.5, eps=0.1, **_WIDE),
                ExperimentSpec("entropy", eps=0.2, dist="uniform:100", **_WIDE),
                ExperimentSpec("hh", eps=0.25, dist="planted:1000:1", **_WIDE),
                ExperimentSpec("amp", eps=0.25, t1=4, t2=4, dist="sparse:0.1", **_WIDE),
                ExperimentSpec("stream-fp", p=0.5, mode="morris-y", eps=0.15,
                               dist=STREAM, **_WIDE),
                ExperimentSpec("stream-entropy", eps=0.2, dist=STREAM, **_WIDE),
            ),
            passes=5,
        ),
        Workload(
            "mesh-grid",
            "wide tree layers and tiny sketches: center() BFS and the per-vertex engine loop",
            _tree_specs("grid:32x32", 1024),
            passes=8,
        ),
        Workload(
            "deep-line",
            "one vertex per tree layer at depth 128: per-layer overhead and wire bits vs depth",
            _tree_specs("line", 257),
            passes=40,
        ),
    )
}


def label(spec: ExperimentSpec) -> str:
    """Short name of a spec within its workload, e.g. ``fp-p1.5``."""
    return spec.protocol if spec.p is None else f"{spec.protocol}-p{spec.p:g}"


def pass_seed(seed: int, index: int) -> int:
    """Experiment seed of pass ``index`` of a run seeded with ``seed``."""
    return seed * 1000 + index


def lanes(spec: ExperimentSpec) -> int:
    """Scalars per convergecast message, from the public protocol configs.

    hh also runs the F2 convergecast over the same tree, and its
    CommStats are merged into the count-sketch run's, so both count.
    """
    if spec.protocol == "fp":
        cfg = FpHighConfig(spec.p, spec.eps) if spec.p > 1.0 else FpLowConfig(spec.p, spec.eps)
        return cfg.k
    if spec.protocol == "entropy":
        return EntropyConfig(spec.eps).k + 1
    if spec.protocol == "hh":
        cs = CountSketchSpec.build(spec.n, spec.eps, 0)
        return cs.rows * cs.width + FpHighConfig(p=2.0, eps=spec.eps).k
    if spec.protocol == "amp":
        return AmpConfig(spec.t1, spec.t2, spec.eps).k * (spec.t1 + spec.t2)
    raise ValueError(f"{spec.protocol} sends no messages")


def error_ratio(spec: ExperimentSpec, error: float) -> float:
    """Error over its success bound: a value <= 1 is a success.

    hh already reports its error as a fraction of eps * tail.
    """
    return error if spec.protocol == "hh" else error / spec.eps


def is_network(spec: ExperimentSpec) -> bool:
    return not spec.protocol.startswith("stream-")


def tail_percentile(samples: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (min 50)."""
    return max(50, 100 * (samples - 10) // samples)
