"""Communication-metered sketching protocols over simulated networks.

The protocol entry points below run one convergecast on a SpanningTree
and return an estimate together with per-edge bit counts; build the
tree from a Topology with ``spanning_tree(topo, center(topo))``.  amp
takes each matrix's per-player slices as ``Cells``, which
``nonzero_cells`` makes from a dense (m, n, t) array.  The
stream_* functions are their single-machine counterparts: stream_entropy
decodes the network verb's lanes, F_1 lane included, summed exactly.
Everything is deterministic given the seed.
"""

from .engine import CommStats, CounterOverflowError
from .entropy import EntropyConfig, entropy_to_bits, estimate_entropy, stream_entropy
from .fp_high import FpHighConfig, estimate_fp_high
from .fp_low import FpLowConfig, estimate_fp_low, stream_fp_logcosine
from .harness import ExperimentSpec, run_experiment
from .heavy_hitters import Cells, CountSketchSpec, heavy_hitters, nonzero_cells, point_estimate_all
from .matrix_product import AmpConfig, amp_estimate
from .topology import (
    SpanningTree,
    Topology,
    center,
    from_spec,
    line,
    make_topology,
    spanning_tree,
    star,
)

__all__ = [
    "AmpConfig",
    "Cells",
    "CommStats",
    "CounterOverflowError",
    "CountSketchSpec",
    "EntropyConfig",
    "ExperimentSpec",
    "FpHighConfig",
    "FpLowConfig",
    "SpanningTree",
    "Topology",
    "amp_estimate",
    "center",
    "entropy_to_bits",
    "estimate_entropy",
    "estimate_fp_high",
    "estimate_fp_low",
    "from_spec",
    "heavy_hitters",
    "line",
    "make_topology",
    "nonzero_cells",
    "point_estimate_all",
    "run_experiment",
    "spanning_tree",
    "star",
    "stream_entropy",
    "stream_fp_logcosine",
]

__version__ = "0.1.0"
