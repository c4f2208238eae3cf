"""Test-only helpers: the tree a protocol runs on, the topology file
writer, the paper's exponent bracket, and the Morris counter's
closed-form estimate and variance."""

from __future__ import annotations

import math

from sketchcast.topology import SpanningTree, Topology, center, spanning_tree


def tree_of(topo: Topology) -> SpanningTree:
    """The BFS tree rooted at the center, as ``harness.run_trial`` builds it."""
    return spanning_tree(topo, center(topo))


def write_topology(g: Topology, path) -> None:
    """Write ``g`` in the format ``topology.read_topology`` reads."""
    with open(path, "w") as fh:
        fh.write(f"{g.m}\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")


def paper_exponent_bracket(params, m: int) -> tuple[int, int]:
    """The exponents of the paper's magnitude bracket [(mK)^-(d+3), K^6].

    ``params`` comes from ``gamma_for`` on m players, so ln(mK) is
    ``params.log_mk`` and (mK)^-(d+3) is the floor of layer 0.  Returns
    (floor(log_floor(0) / ln(1+gamma)), ceil(6 ln K / ln(1+gamma))).
    """
    log_k = params.log_mk - math.log(m)
    return (math.floor(params.log_floor(0) / params.log_gamma),
            math.ceil(6.0 * log_k / params.log_gamma))


def estimate_from_state(state: float, b_minus_1: float) -> float:
    """Unbiased count estimate (b^C - 1)/(b - 1) for state C.

    Parametrized by b - 1 because protocol bases sit within 1e-33 of 1,
    far inside float64 round-off of b itself.
    """
    return math.expm1(state * math.log1p(b_minus_1)) / b_minus_1


def estimate_variance(n: float, b_minus_1: float) -> float:
    """Var of the estimate after n real updates: (b-1) n (n+1) / 2."""
    return b_minus_1 * n * (n + 1.0) / 2.0
