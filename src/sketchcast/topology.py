"""Network graphs, centers, and BFS spanning trees with layer labels.

Protocols root a shortest-path spanning tree at a center (a vertex of
minimum eccentricity) and run one convergecast round per layer, where
layer(v) = depth - dist(root, v): leaves of maximal depth sit at layer 0
and the root at layer = depth.  All tie-breaking is by smallest vertex id
so runs are reproducible.

The center is found exactly without a BFS from every vertex, by keeping
lower and upper eccentricity bounds per vertex and probing (one BFS each)
only vertices that could still be the center (Takes & Kosters, "Computing
the eccentricity distribution of large graphs", Algorithms 6(1), 2013).
Grids, lines, trees and stars settle in at most four probes.  The worst
case is a graph in which every vertex has the same eccentricity, such as
a cycle: a probe then closes little more than its own vertex, so a cycle
of m vertices needs m/2 probes, and no graph needs more than m.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .streams import generator

# Edge probability of a random topology whose spec names none.
RANDOM_EDGE_P = 0.15


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class Topology:
    m: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.m)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for nbrs in adj:
            nbrs.sort()
        return adj


class Layer(NamedTuple):
    """One tree layer: its vertices in ascending id order, and their child slots.

    ``ids`` holds ``verts`` as an intp array.  ``slots`` has one
    ``(rows, src)`` pair per child slot j = 0, 1, ...: row ``rows[i]`` of
    the layer has as its j-th child (in ``children`` order, counting only
    the children the schedule keeps) row ``src[i]`` of the layer below.
    ``rows`` is ``slice(None)`` when every row has a j-th child.
    """

    verts: tuple[int, ...]
    ids: np.ndarray
    slots: tuple[tuple[slice | np.ndarray, np.ndarray], ...]


class Schedule(NamedTuple):
    """A tree's layers, leaves first and the root's last, and its edges.

    ``edges`` holds (v, parent of v) for every non-root vertex the layers
    hold, in (layer, id) order.
    """

    layers: tuple[Layer, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SpanningTree:
    root: int
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    layer: tuple[int, ...]
    depth: int

    @property
    def m(self) -> int:
        return len(self.parent)

    @functools.cached_property
    def schedule(self) -> Schedule:
        """The layer schedule of a run in which every vertex sends, built on first use."""
        return layer_schedule(self)


def make_topology(m: int, edges) -> Topology:
    seen = set()
    cleaned = []
    for u, v in edges:
        if u == v:
            raise TopologyError(f"self-loop at vertex {u}")
        if not (0 <= u < m and 0 <= v < m):
            raise TopologyError(f"edge ({u},{v}) outside vertex range [0,{m})")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise TopologyError(f"duplicate edge {key}")
        seen.add(key)
        cleaned.append(key)
    cleaned.sort()
    return Topology(m=m, edges=tuple(cleaned))


def _bfs(adj: list[list[int]], src: int) -> tuple[list[int], list[int]]:
    """(distance, parent) of every vertex in a BFS from ``src``, scanning
    neighbours in ``adj`` order; -1 where unreached and as ``src``'s parent."""
    dist = [-1] * len(adj)
    parent = [-1] * len(adj)
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                q.append(v)
    return dist, parent


def center(g: Topology) -> int:
    """Vertex of minimum eccentricity, smallest id on ties.

    A BFS from w with eccentricity e bounds every vertex v at distance d:
    max(d, e - d) <= ecc(v) <= e + d.  Probes alternate between the open
    vertex with the smallest lower bound and the one with the largest upper
    bound, smallest id on ties.  With U the smallest upper bound, a vertex
    is open while its eccentricity is unknown and either its lower bound is
    below U, or equals U and its id is below every vertex known to have
    eccentricity U.  When none is open the radius is U and the answer is
    the smallest such vertex.  Each probe settles the vertex it starts
    from, so at most m probes run; a cycle needs m/2, grids, lines, trees
    and stars at most four.  Raises TopologyError when the graph is
    disconnected.
    """
    adj = g.adjacency()
    ids = np.arange(g.m)
    lower = np.zeros(g.m, dtype=np.int64)
    upper = np.full(g.m, g.m, dtype=np.int64)
    probes = 0
    while True:
        bound = upper.min()
        exact = lower == upper
        settled = ids[exact & (upper == bound)]
        first = settled[0] if settled.size else g.m
        open_ = ~exact & ((lower < bound) | ((lower == bound) & (ids < first)))
        if not open_.any():
            return int(first)
        if probes % 2 == 0:
            w = int(np.argmin(np.where(open_, lower, g.m + 1)))
        else:
            w = int(np.argmax(np.where(open_, upper, -1)))
        probes += 1
        dist = np.asarray(_bfs(adj, w)[0])
        if dist.min() < 0:
            raise TopologyError("graph is disconnected")
        e = dist.max()
        np.maximum(lower, np.maximum(dist, e - dist), out=lower)
        np.minimum(upper, e + dist, out=upper)


def spanning_tree(g: Topology, root: int) -> SpanningTree:
    """BFS shortest-path tree; children visited in ascending id order."""
    if not 0 <= root < g.m:
        raise TopologyError(f"root {root} not a vertex")
    dist, parent = _bfs(g.adjacency(), root)
    children: list[list[int]] = [[] for _ in range(g.m)]
    for v, u in enumerate(parent):
        if u >= 0:
            children[u].append(v)
    if min(dist) < 0:
        raise TopologyError("graph is disconnected")
    depth = max(dist)
    layer = tuple(depth - d for d in dist)
    return SpanningTree(
        root=root,
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        layer=layer,
        depth=depth,
    )


def layer_schedule(tree: SpanningTree, sends=None) -> Schedule:
    """Group ``tree``'s vertices by layer and give each layer its child slots.

    ``sends``, one bool per vertex and closed under parents, keeps only
    the vertices that send and the root, whether or not it sends; a
    vertex's children are then its sending children, in ``children``
    order, and ``edges`` its sending edges.  Without it every vertex
    sends.  ``spanning_tree`` puts every child of a layer-L vertex in
    layer L-1, so a child's slot row indexes the layer below.
    """
    keep = [True] * tree.m if sends is None else list(sends)
    keep[tree.root] = True
    by_layer: list[list[int]] = [[] for _ in range(tree.depth + 1)]
    row = [0] * tree.m  # a kept vertex's row in its layer
    for v in range(tree.m):
        if keep[v]:
            verts = by_layer[tree.layer[v]]
            row[v] = len(verts)
            verts.append(v)
    layers = []
    for verts in by_layer:
        kids = [[c for c in tree.children[v] if keep[c]] for v in verts]
        slots = []
        for j in range(max(map(len, kids), default=0)):
            rows = [i for i, k in enumerate(kids) if len(k) > j]
            src = np.array([row[kids[i][j]] for i in rows], dtype=np.intp)
            full = len(rows) == len(kids)
            slots.append((slice(None) if full else np.array(rows, dtype=np.intp), src))
        layers.append(Layer(tuple(verts), np.array(verts, dtype=np.intp), tuple(slots)))
    edges = tuple((v, tree.parent[v]) for verts in by_layer[:-1] for v in verts)
    return Schedule(tuple(layers), edges)


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------


def line(m: int) -> Topology:
    if m < 1:
        raise TopologyError("line needs m >= 1")
    return make_topology(m, [(i, i + 1) for i in range(m - 1)])


def star(m: int) -> Topology:
    """Hub at vertex 0 with m-1 leaves."""
    if m < 1:
        raise TopologyError("star needs m >= 1")
    return make_topology(m, [(0, i) for i in range(1, m)])


def balanced_binary(m: int) -> Topology:
    """Complete binary tree on ids 0..m-1 (children of i are 2i+1, 2i+2)."""
    if m < 1:
        raise TopologyError("tree needs m >= 1")
    edges = []
    for i in range(m):
        for c in (2 * i + 1, 2 * i + 2):
            if c < m:
                edges.append((i, c))
    return make_topology(m, edges)


def grid(rows: int, cols: int) -> Topology:
    if rows < 1 or cols < 1:
        raise TopologyError("grid needs rows, cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return make_topology(rows * cols, edges)


def random_connected(m: int, p_edge: float = RANDOM_EDGE_P, seed=0) -> Topology:
    """Random tree plus Bernoulli(p_edge) extra edges; always connected."""
    if m < 1:
        raise TopologyError("random topology needs m >= 1")
    rng = generator(seed, 0)
    parent = np.full(m, -1)
    for v in range(1, m):
        parent[v] = int(rng.integers(0, v))
    edges = [(int(parent[v]), v) for v in range(1, m)]
    # One uniform per non-tree pair (u, v), u < v, in lexicographic order;
    # drawn a row at a time so memory stays O(m) rather than O(m^2).
    for u in range(m - 1):
        vs = np.arange(u + 1, m)
        vs = vs[parent[u + 1:] != u]
        edges.extend((u, v) for v in vs[rng.random(vs.size) < p_edge].tolist())
    return make_topology(m, edges)


# ---------------------------------------------------------------------------
# File format and CLI topology specs.
# ---------------------------------------------------------------------------


def read_topology(path: str) -> Topology:
    """Topology from a file: the vertex count m, then one "u v" edge per line."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise OSError(f"cannot read topology file {path}: {exc}") from exc
    if not lines:
        raise TopologyError(f"{path}: empty topology file")
    try:
        m = int(lines[0])
        edges = [tuple(map(int, ln.split())) for ln in lines[1:]]
        return make_topology(m, edges)
    except ValueError as exc:  # TopologyError included
        raise TopologyError(f"{path}: bad topology file: {exc}") from None


# The kinds from_spec accepts: the part of a spec before any ':'.
TOPOLOGY_KINDS = ("line", "star", "tree", "grid", "random", "file")


def parse_spec(spec: str, m: int) -> tuple[str, tuple[int, int] | float | Topology | None]:
    """(kind, argument) of a topology spec for m vertices.

    The argument is None when the spec has none, a grid's (rows, cols), a
    random graph's edge probability, or the topology a file holds.  Raises
    TopologyError naming the spec when it is malformed, or when a grid or
    file has other than m vertices.
    """
    kind, sep, arg = spec.partition(":")
    if kind not in TOPOLOGY_KINDS:
        raise TopologyError(f"unknown topology spec {spec!r}; kinds: {', '.join(TOPOLOGY_KINDS)}")
    if kind == "random" and sep:
        try:
            p_edge = float(arg)
        except ValueError:
            p_edge = math.nan  # rejected below
        if not 0.0 <= p_edge <= 1.0:
            raise TopologyError(f"topology spec {spec!r}: edge probability must be in [0,1]")
        return kind, p_edge
    if kind == "grid" and sep:
        r, x, c = arg.lower().partition("x")
        if not (x and r.isdecimal() and c.isdecimal()):
            raise TopologyError(f"topology spec {spec!r} is not grid:RxC")
        value, size = (int(r), int(c)), int(r) * int(c)
    elif kind == "file":
        value = read_topology(arg)
        size = value.m
    elif sep:
        raise TopologyError(f"topology spec {spec!r}: {kind} takes no argument")
    else:
        return kind, None
    if size != m:
        raise TopologyError(f"topology spec {spec!r} has {size} vertices, spec says m={m}")
    return kind, value


def from_spec(spec: str, m: int, seed=0) -> Topology:
    """Build a topology from a CLI spec (see :func:`parse_spec`).

    Accepted forms: ``line``, ``star``, ``tree``, ``grid`` (square-ish),
    ``grid:RxC``, ``random``, ``random:p``, ``file:PATH``.
    """
    kind, arg = parse_spec(spec, m)
    if kind == "line":
        return line(m)
    if kind == "star":
        return star(m)
    if kind == "tree":
        return balanced_binary(m)
    if kind == "grid":
        if arg:
            return grid(*arg)
        r = int(np.sqrt(m))
        while m % r:
            r -= 1
        return grid(r, m // r)
    if kind == "random":
        return random_connected(m, RANDOM_EDGE_P if arg is None else arg, seed)
    return arg  # file:PATH
