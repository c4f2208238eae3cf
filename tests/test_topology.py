"""Topology construction, center/diameter, spanning trees, and file I/O."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import write_topology
from sketchcast import topology
from sketchcast.streams import generator
from sketchcast.topology import (
    Topology,
    TopologyError,
    balanced_binary,
    center,
    from_spec,
    grid,
    layer_schedule,
    line,
    make_topology,
    random_connected,
    read_topology,
    spanning_tree,
    star,
)


def bfs_distances(g: Topology, src: int) -> list[int]:
    """Plain BFS, independent of the module's internals."""
    adj = [[] for _ in range(g.m)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = [-1] * g.m
    dist[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def eccentricities(g: Topology) -> list[int]:
    """Brute force: one BFS from every vertex."""
    eccs = []
    for v in range(g.m):
        dist = bfs_distances(g, v)
        if min(dist) < 0:
            raise TopologyError("graph is disconnected")
        eccs.append(max(dist))
    return eccs


def diameter(g: Topology) -> int:
    return max(eccentricities(g))


def brute_force_center(g: Topology) -> int:
    eccs = eccentricities(g)
    return eccs.index(min(eccs))


def cycle(m: int) -> Topology:
    return make_topology(m, [(i, (i + 1) % m) for i in range(m)])


SAMPLES = [
    line(1),
    line(5),
    line(9),
    star(2),
    star(9),
    balanced_binary(10),
    grid(3, 3),
    grid(4, 5),
    random_connected(20, 0.2, seed=3),
    random_connected(12, 0.05, seed=8),
]


def test_make_topology_rejects_self_loops():
    with pytest.raises(TopologyError):
        make_topology(3, [(0, 0)])


def test_make_topology_rejects_out_of_range():
    with pytest.raises(TopologyError):
        make_topology(3, [(0, 3)])
    with pytest.raises(TopologyError):
        make_topology(3, [(-1, 2)])


def test_make_topology_rejects_duplicates():
    with pytest.raises(TopologyError):
        make_topology(3, [(0, 1), (1, 0)])


def test_edges_are_canonicalized():
    g = make_topology(4, [(2, 1), (3, 0)])
    assert g.edges == ((0, 3), (1, 2))


def test_disconnected_graph_is_flagged_and_unusable():
    g = make_topology(4, [(0, 1), (2, 3)])
    with pytest.raises(TopologyError, match="disconnected"):
        center(g)
    for root in range(4):
        with pytest.raises(TopologyError, match="disconnected"):
            spanning_tree(g, root)


def test_center_examples():
    assert center(line(5)) == 2
    assert center(star(9)) == 0
    assert center(grid(3, 3)) == 4


def test_center_is_brute_force_argmin():
    for g in SAMPLES:
        assert center(g) == brute_force_center(g)


# Grids up to 12x12 are checked exhaustively below.
GRAPHS = st.one_of(
    st.builds(random_connected, st.integers(1, 120), st.floats(0.0, 0.3),
              st.integers(0, 2**32 - 1)),
    st.builds(cycle, st.integers(3, 60)),
    st.builds(balanced_binary, st.integers(1, 200)),
    st.builds(star, st.integers(1, 200)),
)


@given(GRAPHS)
@settings(max_examples=150, deadline=None)
def test_center_matches_brute_force_property(g):
    assert center(g) == brute_force_center(g)


def test_center_matches_brute_force_on_every_small_grid():
    for r in range(1, 13):
        for c in range(1, 13):
            g = grid(r, c)
            assert center(g) == brute_force_center(g), (r, c)


@pytest.mark.parametrize("g", [grid(32, 32), line(257), balanced_binary(1023), star(5000)],
                         ids=["grid32x32", "line257", "binary1023", "star5000"])
def test_center_needs_few_bfs_runs(g, monkeypatch):
    calls = []
    bfs = topology._bfs

    def counting_bfs(adj, src):
        calls.append(src)
        return bfs(adj, src)

    monkeypatch.setattr(topology, "_bfs", counting_bfs)
    center(g)
    assert 1 <= len(calls) <= 10


def test_diameter_examples():
    assert diameter(star(9)) == 2
    assert diameter(line(100)) == 99
    assert diameter(grid(4, 5)) == 7


def test_diameter_matches_all_pairs_bfs():
    for g in SAMPLES:
        assert diameter(g) == max(max(bfs_distances(g, v)) for v in range(g.m))


def test_line_tree_rooted_at_center():
    tree = spanning_tree(line(5), 2)
    assert tree.depth == 2
    assert tree.layer[0] == tree.layer[4] == 0
    assert tree.parent[0] == 1 and tree.parent[4] == 3


def test_star_tree_rooted_at_hub():
    tree = spanning_tree(star(9), 0)
    assert tree.depth == 1
    assert all(tree.layer[v] == 0 for v in range(1, 9))
    assert tree.children[0] == tuple(range(1, 9))


def test_tree_distances_equal_bfs_distances():
    g = random_connected(20, 0.2, seed=42)
    tree = spanning_tree(g, 0)
    dist = bfs_distances(g, 0)
    for v in range(g.m):
        hops = 0
        u = v
        while u != 0:
            u = tree.parent[u]
            hops += 1
        assert hops == dist[v]


def test_layer_partition_and_parent_layers():
    for g in SAMPLES:
        tree = spanning_tree(g, center(g))
        assert len(tree.layer) == g.m
        for v in range(g.m):
            if v != tree.root:
                assert tree.layer[tree.parent[v]] == tree.layer[v] + 1
        assert tree.layer[tree.root] == tree.depth


def _plain(schedule):
    """A schedule as nested lists, a slot's rows kept as a slice where it is one."""
    return ([(layer.verts, layer.ids.tolist(),
              [(rows if isinstance(rows, slice) else rows.tolist(), src.tolist())
               for rows, src in layer.slots])
             for layer in schedule.layers], schedule.edges)


def _children_by_slot(layer, below):
    """Each row's children, as vertices of ``below``, in slot order."""
    kids = [[] for _ in layer.verts]
    for rows, src in layer.slots:
        for i, r in zip(np.arange(len(kids))[rows].tolist(), src.tolist()):
            kids[i].append(below.verts[r])
    return kids


def test_an_all_true_mask_gives_the_unmasked_schedule():
    for g in SAMPLES + [grid(12, 12), random_connected(40, 0.05, 2)]:
        tree = spanning_tree(g, center(g))
        assert _plain(layer_schedule(tree, [True] * g.m)) == _plain(tree.schedule)


@pytest.mark.parametrize("g", [grid(7, 9), line(20), star(9), balanced_binary(31),
                               random_connected(40, 0.05, 2), random_connected(60, 0.3, 3)],
                         ids=["grid7x9", "line20", "star9", "binary31", "random40",
                              "random60"])
@pytest.mark.parametrize("share", [0.0, 0.3, 0.8])
def test_a_masked_schedule_keeps_the_senders_and_their_sending_children(g, share):
    tree = spanning_tree(g, center(g))
    rng = np.random.default_rng(g.m)
    for _ in range(3):
        sends = (rng.random(g.m) < share).tolist()
        for v in sorted(range(g.m), key=tree.layer.__getitem__):  # leaves first
            if sends[v] and v != tree.root:
                sends[tree.parent[v]] = True
        schedule = layer_schedule(tree, sends)
        assert len(schedule.layers) == tree.depth + 1
        assert schedule.layers[-1].verts == (tree.root,)
        edges = []
        for at, layer in enumerate(schedule.layers):
            kept = [v for v in range(g.m) if tree.layer[v] == at and (sends[v] or v == tree.root)]
            assert list(layer.verts) == kept
            assert layer.ids.tolist() == kept
            # layer 0 holds leaves: no slot, so its rows index nothing below
            want = [[c for c in tree.children[v] if sends[c]] for v in layer.verts]
            assert _children_by_slot(layer, schedule.layers[at - 1]) == want
            edges += [(v, tree.parent[v]) for v in kept if v != tree.root]
        assert schedule.edges == tuple(edges)


def test_center_depth_brackets_diameter():
    for g in SAMPLES:
        tree = spanning_tree(g, center(g))
        ecc = max(bfs_distances(g, center(g)))
        assert tree.depth == ecc <= diameter(g) <= 2 * ecc


def test_random_connected_is_connected():
    # center and spanning_tree raise TopologyError on a disconnected graph
    for seed in range(5):
        g = random_connected(15, 0.0, seed=seed)
        tree = spanning_tree(g, center(g))
        assert sum(parent < 0 for parent in tree.parent) == 1


def random_connected_loop(m: int, p_edge: float, seed) -> Topology:
    """Reference: one rng.random() per non-tree pair, lexicographic order."""
    rng = generator(seed, 0)
    edges = set()
    for v in range(1, m):
        edges.add((int(rng.integers(0, v)), v))
    for u in range(m):
        for v in range(u + 1, m):
            if (u, v) not in edges and rng.random() < p_edge:
                edges.add((u, v))
    return make_topology(m, sorted(edges))


@pytest.mark.parametrize("m, p_edge, seed", [
    (1, 0.15, 0), (2, 0.15, 3), (20, 0.2, 42), (200, 0.15, 7),
    (500, 0.05, 9), (57, 0.0, 1), (90, 1.0, 2),
])
def test_random_connected_matches_reference_loop(m, p_edge, seed):
    assert random_connected(m, p_edge, seed) == random_connected_loop(m, p_edge, seed)


def test_topology_file_round_trip(tmp_path):
    g = grid(3, 4)
    path = tmp_path / "g.txt"
    write_topology(g, path)
    assert read_topology(path) == g


def test_read_topology_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(TopologyError):
        read_topology(path)


def test_from_spec_forms(tmp_path):
    assert from_spec("line", 5) == line(5)
    assert from_spec("star", 6) == star(6)
    assert from_spec("tree", 7) == balanced_binary(7)
    assert from_spec("grid:2x3", 6) == grid(2, 3)
    assert from_spec("grid", 12).m == 12
    assert from_spec("random:0.3", 10, seed=1) == random_connected(10, 0.3, seed=1)
    path = tmp_path / "t.txt"
    write_topology(line(4), path)
    assert from_spec(f"file:{path}", 4) == line(4)


def test_from_spec_rejects_unknown():
    with pytest.raises(TopologyError):
        from_spec("torus", 4)
