import warnings

import numpy as np
import pytest

from wavesieve import graphs
from wavesieve.graphs import (Graph, PowerIterationError, concliques,
                              connected_split, eigen_bounds, eta_range, knn_geometric_graph,
                              load_graph, save_graph, torus_lattice,
                              torus_with_chords)
from wavesieve.rng import stream


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n, p, seed):
    rng = stream(seed, 999)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# construction and io

def test_load_graph_basic(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2\n")
    g = load_graph(p)
    assert g.node_count == 3
    assert g.edge_count == 2


def test_load_graph_empty(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    g = load_graph(p)
    assert g.node_count == 0
    assert g.edge_count == 0


def test_load_graph_self_loop(tmp_path):
    p = tmp_path / "loop.txt"
    p.write_text("0 0\n")
    with pytest.raises(ValueError, match="self-loop at node 0"):
        load_graph(p)


def test_load_graph_reports_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 1\nnot numbers here\n")
    with pytest.raises(ValueError, match=":2:"):
        load_graph(p)


def test_load_graph_compacts_and_dedupes(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("# comment\n10 30\n30 10\n30 20\n")
    g = load_graph(p)
    assert g.node_count == 3
    assert g.edge_count == 2
    assert g.edges == ((0, 2), (1, 2))   # sorted ids 10,20,30 -> 0,1,2


def test_save_load_round_trip(tmp_path):
    g = torus_lattice(3, 4)
    p = tmp_path / "torus.txt"
    save_graph(g, p)
    g2 = load_graph(p)
    assert g2.edges == g.edges


def test_torus_2x2_collapses_parallel_edges():
    g = torus_lattice(2, 2)
    assert g.node_count == 4
    assert g.edge_count == 4
    assert set(g.degrees.tolist()) == {2}


def test_torus_3x3():
    g = torus_lattice(3, 3)
    assert g.node_count == 9
    assert g.edge_count == 18
    assert set(g.degrees.tolist()) == {4}


def test_torus_4x4():
    g = torus_lattice(4, 4)
    assert g.node_count == 16
    assert g.edge_count == 32


def test_torus_rejects_small_sides():
    with pytest.raises(ValueError):
        torus_lattice(1, 5)


def test_torus_with_chords():
    g = torus_with_chords(6, 6, 10, seed=3)
    assert g.edge_count == torus_lattice(6, 6).edge_count + 10
    g2 = torus_with_chords(6, 6, 10, seed=3)
    assert g2.edges == g.edges


def test_torus_with_chords_rejects_more_chords_than_free_pairs():
    # the 2x2 torus is a 4-cycle: two free pairs, which complete K4
    g = torus_with_chords(2, 2, 2, seed=0)
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    with pytest.raises(ValueError, match="free node pairs"):
        torus_with_chords(2, 2, 3, seed=0)


def test_knn_degree_and_determinism():
    g = knn_geometric_graph(3, 1, seed=0)
    assert np.all(g.degrees >= 1)
    a = knn_geometric_graph(100, 4, seed=7)
    b = knn_geometric_graph(100, 4, seed=7)
    assert a.edges == b.edges
    assert np.all(a.degrees >= 4)


def test_knn_complete_when_k_is_n_minus_1():
    g = knn_geometric_graph(5, 4, seed=1)
    assert g.edge_count == 10


def nearest_pairs_reference(xy, k):
    """The former selection: each row of the distance matrix stably argsorted
    and its first k entries kept, as sorted (s, t) pairs."""
    d2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return sorted((s, int(t)) for s in range(len(xy))
                  for t in np.argsort(d2[s], kind="stable")[:k])


@pytest.mark.parametrize("points, k, seed", [(2, 1, 0), (40, 39, 2), (57, 5, 11),
                                             (300, 6, 3), (1600, 6, 3)])
def test_knn_edges_equal_stable_argsort_reference(points, k, seed):
    xy = stream(seed, graphs._TAG_KNN).uniform(0.0, 1.0, size=(points, 2))
    want = {(min(s, t), max(s, t)) for s, t in nearest_pairs_reference(xy, k)}
    assert knn_geometric_graph(points, k, seed).edges == tuple(sorted(want))


@pytest.mark.parametrize("k", [1, 3, 4, 5, 9])
def test_knn_ties_break_in_index_order(k):
    # a shuffled 6 x 6 lattice: every inner point has 4 neighbours at one
    # distance and 4 more at the next, so the k-th distance is mostly a tie
    grid = np.stack(np.meshgrid(np.arange(6), np.arange(6)), axis=-1).reshape(-1, 2) / 8.0
    xy = grid[stream(5).permutation(len(grid))]
    pairs = sorted(map(tuple, graphs._nearest_pairs(xy, k)))
    assert pairs == nearest_pairs_reference(xy, k)


def test_knn_rejects_large_k():
    with pytest.raises(ValueError):
        knn_geometric_graph(5, 5, seed=1)


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_neighbor_sums_match_dense():
    # isolated nodes (and an edgeless graph) read the pad zero; knn-300 has
    # degrees up to 12, above the 8 where numpy's reduction turns pairwise
    graphs = [random_graph(40, 0.15, seed=2), Graph(6, [(0, 1), (1, 2), (3, 4)]),
              Graph(3, []), knn_geometric_graph(300, 6, seed=3)]
    for g in graphs:
        H = g.adjacency()
        assert np.allclose(H, H.T)
        assert set(np.unique(H)).issubset({0.0, 1.0})
        x = stream(5).standard_normal(g.node_count)
        assert np.allclose(g.neighbor_sums(x), H @ x, atol=1e-12)


def segments_reference(g, nodes):
    """The per-node comprehension neighbor_segments replaced."""
    pad = np.array([g.node_count])
    lists = [g.neighbors[s] if g.degrees[s] else pad for s in nodes]
    index = np.concatenate([np.empty(0, np.int64), *lists])
    sizes = np.maximum(g.degrees[nodes], 1)
    return index, np.cumsum(sizes) - sizes


def test_neighbor_segments_match_the_per_node_lists():
    # isolated nodes hold the pad, in any order, repeated or not at all
    rng = stream(6)
    graphs = [Graph(7, [(0, 1), (1, 2), (4, 5), (5, 0)]), Graph(3, []),
              random_graph(40, 0.1, seed=4), knn_geometric_graph(300, 6, seed=3)]
    for g in graphs:
        n = g.node_count
        for nodes in (np.arange(n), rng.permutation(n), rng.integers(0, n, 2 * n),
                      np.arange(n)[::3], np.empty(0, np.int64)):
            got = g.neighbor_segments(nodes)
            for a, b in zip(got, segments_reference(g, nodes)):
                assert a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------------------
# spectrum

def test_eigen_bounds_single_edge():
    h0, hm = eigen_bounds(Graph(2, [(0, 1)]), tol=1e-12)
    assert h0 == pytest.approx(-1.0, abs=1e-10)
    assert hm == pytest.approx(1.0, abs=1e-10)


def test_eigen_bounds_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    h0, hm = eigen_bounds(g, tol=1e-12)
    # hand eigendecomposition of the 3x3 all-neighbours matrix: 2, -1, -1
    assert hm == pytest.approx(2.0, abs=1e-10)
    assert h0 == pytest.approx(-1.0, abs=1e-10)


def test_eigen_bounds_even_torus():
    # spectrum 2cos(2pi a/rows) + 2cos(2pi b/cols), extremes at 0 and half period
    g = torus_lattice(4, 4)
    h0, hm = eigen_bounds(g, tol=1e-10)
    assert hm == pytest.approx(4.0, abs=1e-8)
    assert h0 == pytest.approx(-4.0, abs=1e-8)


def test_eigen_bounds_match_dense_oracle():
    graphs = [random_graph(30, 0.2, seed=seed) for seed in range(5)]
    graphs += [torus_with_chords(18, 18, 60, seed=1), knn_geometric_graph(300, 6, seed=3)]
    for g in graphs:
        if g.edge_count == 0:
            continue
        vals = np.linalg.eigvalsh(g.adjacency())
        h0, hm = eigen_bounds(g, tol=1e-10)
        assert h0 == pytest.approx(vals[0], abs=1e-8)
        assert hm == pytest.approx(vals[-1], abs=1e-8)


def test_eigen_bounds_rayleigh_property():
    g = random_graph(25, 0.25, seed=8)
    h0, hm = eigen_bounds(g, tol=1e-10)
    rng = stream(17)
    for _ in range(100):
        x = rng.standard_normal(25)
        x /= np.linalg.norm(x)
        q = x @ g.neighbor_sums(x)
        assert h0 - 1e-8 <= q <= hm + 1e-8


def test_eigen_bounds_raises_when_the_krylov_cap_is_reached():
    # no residual reaches 1e-300, so Lanczos exhausts all n steps
    with pytest.raises(PowerIterationError):
        eigen_bounds(random_graph(30, 0.2, seed=1), tol=1e-300)


def test_eigen_bounds_needs_an_edge():
    with pytest.raises(ValueError):
        eigen_bounds(Graph(3, []))


def test_eta_range_values():
    assert eta_range(Graph(2, [(0, 1)])) == pytest.approx((-1.0, 1.0), abs=1e-10)
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert eta_range(tri) == pytest.approx((-1.0, 0.5), abs=1e-10)
    lo, hi = eta_range(torus_lattice(6, 6))
    assert lo == pytest.approx(-0.25, abs=1e-6)
    assert hi == pytest.approx(0.25, abs=1e-6)


def test_eta_range_interior_is_positive_definite():
    # I - eta*H admits a Cholesky factor for eta strictly inside the range
    for seed in range(4):
        g = random_graph(30, 0.2, seed=100 + seed)
        if g.edge_count == 0:
            continue
        lo, hi = eta_range(g)
        H = g.adjacency()
        eye = np.eye(g.node_count)
        for eta in np.linspace(lo * 0.999, hi * 0.999, 20):
            M = eye - eta * H
            np.linalg.cholesky(0.5 * (M + M.T))   # raises if not PD


# ---------------------------------------------------------------------------
# concliques

def _assert_valid_concliques(g, part):
    part.validate(g)
    H = g.adjacency()
    for cls in part.classes:
        for i, s in enumerate(cls):
            for t in cls[i + 1:]:
                assert H[s, t] == 0.0


def test_concliques_even_torus_checkerboard():
    g = torus_lattice(6, 6)
    part = concliques(g)
    assert len(part) == 2
    _assert_valid_concliques(g, part)
    # independent bipartition oracle: 2-color by BFS, classes must agree in size
    color = np.full(36, -1)
    color[0] = 0
    queue = [0]
    while queue:
        s = queue.pop()
        for t in g.neighbors[s]:
            if color[t] < 0:
                color[t] = 1 - color[s]
                queue.append(int(t))
    assert sorted(c.size for c in part.classes) == sorted(
        [int((color == 0).sum()), int((color == 1).sum())])


def test_concliques_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    part = concliques(g)
    assert len(part) == 3
    assert all(c.size == 1 for c in part.classes)


def test_concliques_edgeless():
    g = Graph(5, [])
    part = concliques(g)
    assert len(part) == 1
    assert part.classes[0].size == 5


def test_concliques_bound_and_validity_random():
    for seed in range(5):
        g = random_graph(30, 0.2, seed=200 + seed)
        part = concliques(g)
        assert len(part) <= int(g.degrees.max(initial=0)) + 1
        _assert_valid_concliques(g, part)


# ---------------------------------------------------------------------------
# splits

def test_connected_split_path():
    g = path_graph(10)
    with warnings.catch_warnings():
        # growing from an interior node may disconnect the complement,
        # which is reported but not fatal
        warnings.simplefilter("ignore", UserWarning)
        learn, test = connected_split(g, 0.3, seed=4)
    assert test.size == 3
    assert learn.size == 7
    # a connected piece of a path is a contiguous run
    assert test.max() - test.min() == 2


def test_connected_split_deterministic():
    g = torus_lattice(5, 5)
    a = connected_split(g, 0.3, seed=11)
    b = connected_split(g, 0.3, seed=11)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_connected_split_torus():
    g = torus_lattice(6, 6)
    learn, test = connected_split(g, 0.25, seed=2)
    assert test.size == 9
    # BFS reachability oracle within the test set
    members = set(test.tolist())
    seen = {int(test[0])}
    stack = [int(test[0])]
    while stack:
        s = stack.pop()
        for t in g.neighbors[s]:
            t = int(t)
            if t in members and t not in seen:
                seen.add(t)
                stack.append(t)
    assert seen == members
    # exact partition
    assert sorted(learn.tolist() + test.tolist()) == list(range(36))


def test_connected_split_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        connected_split(g, 0.5, seed=0)


def test_connected_split_rejects_bad_fraction():
    g = path_graph(5)
    for frac in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            connected_split(g, frac, seed=0)
