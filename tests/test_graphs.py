import math
import re
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavesieve import graphs
from wavesieve.graphs import (ConcliquePartition, Graph, PowerIterationError, concliques,
                              connected_split, eigen_bounds, eta_range, knn_geometric_graph,
                              load_graph, save_graph, torus_lattice,
                              torus_with_chords)
from wavesieve.rng import stream


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def random_pairs(n, p, seed):
    rng = stream(seed, 999)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def random_graph(n, p, seed):
    return Graph(n, random_pairs(n, p, seed))


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


def test_save_load_round_trip_keeps_every_node_and_edge(tmp_path):
    for g in (torus_with_chords(6, 7, 9, seed=2), knn_geometric_graph(60, 4, seed=5),
              Graph(0, [])):
        p = tmp_path / "g.txt"
        save_graph(g, p)
        g2 = load_graph(p)
        assert (g2.node_count, g2.edges) == (g.node_count, g.edges)


def test_save_graph_refuses_a_node_without_edges(tmp_path):
    # load_graph would read this back as 3 nodes with edges ((0, 1), (1, 2))
    p = tmp_path / "g.txt"
    with pytest.raises(ValueError, match="node 1 has no edges"):
        save_graph(Graph(4, [(0, 2), (2, 3)]), p)
    assert not p.exists()


@pytest.mark.parametrize("line, message", [("0 x", r"g\.txt:2: non-integer node id in '0 x'"),
                                           ("0 -1", r"g\.txt:2: negative node id in '0 -1'")])
def test_load_graph_names_a_bad_node_id(line, message, tmp_path):
    p = tmp_path / "g.txt"
    p.write_text(f"0 1\n{line}\n")
    with pytest.raises(ValueError, match=message):
        load_graph(p)


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


def torus_reference(rows, cols, chords, seed):
    """The torus as a per-node loop builds it, plus the chord draws of
    `torus_with_chords`: a pair at a time, skipping loops and present pairs."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            edges.append((s, r * cols + (c + 1) % cols))
            edges.append((s, ((r + 1) % rows) * cols + c))
    n = rows * cols
    present = set(Graph(n, edges).edges)
    rng = stream(seed, graphs._TAG_CHORDS)
    while len(edges) < 2 * n + chords:
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u != v and (u, v) not in present:
            present.add((u, v))
            edges.append((u, v))
    return Graph(n, edges)


@pytest.mark.parametrize("rows, cols, chords", [
    (2, 2, 0), (2, 2, 2), (2, 3, 0), (2, 3, 3), (3, 3, 0), (3, 3, 9),
    (18, 18, 0), (18, 18, 60), (70, 70, 0), (70, 70, 900)])
def test_torus_edges_equal_the_per_node_loop(rows, cols, chords):
    want = torus_reference(rows, cols, chords, seed=1)
    assert torus_with_chords(rows, cols, chords, seed=1).edges == want.edges
    if not chords:
        assert torus_lattice(rows, cols).edges == want.edges


@pytest.mark.parametrize("build, name", [
    (lambda: torus_lattice(6.7, 6), "rows"),
    (lambda: torus_lattice(6, 6.0), "cols"),
    (lambda: torus_lattice(True, 6), "rows"),
    (lambda: torus_with_chords(6, 6, 2.5, seed=0), "chords"),
    (lambda: torus_with_chords(6, 6, False, seed=0), "chords"),
    (lambda: knn_geometric_graph(30.9, 3, seed=0), "points"),
    (lambda: knn_geometric_graph(30, 3.5, seed=0), "k"),
    (lambda: knn_geometric_graph(30, True, seed=0), "k"),
])
def test_constructors_reject_counts_that_are_not_integers(build, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        build()


def test_knn_rejects_a_seed_that_is_not_an_integer():
    # 2.9 used to build seed 2's graph
    with pytest.raises(ValueError, match="must be integers, got 2.9"):
        knn_geometric_graph(30, 3, 2.9)


def test_constructors_accept_numpy_integer_counts():
    assert torus_lattice(np.int64(3), np.int32(4)).edges == torus_lattice(3, 4).edges
    assert (knn_geometric_graph(np.int64(30), np.int8(3), seed=0).edges
            == knn_geometric_graph(30, 3, seed=0).edges)


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
    # a shuffled square lattice: every inner point has 4 neighbours at one
    # distance and 4 more at the next, so the k-th distance is mostly a tie;
    # the 24 x 24 lattice spans several row blocks of the builder
    for side in (6, 24):
        grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1)
        xy = grid.reshape(-1, 2)[stream(5).permutation(side * side)] / 8.0
        pairs = graphs._nearest_pairs(xy, k)
        assert list(map(tuple, pairs.tolist())) == nearest_pairs_reference(xy, k)


@st.composite
def point_sets(draw):
    """(xy, k): uniform points on a random box, or the same with duplicates,
    on one line, or a tight cluster plus a few far points."""
    n = draw(st.integers(2, 360))
    k = draw(st.integers(1, n - 1))
    rng = stream(draw(st.integers(0, 2**32 - 1)))
    lo, width = draw(st.floats(-50, 50)), draw(st.floats(1e-3, 100))
    xy = lo + width * rng.uniform(size=(n, 2))
    shape = draw(st.sampled_from(["uniform", "duplicates", "collinear", "cluster"]))
    if shape == "duplicates":       # zero distances, ties at zero
        xy = xy[rng.integers(0, max(1, n // 3), size=n)]
    elif shape == "collinear":      # an axis of zero extent
        xy[:, draw(st.integers(0, 1))] = lo
    elif shape == "cluster":        # one crowded block forces the exact path
        xy[n // 8:] = lo + 1e-4 * width * rng.uniform(size=(n - n // 8, 2))
    return xy, k


@settings(max_examples=150, deadline=None)
@given(point_sets())
def test_nearest_pairs_equal_the_reference_at_the_edges(case):
    xy, k = case
    pairs = graphs._nearest_pairs(xy, k)
    assert list(map(tuple, pairs.tolist())) == nearest_pairs_reference(xy, k)


def test_knn_rows_are_mostly_certified_on_the_grid(monkeypatch):
    # only rows on the exact path are judged against all n points; at most
    # 1% of them may land there on uniform points
    n, exact = 1600, []
    pick = graphs._pick_nearest

    def spy(d2, k):
        if d2.shape[1] == n:
            exact.append(d2.shape[0])
        return pick(d2, k)
    monkeypatch.setattr(graphs, "_pick_nearest", spy)
    knn_geometric_graph(n, 6, seed=3)
    assert sum(exact) <= 0.01 * n


def test_knn_build_holds_no_n_by_n_array():
    # candidates are capped per grid block and the exact path forms its
    # distances in row blocks, so the build's peak stays well below the
    # 8 n^2 bytes of one n x n array
    n = 3000
    tracemalloc.start()
    try:
        knn_geometric_graph(n, 6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * n * n


def test_knn_build_of_clustered_points_holds_no_n_by_n_array():
    # nearly every point in one grid cell, so their rows take the exact path
    n = 3000
    rng = stream(9)
    xy = np.concatenate((0.5 + 1e-4 * rng.uniform(size=(n - 30, 2)), rng.uniform(size=(30, 2))))
    tracemalloc.start()
    try:
        graphs._nearest_pairs(xy, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * n * n


def test_knn_rejects_k_out_of_range():
    with pytest.raises(ValueError):
        knn_geometric_graph(5, 5, seed=1)
    with pytest.raises(ValueError, match="k must be at least 1"):
        knn_geometric_graph(10, 0, 1)


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(2, [(1, 1)])


def test_neighbor_sums_match_dense():
    # isolated nodes (and an edgeless graph) sum to zero; knn-300 has
    # degrees up to 12, above the 8 where numpy's reduction turns pairwise
    graphs = [random_graph(40, 0.15, seed=2), Graph(6, [(0, 1), (1, 2), (3, 4)]),
              Graph(3, []), knn_geometric_graph(300, 6, seed=3)]
    for g in graphs:
        H = g.adjacency()
        assert np.allclose(H, H.T)
        assert set(np.unique(H)).issubset({0.0, 1.0})
        x = stream(5).standard_normal(g.node_count)
        assert np.allclose(g.neighbor_sums(x), H @ x, atol=1e-12)


def neighbor_lists_reference(n, pairs):
    """Each node's sorted neighbour list, built pair by pair from the pairs a
    graph was given, repeats and both directions collapsed."""
    lists = [set() for _ in range(n)]
    for u, v in pairs:
        lists[u].add(int(v))
        lists[v].add(int(u))
    return [sorted(a) for a in lists]


def test_csr_matches_the_per_node_lists():
    # isolated nodes (the last one too), an edgeless graph, no nodes at all,
    # edges given twice and backwards, and knn-300's ndarray of pairs
    xy = stream(3, graphs._TAG_KNN).uniform(0.0, 1.0, size=(300, 2))
    cases = [(7, [(0, 1), (1, 2), (4, 5), (5, 0), (2, 1)]), (3, []), (0, []),
             (5, [(4, 0), (0, 4), (3, 1)]), (40, random_pairs(40, 0.1, seed=4)),
             (30, random_pairs(30, 0.3, seed=5)), (300, graphs._nearest_pairs(xy, 6))]
    for n, pairs in cases:
        g = Graph(n, pairs)
        lists = neighbor_lists_reference(n, pairs)
        assert g.edges == tuple((s, t) for s in range(n) for t in lists[s] if s < t)
        assert g.edges == tuple(sorted(set(g.edges))) and g.edge_count == len(g.edges)
        assert all(type(s) is int and type(t) is int and s < t for s, t in g.edges)
        assert g.indptr.dtype == g.indices.dtype == g.degrees.dtype == np.int64
        assert g.indptr.tolist() == np.cumsum([0] + [len(a) for a in lists]).tolist()
        assert g.indices.tolist() == [t for a in lists for t in a]
        assert g.degrees.tolist() == [len(a) for a in lists]
        for s in range(n):
            assert g.indices[g.indptr[s]:g.indptr[s + 1]].tolist() == lists[s]
        # each sum is the list's own reduceat, in list order; isolated nodes give zero
        x = stream(7).standard_normal(n)
        want = [np.add.reduceat(x[a], [0])[0] if a else 0.0 for a in lists]
        assert np.array_equal(g.neighbor_sums(x), np.array(want))


def test_graph_holds_only_its_csr_arrays():
    # the dense workload's graph: edges and edge_count are read off the CSR
    # arrays, so the build keeps nothing beyond them
    pairs = np.array(torus_with_chords(70, 70, 900, seed=1).edges)
    tracemalloc.start()
    try:
        g = Graph(4900, pairs)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert set(vars(g)) == {"node_count", "indptr", "indices", "degrees"}
    assert held <= 1.25 * (g.indptr.nbytes + g.indices.nbytes + g.degrees.nbytes)
    assert g.edge_count == 10700 and g.edges == tuple(map(tuple, pairs.tolist()))


@pytest.mark.parametrize("shape", [(12,), (5,), (0,), (9, 1), (1, 9), ()])
def test_neighbor_sums_refuse_x_of_another_length(shape):
    g = torus_lattice(3, 3)
    with pytest.raises(ValueError, match=re.escape(f"shape (9,), one entry per node, got shape {shape}")):
        g.neighbor_sums(np.ones(shape))


def test_graph_canonicalizes_edges():
    g = Graph(4, [(3, 1), (1, 3), (2, 0), (0, 2), (1, 2)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))
    assert g.edges == Graph(4, np.array([[1, 2], [0, 2], [3, 1]], dtype=np.int32)).edges
    assert g.edges == Graph(4, iter([(1, 3), (np.int64(2), 1), (0, 2)])).edges


@pytest.mark.parametrize("edges, message", [
    ([(0, 1), (2, 2), (0, 5)], "self-loop at node 2"),
    ([(0, 1), (0, 5), (2, 2)], r"edge \(0,5\) outside 0\.\.2"),
    ([(0, 1), (-1, 2), (1, 1)], r"edge \(-1,2\) outside 0\.\.2"),
    ([(3, 3), (0, 4)], "self-loop at node 3"),
    ([(0, 1.9), (True, 2)], r"edge \(0,1\.9\) has a node id that is not an integer"),
    ([(0, 1), (True, 2)], r"edge \(True,2\) has a node id that is not an integer"),
    ([(0, 1), (1, np.bool_(False))], r"edge \(1,\S*False\S*\) has a node id"),
    ([(0, 1), (1, 2.0)], r"edge \(1,2\.0\) has a node id"),
    ([(0, 1), ("1", 2)], r"edge \('1',2\) has a node id"),
    (np.array([[0.0, 1.0]]), "has a node id that is not an integer"),
])
def test_graph_names_the_first_bad_edge(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(3, edges)


@pytest.mark.parametrize("node_count", [2.7, 3.0, True, "3", -1])
def test_graph_rejects_a_node_count_that_is_not_a_non_negative_integer(node_count):
    with pytest.raises(ValueError, match="node_count must be a non-negative integer"):
        Graph(node_count, [])


def test_validate_names_the_first_edge_inside_a_class():
    # random labels on random graphs: the message names the lexicographically
    # first edge whose ends share a class, as found from `edges`
    rng = stream(8)
    for seed in range(20):
        g = random_graph(25, 0.2, seed=300 + seed)
        label = rng.integers(0, 3, g.node_count)
        part = ConcliquePartition(tuple(np.flatnonzero(label == c) for c in range(3)))
        inside = [(s, t) for s, t in g.edges if label[s] == label[t]]
        if not inside:
            part.validate(g)
            continue
        s, t = inside[0]
        with pytest.raises(ValueError, match=f"class {label[s]} is not independent: "
                                             f"it holds adjacent nodes {s} and {t}$"):
            part.validate(g)


def test_validate_names_a_node_outside_the_graph():
    with pytest.raises(ValueError, match=r"classes hold node 7 outside 0\.\.2"):
        ConcliquePartition((np.array([0, 1, 7]),)).validate(Graph(3, [(0, 1)]))


def test_partition_classes_may_be_lists_or_any_integer_arrays():
    classes = ([0, 4, 8], [1, 5, 6], [2, 3, 7])
    # uint64 classes would concatenate to float64 node ids, so they are taken as int64
    for part in (ConcliquePartition(classes),
                 ConcliquePartition(tuple(np.array(c, np.uint64) for c in classes))):
        part.validate(torus_lattice(3, 3))
        assert all(c.dtype == np.int64 for c in part.classes)


def test_partition_compares_and_hashes_by_identity():
    # array classes would make a field-wise == ambiguous and the hash fail
    g = torus_lattice(4, 4)
    part, again = concliques(g), concliques(g)
    assert part == part
    assert len({part, part}) == 1
    assert part != again and len({part, again}) == 2


@pytest.mark.parametrize("classes, k", [
    (([0.0, 4.0, 8.0], [1, 5, 6], [2, 3, 7]), 0),
    (([0, 4, 8], [True, False], [2, 3, 7]), 1),
    (([0, 4, 8], [1, 5, 6], [[2, 3, 7]]), 2),
])
def test_partition_rejects_classes_that_are_not_1d_integer_arrays(classes, k):
    with pytest.raises(ValueError, match=f"class {k} must be a 1-D array of integer node ids"):
        ConcliquePartition(classes)


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
    # one edge among isolated nodes: the spectrum is -1, 0 and 1, so the Krylov
    # space breaks down after three steps, with beta_m 0 (n = 5) or at rounding
    # level (n = 10)
    graphs += [Graph(5, [(0, 1)]), Graph(10, [(0, 1)])]
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
    # independent bipartition oracle: the parity of the BFS depth 2-colors
    # the even torus, and the classes must agree with it
    depth = bfs_reference(neighbor_lists_reference(g.node_count, g.edges), 0, [False] * 36)
    assert sorted(c.tolist() for c in part.classes) == sorted(
        [[s for s in range(36) if depth[s] % 2 == parity] for parity in (0, 1)])


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


def first_fit_reference(g):
    """The classes of the first-fit coloring that visits the nodes in stable
    descending-degree order and gives each the smallest color none of its
    neighbours has, one node at a time; no nodes make one empty class."""
    color = np.full(g.node_count, -1, dtype=np.int64)
    for s in np.argsort(-g.degrees, kind="stable").tolist():
        used = set(color[g.indices[g.indptr[s]:g.indptr[s + 1]]].tolist())
        c = 0
        while c in used:
            c += 1
        color[s] = c
    return [np.flatnonzero(color == c) for c in range(color.max(initial=0) + 1)]


def _first_fit_graphs():
    graphs = {"paper": torus_with_chords(18, 18, 60, seed=1),
              "dense": torus_with_chords(70, 70, 900, seed=1),
              "knn_fit": knn_geometric_graph(1600, 6, seed=3),
              "torus2": torus_lattice(2, 2), "torus6": torus_lattice(6, 6),
              "torus7": torus_lattice(7, 7), "star": star_graph(12),
              "triangle": Graph(3, [(0, 1), (1, 2), (0, 2)]), "edgeless": Graph(5, []),
              "isolated": Graph(9, [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7)]),
              "empty": Graph(0, [])}
    rng = stream(26)
    for seed in range(30):
        graphs[f"random{seed}"] = random_graph(int(rng.integers(1, 60)), rng.uniform(0.0, 0.4),
                                               seed=400 + seed)
    return graphs


def test_concliques_equal_the_first_fit_coloring():
    for name, g in _first_fit_graphs().items():
        got, want = concliques(g).classes, first_fit_reference(g)
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name


# ---------------------------------------------------------------------------
# splits

def bfs_reference(lists, start, seen):
    """A first-in first-out BFS from `start` over the per-node lists `lists`,
    one node at a time through a deque, never entering a node marked in the
    list `seen`; marks the nodes it reaches.  Returns {node: depth} in the
    order the nodes were reached."""
    depth = {start: 0}
    seen[start] = True
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for t in lists[s]:
            if not seen[t]:
                seen[t] = True
                depth[t] = depth[s] + 1
                queue.append(t)
    return depth


def split_reference(g, test_fraction, seed):
    """(learn, test, components) as connected_split defines them: the test set
    is the first ceil(test_fraction * n) nodes of `bfs_reference` from the
    seeded start, and a walk from each learning node not yet reached counts the
    learning set's components; None when the graph is disconnected."""
    n, lists = g.node_count, neighbor_lists_reference(g.node_count, g.edges)
    start = int(stream(seed, graphs._TAG_SPLIT).integers(0, n))
    order = list(bfs_reference(lists, start, [False] * n))
    if len(order) < n:
        return None
    test = sorted(order[:math.ceil(test_fraction * n)])
    seen = [False] * n
    for s in test:
        seen[s] = True
    learn = [s for s in range(n) if not seen[s]]
    components = 0
    for s in learn:
        if not seen[s]:
            components += 1
            bfs_reference(lists, s, seen)
    return learn, test, components


def star_graph(n):
    return Graph(n, [(0, s) for s in range(1, n)])


@pytest.mark.parametrize("build", [
    lambda: torus_with_chords(18, 18, 60, seed=1),
    lambda: knn_geometric_graph(300, 6, seed=3),
    lambda: path_graph(30),
    # the centre is in every test set of two or more nodes, so each
    # learning node is a component of its own
    lambda: star_graph(40),
    lambda: random_graph(40, 0.1, seed=4),
    lambda: random_graph(40, 0.1, seed=0),   # disconnected: every split is refused
], ids=["torus_18x18_chords", "knn_300", "path", "star", "random", "random_disconnected"])
@pytest.mark.parametrize("test_fraction", [0.1, 0.3, 0.7])
def test_connected_split_equals_the_deque_bfs(build, test_fraction):
    g = build()
    for seed in range(6):
        want = split_reference(g, test_fraction, seed)
        if want is None:
            with pytest.raises(ValueError, match="connected graph"):
                connected_split(g, test_fraction, seed)
            continue
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            learn, test = connected_split(g, test_fraction, seed)
        assert learn.tolist() == want[0] and test.tolist() == want[1]
        counts = [int(re.fullmatch(r"learning set is disconnected \((\d+) components\)",
                                   str(w.message)).group(1)) for w in caught]
        assert counts == ([want[2]] if want[2] > 1 else [])


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
    # BFS reachability oracle within the test set: the learning set is marked
    members = set(test.tolist())
    seen = [s not in members for s in range(36)]
    lists = neighbor_lists_reference(g.node_count, g.edges)
    assert set(bfs_reference(lists, int(test[0]), seen)) == members
    # exact partition
    assert sorted(learn.tolist() + test.tolist()) == list(range(36))


def test_connected_split_rejects_disconnected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        connected_split(g, 0.5, seed=0)


def test_split_order_is_the_reference_bfs_order():
    g = torus_with_chords(18, 18, 60, seed=1)
    order, size = graphs.split_order(g, 0.3, start=17)
    assert size == 98 and sorted(order.tolist()) == list(range(g.node_count))
    lists = neighbor_lists_reference(g.node_count, g.edges)
    assert order.tolist() == list(bfs_reference(lists, 17, [False] * g.node_count))
    with pytest.raises(ValueError, match="connected graph"):
        graphs.split_order(Graph(4, [(0, 1), (2, 3)]), 0.5)
    with pytest.raises(ValueError, match="empty learning set"):
        graphs.split_order(torus_lattice(3, 3), 0.95)


def test_connected_split_rejects_bad_fraction():
    g = path_graph(5)
    for frac in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            connected_split(g, frac, seed=0)
    # 0.95 of 9 nodes rounds up to a test set of all 9
    with pytest.raises(ValueError, match="empty learning set"):
        connected_split(torus_lattice(3, 3), 0.95, 1)
