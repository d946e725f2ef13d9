"""Finite undirected graphs and lattices.

Construction and edge-list file io, extreme adjacency eigenvalues by
Lanczos, the admissible dependence range they induce, conclique (proper
color class) partitions, and connected learn/test splits grown by BFS.
"""

import math
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from .rng import stream

__all__ = [
    "Graph", "ConcliquePartition", "PowerIterationError",
    "load_graph", "save_graph", "torus_lattice", "torus_with_chords",
    "knn_geometric_graph", "eigen_bounds", "eta_range", "concliques",
    "connected_split",
]

DENSE_NODE_LIMIT = 5000

# Ritz values are checked every this many Lanczos steps: the dense
# tridiagonal eigh per check would otherwise cost more than the steps
_LANCZOS_CHECK_EVERY = 8

# internal stream tags so one root seed can serve several operations
_TAG_KNN = 11
_TAG_CHORDS = 12
_TAG_SPLIT = 13
_TAG_POWER = 14


class PowerIterationError(RuntimeError):
    """Raised when the eigenvalue iteration fails to reach tolerance within the cap."""


class Graph:
    """Immutable undirected graph on nodes 0..n-1 without self loops.

    Carries lazily computed, cached spectral bounds and conclique partition;
    safe to share across threads once constructed.
    """

    def __init__(self, node_count, edges):
        node_count = int(node_count)
        if node_count < 0:
            raise ValueError("node_count must be non-negative")
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u},{v}) outside 0..{node_count - 1}")
            seen.add((u, v) if u < v else (v, u))
        self.node_count = node_count
        self.edges = tuple(sorted(seen))
        self.edge_count = len(self.edges)

        nbr = [[] for _ in range(node_count)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        self.neighbors = tuple(np.array(sorted(a), dtype=np.int64) for a in nbr)
        self.degrees = np.array([a.size for a in self.neighbors], dtype=np.int64)

        # every node's list end to end, an empty one holding the pad id
        pad = np.array([node_count], dtype=np.int64)
        lists = [a if a.size else pad for a in self.neighbors]
        sizes = np.maximum(self.degrees, 1)
        self._segments = (np.concatenate([pad[:0], *lists]), np.cumsum(sizes) - sizes)
        self._eigen_cache = {}
        self._concliques = None

    def neighbor_segments(self, nodes):
        """(index, starts): the neighbour lists of `nodes` end to end and each
        list's offset.  An empty list holds the pad id node_count, so for v of
        length node_count + 1 with v[-1] == 0 the list sums are
        `np.add.reduceat(v[index], starts)`."""
        index, starts = self._segments
        sizes = np.maximum(self.degrees[nodes], 1)
        offsets = np.cumsum(sizes) - sizes
        # position k of segment i reads the full layout at starts[node_i] + k
        gather = np.repeat(starts[nodes] - offsets, sizes) + np.arange(sizes.sum())
        return index[gather], offsets

    def neighbor_sums(self, x):
        """Vector of sums of x over each node's neighbors (H @ x).

        One fixed summation order for every graph size, so results do not
        depend on whether a dense adjacency was ever materialized.
        """
        index, starts = self._segments
        return np.add.reduceat(np.append(x, 0.0)[index], starts)

    def adjacency(self):
        """A fresh dense symmetric 0/1 adjacency matrix (limited to small
        graphs); the caller owns it and may overwrite it."""
        if self.node_count > DENSE_NODE_LIMIT:
            raise ValueError(
                f"dense adjacency limited to {DENSE_NODE_LIMIT} nodes, "
                f"graph has {self.node_count}")
        u, v = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        H = np.zeros((self.node_count, self.node_count))
        H[u, v] = 1.0
        H[v, u] = 1.0
        return H

    def __repr__(self):
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


@dataclass(frozen=True)
class ConcliquePartition:
    """Node classes no two members of which are adjacent."""
    classes: tuple

    def __len__(self):
        return len(self.classes)

    def validate(self, graph):
        """Check that the classes cover every node of `graph` exactly once and
        that no edge joins two members of one class; raise ValueError naming
        the first node or edge at fault."""
        n = graph.node_count
        nodes = np.concatenate([np.empty(0, np.int64), *self.classes])
        outside = nodes[(nodes < 0) | (nodes >= n)]
        if outside.size:
            raise ValueError(f"classes hold node {outside[0]} outside 0..{n - 1}")
        count = np.bincount(nodes, minlength=n)
        if np.any(count == 0):
            raise ValueError(f"classes do not cover node {np.flatnonzero(count == 0)[0]}")
        if np.any(count > 1):
            raise ValueError(f"classes repeat node {np.flatnonzero(count > 1)[0]}")
        label = np.empty(n, np.int64)
        label[nodes] = np.repeat(np.arange(len(self.classes)), [c.size for c in self.classes])
        u, v = np.array(graph.edges, dtype=np.int64).reshape(-1, 2).T
        joined = np.flatnonzero(label[u] == label[v])
        if joined.size:
            s, t = u[joined[0]], v[joined[0]]
            raise ValueError(f"class {label[s]} is not independent: it holds "
                             f"adjacent nodes {s} and {t}")


# ---------------------------------------------------------------------------
# construction and io

def load_graph(path):
    """Read an edge list: one 'u v' pair per line, '#' comments, blank lines ok.

    Node ids are arbitrary non-negative integers and get compacted to
    0..n-1 in sorted order; duplicate edges collapse.
    """
    raw_edges = []
    ids = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two node ids, got {body!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer node id in {body!r}") from None
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative node id in {body!r}")
            if u == v:
                raise ValueError(f"{path}:{lineno}: self-loop at node {u}")
            raw_edges.append((u, v))
            ids.update((u, v))
    remap = {orig: k for k, orig in enumerate(sorted(ids))}
    return Graph(len(remap), [(remap[u], remap[v]) for u, v in raw_edges])


def save_graph(graph, path):
    """Write the edge list in the same format load_graph reads."""
    with open(path, "w") as fh:
        fh.write(f"# {graph.node_count} nodes, {graph.edge_count} edges\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def torus_lattice(rows, cols):
    """Four-nearest-neighbour lattice with periodic boundary.

    Parallel wrap edges (side length 2) collapse, so every node has degree 4
    for sides >= 3 and degree 2 on the 2x2 torus.
    """
    rows, cols = int(rows), int(cols)
    if rows < 2 or cols < 2:
        raise ValueError("torus sides must be at least 2")
    edges = []
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            edges.append((s, r * cols + (c + 1) % cols))
            edges.append((s, ((r + 1) % rows) * cols + c))
    return Graph(rows * cols, edges)


def torus_with_chords(rows, cols, chords, seed):
    """Torus plus `chords` extra random non-adjacent node pairs (seeded)."""
    base = torus_lattice(rows, cols)
    chords = int(chords)
    if chords < 0:
        raise ValueError("chords must be non-negative")
    n = base.node_count
    free = n * (n - 1) // 2 - base.edge_count
    if chords > free:
        raise ValueError(f"a {rows}x{cols} torus has {free} free node pairs, "
                         f"{chords} chords requested")
    present = set(base.edges)
    rng = stream(seed, _TAG_CHORDS)
    extra = []
    while len(extra) < chords:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in present:
            continue
        present.add(key)
        extra.append(key)
    return Graph(n, base.edges + tuple(extra))


def knn_geometric_graph(points, k, seed):
    """Symmetrized k-nearest-neighbour graph of seeded uniform points in the unit square."""
    points, k = int(points), int(k)
    if k >= points:
        raise ValueError("k must be smaller than the number of points")
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = stream(seed, _TAG_KNN)
    xy = rng.uniform(0.0, 1.0, size=(points, 2))
    return Graph(points, _nearest_pairs(xy, k))


def _nearest_pairs(xy, k):
    """[s, t] for every point s and each of its k nearest points t, picked as
    a stable argsort of the squared distances would: everything below the
    k-th distance, then the ties at it in index order up to k.  The n x n
    arrays are freed on return, before the caller builds the graph."""
    x, y = xy.T
    d2 = np.subtract.outer(x, x) ** 2 + np.subtract.outer(y, y) ** 2
    np.fill_diagonal(d2, np.inf)
    # the fancy index copies the column, so the partitioned matrix is freed
    kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
    below = d2 < kth
    tie = d2 == kth
    tie &= np.cumsum(tie, axis=1, dtype=np.int32) <= k - below.sum(axis=1, keepdims=True)
    return np.argwhere(below | tie).tolist()


# ---------------------------------------------------------------------------
# spectrum and dependence range

def eigen_bounds(graph, tol=1e-8):
    """(h0, hm): smallest and largest adjacency eigenvalue, each within ~tol.

    Lanczos on H with full reorthogonalisation (Paige 1971; Golub & Van Loan
    sec. 10.1), started from a fixed random vector.  Every few steps the
    extreme Ritz pairs (theta, y) of the tridiagonal T_m are checked; it
    stops once both residuals ||H Q y - theta Q y|| = beta_m |y_m| are
    <= tol, which bounds each eigenvalue error by tol for symmetric H.  The
    Krylov dimension n caps the iteration.  Cached on the graph per
    tolerance.
    """
    if graph.edge_count == 0:
        raise ValueError("eigen bounds need at least one edge")
    cached = graph._eigen_cache.get(tol)
    if cached is not None:
        return cached
    n = graph.node_count
    v = stream(_TAG_POWER).standard_normal(n)
    basis = np.empty((min(n, 64), n))
    basis[0] = v / np.linalg.norm(v)
    diag, off = np.empty(n), np.empty(n)
    for m in range(n):
        q = basis[m]
        w = graph.neighbor_sums(q)
        diag[m] = q @ w
        for _ in range(2):   # classical Gram-Schmidt twice keeps the basis orthonormal
            w -= basis[:m + 1].T @ (basis[:m + 1] @ w)
        off[m] = np.linalg.norm(w)
        if m % _LANCZOS_CHECK_EVERY == _LANCZOS_CHECK_EVERY - 1 or m == n - 1:
            T = np.diag(diag[:m + 1]) + np.diag(off[:m], 1) + np.diag(off[:m], -1)
            theta, y = np.linalg.eigh(T)
            if off[m] * max(abs(y[m, 0]), abs(y[m, -1])) <= tol:
                bounds = (float(theta[0]), float(theta[-1]))
                graph._eigen_cache[tol] = bounds
                return bounds
        if m + 1 == len(basis) < n:   # double the storage, up to n rows
            basis = np.concatenate((basis, np.empty((min(m + 1, n - m - 1), n))))
        if m + 1 < n:
            basis[m + 1] = w / off[m]
    raise PowerIterationError(f"Lanczos did not reach tol={tol} in {n} steps")


def eta_range(graph):
    """Open interval (1/h0, 1/hm) of dependence values keeping I - eta*H invertible."""
    h0, hm = eigen_bounds(graph)
    if h0 >= 0.0 or hm <= 0.0:
        raise ValueError(f"range undefined: need h0 < 0 < hm, got ({h0}, {hm})")
    return 1.0 / h0, 1.0 / hm


# ---------------------------------------------------------------------------
# concliques and splits

def concliques(graph):
    """Greedy proper coloring in descending-degree order; classes are concliques.

    Any proper coloring yields valid classes; greedy bounds the class count
    by max degree + 1.  Cached on the graph.
    """
    if graph._concliques is not None:
        return graph._concliques
    order = sorted(range(graph.node_count), key=lambda s: (-int(graph.degrees[s]), s))
    color = np.full(graph.node_count, -1, dtype=np.int64)
    for s in order:
        used = set(color[graph.neighbors[s]].tolist())
        c = 0
        while c in used:
            c += 1
        color[s] = c
    k = int(color.max()) + 1 if graph.node_count else 1
    classes = tuple(np.flatnonzero(color == c) for c in range(k))
    if graph.node_count == 0:
        classes = (np.empty(0, dtype=np.int64),)
    part = ConcliquePartition(classes)
    graph._concliques = part
    return part


def _bfs_order(graph, start, seen=None):
    """Nodes reachable from `start` in BFS order, never entering a node
    already marked in `seen`; marks the nodes it reaches."""
    if seen is None:
        seen = np.zeros(graph.node_count, dtype=bool)
    order = []
    queue = deque([start])
    seen[start] = True
    while queue:
        s = queue.popleft()
        order.append(s)
        for t in graph.neighbors[s]:
            if not seen[t]:
                seen[t] = True
                queue.append(int(t))
    return np.array(order, dtype=np.int64)


def connected_split(graph, test_fraction, seed):
    """(learn_nodes, test_nodes): test set grown by BFS from a seeded start node.

    The test set is connected by construction.  The learning complement can
    come out disconnected on some graphs; that is reported as a warning, not
    an error.  Deterministic given the seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be strictly between 0 and 1")
    n = graph.node_count
    rng = stream(seed, _TAG_SPLIT)
    order = _bfs_order(graph, int(rng.integers(0, n))) if n else np.empty(0, np.int64)
    if order.size < n:
        raise ValueError("connected_split requires a connected graph")
    target = math.ceil(test_fraction * n)
    if target >= n:
        raise ValueError("test fraction leaves an empty learning set")
    test = np.sort(order[:target])
    seen = np.zeros(n, dtype=bool)
    seen[test] = True
    learn = np.flatnonzero(~seen)

    # learning-set components: a BFS from each learning node not yet seen
    sub = 0
    for s in learn:
        if not seen[s]:
            sub += 1
            _bfs_order(graph, s, seen)
    if sub > 1:
        warnings.warn(f"learning set is disconnected ({sub} components)", stacklevel=2)
    return learn, test
