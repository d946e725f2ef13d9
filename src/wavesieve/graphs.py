"""Finite undirected graphs and lattices.

Construction and edge-list file io, extreme adjacency eigenvalues by
Lanczos, the admissible dependence range they induce, conclique (proper
color class) partitions, and connected learn/test splits grown by BFS.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .rng import stream

__all__ = [
    "Graph", "ConcliquePartition", "PowerIterationError",
    "load_graph", "save_graph", "torus_lattice", "torus_with_chords",
    "knn_geometric_graph", "eigen_bounds", "eta_range", "concliques",
    "split_order", "connected_split",
]

DENSE_NODE_LIMIT = 5000

# Ritz values are checked every this many Lanczos steps: the dense
# tridiagonal eigh per check would otherwise cost more than the steps
_LANCZOS_CHECK_EVERY = 8

# rows of squared distances the kNN builder's exact path forms at once, and
# the most candidates a grid block may hold before its rows take that path
_KNN_ROW_BLOCK = 256

# relative slack of the kNN grid certificate; the rounding of the cell
# coordinates and of the squared distances it covers is near 1e-15
_KNN_CERTIFICATE_SLACK = 1e-9

# internal stream tags so one root seed can serve several operations
_TAG_KNN = 11
_TAG_CHORDS = 12
_TAG_SPLIT = 13
_TAG_POWER = 14


class PowerIterationError(RuntimeError):
    """Raised when the eigenvalue iteration fails to reach tolerance within the cap."""


class Graph:
    """Immutable undirected graph on nodes 0..n-1 without self loops.

    A plain value holding its adjacency once, as CSR arrays (`indptr`,
    `indices`, `degrees`): node s's neighbours, increasing, are
    indices[indptr[s]:indptr[s+1]].  `edges` and `edge_count` are computed
    from those arrays on each access, and nothing is stored later, so a graph
    is safe to share across threads.
    """

    def __init__(self, node_count, edges):
        if not np.issubdtype(type(node_count), np.integer) or node_count < 0:
            raise ValueError(f"node_count must be a non-negative integer, got {node_count!r}")
        n = int(node_count)
        pairs = _node_pairs(edges)
        s, t = pairs.T
        bad = np.flatnonzero((s == t) | (np.minimum(s, t) < 0) | (np.maximum(s, t) >= n))
        if bad.size:
            s, t = pairs[bad[0]].tolist()
            if s == t:
                raise ValueError(f"self-loop at node {s}")
            raise ValueError(f"edge ({s},{t}) outside 0..{n - 1}")
        # sorted keys head*n + tail of both directions are the CSR entries in
        # row order; np.unique would add 1.5 MB RSS
        keys = np.concatenate((s * n + t, t * n + s))
        keys.sort()
        heads, self.indices = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
        self.node_count = n
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(heads, minlength=n))))
        self.degrees = np.diff(self.indptr)

    @property
    def edges(self):
        """The edges as a tuple of (s, t) Python-int pairs, s < t, in
        increasing order: the CSR entries above the diagonal, row by row."""
        heads = np.repeat(np.arange(self.node_count), self.degrees)
        upper = heads < self.indices
        return tuple(zip(heads[upper].tolist(), self.indices[upper].tolist()))

    @property
    def edge_count(self):
        """Number of edges: each is stored once in either direction."""
        return self.indices.size // 2

    def neighbor_sums(self, x):
        """Vector of sums of x over each node's neighbors (H @ x).

        Each node's sum is one `np.add.reduceat` segment over its CSR row,
        neighbours in increasing order, on every graph, so the sums depend
        neither on the graph's size nor on the BLAS a dense H @ x would call.
        """
        if np.shape(x) != (self.node_count,):
            raise ValueError(f"x must have shape ({self.node_count},), one entry per node, "
                             f"got shape {np.shape(x)}")
        sums = np.zeros(self.node_count)
        rows = self.degrees > 0
        sums[rows] = np.add.reduceat(x[self.indices], self.indptr[:-1][rows])
        return sums

    def require_dense(self):
        """Raise ValueError if the graph has more nodes than dense n x n
        algebra is allowed (DENSE_NODE_LIMIT)."""
        if self.node_count > DENSE_NODE_LIMIT:
            raise ValueError(
                f"dense adjacency limited to {DENSE_NODE_LIMIT} nodes, "
                f"graph has {self.node_count}")

    def adjacency(self):
        """A fresh dense symmetric 0/1 adjacency matrix (limited to small
        graphs); the caller owns it and may overwrite it."""
        self.require_dense()
        H = np.zeros((self.node_count, self.node_count))
        H[np.repeat(np.arange(self.node_count), self.degrees), self.indices] = 1.0
        return H

    def __repr__(self):
        return f"Graph(nodes={self.node_count}, edges={self.edge_count})"


@dataclass(frozen=True, eq=False)
class ConcliquePartition:
    """Node classes no two members of which are adjacent.

    Each class is taken as a 1-D array of integer node ids, bool excluded;
    anything else raises the ValueError naming the class.  A partition
    compares and hashes by identity."""
    classes: tuple

    def __post_init__(self):
        classes = tuple(map(np.asarray, self.classes))
        for k, cls in enumerate(classes):
            if cls.ndim != 1 or not np.issubdtype(cls.dtype, np.integer):
                raise ValueError(f"class {k} must be a 1-D array of integer node ids, "
                                 f"got dtype {cls.dtype} and shape {cls.shape}")
        object.__setattr__(self, "classes", tuple(c.astype(np.int64, copy=False) for c in classes))

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
        # entries run in (s, t) order, so the first joined one is the first joined
        # edge: it has s < t, or row t would have held the pair earlier
        u, v = np.repeat(np.arange(n), graph.degrees), graph.indices
        joined = np.flatnonzero(label[u] == label[v])
        if joined.size:
            s, t = u[joined[0]], v[joined[0]]
            raise ValueError(f"class {label[s]} is not independent: it holds "
                             f"adjacent nodes {s} and {t}")


# ---------------------------------------------------------------------------
# construction and io

def _integer(name, value):
    """int(value) for an integer `value`, bool excluded, as `Graph` checks its
    node count; otherwise a ValueError naming `name`, so 6.7 is not cut to 6."""
    if not np.issubdtype(type(value), np.integer):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _count(name, value):
    """`_integer(name, value)`, which must not be negative; otherwise a
    ValueError naming `name`."""
    value = _integer(name, value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def _node_pairs(edges):
    """`edges` as an (E, 2) int64 array.  Node ids must be integers, bool
    excluded; the ValueError names the first edge holding another id."""
    if isinstance(edges, np.ndarray):
        kinds = {edges.dtype.type}
    else:
        edges = list(edges)
        kinds = set(map(type, chain.from_iterable(edges)))
    # numpy counts int and the numpy integers as integer types, not bool
    if not all(np.issubdtype(kind, np.integer) for kind in kinds):
        for u, v in edges:
            if not (np.issubdtype(type(u), np.integer) and np.issubdtype(type(v), np.integer)):
                raise ValueError(f"edge ({u!r},{v!r}) has a node id that is not an integer")
    return np.array(edges, dtype=np.int64).reshape(len(edges), 2)


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
    """Write the edge list in the same format load_graph reads.  An edge list
    cannot hold a node without edges, so a graph with one raises the
    ValueError naming the first, and nothing is written."""
    isolated = np.flatnonzero(graph.degrees == 0)
    if isolated.size:
        raise ValueError(f"node {isolated[0]} has no edges, which an edge list cannot hold")
    with open(path, "w") as fh:
        fh.write(f"# {graph.node_count} nodes, {graph.edge_count} edges\n")
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def torus_lattice(rows, cols):
    """Four-nearest-neighbour lattice with periodic boundary.

    Parallel wrap edges (side length 2) collapse, so every node has degree 4
    for sides >= 3 and degree 2 on the 2x2 torus.
    """
    return torus_with_chords(rows, cols, 0, 0)


def torus_with_chords(rows, cols, chords, seed):
    """Torus plus `chords` extra random non-adjacent node pairs (seeded);
    with no chords nothing is drawn and the graph is `torus_lattice`'s."""
    rows, cols, chords = _integer("rows", rows), _integer("cols", cols), _count("chords", chords)
    if rows < 2 or cols < 2:
        raise ValueError("torus sides must be at least 2")
    n = rows * cols
    # each node's edges to its right and lower neighbours, wrapping; on a side
    # of length 2 both directions give one pair, so the pairs are deduplicated
    s = np.tile(np.arange(n), 2)
    r, c = np.divmod(s[:n], cols)
    t = np.concatenate((r * cols + (c + 1) % cols, (r + 1) % rows * cols + c))
    present = set((np.minimum(s, t) * n + np.maximum(s, t)).tolist())
    free = n * (n - 1) // 2 - len(present)
    if chords > free:
        raise ValueError(f"a {rows}x{cols} torus has {free} free node pairs, "
                         f"{chords} chords requested")
    rng = stream(seed, _TAG_CHORDS)
    extra = []
    while len(extra) < chords:
        # one draw of two per attempt: batching them would change the chords
        u, v = rng.integers(0, n, size=2).tolist()
        if u == v:
            continue
        key = u * n + v if u < v else v * n + u
        if key in present:
            continue
        present.add(key)
        extra.append(key)
    return Graph(n, np.concatenate((np.stack((s, t), axis=1),
                                    np.stack(np.divmod(np.array(extra, np.int64), n), axis=1))))


def knn_geometric_graph(points, k, seed):
    """Symmetrized k-nearest-neighbour graph of seeded uniform points in the unit square."""
    points, k = _integer("points", points), _integer("k", k)
    if k >= points:
        raise ValueError("k must be smaller than the number of points")
    if k < 1:
        raise ValueError("k must be at least 1")
    rng = stream(seed, _TAG_KNN)
    xy = rng.uniform(0.0, 1.0, size=(points, 2))
    return Graph(points, _nearest_pairs(xy, k))


def _nearest_pairs(xy, k):
    """[s, t] for every point s and each of its k nearest points t, in
    increasing (s, t) order, picked as a stable argsort of the squared
    distances would: everything below the k-th distance, then the ties at it
    in index order up to k (`_pick_nearest`).

    Each row is first judged on candidates: the points are bucketed into a
    G x G grid on their bounding box, G = isqrt(n // k), about k points per
    cell (an axis of zero extent is one cell wide), and a row's candidates
    are the points of its cell's 3 x 3 block, in index order.  Every point
    outside the block lies beyond one of the block's inner edges, so a row
    whose k-th candidate distance is below the squared distance to the
    nearest inner edge (edges on the bounding box are infinitely far), with
    a relative slack of _KNN_CERTIFICATE_SLACK for rounding, has the same
    picks among all points.  The other rows, and the rows of any block of
    more than _KNN_ROW_BLOCK candidates, take the exact path: distances to
    all points, _KNN_ROW_BLOCK rows at a time.  Both paths compute the
    distances as (x_s - x_t)**2 + (y_s - y_t)**2, so the picks do not depend
    on the path, and no array held is larger than n x _KNN_ROW_BLOCK, never
    n x n.  On uniform points almost every row is certified, which costs
    O(n k) expected time (Bentley, Weide & Yao 1980)."""
    x, y = xy.T
    n = len(xy)
    lo = xy.min(axis=0)
    extent = xy.max(axis=0) - lo
    side = np.where(extent > 0, math.isqrt(n // k), 1)
    scale = np.divide(side, extent, out=np.zeros(2), where=extent > 0)
    u = (xy - lo) * scale   # cell coordinates, >= 0, so truncation floors them
    cell = np.minimum(u.astype(np.int64), side - 1)

    # each cell's block: the candidates of its 3 x 3 neighbourhood, in index
    # order, padded with the sentinel n whose coordinates read +inf to at
    # least k columns, so every row has a k-th distance to partition on
    ids = cell[:, 0] * side[1] + cell[:, 1]
    counts = np.bincount(ids, minlength=side.prod())
    starts = np.cumsum(counts) - counts
    cx, cy = np.divmod(np.arange(side.prod()), side[1])
    ox, oy = np.divmod(np.arange(9), 3)
    nx, ny = cx[:, None] + ox - 1, cy[:, None] + oy - 1
    inside = (nx >= 0) & (nx < side[0]) & (ny >= 0) & (ny < side[1])
    near = np.where(inside, nx * side[1] + ny, 0)
    sizes = np.where(inside, counts[near], 0)
    small = np.flatnonzero(sizes.sum(axis=1) <= _KNN_ROW_BLOCK)
    fill = sizes[small].sum(axis=1)
    members = np.argsort(ids, kind="stable")[_segments(starts[near[small]].ravel(),
                                                       sizes[small].ravel())]
    blocks = np.full((small.size, max(fill.max(initial=0), k)), n)
    blocks[np.repeat(np.arange(small.size), fill), _segments(np.zeros_like(fill), fill)] = members
    blocks.sort(axis=1)
    slot = np.full(side.prod(), -1)
    slot[small] = np.arange(small.size)

    rows = np.flatnonzero(slot[ids] >= 0)
    cand = blocks[slot[ids[rows]]]
    d2 = (x[rows, None] - np.append(x, np.inf)[cand]) ** 2
    d2 += (y[rows, None] - np.append(y, np.inf)[cand]) ** 2
    d2[cand == rows[:, None]] = np.inf
    picked, kth = _pick_nearest(d2, k)
    # distance, in cell units then in coordinates, to the block's nearest inner edge
    c, uc = cell[rows], u[rows]
    gap = np.minimum(np.where(c > 1, uc - (c - 1), np.inf),
                     np.where(c + 2 < side, (c + 2) - uc, np.inf))
    gap = np.divide(gap, scale, out=np.full_like(gap, np.inf), where=np.isfinite(gap))
    certified = kth[:, 0] < gap.min(axis=1) ** 2 * (1.0 - _KNN_CERTIFICATE_SLACK)

    nearest = np.empty((n, k), np.int64)
    nearest[rows[certified]] = cand[picked].reshape(-1, k)[certified]
    exact = np.ones(n, bool)
    exact[rows[certified]] = False
    exact = np.flatnonzero(exact)
    for start in range(0, exact.size, _KNN_ROW_BLOCK):
        r = exact[start:start + _KNN_ROW_BLOCK]
        d2 = np.subtract.outer(x[r], x) ** 2 + np.subtract.outer(y[r], y) ** 2
        d2[np.arange(r.size), r] = np.inf
        nearest[r] = np.nonzero(_pick_nearest(d2, k)[0])[1].reshape(-1, k)
    return np.stack((np.repeat(np.arange(n), k), nearest.ravel()), axis=1)


def _pick_nearest(d2, k):
    """(picked, kth): the mask of each row's k picks among the squared
    distances d2, as a stable argsort would take them (everything below the
    row's k-th distance, then the ties at it in index order up to k), and
    the k-th distances as a column."""
    # the fancy index copies the column, so the partitioned block is freed
    kth = np.partition(d2, k - 1, axis=1)[:, [k - 1]]
    below = d2 < kth
    tie = d2 == kth
    tie &= np.cumsum(tie, axis=1, dtype=np.int32) <= k - below.sum(axis=1, keepdims=True)
    return below | tie, kth


# ---------------------------------------------------------------------------
# spectrum and dependence range

def eigen_bounds(graph, tol=1e-8):
    """(h0, hm): smallest and largest adjacency eigenvalue, each within ~tol.

    Lanczos on H with full reorthogonalisation (Paige 1971; Golub & Van Loan
    sec. 10.1), started from a fixed random vector.  Every few steps the
    extreme Ritz pairs (theta, y) of the tridiagonal T_m are checked; it
    stops once both residuals ||H Q y - theta Q y|| = beta_m |y_m| are
    <= tol, which bounds each eigenvalue error by tol for symmetric H.  As
    |y_m| <= 1, a step whose beta_m is <= tol is checked at once: an exact
    or numerical breakdown of the Krylov space (beta_m = 0 or at rounding
    level) stops there instead of dividing by beta_m.  The Krylov dimension
    n caps the iteration.
    """
    if graph.edge_count == 0:
        raise ValueError("eigen bounds need at least one edge")
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
        if off[m] <= tol or m % _LANCZOS_CHECK_EVERY == _LANCZOS_CHECK_EVERY - 1 or m == n - 1:
            T = np.diag(diag[:m + 1]) + np.diag(off[:m], 1) + np.diag(off[:m], -1)
            theta, y = np.linalg.eigh(T)
            if off[m] * max(abs(y[m, 0]), abs(y[m, -1])) <= tol:
                return float(theta[0]), float(theta[-1])
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
    """Greedy proper coloring in stable descending-degree order, by classes:
    class k is the greedy independent set (`_independent_set`) of the nodes
    no earlier class took, the class k of first-fit coloring in that order.
    Greedy bounds the class count by max degree + 1."""
    order = np.argsort(-graph.degrees, kind="stable")
    classes = []
    while order.size or not classes:   # no nodes still make one (empty) class
        taken = _independent_set(graph.indptr, graph.indices, order)
        classes.append(np.flatnonzero(taken))
        order = order[~taken[order]]
    return ConcliquePartition(tuple(classes))


def _independent_set(indptr, indices, order):
    """Boolean mask of the greedy independent set of the nodes of `order` in
    the CSR pattern (indptr, indices): the nodes are visited in that order,
    and each one none of whose neighbours was taken is taken."""
    taken = np.zeros(indptr.size - 1, bool)
    blocked = np.zeros(indptr.size - 1, bool)
    bounds = indptr.tolist()
    for s in order.tolist():
        if not blocked[s]:
            taken[s] = True
            blocked[indices[bounds[s]:bounds[s + 1]]] = True
    return taken


def _segments(starts, counts):
    """The ranges starts[i] .. starts[i] + counts[i] - 1, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if ends.size else 0)


def _bfs_order(graph, start, seen):
    """Nodes reachable from `start` in first-in first-out BFS order, never
    entering a node already marked in `seen`; marks the nodes it reaches.
    Each level is the unmarked neighbours of the last, gathered in its order
    and each node's CSR order and kept at their first occurrence, as a queue
    would take them."""
    level, levels = np.array([start]), []
    seen[start] = True
    while level.size:
        levels.append(level)
        reach = graph.indices[_segments(graph.indptr[level], graph.degrees[level])]
        reach = reach[~seen[reach]]
        level = reach[np.sort(np.unique(reach, return_index=True)[1])]
        seen[level] = True
    return np.concatenate(levels)


def split_order(graph, test_fraction, start=0):
    """(order, size): every node in the first-in first-out BFS order from
    `start` that takes each node's neighbours in increasing order, and the
    test-set size ceil(test_fraction * n) of a connected split.

    Raises ValueError when test_fraction is not strictly between 0 and 1,
    when the graph is not connected, or when the test set would hold every
    node.  Each depends on the graph and the fraction alone, so a run checks
    them once, before its first replication."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be strictly between 0 and 1")
    n = graph.node_count
    order = _bfs_order(graph, start, np.zeros(n, dtype=bool)) if n else np.empty(0, np.int64)
    if order.size < n:
        raise ValueError("connected_split requires a connected graph")
    size = math.ceil(test_fraction * n)
    if size >= n:
        raise ValueError("test fraction leaves an empty learning set")
    return order, size


def connected_split(graph, test_fraction, seed):
    """(learn_nodes, test_nodes): test set grown by BFS from a seeded start node.

    The test set, connected by construction, is the first ceil(test_fraction
    * n) nodes of the `split_order` from that node; results.csv's bytes
    depend on that order.  The learning complement can come out disconnected
    on some graphs; that is reported as a warning, not an error.
    Deterministic given the seed.
    """
    n = graph.node_count
    rng = stream(seed, _TAG_SPLIT)
    order, target = split_order(graph, test_fraction, int(rng.integers(0, n)) if n else 0)
    test = np.sort(order[:target])
    seen = np.ones(n, dtype=bool)
    seen[order[target:]] = False
    learn = np.flatnonzero(~seen)

    # learning-set components: a walk from each node still unmarked
    sub = 0
    while not seen.all():
        sub += 1
        _bfs_order(graph, int(np.argmin(seen)), seen)
    if sub > 1:
        warnings.warn(f"learning set is disconnected ({sub} components)", stacklevel=2)
    return learn, test
