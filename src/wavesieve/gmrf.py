"""Gaussian Markov random fields on graphs.

Conditional autoregression with dependence eta on the adjacency,
conclique-blocked Gibbs sampling with innovation-coupled chain pairs for
dependent components, an exact joint sampler as oracle, and the marginal
transform onto the unit interval.

Conditionals per node: value | rest ~ N(alpha_s + sum_{t ~ s} c_st (x_t -
alpha_t), tau2_s) with edge weights c_st = eta * sqrt(tau2_s / tau2_t), so the
precision D^{-1/2} (I - eta*H) D^{-1/2}, D = diag(tau2), is symmetric and the
conditionals are compatible on every graph (Besag's symmetry condition).  With
tau2 from `tau_from_eta` every marginal variance of the joint law is one.  In
the standardized state y = (x - alpha) / sqrt(tau2) the chain is the plain
eta-CAR with unit innovations, which is what the Gibbs engine `chain_engine`
advances.  Every sampler draws its standard normals with
`Generator.standard_normal` from the keyed stream of its seed and tag.
"""

import weakref
from dataclasses import dataclass

import numpy as np

from .graphs import _count, _independent_set, _integer, _segments, eta_range
from .rng import normal_cdf, stream

__all__ = [
    "GmrfSpec", "ChainConfig",
    "tau_from_eta", "gibbs_chain", "chain_engine",
    "direct_sample", "joint_covariance", "to_uniform", "field_to_csv",
]

_TAG_CHAIN = 21
_TAG_DIRECT = 22
_TAG_PROBE = 23

_SWEEP_BLOCK = 32   # sweeps per key of a chain stream, measured on the paper config

_TRIANGULAR_BLOCK = 128   # larger blocks are split, so the work goes to matrix products

# the level rule of tau_from_eta, in flops of the dense inverse (its docstring
# gives the measurements)
_FILL_COST = 5000.0   # per fill entry

_PLANS = weakref.WeakKeyDictionary()   # graph -> its _elimination_plan, dropped with the graph


@dataclass(frozen=True)
class ChainConfig:
    iterations: int
    burn_in: int
    seed: int

    def __post_init__(self):
        _check_run(self.iterations, self.burn_in)


def _check_run(iterations, burn_in, trace_every=0):
    """The run length rule of ChainConfig, and a non-negative trace_every;
    each must be an integer, bool excluded, as `Graph` checks its node count."""
    for name, value in (("iterations", iterations), ("burn_in", burn_in),
                        ("trace_every", trace_every)):
        _integer(name, value)
    if iterations < 0 or burn_in < 0:
        raise ValueError("iterations and burn_in must be non-negative")
    if iterations > 0 and burn_in >= iterations:
        raise ValueError("burn_in must be smaller than iterations")
    if trace_every < 0:
        raise ValueError("trace_every must be non-negative")


def tau_from_eta(graph, eta):
    """Conditional variances making every marginal variance of the joint equal one.

    tau2_s = 1 / Sigma_ss for Sigma = M^{-1}, M = I - eta*H, by selected
    inversion: sparse elimination in levels, one dense inverse of the rest
    and Takahashi's backward recursion over the same levels, the route for
    GMRF marginal variances of Takahashi, Fagan & Chen (1973) and Rue &
    Martino (2007).  Each level eliminates a greedy maximal independent set
    C of the pattern of the current Schur complement S, at first M itself.
    S_CC is diagonal, so C goes exactly: each pivot d_c must be positive, and
    each fill triple, an ordered pair (a, b) of neighbours of c, adds
    -s_ca s_cb / d_c to the entry (a, b) of the next complement S'.  The m
    nodes left are inverted densely in place (`_inverse_in_place`), and
    Sigma = S^{-1} is read on their pattern from its lower triangle alone,
    so it is exactly symmetric.  Then each level, last to first, takes Sigma
    on the pattern of S from Sigma on that of S': S's entries that stay keep
    theirs, and for c in C and its neighbours a

        Sigma_ca = Sigma_ac = -sum_b (s_cb / d_c) Sigma_ab,
        Sigma_cc = 1 / d_c - sum_a (s_ca / d_c) Sigma_ca,

    where each Sigma_ab is the entry of S' that a fill triple targets.  tau2
    is 1 / the diagonal of the first level's Sigma.

    The levels depend on the graph alone (`_elimination_plan`), so the plan
    is built once per graph and every later eta reuses it; a map keyed
    weakly by the graph holds it, so it dies with the graph.  A level that
    leaves m' of m nodes saves 2/3 (m^3 - m'^3) flops of the dense inverse
    and costs its fill, sum_{c in C} deg(c)^2 entries.  Levels are added
    while the saving exceeds _FILL_COST flops per fill entry; a level whose
    fill costs more is not built.  The constant is measured at one BLAS
    thread on the knn_fit and dense graphs: a fill entry takes about 200 ns
    to plan, apply and walk back, and each of the 2/3 m^3 flops of the dense
    inverse about 0.04 ns.  The 4900-node chorded torus of the dense
    workload takes 5 levels (m = 1608), the 1600-node kNN graph 5 (m = 607)
    and the paper's 324-node torus 1 (m = 196).  Complete and complete
    bipartite graphs take none, which is the whole-matrix inverse.

    eta must be finite.  The pivots and the dense inverse decide
    admissibility: inertia adds over Schur complements, so M is positive
    definite exactly when every pivot is positive and S is, and S is when
    the Cholesky factor of every leaf of its inverse exists.  A pivot that
    is not positive (nan included) or a failed factor raises the ValueError
    that names eta and the graph's range `eta_range`, computed only then.  A
    node without neighbours is eliminated with pivot one and no fill, so on
    a graph with no edges every finite eta gives ones.  The graph must not
    exceed DENSE_NODE_LIMIT nodes.
    """
    if not np.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    graph.require_dense()
    n = graph.node_count
    if graph not in _PLANS:
        _PLANS[graph] = _elimination_plan(graph)
    levels, indptr, indices = _PLANS[graph]
    # the state of a complement: its diagonal, then its entries off it in CSR order
    v = np.concatenate((np.ones(n), np.full(graph.indices.size, -float(eta))))
    forward = []   # per level, the pivots d_c and the ratios s_ca / d_c
    for level in levels:
        # past the float range a product is inf (or inf - inf nan); the pivot
        # check and the dense inverse both reject those
        with np.errstate(over="ignore", invalid="ignore"):
            d = v[level.pivots]
            if not np.all(d > 0.0):
                _reject(graph, eta)
            ratio = v[level.rows] / d[level.by]
            update = v[level.first] * ratio[level.second]
            v = np.bincount(level.target, np.concatenate((v[level.kept], -update)), level.size)
        forward.append((d, ratio))
    m = indptr.size - 1
    owner = np.repeat(np.arange(m), np.diff(indptr))
    S = np.zeros((m, m))
    np.fill_diagonal(S, v[:m])
    S[owner, indices] = v[m:]
    try:
        _inverse_in_place(S)
    except np.linalg.LinAlgError as exc:
        _reject(graph, eta, exc)
    # the lower triangle alone, so Sigma is exactly symmetric
    lower = S[np.maximum(owner, indices), np.minimum(owner, indices)]
    sigma = np.concatenate((np.diagonal(S), lower))
    for level, (d, ratio) in zip(reversed(levels), reversed(forward)):
        kept = level.kept.size
        # every entry of the level's complement is kept, a pivot, or in a row
        # or a column of C
        size = kept + level.pivots.size + 2 * level.rows.size
        prev = np.bincount(level.first, -ratio[level.second] * sigma[level.target[kept:]], size)
        prev[level.kept] = sigma[level.target[:kept]]
        prev[level.mirror] = prev[level.rows]
        prev[level.pivots] = 1.0 / d - np.bincount(level.by, ratio * prev[level.rows], d.size)
        sigma = prev
    return 1.0 / sigma[:n]


def _reject(graph, eta, cause=None):
    """Raise the ValueError naming eta and the graph's admissible range, which
    is computed only here."""
    lo, hi = eta_range(graph)
    raise ValueError(f"eta={eta} outside the graph's admissible range "
                     f"({lo:.6g}, {hi:.6g}): I - eta*H is not positive definite") from cause


@dataclass(frozen=True)
class _Level:
    """One level of `_elimination_plan`, as positions in the state of its
    complement S (the diagonal, then the entries off it in CSR order).

    The pivots v[pivots] must be positive.  `rows` are the entries (c, a) of
    the rows of C, `mirror` the entries (a, c) and `by` the index in `pivots`
    of each one's c.  Fill triple k pairs the entry v[first[k]], (c, a), with
    the entry (c, b) at rows[second[k]].  The next state has `size` entries
    and sums v[kept], then the fills, into `target`.
    """
    pivots: np.ndarray
    rows: np.ndarray
    mirror: np.ndarray
    by: np.ndarray
    kept: np.ndarray
    first: np.ndarray
    second: np.ndarray
    target: np.ndarray
    size: int


def _elimination_plan(graph):
    """The levels of `tau_from_eta` and the CSR pattern (indptr, indices) of
    the dense tail they leave; both depend on the graph alone.

    A level is the greedy maximal independent set C (`_independent_set`) of
    the current pattern in stable ascending-degree order, as a `_Level`.
    Its fill triples pair every entry (c, a) of a row of C with every entry
    (c, b) of the same row, b = a included.  Positions in the next state
    follow the sorted pattern, so the order of the sums, and with it the
    rounding, depends on the graph alone.
    """
    indptr, indices = graph.indptr, graph.indices
    levels = []
    while True:
        m, deg = indptr.size - 1, np.diff(indptr)
        in_c = _independent_set(indptr, indices, np.argsort(deg, kind="stable"))
        c, rest = np.flatnonzero(in_c), np.flatnonzero(~in_c)
        m2, fills = rest.size, int(np.sum(deg[c] ** 2))
        if not _level_pays(m, m2, fills):
            return levels, indptr, indices
        label = np.zeros(m, np.int64)
        label[rest] = np.arange(m2)
        owner = np.repeat(np.arange(m), deg)
        # C's entries; the rows are sorted, so (a, c) is found by its key a*m + c
        ce = np.flatnonzero(in_c[owner])
        mirror = np.searchsorted(owner * m + indices, indices[ce] * m + owner[ce])
        # the fill: each ordered pair (first, second) of entries of a row of C
        span = np.repeat(deg[c], deg[c])
        first = np.repeat(ce, span)
        second = _segments(np.repeat(np.cumsum(deg[c]) - deg[c], deg[c]), span)
        fa, fb = label[indices[first]], label[indices[ce[second]]]
        kept = np.flatnonzero(~in_c[owner] & ~in_c[indices])
        apart = fa != fb
        pairs, at = np.unique(np.concatenate((label[owner[kept]] * m2 + label[indices[kept]],
                                              fa[apart] * m2 + fb[apart])), return_inverse=True)
        # a fill with a = b targets a's diagonal, the others their entry
        fa[apart] = m2 + at[kept.size:]
        levels.append(_Level(
            pivots=c, rows=m + ce, mirror=m + mirror, by=np.repeat(np.arange(c.size), deg[c]),
            kept=np.concatenate((rest, m + kept)), first=m + first, second=second,
            target=np.concatenate((np.arange(m2), m2 + at[:kept.size], fa)),
            size=m2 + pairs.size))
        rows, indices = np.divmod(pairs, max(m2, 1))
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m2))))


def _level_pays(m, m2, fills):
    """Whether eliminating m - m2 of m nodes with `fills` fill entries saves
    more than it costs, in dense flops."""
    return 2.0 / 3.0 * (m ** 3 - m2 ** 3) > _FILL_COST * fills


def _inverse_in_place(M):
    """Overwrite the symmetric M = [[A, B^T], [B, C]] with M^{-1}, reading only
    its lower triangle: with U = A^{-1} B^T and S = C - B U, M^{-1} is
    [[A^{-1} + U S^{-1} U^T, -U S^{-1}], [-S^{-1} U^T, S^{-1}]], with A^{-1}
    and S^{-1} inverted the same way.  A leaf is X^T X for X the inverse of
    its Cholesky factor; a leaf's LinAlgError means M is not positive
    definite."""
    n = M.shape[0]
    if n <= _TRIANGULAR_BLOCK:
        X = np.linalg.inv(np.linalg.cholesky(M))
        np.matmul(X.T, X, out=M)
        return
    h = n // 2
    A, U, B, C = M[:h, :h], M[:h, h:], M[h:, :h], M[h:, h:]
    _inverse_in_place(A)
    np.matmul(A, B.T, out=U)
    C -= B @ U
    _inverse_in_place(C)
    np.matmul(C, U.T, out=B)
    A += U @ B
    np.negative(B, out=B)
    U[...] = B.T


@dataclass(frozen=True, eq=False)
class GmrfSpec:
    """Conditional autoregression on a graph: mean alpha and dependence eta.

    The per-node conditional variances `tau2` are `tau_from_eta(graph, eta)`
    and edge s-t carries weight eta * sqrt(tau2_s / tau2_t), so the joint law
    is N(alpha, D^{1/2} (I - eta*H)^{-1} D^{1/2}), D = diag(tau2), with every
    marginal variance one.  An inadmissible eta makes construction raise.
    A spec compares and hashes by identity, as its arrays allow no other.
    """
    graph: object
    eta: float
    alpha: np.ndarray = None

    def __post_init__(self):
        n = self.graph.node_count
        tau2 = tau_from_eta(self.graph, self.eta)
        alpha = np.zeros(n) if self.alpha is None else np.broadcast_to(
            np.asarray(self.alpha, dtype=float), (n,)).copy()
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau2", tau2)


def gibbs_chain(spec, partition, cfg, trace_every=0):
    """One chain of `chain_engine`, fed by the stream of `cfg.seed`.

    Returns (final state, trace), where trace stacks every `trace_every`-th
    post-burn-in state, or is None when trace_every == 0.
    """
    x, trace = chain_engine([spec], partition, cfg.iterations, cfg.burn_in,
                            trace_every)([(cfg.seed, None)])
    return x[0], None if trace is None else trace[:, 0]


def chain_engine(specs, partition, iterations, burn_in=0, trace_every=0):
    """Conclique-blocked Gibbs sampler advancing one chain per spec in one
    loop, built up to its streams: returns run(streams) -> (fields, trace).
    The checks, the class order, the slot tables, the state buffers and the
    K0 probe below are done once here.  Each run checks its streams, then
    sweeps them from zero; a rejected run touches no state.  Runs share the
    state buffers, so an engine is not for concurrent callers.

    Each chain starts at its alpha; each sweep visits the classes in index
    order and redraws every node of a class from its conditional given the
    frozen rest (an exact joint update: members are mutually non-adjacent).
    `partition` must be a conclique partition of the graph (checked).
    `streams` holds one (seed, rho) per innovation stream, in chain order:
    rho None feeds one chain, n standard normals per sweep; a float feeds two,
    drawing u then v (n each) per sweep, with u driving the first chain and
    rho*u + sqrt(1 - rho^2)*v the second (|rho| < 1); they must feed one
    chain per spec.  Sweeps b*S .. b*S + S - 1, S = _SWEEP_BLOCK = 32, are
    one `standard_normal((k, n))` or `((k, 2, n))` call on `stream(seed,
    _TAG_CHAIN, b)`, k <= S; the key depends only on the sweep index, so
    batching, coupling and tracing keep each chain's innovations.
    The innovation at position p of a sweep goes to the p-th node of the
    classes laid end to end.

    The chains advance the standardized y = (x - alpha) / sqrt(tau2), whose
    update is the sum of the neighbours' eta*y plus the unit innovation.  The
    rows are renumbered once so that every class is contiguous, and the state
    is stored node-major, one column per chain, as u = eta*y, followed by the
    sweep's innovations and one zero row.  Each class has a (width, size)
    slot table, width its largest degree plus one: column r lists its r-th
    member's neighbours' rows in CSR order, then that member's innovation
    row, then the zero row for the slots left.  A class update is then three
    calls: one `take` gathers the slots, one `np.add.reduce` over the slot
    axis sums each column left to right, (((u_1 + u_2) + ...) + u_d) + z,
    into the class's rows of y (the trailing zeros add exactly), and one
    multiply by eta writes those rows of u.  y is kept apart from u, so an
    eta = 0 chain returns its innovations exactly.

    `iterations` keeps its meaning, but when trace_every == 0 only the last K
    sweeps run, from zero: the sweep is linear, y' = A y + B z, so the state K
    sweeps before the end reaches the final state only through A^K.  K = 2*K0,
    where K0 counts the engine's own sweeps on zero innovations that bring
    every chain's max|y| below 2^-60 of a fixed start (drawn from a stream of
    its own), so the skipped sweeps reach the final state only below 2^-60
    relative; the tests check that the final state has the bits of a full
    run.  Every sweep runs when a trace is asked for, or when the probe
    reaches (iterations - 1) // 3 sweeps, past which skipping cannot pay.  K
    depends only on the graph, the partition, the etas and iterations.  A key
    block that ends at or before the first swept sweep is never drawn; the
    innovations of the sweeps that do run are those of a full run.

    run returns the (chains, n) final states alpha + sqrt(tau2) * y and the
    stack of every `trace_every`-th post-burn-in state, shape (kept, chains,
    n), or None when trace_every == 0.
    """
    _check_run(iterations, burn_in, trace_every)
    if not specs:
        raise ValueError("chain_engine needs at least one spec")
    graph, chains = specs[0].graph, len(specs)
    if any(spec.graph is not graph for spec in specs):
        raise ValueError("batched chains must share one graph")
    partition.validate(graph)
    n = graph.node_count
    if n == 0:
        raise ValueError("chain_engine needs a graph with at least one node")
    alpha = np.array([spec.alpha for spec in specs])
    sd = np.sqrt(np.array([spec.tau2 for spec in specs]))
    eta = np.array([spec.eta for spec in specs])
    # class order: row r holds node order[r]; rank, its inverse, maps a node to its row
    order = np.concatenate([np.empty(0, np.int64), *partition.classes])
    rank = np.argsort(order)
    # rows 0..n-1: u = eta*y, rows n..2n-1: the innovations, row 2n: zero
    src = np.zeros((2 * n + 1, chains))
    u, innovation = src[:n], src[n:2 * n]
    y = np.zeros((n, chains))
    # per class: flat gather indices of its (width, size) slots, gather buffer,
    # class rows of y and u; slot column r holds row r's neighbours' rows in
    # CSR order, then its innovation row n + r, then the zero row
    plan, lo = [], 0
    for cls in partition.classes:
        hi, deg = lo + cls.size, graph.degrees[cls]
        slots = np.full((deg.max(initial=0) + 1, cls.size), 2 * n)
        slots.T[np.arange(slots.shape[0]) < deg[:, None]] = rank[
            graph.indices[_segments(graph.indptr[cls], deg)]]
        slots[deg, np.arange(cls.size)] = np.arange(n + lo, n + hi)
        idx = slots[..., None] * chains + np.arange(chains)
        plan.append((idx, np.empty(idx.shape), y[lo:hi], u[lo:hi]))
        lo = hi
    flat = src.reshape(-1)

    def sweep():
        for idx, nbrs, y_cls, u_cls in plan:
            # every index is in range; "clip" spares the copy "raise" makes of out
            flat.take(idx, out=nbrs, mode="clip")
            # a reduce over the outer axis adds the slots left to right
            np.add.reduce(nbrs, axis=0, out=y_cls)
            np.multiply(y_cls, eta, out=u_cls)

    # the probe for K0: sweeps before skip = iterations - 2*K0 are not run
    skip = 0
    if not trace_every:
        y[...] = stream(0, _TAG_PROBE).standard_normal((n, chains))
        np.multiply(y, eta, out=u)
        tol = 2.0 ** -60 * np.abs(y).max(axis=0)
        for k0 in range(1, (iterations - 1) // 3 + 1):
            sweep()
            if np.all(np.abs(y).max(axis=0) < tol):
                skip = iterations - 2 * k0
                break

    def field(ys):
        """alpha + sqrt(tau2) * y in node order from rows of y in class order."""
        return alpha + sd * np.swapaxes(ys[..., rank, :], -1, -2)

    def run(streams):
        if any(rho is not None and not -1.0 < rho < 1.0 for _, rho in streams):
            raise ValueError("|rho| must be below 1")
        if sum(1 if rho is None else 2 for _, rho in streams) != chains:
            raise ValueError("streams must feed exactly one chain per spec")
        y[...], u[...] = 0.0, 0.0
        z = np.empty((min(_SWEEP_BLOCK, iterations), n, chains))
        kept = []
        # a key block that ends at or before skip is never drawn
        for start in range(skip - skip % _SWEEP_BLOCK, iterations, _SWEEP_BLOCK):
            k, c = min(_SWEEP_BLOCK, iterations - start), 0
            for seed, rho in streams:
                rng = stream(seed, _TAG_CHAIN, start // _SWEEP_BLOCK)
                draws = rng.standard_normal((k, n) if rho is None else (k, 2, n))
                if rho is None:
                    z[:k, :, c] = draws
                else:
                    a, b = draws.transpose(1, 0, 2)
                    z[:k, :, c], z[:k, :, c + 1] = a, rho * a + np.sqrt(1.0 - rho * rho) * b
                c += 1 if rho is None else 2
            for it in range(max(start, skip), start + k):
                innovation[...] = z[it - start]
                sweep()
                if trace_every and it >= burn_in and (it - burn_in) % trace_every == 0:
                    kept.append(y.copy())
        return field(y), field(np.array(kept).reshape(-1, n, chains)) if trace_every else None

    return run


def joint_covariance(spec):
    """(covariance, asymmetry) of the joint law the conditionals imply.

    The covariance D^{1/2} (I - eta*H)^{-1} D^{1/2} is formed as M^T M with
    M = L^{-1} D^{1/2}, so it is symmetric by construction; the max entrywise
    asymmetry residual is returned as a check.  L L^T = I - eta*H is numpy's
    whole-matrix factor (`_dense_inverse_factor`).
    """
    M = _dense_inverse_factor(spec)
    M *= np.sqrt(spec.tau2)
    cov = M.T @ M
    return cov, float(np.max(np.abs(cov - cov.T))) if cov.size else 0.0


def direct_sample(spec, seed, count=None):
    """Exact draw(s) alpha + sqrt(tau2) * (z^T L^{-1}) from the joint law, with
    L L^T = I - eta*H numpy's whole-matrix factor (`_dense_inverse_factor`).

    `count=None` returns one draw of shape (n,); a non-negative integer,
    bool excluded, returns an array of shape (count, n); any other count
    raises the ValueError naming it.
    """
    n = spec.graph.node_count
    shape = n if count is None else (_count("count", count), n)
    z = stream(seed, _TAG_DIRECT).standard_normal(shape)
    return spec.alpha + np.sqrt(spec.tau2) * (z @ _dense_inverse_factor(spec))


def _dense_inverse_factor(spec):
    """L^{-1} for L L^T = I - eta*H, numpy's whole-matrix Cholesky factor of
    the dense adjacency.  The oracles above share it and no code with
    `tau_from_eta`."""
    n = spec.graph.node_count
    return np.linalg.inv(np.linalg.cholesky(np.eye(n) - spec.eta * spec.graph.adjacency()))


def to_uniform(values):
    """Map standard normal field values through the normal distribution
    function onto (0, 1)."""
    return np.atleast_1d(normal_cdf(np.asarray(values, dtype=float)))


def field_to_csv(values, path):
    with open(path, "w") as fh:
        fh.write("node_id,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")
