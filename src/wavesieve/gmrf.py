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
eta-CAR with unit innovations, which is what the Gibbs engine `gibbs_chains`
advances.  Every sampler draws its standard normals with
`Generator.standard_normal` from the keyed stream of its seed and tag.
"""

from dataclasses import dataclass

import numpy as np

from .graphs import eta_range
from .rng import normal_cdf, stream

__all__ = [
    "GmrfSpec", "ChainConfig",
    "tau_from_eta", "gibbs_chain", "gibbs_chains",
    "direct_sample", "joint_covariance", "to_uniform", "field_to_csv",
]

_TAG_CHAIN = 21
_TAG_DIRECT = 22
_TAG_PROBE = 23

_SWEEP_BLOCK = 32   # sweeps per key of a chain stream, measured on the paper config

_TRIANGULAR_BLOCK = 128   # larger blocks are split, so the work goes to matrix products


@dataclass(frozen=True)
class ChainConfig:
    iterations: int
    burn_in: int
    seed: int

    def __post_init__(self):
        _check_run(self.iterations, self.burn_in)


def _check_run(iterations, burn_in, trace_every=0):
    """The run length rule of ChainConfig, and a non-negative trace_every."""
    if iterations < 0 or burn_in < 0:
        raise ValueError("iterations and burn_in must be non-negative")
    if iterations > 0 and burn_in >= iterations:
        raise ValueError("burn_in must be smaller than iterations")
    if trace_every < 0:
        raise ValueError("trace_every must be non-negative")


def tau_from_eta(graph, eta):
    """Conditional variances making every marginal variance of the joint equal one.

    tau2_s = 1 / [M^{-1}]_{ss} for M = I - eta*H, without factoring M.  A
    greedy maximal independent set C (`_independent_set`) has M_CC = I, so C
    is eliminated exactly: with R the other m nodes, the Schur complement

        S = I - eta*H_RR - eta^2 * H_RC H_CR

    is m x m, and M^{-1} has the blocks [M^{-1}]_RR = S^{-1} and [M^{-1}]_CC
    = I + eta^2 * H_CR S^{-1} H_RC.  With S = L L^T the diagonals are, for r
    in R, the column sums of squares of L^{-1}, and for c in C, 1 + ||eta *
    sum_{r ~ c} L^{-1}[:, r]||^2 (scaled by eta before squaring, so that a
    node without neighbours gets exactly one for every finite eta).  S is
    formed from the adjacency lists: -eta at each edge inside R, and -eta^2
    at (r, r') for each ordered pair of neighbours of each c in C.

    The work is sum_c deg(c)^2 to form S, 2/3 m^3 to factor it and m * sum_c
    deg(c) to read the tau2_c, against 2/3 n^3 for M; m = 2969 on the
    4900-node chorded torus.  It exceeds M's when the nodes of C have degree
    near m: K_{400,400} takes about 0.4 CPU s against 0.023 s (one BLAS thread).

    eta must be finite, and the factorization of S decides admissibility:
    M_CC = I is positive definite and inertia adds over the Schur complement,
    so M is positive definite exactly when S is, i.e. when eta lies in
    (1/h0, 1/hm).  If it is not, the ValueError names eta and the range
    `eta_range` of the graph, computed only then.  On a graph with no edges
    every node is in C, so every finite eta gives ones.  The graph must not
    exceed DENSE_NODE_LIMIT nodes.
    """
    if not np.isfinite(eta):
        raise ValueError(f"eta must be finite, got {eta!r}")
    graph.require_dense()
    n, degrees = graph.node_count, graph.degrees
    in_c = _independent_set(graph)
    rest = np.flatnonzero(~in_c)
    m = rest.size
    # rank maps a node of R to its row of S
    rank = np.zeros(n, np.int64)
    rank[rest] = np.arange(m)
    # S = I - eta*H_RR, less eta^2 at each ordered pair of neighbours of each c
    S = np.zeros((m, m))
    flat = S.reshape(-1)
    flat[::m + 1] = 1.0
    owner = np.repeat(np.arange(n), degrees)
    inside = ~in_c[owner] & ~in_c[graph.indices]
    flat[rank[owner[inside]] * m + rank[graph.indices[inside]]] -= eta
    # a Python float, so that an eta^2 past the float range is inf, not a
    # warning; the factor of S then rejects it
    eta2 = float(eta) * float(eta)
    for c in np.flatnonzero(in_c).tolist():
        nbr = rank[graph.neighbors[c]]
        flat[(nbr[:, None] * m + nbr).ravel()] -= eta2
    try:
        _cholesky_inverse_in_place(S)
    except np.linalg.LinAlgError as exc:
        lo, hi = eta_range(graph)
        raise ValueError(f"eta={eta} outside the graph's admissible range "
                         f"({lo:.6g}, {hi:.6g}): I - eta*H is not positive definite") from exc

    tau2 = np.ones(n)
    tau2[rest] = 1.0 / np.einsum("ij,ij->j", S, S)
    # the nodes of C with neighbours, by stable descending degree, so that
    # those with a k-th neighbour come first; cols[k] holds the positions in R
    # of their k-th neighbours
    cs = np.flatnonzero(in_c & (degrees > 0))
    cs = cs[np.argsort(-degrees[cs], kind="stable")]
    cols = [rank[graph.indices[graph.indptr[cs[degrees[cs] > k]] + k]]
            for k in range(degrees[cs].max(initial=0))]
    # ||eta * sum_{r ~ c} L^{-1}[:, r]||^2 over row blocks of L^{-1}, each
    # block's sums at most m^2 / 8 entries; every r in R has a neighbour in C,
    # so cs is empty only when R is
    sq = np.zeros(cs.size)
    rows = max(1, m * m // (8 * max(cs.size, 1)))
    for lo in range(0, m, rows):
        block = S[lo:lo + rows]
        w = block.take(cols[0], axis=1)
        for col in cols[1:]:
            w[:, :col.size] += block.take(col, axis=1)
        w *= eta
        sq += np.einsum("ij,ij->j", w, w)
    tau2[cs] = 1.0 / (1.0 + sq)
    return tau2


def _independent_set(graph):
    """Boolean mask of a greedy maximal independent set: the nodes are visited
    in stable ascending-degree order, and each one none of whose neighbours
    was taken is taken."""
    taken = np.zeros(graph.node_count, bool)
    blocked = np.zeros(graph.node_count, bool)
    for s in np.argsort(graph.degrees, kind="stable").tolist():
        if not blocked[s]:
            taken[s] = True
            blocked[graph.neighbors[s]] = True
    return taken


def _cholesky_inverse_in_place(M):
    """Overwrite M = [[A, .], [B, C]] = L L^T with L^{-1} = [[X, 0], [-Y B X^T X, Y]],
    X and Y the inverse factors of A and of C - B X^T X B^T (Gustavson's recursive
    blocking); a leaf's LinAlgError means M is not positive definite."""
    n = M.shape[0]
    if n <= _TRIANGULAR_BLOCK:
        M[...] = np.tril(np.linalg.inv(np.linalg.cholesky(M)))
        return
    h = n // 2
    A, B, C = M[:h, :h], M[h:, :h], M[h:, h:]
    _cholesky_inverse_in_place(A)
    B[...] = B @ A.T
    C -= B @ B.T
    _cholesky_inverse_in_place(C)
    np.matmul(C, B @ A, out=B)
    np.negative(B, out=B)
    M[:h, h:] = 0.0


@dataclass(frozen=True)
class GmrfSpec:
    """Conditional autoregression on a graph: mean alpha and dependence eta.

    The per-node conditional variances `tau2` are `tau_from_eta(graph, eta)`
    and edge s-t carries weight eta * sqrt(tau2_s / tau2_t), so the joint law
    is N(alpha, D^{1/2} (I - eta*H)^{-1} D^{1/2}), D = diag(tau2), with every
    marginal variance one.  An inadmissible eta makes construction raise.
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
    """One chain of `gibbs_chains`, fed by the stream of `cfg.seed`.

    Returns (final state, trace), where trace stacks every `trace_every`-th
    post-burn-in state, or is None when trace_every == 0.
    """
    x, trace = gibbs_chains([spec], partition, [(cfg.seed, None)], cfg.iterations,
                            cfg.burn_in, trace_every)
    return x[0], None if trace is None else trace[:, 0]


def gibbs_chains(specs, partition, streams, iterations, burn_in=0, trace_every=0):
    """Conclique-blocked Gibbs sampler advancing one chain per spec in one loop.

    Each chain starts at its alpha; each sweep visits the classes in index
    order and redraws every node of a class from its conditional given the
    frozen rest (an exact joint update: members are mutually non-adjacent).
    `partition` must be a conclique partition of the graph (checked).
    `streams` holds one (seed, rho) per innovation stream, in chain order:
    rho None feeds one chain, n standard normals per sweep; a float feeds two,
    drawing u then v (n each) per sweep, with u driving the first chain and
    rho*u + sqrt(1 - rho^2)*v the second.  Sweeps b*S .. b*S + S - 1, S =
    _SWEEP_BLOCK = 32, are one `standard_normal((k, n))` or `((k, 2, n))` call
    on `stream(seed, _TAG_CHAIN, b)`, k <= S; the key depends only on the sweep
    index, so batching, coupling and tracing keep each chain's innovations.
    The innovation at position p of a sweep goes to the p-th node of the
    classes laid end to end.

    The chains advance the standardized y = (x - alpha) / sqrt(tau2), whose
    update is the sum of the neighbours' eta*y plus the unit innovation.  The
    rows are renumbered once so that every class is contiguous, and the state
    is stored node-major, one column per chain, as u = eta*y, followed by the
    sweep's innovations.  A class update is then three calls: one `take`
    gathers each member's neighbours' u followed by its own innovation, one
    `np.add.reduceat` sums every member's segment into the class's rows of y,
    and one multiply by eta writes those rows of u.  Every segment ends in an
    innovation, so none is empty, as `reduceat` needs.  y is kept apart from
    u, so an eta = 0 chain returns its innovations exactly.

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

    Returns the (chains, n) final states alpha + sqrt(tau2) * y and the stack
    of every `trace_every`-th post-burn-in state, shape (kept, chains, n), or
    None when trace_every == 0.
    """
    _check_run(iterations, burn_in, trace_every)
    graph, chains = specs[0].graph, len(specs)
    if any(spec.graph is not graph for spec in specs):
        raise ValueError("batched chains must share one graph")
    if any(rho is not None and not -1.0 < rho < 1.0 for _, rho in streams):
        raise ValueError("|rho| must be below 1")
    if sum(1 if rho is None else 2 for _, rho in streams) != chains:
        raise ValueError("streams must feed exactly one chain per spec")
    partition.validate(graph)
    n = graph.node_count
    if n == 0:
        raise ValueError("gibbs_chains needs a graph with at least one node")
    alpha = np.array([spec.alpha for spec in specs])
    sd = np.sqrt(np.array([spec.tau2 for spec in specs]))
    eta = np.array([spec.eta for spec in specs])
    # class order: row r holds node order[r]; rank, its inverse, maps a node to its row
    order = np.concatenate([np.empty(0, np.int64), *partition.classes])
    rank = np.argsort(order)
    # rows 0..n-1: u = eta*y, rows n..2n-1: the innovations
    src = np.zeros((2 * n, chains))
    u, innovation = src[:n], src[n:]
    y = np.zeros((n, chains))
    # row r's segment: its node's neighbours' rows in list order, then its innovation
    # row n + r; the stable sort keeps each segment's entries in that order
    owner = np.concatenate((np.repeat(rank, graph.degrees), np.arange(n)))
    rows = np.concatenate((rank[graph.indices], np.arange(n, 2 * n)))
    rows = rows[np.argsort(owner, kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(graph.degrees[order] + 1)))
    gather = rows[:, None] * chains + np.arange(chains)
    # per class: flat gather indices, gather buffer, segment starts, class rows of y and u
    plan, lo = [], 0
    for cls in partition.classes:
        hi = lo + cls.size
        at = slice(lo, hi)
        plan.append((gather[bounds[lo]:bounds[hi]], np.empty((bounds[hi] - bounds[lo], chains)),
                     bounds[at] - bounds[lo], y[at], u[at]))
        lo = hi
    flat = src.reshape(-1)

    def sweep():
        for idx, nbrs, segments, y_cls, u_cls in plan:
            # every index is in range; "clip" spares the copy "raise" makes of out
            flat.take(idx, out=nbrs, mode="clip")
            np.add.reduceat(nbrs, segments, axis=0, out=y_cls)
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

    def field(ys):
        """alpha + sqrt(tau2) * y in node order from rows of y in class order."""
        return alpha + sd * np.swapaxes(ys[..., rank, :], -1, -2)

    return field(y), field(np.array(kept).reshape(-1, n, chains)) if trace_every else None


def joint_covariance(spec):
    """(covariance, asymmetry) of the joint law the conditionals imply.

    The covariance D^{1/2} (I - eta*H)^{-1} D^{1/2} is formed as M^T M with
    M = L^{-1} D^{1/2}, so it is symmetric by construction; the max entrywise
    asymmetry residual is returned as a check.  L L^T = I - eta*H is numpy's
    whole-matrix factor, which shares no code with `tau_from_eta`.
    """
    n = spec.graph.node_count
    M = np.linalg.inv(np.linalg.cholesky(np.eye(n) - spec.eta * spec.graph.adjacency()))
    M *= np.sqrt(spec.tau2)
    cov = M.T @ M
    return cov, float(np.max(np.abs(cov - cov.T))) if cov.size else 0.0


def direct_sample(spec, seed, count=None):
    """Exact draw(s) alpha + sqrt(tau2) * (z^T L^{-1}) from the joint law, with
    L L^T = I - eta*H numpy's whole-matrix factor.

    `count=None` returns one draw of shape (n,); an integer returns an array
    of shape (count, n).
    """
    n = spec.graph.node_count
    z = stream(seed, _TAG_DIRECT).standard_normal(n if count is None else (int(count), n))
    L_inv = np.linalg.inv(np.linalg.cholesky(np.eye(n) - spec.eta * spec.graph.adjacency()))
    return spec.alpha + np.sqrt(spec.tau2) * (z @ L_inv)


def to_uniform(values):
    """Map standard normal field values through the normal distribution
    function onto (0, 1)."""
    return np.atleast_1d(normal_cdf(np.asarray(values, dtype=float)))


def field_to_csv(values, path):
    with open(path, "w") as fh:
        fh.write("node_id,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")
