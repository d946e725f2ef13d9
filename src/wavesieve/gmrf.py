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
eta-CAR with unit innovations, which is what the Gibbs engine advances: its
state is eta*y, node-major with every conclique class in contiguous rows, and
a class update is one gather of the neighbours' eta*y and the innovations,
one segment sum and one multiply by eta.
Every sampler draws its standard normals with `Generator.standard_normal`
from the keyed stream of its seed and tag.
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

# bound on the bytes of standard normals drawn for all chains per block of
# sweeps; 1 MiB was no faster on the paper config and raised its peak RSS 5%
_BLOCK_BYTES = 1 << 18

# triangular blocks up to this order are inverted directly; larger ones are
# split so the work goes to matrix products
_TRIANGULAR_BLOCK = 128


@dataclass(frozen=True)
class ChainConfig:
    iterations: int
    burn_in: int
    seed: int

    def __post_init__(self):
        if self.iterations < 0 or self.burn_in < 0:
            raise ValueError("iterations and burn_in must be non-negative")
        if self.iterations > 0 and self.burn_in >= self.iterations:
            raise ValueError("burn_in must be smaller than iterations")


def tau_from_eta(graph, eta):
    """Conditional variances making every marginal variance of the joint equal one.

    tau2_s = 1 / [(I - eta*H)^{-1}]_{ss}, read off the inverse Cholesky
    factor as column sums of squares; requires eta strictly inside the
    admissible range of the graph.
    """
    lo, hi = eta_range(graph)
    if not lo < eta < hi:
        raise ValueError(f"eta={eta} outside admissible range ({lo:.6g}, {hi:.6g})")
    inv_factor = _inverse_cholesky(graph, eta)
    return 1.0 / np.einsum("ij,ij->j", inv_factor, inv_factor)


def _inverse_cholesky(graph, eta):
    """L^{-1} for the Cholesky factor L L^T = I - eta*H, so that
    (I - eta*H)^{-1} = L^{-T} L^{-1}.  I - eta*H is formed in the fresh
    adjacency array and the factor is inverted in place, so past the
    factorization the only n x n array alive is L; nothing keeps L after the
    caller drops it."""
    M = graph.adjacency()
    M *= -eta
    M.flat[::graph.node_count + 1] += 1.0
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise ValueError("I - eta*H is not positive definite") from exc
    del M
    _invert_lower_in_place(L)
    return L


def _invert_lower_in_place(L):
    """Overwrite lower-triangular L with its inverse by recursive blocking:
    [[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]."""
    n = L.shape[0]
    if n <= _TRIANGULAR_BLOCK:
        L[...] = np.tril(np.linalg.inv(L))
        return
    h = n // 2
    _invert_lower_in_place(L[:h, :h])
    _invert_lower_in_place(L[h:, h:])
    L[h:, :h] = L[h:, h:] @ (L[h:, :h] @ L[:h, :h])
    np.negative(L[h:, :h], out=L[h:, :h])


@dataclass(frozen=True)
class GmrfSpec:
    """Conditional autoregression on a graph: mean alpha and dependence eta.

    The per-node conditional variances `tau2` are `tau_from_eta(graph, eta)`
    and edge s-t carries weight eta * sqrt(tau2_s / tau2_t), so the joint law
    is N(alpha, D^{1/2} (I - eta*H)^{-1} D^{1/2}), D = diag(tau2), with every
    marginal variance one.
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
    rho*u + sqrt(1 - rho^2)*v the second.  A block of k sweeps is one
    `standard_normal((k, n))` or `((k, 2, n))` call per stream, which gives the
    same values as one call per sweep; the innovation at position p of a
    sweep goes to the p-th node of the classes laid end to end.

    The chains advance the standardized y = (x - alpha) / sqrt(tau2), whose
    update is the sum of the neighbours' eta*y plus the unit innovation.  The
    rows are renumbered once so that every class is contiguous, and the state
    is stored node-major, one column per chain, as u = eta*y, followed by a
    zero pad row (what an empty neighbour list reads) and the sweep's
    innovations.  A class update is then three calls: one `take` gathers each
    member's neighbours' u followed by its own innovation, one
    `np.add.reduceat` sums every member's segment into the class's rows of y,
    and one multiply by eta writes those rows of u.  y is kept apart from u,
    so an eta = 0 chain returns its innovations exactly.

    `iterations` keeps its meaning, but when trace_every == 0 only the last K
    sweeps run, from zero: the sweep is linear, y' = A y + B z, so the state K
    sweeps before the end reaches the final state only through A^K.  K = 2*K0,
    where K0 counts the engine's own sweeps on zero innovations that bring
    every chain's max|y| below 2^-60 of a fixed start (drawn from a stream of
    its own), so the skipped sweeps reach the final state only below 2^-60
    relative; the tests check that the final state has the bits of a full
    run.  Every sweep runs when a trace is asked for, or when the probe
    reaches (iterations - 1) // 3 sweeps, past which skipping cannot pay.  K
    depends only on the graph, the partition, the etas and iterations, and
    every sweep's normals are still drawn, so the streams and the result
    bytes do not change.

    Returns the (chains, n) final states alpha + sqrt(tau2) * y and the stack
    of every `trace_every`-th post-burn-in state, shape (kept, chains, n), or
    None when trace_every == 0.
    """
    graph, chains = specs[0].graph, len(specs)
    if any(spec.graph is not graph for spec in specs):
        raise ValueError("batched chains must share one graph")
    if any(rho is not None and not -1.0 < rho < 1.0 for _, rho in streams):
        raise ValueError("|rho| must be below 1")
    if sum(1 if rho is None else 2 for _, rho in streams) != chains:
        raise ValueError("streams must feed exactly one chain per spec")
    partition.validate(graph)
    n = graph.node_count
    alpha = np.array([spec.alpha for spec in specs])
    sd = np.sqrt(np.array([spec.tau2 for spec in specs]))
    eta = np.tile([spec.eta for spec in specs], (n, 1))
    # class order: row r holds node order[r]; rank maps a node (or the pad) to its row
    order = np.concatenate([np.empty(0, np.int64), *partition.classes])
    rank = np.empty(n + 1, np.int64)
    rank[order], rank[n] = np.arange(n), n
    # rows 0..n-1: u = eta*y, row n: the zero pad, rows n+1..2n: the innovations
    src = np.zeros((2 * n + 1, chains))
    u, innovation = src[:n], src[n + 1:]
    y = np.zeros((n, chains))
    # every row's neighbour list with its innovation row appended, one segment per row
    index, starts = graph.neighbor_segments(order)
    rows = np.insert(rank[index], np.append(starts[1:], index.size), np.arange(n + 1, 2 * n + 1))
    bounds = np.append(starts + np.arange(n), rows.size)
    gather = rows[:, None] * chains + np.arange(chains)
    # per class: flat gather indices, gather buffer, segment starts, class rows of y,
    # eta and u
    plan, lo = [], 0
    for cls in partition.classes:
        hi = lo + cls.size
        at = slice(lo, hi)
        plan.append((gather[bounds[lo]:bounds[hi]], np.empty((bounds[hi] - bounds[lo], chains)),
                     bounds[at] - bounds[lo], y[at], eta[at], u[at]))
        lo = hi
    flat = src.reshape(-1)

    def sweep():
        for idx, nbrs, segments, y_cls, eta_cls, u_cls in plan:
            # every index is in range; "clip" spares the copy "raise" makes of out
            flat.take(idx, out=nbrs, mode="clip")
            np.add.reduceat(nbrs, segments, axis=0, out=y_cls)
            np.multiply(y_cls, eta_cls, out=u_cls)

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
    rngs = [(stream(seed, _TAG_CHAIN), rho) for seed, rho in streams]
    block = max(1, _BLOCK_BYTES // (8 * n * chains))
    z = np.empty((min(block, iterations), n, chains))
    kept = []
    for start in range(0, iterations, block):
        k, c = min(block, iterations - start), 0
        live = start + k > skip   # a block wholly before skip is drawn, never used
        for rng, rho in rngs:
            draws = rng.standard_normal((k, n) if rho is None else (k, 2, n))
            if live and rho is None:
                z[:k, :, c] = draws
            elif live:
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
        return alpha + sd * np.swapaxes(ys[..., rank[:n], :], -1, -2)

    return field(y), field(np.array(kept).reshape(-1, n, chains)) if trace_every else None


def joint_covariance(spec):
    """(covariance, asymmetry) of the joint law the conditionals imply.

    The covariance D^{1/2} (I - eta*H)^{-1} D^{1/2} is formed as M^T M with
    M = L^{-1} D^{1/2}, so it is symmetric by construction; the max entrywise
    asymmetry residual is returned as a check.
    """
    M = _inverse_cholesky(spec.graph, spec.eta)
    M *= np.sqrt(spec.tau2)
    cov = M.T @ M
    return cov, float(np.max(np.abs(cov - cov.T))) if cov.size else 0.0


def direct_sample(spec, seed, count=None):
    """Exact draw(s) alpha + sqrt(tau2) * (z^T L^{-1}) from the joint law.

    `count=None` returns one draw of shape (n,); an integer returns an array
    of shape (count, n).
    """
    n = spec.graph.node_count
    z = stream(seed, _TAG_DIRECT).standard_normal(n if count is None else (int(count), n))
    return spec.alpha + np.sqrt(spec.tau2) * (z @ _inverse_cholesky(spec.graph, spec.eta))


def to_uniform(values):
    """Map standard normal field values through the normal distribution
    function onto (0, 1)."""
    return np.atleast_1d(normal_cdf(np.asarray(values, dtype=float)))


def field_to_csv(values, path):
    with open(path, "w") as fh:
        fh.write("node_id,value\n")
        for i, v in enumerate(values):
            fh.write(f"{i},{float(v)!r}\n")
