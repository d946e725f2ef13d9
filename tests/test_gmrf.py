import numpy as np
import pytest

from wavesieve import gmrf
from wavesieve.gmrf import (ChainConfig, GmrfSpec, direct_sample, field_to_csv,
                            gibbs_chain, gibbs_chains, joint_covariance,
                            tau_from_eta, to_uniform)
from wavesieve.graphs import (ConcliquePartition, Graph, concliques, eta_range,
                              knn_geometric_graph, torus_lattice, torus_with_chords)
from wavesieve.rng import stream


def single_edge():
    return Graph(2, [(0, 1)])


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


def random_graph(n, p, seed):
    rng = stream(seed, 999)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    g = Graph(n, edges)
    return g if g.edge_count else Graph(n, [(0, 1)])


# ---------------------------------------------------------------------------
# conditional variances and parameters

def test_tau_zero_eta_is_one():
    g = random_graph(12, 0.3, seed=1)
    assert np.allclose(tau_from_eta(g, 0.0), 1.0, atol=1e-14)


def test_tau_single_edge():
    # inverse of [[1,-.5],[-.5,1]] has diagonal 4/3
    assert np.allclose(tau_from_eta(single_edge(), 0.5), [0.75, 0.75], atol=1e-12)


def test_tau_triangle_matches_direct_inverse():
    g = triangle()
    eta = 0.2
    inv = np.linalg.inv(np.eye(3) - eta * g.adjacency())
    want = 1.0 / np.diag(inv)
    got = tau_from_eta(g, eta)
    assert np.allclose(got, want, atol=1e-12)
    assert np.allclose(got, got[0], atol=1e-12)   # all equal by symmetry


def test_tau_rejects_inadmissible_eta():
    with pytest.raises(ValueError):
        tau_from_eta(single_edge(), 1.5)


def _oracle_graphs():
    return [torus_with_chords(18, 18, 60, seed=1), knn_geometric_graph(300, 6, seed=3),
            *(random_graph(40, 0.2, seed=seed) for seed in range(3))]


def _ends_of_range(g):
    vals = np.linalg.eigvalsh(g.adjacency())
    return 0.98 / vals[0], 0.98 / vals[-1]


def test_tau_matches_dense_inverse_oracle():
    for g in _oracle_graphs():
        eye = np.eye(g.node_count)
        for eta in _ends_of_range(g):
            want = 1.0 / np.diag(np.linalg.inv(eye - eta * g.adjacency()))
            assert np.max(np.abs(tau_from_eta(g, eta) / want - 1.0)) < 1e-12


def test_joint_covariance_matches_solve_oracle():
    # D^{1/2} (I - eta*H)^{-1} D^{1/2} with D = diag(tau2): symmetric with unit
    # diagonal on every graph, the paper's chorded torus included, though it
    # is not vertex transitive
    for g in _oracle_graphs():
        eye = np.eye(g.node_count)
        for eta in _ends_of_range(g):
            spec = GmrfSpec(g, eta)
            half = np.diag(np.sqrt(spec.tau2))
            want = half @ np.linalg.solve(eye - eta * g.adjacency(), half)
            cov, resid = joint_covariance(spec)
            assert np.max(np.abs(cov - want)) < 1e-11
            assert resid <= 1e-12
            assert np.max(np.abs(np.diag(cov) - 1.0)) < 1e-12


def test_marginal_variance_identity():
    # diag((I - eta*H)^(-1) T) = 1 exactly, for random graphs and admissible eta
    for seed in range(10):
        g = random_graph(10 + 4 * seed, 0.2, seed=seed)
        lo, hi = (1.0 / np.linalg.eigvalsh(g.adjacency())[0],
                  1.0 / np.linalg.eigvalsh(g.adjacency())[-1])
        eta = 0.6 * hi if seed % 2 == 0 else 0.6 * lo
        spec = GmrfSpec(g, eta)
        M = np.eye(g.node_count) - eta * g.adjacency()
        A = np.linalg.solve(M, np.diag(spec.tau2))
        assert np.max(np.abs(np.diag(A) - 1.0)) < 1e-10


def conditional_params(spec, state, s):
    """Besag oracle: (mean, variance) of node s given the rest of the field
    frozen at `state`, from the model's edge weights eta * sqrt(tau2_s /
    tau2_t), one node at a time."""
    nbrs = spec.graph.neighbors[s]
    x = np.asarray(state, dtype=float)
    y = (x[nbrs] - spec.alpha[nbrs]) / np.sqrt(spec.tau2[nbrs])
    mean = spec.alpha[s] + spec.eta * np.sqrt(spec.tau2[s]) * np.sum(y)
    return float(mean), float(spec.tau2[s])


def test_conditional_params_eta_zero():
    g = triangle()
    spec = GmrfSpec(g, 0.0)
    state = np.array([5.0, -3.0, 2.0])
    mean, var = conditional_params(spec, state, 0)
    assert mean == 0.0
    assert var == pytest.approx(1.0)


def test_conditional_params_single_edge():
    g = single_edge()
    spec = GmrfSpec(g, 0.5)
    mean, var = conditional_params(spec, np.array([0.0, 2.0]), 0)
    assert mean == pytest.approx(1.0)
    assert var == pytest.approx(0.75)


def _compatibility_graphs():
    # (graph, eta) on graphs that are not vertex transitive, so tau2 varies
    paper = torus_with_chords(18, 18, 60, seed=1)
    return [(paper, -0.18), (paper, 0.12), (Graph(4, [(0, 1), (0, 2), (0, 3)]), 0.4),
            (knn_geometric_graph(300, 6, seed=3), 0.12)]


def test_conditional_params_are_the_conditionals_of_the_joint_precision():
    # Besag compatibility: every conditional is the one the joint law
    # N(alpha, cov) implies, read off its precision Q = cov^{-1}
    for g, eta in _compatibility_graphs():
        n = g.node_count
        alpha = np.linspace(-1.0, 1.0, n)
        spec = GmrfSpec(g, eta, alpha=alpha)
        Q = np.linalg.inv(joint_covariance(spec)[0])
        x = alpha + stream(5, n).standard_normal(n)
        for s in range(n):
            off = np.delete(np.arange(n), s)
            want = alpha[s] - Q[s, off] @ (x[off] - alpha[off]) / Q[s, s]
            mean, var = conditional_params(spec, x, s)
            assert mean == pytest.approx(want, abs=1e-12)
            assert var == pytest.approx(1.0 / Q[s, s], rel=1e-12)


def test_conditional_params_at_mean():
    g = triangle()
    spec = GmrfSpec(g, 0.3, alpha=1.5)
    mean, _ = conditional_params(spec, np.full(3, 1.5), 2)
    assert mean == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# samplers

def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(10, 10, 0)
    ChainConfig(0, 0, 0)   # zero-iteration chain stays at the initial state
    with pytest.raises(ValueError):
        ChainConfig(-1, 0, 0)


def test_gibbs_zero_iterations_returns_alpha():
    g = triangle()
    spec = GmrfSpec(g, 0.2, alpha=3.0)
    final, trace = gibbs_chain(spec, concliques(g), ChainConfig(0, 0, 1))
    assert np.array_equal(final, np.full(3, 3.0))
    assert trace is None
    other = GmrfSpec(g, -0.1, alpha=[1.0, -2.0, 0.5])
    final, trace = gibbs_chains([spec, other], concliques(g), [(1, 0.5)], 0, trace_every=1)
    assert np.array_equal(final, [spec.alpha, other.alpha])
    assert trace.shape == (0, 2, 3)


def test_gibbs_reproducible():
    g = torus_lattice(4, 4)
    spec = GmrfSpec(g, 0.15)
    cfg = ChainConfig(50, 10, 123)
    a, ta = gibbs_chain(spec, concliques(g), cfg, trace_every=2)
    b, tb = gibbs_chain(spec, concliques(g), cfg, trace_every=2)
    assert np.array_equal(a, b)
    assert np.array_equal(ta, tb)


def test_gibbs_eta_zero_factorizes():
    # with eta 0 the conditionals decouple: iid standard normals
    g = random_graph(10, 0.3, seed=3)
    spec = GmrfSpec(g, 0.0)
    _, trace = gibbs_chain(spec, concliques(g), ChainConfig(12_000, 2_000, 5),
                           trace_every=1)
    assert trace.shape[0] == 10_000
    assert np.max(np.abs(trace.mean(axis=0))) < 0.05
    assert np.max(np.abs(trace.var(axis=0) - 1.0)) < 0.08
    corr = np.corrcoef(trace.T)
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) < 0.05


def test_gibbs_matches_analytic_covariance_small():
    g = torus_lattice(4, 4)
    eta = 0.2
    spec = GmrfSpec(g, eta)
    _, trace = gibbs_chain(spec, concliques(g), ChainConfig(26_000, 1_000, 9),
                           trace_every=1)
    want, _ = joint_covariance(spec)
    got = np.cov(trace.T)
    assert np.max(np.abs(got - want)) < 0.08


def test_gibbs_sweep_agrees_with_conditional_params():
    # one sweep by hand, replaying the chain's innovations through the
    # per-node conditional oracle, on a graph whose tau2 is not constant
    g = torus_with_chords(4, 5, 6, 2)
    spec = GmrfSpec(g, 0.1)
    part = concliques(g)
    cfg = ChainConfig(1, 0, 77)
    final, _ = gibbs_chain(spec, part, cfg)

    z = stream(cfg.seed, 21).standard_normal(g.node_count)   # chain stream tag
    x = spec.alpha.copy()
    pos = 0
    for cls in part.classes:
        snapshot = x.copy()
        for offset, s in enumerate(cls):
            mean, var = conditional_params(spec, snapshot, int(s))
            x[s] = mean + np.sqrt(var) * z[pos + offset]
        pos += cls.size
    assert np.allclose(final, x, atol=1e-12)


def reference_sweeps(specs, partition, innovations, iterations):
    """Per-chain, per-class Gibbs sweeps in the engine's arithmetic: each
    chain advances its standardized state y = (x - alpha) / sqrt(tau2), a
    node's new y being the sum of its neighbours' eta*y and its innovation,
    and returns alpha + sqrt(tau2) * y.  Each sum runs as numpy reduces a
    segment: the first neighbour's eta*y plus `np.sum` of the remaining
    terms, which are the other neighbours' eta*y in neighbour-list order and
    then the innovation; a node without neighbours starts from zero.
    `innovations()` returns the next sweep's standard normals, one row per
    chain."""
    ys = [np.zeros(spec.graph.node_count) for spec in specs]
    for _ in range(iterations):
        z = innovations()
        pos = 0
        for cls in partition.classes:
            for y, spec, zc in zip(ys, specs, z):
                new = np.empty(cls.size)
                for i, s in enumerate(cls):
                    terms = spec.eta * y[spec.graph.neighbors[s]]
                    first, rest = (terms[0], terms[1:]) if terms.size else (0.0, terms)
                    new[i] = first + np.sum(np.append(rest, zc[pos + i]))
                y[cls] = new
            pos += cls.size
    return np.array([spec.alpha + np.sqrt(spec.tau2) * y for y, spec in zip(ys, specs)])


def test_gibbs_chains_match_per_chain_sweeps_bitwise():
    # coupled pair plus an independent chain, over enough sweeps to cross
    # the engine's innovation blocks
    g = torus_with_chords(4, 5, 6, 2)
    part = concliques(g)
    specs = [GmrfSpec(g, 0.1, alpha=0.5), GmrfSpec(g, -0.15), GmrfSpec(g, 0.2, alpha=-1.0)]
    rho, iterations = 0.6, 3500
    got, _ = gibbs_chains(specs, part, [(31, rho), (32, None)], iterations)

    coupled, single = stream(31, 21), stream(32, 21)

    def innovations():
        u, v = coupled.standard_normal((2, g.node_count))
        return u, rho * u + np.sqrt(1.0 - rho * rho) * v, single.standard_normal(g.node_count)

    assert np.array_equal(got, reference_sweeps(specs, part, innovations, iterations))


@pytest.mark.parametrize("case", ["paper_etas_coupled", "range_edges"])
def test_gibbs_chains_final_state_equals_a_full_run_bitwise(case):
    # untraced, the engine sweeps only the last K of 3000 sweeps, from zero;
    # a trace forces every sweep, and the final states must be the same bits
    g = torus_with_chords(18, 18, 60, seed=1)
    part = concliques(g)
    if case == "paper_etas_coupled":
        etas, streams = (0.12, -0.18, 0.12), [(41, 0.7), (42, None)]
    else:
        lo, hi = eta_range(g)
        etas, streams = (0.9 * lo, 0.9 * hi), [(43, None), (44, None)]
    specs = [GmrfSpec(g, eta, alpha=0.5) for eta in etas]
    got, _ = gibbs_chains(specs, part, streams, 3000)
    full, _ = gibbs_chains(specs, part, streams, 3000, trace_every=3000)
    assert np.array_equal(got, full)


def _poison_first_sweeps(monkeypatch, sweeps):
    """Make the first `sweeps` sweeps of every chain stream's innovations NaN."""
    real = gmrf.stream

    class Poisoned:
        def __init__(self, rng):
            self.rng, self.left = rng, sweeps

        def standard_normal(self, shape):
            w = self.rng.standard_normal(shape)
            w[:self.left] = np.nan
            self.left = max(0, self.left - len(w))
            return w

    def poisoned_stream(seed, *keys):
        rng = real(seed, *keys)
        return Poisoned(rng) if keys == (gmrf._TAG_CHAIN,) else rng

    monkeypatch.setattr(gmrf, "stream", poisoned_stream)


def test_gibbs_chains_never_apply_the_sweeps_that_cannot_reach_the_final_state(monkeypatch):
    # a NaN innovation poisons every later state of a chain that applies it:
    # the untraced run still draws the first 1000 sweeps' normals (the final
    # state keeps its bits) but never sweeps them, while a traced run does
    g = torus_with_chords(18, 18, 60, seed=1)
    part = concliques(g)
    specs = [GmrfSpec(g, eta) for eta in (0.12, -0.18, 0.12)]
    streams = [(41, 0.7), (42, None)]
    clean, _ = gibbs_chains(specs, part, streams, 3000)
    _poison_first_sweeps(monkeypatch, 1000)
    poisoned, _ = gibbs_chains(specs, part, streams, 3000)
    traced, _ = gibbs_chains(specs, part, streams, 3000, trace_every=3000)
    assert np.array_equal(poisoned, clean)
    assert np.isnan(traced).all()


def test_gibbs_chains_traced_run_sweeps_every_sweep():
    # untraced, these chains would skip most of their 300 sweeps; traced,
    # every kept state and the final one are the per-chain sweeps from the start
    g = torus_with_chords(4, 5, 6, 2)
    part = concliques(g)
    specs = [GmrfSpec(g, 0.1, alpha=0.5), GmrfSpec(g, -0.15)]
    rho = 0.6
    got, trace = gibbs_chains(specs, part, [(51, rho)], 300, burn_in=9, trace_every=100)

    def replay(iterations):
        coupled = stream(51, 21)

        def innovations():
            u, v = coupled.standard_normal((2, g.node_count))
            return u, rho * u + np.sqrt(1.0 - rho * rho) * v

        return reference_sweeps(specs, part, innovations, iterations)

    assert trace.shape == (3, 2, g.node_count)
    for kept, it in zip(trace, (9, 109, 209)):
        assert np.array_equal(kept, replay(it + 1))
    assert np.array_equal(got, replay(300))


@pytest.mark.parametrize("etas, iterations", [
    ((0.1, -0.15, 0.2), 500),   # eta 0.2 contracts in about 470 sweeps: past the probe's cap
    ((0.1, -0.15), 12),         # too few sweeps for a skip to pay
    ((0.0,), 400),              # an eta = 0 chain contracts in one sweep
    ((0.0, 0.1), 400),
    ((0.1, -0.15), 0),
], ids=["near_edge", "short", "eta_zero", "eta_zero_with_other", "zero_iterations"])
def test_gibbs_chains_short_and_degenerate_runs_match_per_chain_sweeps(etas, iterations):
    g = torus_with_chords(4, 5, 6, 2)
    part = concliques(g)
    specs = [GmrfSpec(g, eta, alpha=0.5) for eta in etas]
    seeds = range(61, 61 + len(etas))
    got, _ = gibbs_chains(specs, part, [(seed, None) for seed in seeds], iterations)
    rngs = [stream(seed, 21) for seed in seeds]
    want = reference_sweeps(specs, part, lambda: [rng.standard_normal(g.node_count)
                                                   for rng in rngs], iterations)
    assert np.array_equal(got, want)


def test_gibbs_chains_batched_equal_one_chain_runs():
    g = torus_with_chords(6, 6, 8, 1)
    part = concliques(g)
    specs = [GmrfSpec(g, eta, alpha=a) for eta, a in ((0.12, 0.0), (-0.18, 2.0), (0.05, -1.0))]
    seeds = (3, 4, 5)
    batched, trace = gibbs_chains(specs, part, [(s, None) for s in seeds], 120,
                                  burn_in=20, trace_every=25)
    assert trace.shape == (4, 3, g.node_count)
    for c, (spec, seed) in enumerate(zip(specs, seeds)):
        one, one_trace = gibbs_chain(spec, part, ChainConfig(120, 20, seed), trace_every=25)
        assert np.array_equal(batched[c], one)
        assert np.array_equal(trace[:, c], one_trace)


def test_gibbs_chains_sweeps_agree_with_conditional_params():
    # several chains and sweeps by hand through the per-node conditional
    # oracle, replaying each stream's innovations (u then v for the pair)
    g = torus_lattice(3, 4)
    part = concliques(g)
    specs = [GmrfSpec(g, 0.1), GmrfSpec(g, -0.2, alpha=1.5), GmrfSpec(g, 0.15, alpha=-0.5)]
    rho = -0.4
    got, _ = gibbs_chains(specs, part, [(77, rho), (78, None)], 3)

    pair, single = stream(77, 21), stream(78, 21)
    xs = [spec.alpha.copy() for spec in specs]
    for _ in range(3):
        u, v = pair.standard_normal(12), pair.standard_normal(12)
        zs = (u, rho * u + np.sqrt(1.0 - rho * rho) * v, single.standard_normal(12))
        pos = 0
        for cls in part.classes:
            for x, spec, z in zip(xs, specs, zs):
                snapshot = x.copy()
                for offset, s in enumerate(cls):
                    mean, var = conditional_params(spec, snapshot, int(s))
                    x[s] = mean + np.sqrt(var) * z[pos + offset]
            pos += cls.size
    assert np.allclose(got, np.array(xs), atol=1e-12)


def sweep_map(spec, partition):
    """(A, B) of one conclique sweep x' - alpha = A (x - alpha) + B z, built
    class by class from the model's edge weights c_st = eta sqrt(tau2_s /
    tau2_t): a class update replaces its rows of the deviation by the weighted
    neighbour sums plus sqrt(tau2_s) times the innovation at the node's
    position in the sweep (Gibbs as Gauss-Seidel on the precision)."""
    n = spec.graph.node_count
    sd = np.sqrt(spec.tau2)
    weights = spec.eta * spec.graph.adjacency() * sd[:, None] / sd[None, :]
    A, B, pos = np.eye(n), np.zeros((n, n)), 0
    for cls in partition.classes:
        step = np.eye(n)
        step[cls] = weights[cls]
        A, B = step @ A, step @ B
        B[cls, pos + np.arange(cls.size)] += sd[cls]
        pos += cls.size
    return A, B


def test_gibbs_engine_is_the_sweep_map_whose_fixed_point_is_the_joint_law():
    # exact oracle: the engine's first two sweeps from alpha replay through
    # the linear sweep map, and the map's stationary covariance S = A S A^T +
    # B B^T (solved by doubling) is joint_covariance, unit diagonal included
    for g, eta in _compatibility_graphs():
        spec, part, n = GmrfSpec(g, eta, alpha=0.5), concliques(g), g.node_count
        A, B = sweep_map(spec, part)
        z1, z2 = stream(13, 21).standard_normal((2, n))
        one, _ = gibbs_chains([spec], part, [(13, None)], 1)
        two, _ = gibbs_chains([spec], part, [(13, None)], 2)
        assert np.max(np.abs(one[0] - 0.5 - B @ z1)) < 1e-12
        assert np.max(np.abs(two[0] - 0.5 - (A @ (B @ z1) + B @ z2))) < 1e-12

        S, power = B @ B.T, A
        while np.max(np.abs(power)) > 1e-20:
            S, power = S + power @ S @ power.T, power @ power
        cov, _ = joint_covariance(spec)
        assert np.max(np.abs(S - cov)) < 1e-12
        assert np.max(np.abs(np.diag(S) - 1.0)) < 1e-12


def test_gibbs_chains_isolated_node_is_alpha_plus_innovation():
    # node 4 has no neighbours, so its update reads only the pad zero
    g = Graph(5, [(0, 1), (1, 2), (2, 3)])
    part = concliques(g)
    spec = GmrfSpec(g, -0.3, alpha=0.7)
    got, _ = gibbs_chains([spec], part, [(9, None)], 3)
    z = stream(9, 21).standard_normal((3, 5))[-1]
    at = int(np.flatnonzero(np.concatenate(part.classes) == 4)[0])
    assert got[0, 4] == 0.7 + np.sqrt(spec.tau2[4]) * z[at]


def test_gibbs_chains_rejects_bad_streams():
    g = torus_lattice(3, 3)
    part = concliques(g)
    spec = GmrfSpec(g, 0.1)
    for rho in (1.0, -1.0, 1.2):
        with pytest.raises(ValueError, match="rho"):
            gibbs_chains([spec, spec], part, [(1, rho)], 5)
    with pytest.raises(ValueError, match="one chain per spec"):
        gibbs_chains([spec, spec], part, [(1, None)], 5)
    with pytest.raises(ValueError, match="one graph"):
        gibbs_chains([spec, GmrfSpec(torus_lattice(3, 3), 0.1)], part,
                     [(1, None), (2, None)], 5)


def _bad_partitions():
    # the checkerboard of the 4 x 4 torus, broken three ways
    g = torus_lattice(4, 4)
    even, odd = concliques(g).classes
    moved = g.neighbors[even[0]][0]
    return g, {
        "do not cover node": (even,),
        "repeat node": (even, odd, even[:1]),
        "not independent": (np.append(even, moved), odd[odd != moved]),
    }


@pytest.mark.parametrize("problem", sorted(_bad_partitions()[1]))
def test_gibbs_chains_rejects_partitions_that_are_not_concliques(problem):
    g, partitions = _bad_partitions()
    with pytest.raises(ValueError, match=problem):
        gibbs_chains([GmrfSpec(g, 0.1)], ConcliquePartition(partitions[problem]),
                     [(1, None)], 5)


def test_gibbs_chains_eta_zero_chain_returns_its_last_innovations_exactly():
    # u = eta*y is zero, so y must come from the sums, never from u / eta
    g = torus_with_chords(4, 5, 6, 2)
    part = concliques(g)
    specs = [GmrfSpec(g, 0.0, alpha=0.25), GmrfSpec(g, 0.1)]
    got, trace = gibbs_chains(specs, part, [(4, None), (5, None)], 7, trace_every=3)
    order = np.concatenate(part.classes)
    z = np.empty(g.node_count)
    z[order] = stream(4, 21).standard_normal((7, g.node_count))[-1]
    assert np.array_equal(got[0], 0.25 + np.sqrt(specs[0].tau2) * z)
    assert np.array_equal(trace[-1], got)


def test_direct_sample_eta_zero_iid():
    g = random_graph(8, 0.25, seed=4)
    spec = GmrfSpec(g, 0.0, alpha=2.0)
    draws = direct_sample(spec, seed=6, count=60_000)
    assert np.max(np.abs(draws.mean(axis=0) - 2.0)) < 0.05
    assert np.max(np.abs(draws.var(axis=0) - 1.0)) < 0.05
    corr = np.corrcoef(draws.T)
    assert np.max(np.abs(corr - np.eye(8))) < 0.05


def test_direct_sample_torus_no_symmetrization_residual():
    # vertex-transitive graph: diag((I-eta*H)^(-1)) is constant, so the
    # implied covariance is symmetric as written
    spec = GmrfSpec(torus_lattice(4, 4), 0.2)
    _, resid = joint_covariance(spec)
    assert resid < 1e-12
    inv = np.linalg.inv(np.eye(16) - 0.2 * spec.graph.adjacency())
    assert np.max(np.abs(np.diag(inv) - inv[0, 0])) < 1e-12


def test_direct_sample_single_edge_covariance():
    g = single_edge()
    eta = 0.5
    spec = GmrfSpec(g, eta)
    draws = direct_sample(spec, seed=8, count=100_000)
    got = np.cov(draws.T)
    want = np.linalg.solve(np.eye(2) - eta * g.adjacency(), np.diag(spec.tau2))
    assert np.max(np.abs(got - want)) < 0.02


def test_direct_sample_reproducible():
    spec = GmrfSpec(torus_lattice(3, 3), 0.1)
    a = direct_sample(spec, seed=5)
    b = direct_sample(spec, seed=5)
    assert np.array_equal(a, b)


def test_gibbs_and_direct_agree_in_distribution():
    g = torus_lattice(6, 6)
    spec = GmrfSpec(g, 0.2)
    _, trace = gibbs_chain(spec, concliques(g), ChainConfig(21_000, 1_000, 2),
                           trace_every=1)
    draws = direct_sample(spec, seed=3, count=20_000)
    assert np.max(np.abs(trace.mean(axis=0) - draws.mean(axis=0))) < 0.08
    assert np.max(np.abs(np.cov(trace.T) - np.cov(draws.T))) < 0.1


# ---------------------------------------------------------------------------
# coupling and transforms

def test_gibbs_chains_coupled_correlates_innovations():
    # at eta 0 every kept state is exactly that sweep's innovations, so the
    # trace holds 36 nodes x 3000 sweeps of coupled pairs
    g = torus_lattice(6, 6)
    spec = GmrfSpec(g, 0.0)
    for rho in (0.0, 0.7):
        _, trace = gibbs_chains([spec, spec], concliques(g), [(9, rho)], 3000,
                                trace_every=1)
        pairs = trace.transpose(1, 0, 2).reshape(2, -1)
        assert np.corrcoef(pairs)[0, 1] == pytest.approx(rho, abs=0.02)
        # both margins standard normal
        assert np.max(np.abs(pairs.mean(axis=1))) < 0.02
        assert np.max(np.abs(pairs.var(axis=1) - 1.0)) < 0.02


def test_to_uniform_examples():
    u = to_uniform(np.array([0.0, 1.959964, -1.959964]))
    assert u[0] == pytest.approx(0.5, abs=1e-12)
    assert u[1] == pytest.approx(0.975, abs=1e-6)
    assert u[2] == pytest.approx(0.025, abs=1e-6)


def test_to_uniform_monotone_and_bounded():
    vals = np.sort(stream(4).standard_normal(500) * 3.0)
    u = to_uniform((vals - 0.5) / 2.0)
    assert np.all(np.diff(u) >= 0.0)
    assert np.all((u > 0.0) & (u < 1.0))


def test_field_to_csv_text(tmp_path):
    path = tmp_path / "field.csv"
    field_to_csv(np.array([1.5, -2.25, 0.0, 0.1]), path)
    assert path.read_text() == "node_id,value\n0,1.5\n1,-2.25\n2,0.0\n3,0.1\n"
