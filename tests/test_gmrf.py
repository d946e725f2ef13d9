import gc
import re
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from wavesieve import gmrf
from wavesieve.gmrf import (ChainConfig, GmrfSpec, direct_sample, field_to_csv,
                            chain_engine, gibbs_chain, joint_covariance,
                            tau_from_eta, to_uniform)
from wavesieve.graphs import (ConcliquePartition, Graph, concliques, eta_range,
                              knn_geometric_graph, torus_lattice, torus_with_chords)
from wavesieve.rng import stream


def single_edge():
    return Graph(2, [(0, 1)])


def triangle():
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


# the engine's chain-stream layout: sweeps b*32 .. b*32 + 31 of a stream with
# seed s are one standard_normal call on stream(s, 21, b)
SWEEP_BLOCK = 32


def chain_normals(seed, shape, sweeps):
    """The first `sweeps` sweeps' innovations of chain stream `seed`, replayed
    key block by key block, `shape` per sweep: (n,) for one chain, (2, n) for
    a coupled pair's u and v."""
    blocks = [stream(seed, 21, b).standard_normal((SWEEP_BLOCK, *shape))
              for b in range(-(-sweeps // SWEEP_BLOCK))]
    return np.concatenate([np.empty((0, *shape)), *blocks])[:sweeps]


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


def test_spec_names_the_range_where_lanczos_breaks_down():
    # the Krylov space of one edge among 5 nodes is invariant after three steps
    with pytest.raises(ValueError, match=re.escape("eta=1.5 outside the graph's admissible "
                                                   "range (-1, 1)")):
        GmrfSpec(Graph(5, [(0, 1)]), 1.5)


def test_spec_compares_and_hashes_by_identity():
    # the array fields would make a field-wise == ambiguous and the hash fail
    g = triangle()
    spec, again = GmrfSpec(g, 0.1), GmrfSpec(g, 0.1)
    assert spec == spec
    assert len({spec, spec}) == 1
    assert spec != again and len({spec, again}) == 2


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf])
def test_tau_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError, match="eta must be finite"):
        tau_from_eta(triangle(), eta)
    with pytest.raises(ValueError, match="eta must be finite"):
        tau_from_eta(Graph(3, []), eta)


def test_tau_is_one_for_every_finite_eta_without_edges():
    # I - eta*H = I on a graph with no edges
    for eta in (-1e300, -5.0, 0.0, 0.25, 7.0, 1e300):
        assert np.array_equal(tau_from_eta(Graph(3, []), eta), np.ones(3))


def _levelled_graphs():
    # a chorded torus and a kNN graph that take 3 levels each
    return {"torus": torus_with_chords(40, 40, 200, seed=1),
            "knn": knn_geometric_graph(1000, 6, seed=3)}


def _oracle_graphs():
    return [torus_with_chords(18, 18, 60, seed=1), knn_geometric_graph(300, 6, seed=3),
            *(random_graph(40, 0.2, seed=seed) for seed in range(3)),
            *_levelled_graphs().values(), knn_geometric_graph(1600, 6, seed=3)]


def _ends_of_range(g):
    vals = np.linalg.eigvalsh(g.adjacency())
    return 0.98 / vals[0], 0.98 / vals[-1]


def test_factorization_and_eta_range_agree_at_the_ends():
    # the Cholesky factor is the only admissibility check; it accepts eta just
    # inside either end of the Lanczos range and rejects it just outside
    for g in _oracle_graphs():
        lo, hi = eta_range(g)
        for end in (lo, hi):
            assert np.all(tau_from_eta(g, (1.0 - 1e-9) * end) > 0.0)
            message = f"admissible range ({lo:.6g}, {hi:.6g})"
            with pytest.raises(ValueError, match=re.escape(message)):
                tau_from_eta(g, (1.0 + 1e-9) * end)


def test_tau_matches_dense_inverse_oracle():
    for g in _oracle_graphs():
        eye = np.eye(g.node_count)
        for eta in _ends_of_range(g):
            want = 1.0 / np.diag(np.linalg.inv(eye - eta * g.adjacency()))
            assert np.max(np.abs(tau_from_eta(g, eta) / want - 1.0)) < 1e-12


def _elimination_graphs():
    # a star (R is its hub), a complete graph (C is one node), isolated nodes
    # next to edges, and a bipartite torus (C is one colour, m = n/2)
    return {"star": Graph(30, [(0, t) for t in range(1, 30)]),
            "complete": Graph(12, [(s, t) for s in range(12) for t in range(s + 1, 12)]),
            "isolated": Graph(9, [(1, 2), (2, 3), (3, 1), (5, 6), (6, 7)]),
            "bipartite": torus_lattice(24, 24)}


def test_independent_set_is_maximal_and_eliminates_what_each_case_names():
    graphs = _elimination_graphs()
    for g in [*graphs.values(), *_oracle_graphs()]:
        in_c = gmrf._independent_set(g.indptr, g.indices, np.argsort(g.degrees, kind="stable"))
        u, v = np.repeat(np.arange(g.node_count), g.degrees), g.indices
        assert not np.any(in_c[u] & in_c[v])
        # every node left out has a neighbour in the set
        assert np.all(np.bincount(u[in_c[v]], minlength=g.node_count)[~in_c] > 0)
    n = {name: g.node_count for name, g in graphs.items()}
    sizes = {name: int(gmrf._independent_set(g.indptr, g.indices,
                                             np.argsort(g.degrees, kind="stable")).sum())
             for name, g in graphs.items()}
    assert sizes == {"star": n["star"] - 1, "complete": 1, "isolated": 6,
                     "bipartite": n["bipartite"] // 2}


@pytest.mark.parametrize("name", sorted(_elimination_graphs()))
def test_tau_eliminates_the_independent_set_exactly(name):
    g = _elimination_graphs()[name]
    eye = np.eye(g.node_count)
    for eta in _ends_of_range(g):
        want = 1.0 / np.diag(np.linalg.inv(eye - eta * g.adjacency()))
        assert np.max(np.abs(tau_from_eta(g, eta) / want - 1.0)) < 1e-12
    lo, hi = eta_range(g)
    for end in (lo, hi):
        assert np.all(tau_from_eta(g, (1.0 - 1e-9) * end) > 0.0)
        message = f"admissible range ({lo:.6g}, {hi:.6g})"
        with pytest.raises(ValueError, match=re.escape(message)):
            tau_from_eta(g, (1.0 + 1e-9) * end)


def _complete(n):
    return Graph(n, [(s, t) for s in range(n) for t in range(s + 1, n)])


def _complete_bipartite(n):
    return Graph(2 * n, [(s, t) for s in range(n) for t in range(n, 2 * n)])


def test_level_counts_are_pinned():
    # the benchmark's paper, dense and knn_fit graphs, and complete graphs,
    # whose fill makes every level cost more than it saves
    cases = {"paper": (torus_with_chords(18, 18, 60, seed=1), 1, 196),
             "dense": (torus_with_chords(70, 70, 900, seed=1), 5, 1608),
             "knn_fit": (knn_geometric_graph(1600, 6, seed=3), 5, 607),
             "torus": (_levelled_graphs()["torus"], 3, 636),
             "knn": (_levelled_graphs()["knn"], 3, 521),
             "K40,40": (_complete_bipartite(40), 0, 80),
             "K12": (_complete(12), 0, 12)}
    for name, (g, count, m) in cases.items():
        levels, indptr, _ = gmrf._elimination_plan(g)
        assert (len(levels), indptr.size - 1) == (count, m), name


def test_level_rule_decides_from_the_fill_count_before_building_it(monkeypatch):
    # K_{400,400} would fill each of 400 eliminated rows with 400^2 entries;
    # the rule is asked once, with that count, and says no
    calls = []
    rule = gmrf._level_pays
    monkeypatch.setattr(gmrf, "_level_pays", lambda *args: calls.append(args) or rule(*args))
    levels, indptr, _ = gmrf._elimination_plan(_complete_bipartite(400))
    assert (levels, indptr.size - 1) == ([], 800)
    assert calls == [(800, 400, 400 ** 3)]


def _plan_arrays(plan):
    levels, indptr, indices = plan
    return [*(getattr(level, f.name) for level in levels for f in fields(level)), indptr, indices]


def test_elimination_plan_is_a_function_of_the_graph(monkeypatch):
    # both etas of a run, and a second graph built from the same edges, get
    # the same plan, array for array
    g = _levelled_graphs()["torus"]
    plans = []
    plan = gmrf._elimination_plan

    def spy(graph):
        plans.append(plan(graph))
        return plans[-1]

    monkeypatch.setattr(gmrf, "_elimination_plan", spy)
    for graph, eta in ((g, 0.12), (g, -0.18), (Graph(g.node_count, g.edges), 0.12)):
        tau_from_eta(graph, eta)
    first = _plan_arrays(plans[0])
    assert len(plans[0][0]) == 3
    for other in plans[1:]:
        arrays = _plan_arrays(other)
        assert len(arrays) == len(first)
        assert all(np.array_equal(a, b) for a, b in zip(first, arrays))


def test_tau_from_eta_builds_one_plan_per_graph_and_drops_it_with_the_graph(monkeypatch):
    # every eta on a graph reads the plan its first call built, to the bits a
    # fresh plan gives; the plan lives only as long as its graph
    monkeypatch.setattr(gmrf, "_PLANS", weakref.WeakKeyDictionary())
    real, calls = gmrf._elimination_plan, []
    monkeypatch.setattr(gmrf, "_elimination_plan", lambda graph: calls.append(graph) or real(graph))
    g = _levelled_graphs()["torus"]
    first, _, again = (tau_from_eta(g, eta) for eta in (0.12, -0.18, 0.12))
    assert calls == [g] and len(gmrf._PLANS) == 1
    fresh = tau_from_eta(Graph(g.node_count, g.edges), 0.12)
    assert len(calls) == 2
    assert first.tobytes() == again.tobytes() == fresh.tobytes()
    calls.clear()
    del g
    gc.collect()
    assert len(gmrf._PLANS) == 0


def _no_dense_tail(monkeypatch):
    def fail(S):
        raise AssertionError("the dense tail was reached")
    monkeypatch.setattr(gmrf, "_inverse_in_place", fail)


def test_a_pivot_of_a_later_level_rejects_eta(monkeypatch):
    # the pivots of the first level are the ones of I - eta*H, so eta = 0.5,
    # far outside the range, fails at a pivot of the second level, and the
    # ValueError names the range without the dense tail being reached
    g = _levelled_graphs()["torus"]
    lo, hi = eta_range(g)
    _no_dense_tail(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"admissible range ({lo:.6g}, {hi:.6g})")):
        tau_from_eta(g, 0.5)


def test_an_overflowing_eta_fails_at_a_pivot_over_several_levels(monkeypatch):
    # eta^2 = inf makes the pivots of the second level -inf
    _no_dense_tail(monkeypatch)
    with pytest.raises(ValueError, match="not positive definite"):
        tau_from_eta(_levelled_graphs()["torus"], 1e300)


def test_tau_rejects_an_eta_whose_square_overflows():
    # no level pays on this 16-node torus, so the whole-matrix factor meets
    # the entries -1e300 and fails; the test over several levels, above,
    # meets eta^2 = inf
    with pytest.raises(ValueError, match="not positive definite"):
        tau_from_eta(torus_lattice(4, 4), 1e300)


def test_tau_from_eta_keeps_the_dense_node_limit():
    # the independent set would leave a 1 x 1 S here, but the limit holds
    # before anything of the graph's size is allocated
    g = Graph(5001, [(0, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dense adjacency limited to 5000 nodes, "
                                             "graph has 5001"):
            tau_from_eta(g, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.node_count


@pytest.mark.parametrize("n", [1, 128, 129, 257, 301])
def test_inverse_cholesky_matches_the_inverse_of_the_whole_factor(n):
    # _inverse_in_place against np.linalg.inv of the whole matrix.  128 is
    # one leaf; 129 splits into leaves of 64 and 65; 257 splits a 129-block
    # again; 301 splits into odd halves at two levels.  The NaN above the
    # diagonal shows that only the lower triangle is read
    g = knn_geometric_graph(n, 6, seed=n) if n > 1 else Graph(1, [])
    for eta in _ends_of_range(g) if n > 1 else (-0.5, 0.5):
        M = np.eye(n) - eta * g.adjacency()
        want = np.linalg.inv(M)
        got = M.copy()
        got[np.triu_indices(n, 1)] = np.nan
        gmrf._inverse_in_place(got)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_tau_from_eta_reads_one_triangle_of_the_tail_inverse(monkeypatch):
    # Sigma of the tail is read from the lower triangle alone, so it is
    # exactly symmetric, as the backward walk's mirror assumes: NaN above the
    # diagonal of the finished inverse leaves every tau2 bit as it was
    g = _levelled_graphs()["torus"]
    want = tau_from_eta(g, 0.1)
    invert, open_calls = gmrf._inverse_in_place, []

    # the recursion calls the patched name for its halves, whose upper
    # triangles it still reads; only the outermost call is poisoned
    def lower_only(S):
        open_calls.append(S)
        invert(S)
        open_calls.pop()
        if not open_calls:
            S[np.triu_indices(S.shape[0], 1)] = np.nan

    monkeypatch.setattr(gmrf, "_inverse_in_place", lower_only)
    assert np.array_equal(tau_from_eta(g, 0.1), want)


def test_tau_from_eta_holds_one_matrix_and_quarter_size_temporaries():
    # the odd side makes the torus non-bipartite, so S is larger than n/2 x n/2;
    # S, inverted in place, and its inverse's quarter-size temporaries stay
    # below 1.5 n x n arrays, where a whole-matrix np.linalg.inv holds at
    # least two at once
    g = torus_lattice(24, 25)
    n = g.node_count
    tracemalloc.start()
    try:
        tau_from_eta(g, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * n * n


def test_tau_from_eta_factors_only_the_schur_complement():
    # on the bipartite torus one colour is eliminated, so S is (n/2) x (n/2),
    # a quarter of the n x n array the whole factorization would hold
    g = torus_lattice(24, 24)
    n = g.node_count
    tracemalloc.start()
    try:
        tau_from_eta(g, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 8 * n * n


def test_tau_from_eta_holds_the_tail_not_the_first_schur_complement():
    # three levels leave 636 of the 1600 nodes; one level would leave 955, and
    # its S alone would take 0.36 n x n arrays
    g = _levelled_graphs()["torus"]
    n = g.node_count
    tracemalloc.start()
    try:
        tau_from_eta(g, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * 8 * n * n


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
    indptr, indices = spec.graph.indptr, spec.graph.indices
    nbrs = indices[indptr[s]:indptr[s + 1]]
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
    ChainConfig(np.int64(10), np.int32(2), 0)
    with pytest.raises(ValueError):
        ChainConfig(-1, 0, 0)
    for iterations, burn_in, name in ((5.0, 0, "iterations"), (True, 0, "iterations"),
                                      (5, 1.5, "burn_in"), (5, False, "burn_in")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ChainConfig(iterations, burn_in, 1)


def test_chain_rejects_a_seed_that_is_not_an_integer():
    # ChainConfig(10, 2, 1.5) used to run seed 1's chain
    g = torus_lattice(4, 4)
    with pytest.raises(ValueError, match="must be integers, got 1.5"):
        gibbs_chain(GmrfSpec(g, 0.1), concliques(g), ChainConfig(10, 2, 1.5))


@pytest.mark.parametrize("iterations, burn_in, trace_every, message", [
    (-1, 0, 0, "iterations and burn_in must be non-negative"),
    (10, -3, 0, "iterations and burn_in must be non-negative"),
    (10, 20, 0, "burn_in must be smaller than iterations"),
    (10, 0, -2, "trace_every must be non-negative"),
    (5.0, 0, 0, "iterations must be an integer, got 5.0"),
    (5, 1.5, 1, "burn_in must be an integer, got 1.5"),
    (5, 0, 2.5, "trace_every must be an integer, got 2.5"),
    (True, 0, 0, "iterations must be an integer, got True"),
    (5, 0, True, "trace_every must be an integer, got True"),
    (np.float64(5), 0, 0, "iterations must be an integer"),
    (5, 0, 0, "needs at least one spec")])
def test_chain_engine_checks_its_run_length(iterations, burn_in, trace_every, message):
    # the rule of ChainConfig, for callers that pass the run length directly;
    # the last case passes no spec at all
    g = triangle()
    specs = [] if message.startswith("needs") else [GmrfSpec(g, 0.2)]
    with pytest.raises(ValueError, match=message):
        chain_engine(specs, concliques(g), iterations, burn_in,
                     trace_every)([(1, None)][:len(specs)])


def test_gibbs_zero_iterations_returns_alpha():
    g = triangle()
    spec = GmrfSpec(g, 0.2, alpha=3.0)
    final, trace = gibbs_chain(spec, concliques(g), ChainConfig(0, 0, 1))
    assert np.array_equal(final, np.full(3, 3.0))
    assert trace is None
    other = GmrfSpec(g, -0.1, alpha=[1.0, -2.0, 0.5])
    final, trace = chain_engine([spec, other], concliques(g), 0, trace_every=1)([(1, 0.5)])
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

    z = chain_normals(cfg.seed, (g.node_count,), 1)[0]
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
    and returns alpha + sqrt(tau2) * y.  Each sum runs left to right: the
    neighbours' eta*y in neighbour-list order, then the innovation, added
    one at a time to a running total that starts from zero.
    `innovations()` returns the next sweep's standard normals, one row per
    chain."""
    ys = [np.zeros(spec.graph.node_count) for spec in specs]
    for _ in range(iterations):
        z = innovations()
        pos = 0
        for cls in partition.classes:
            for y, spec, zc in zip(ys, specs, z):
                new = np.zeros(cls.size)
                for i, s in enumerate(cls):
                    row = spec.graph.indices[spec.graph.indptr[s]:spec.graph.indptr[s + 1]]
                    for term in (*(spec.eta * y[row]), zc[pos + i]):
                        new[i] += term
                y[cls] = new
            pos += cls.size
    return np.array([spec.alpha + np.sqrt(spec.tau2) * y for y, spec in zip(ys, specs)])


def test_chain_engine_matches_per_chain_sweeps_bitwise():
    # coupled pair plus an independent chain, over enough sweeps to cross
    # the engine's innovation blocks
    g = torus_with_chords(4, 5, 6, 2)
    part = concliques(g)
    specs = [GmrfSpec(g, 0.1, alpha=0.5), GmrfSpec(g, -0.15), GmrfSpec(g, 0.2, alpha=-1.0)]
    rho, iterations = 0.6, 3500
    got, _ = chain_engine(specs, part, iterations)([(31, rho), (32, None)])

    coupled = iter(chain_normals(31, (2, g.node_count), iterations))
    single = iter(chain_normals(32, (g.node_count,), iterations))

    def innovations():
        u, v = next(coupled)
        return u, rho * u + np.sqrt(1.0 - rho * rho) * v, next(single)

    assert np.array_equal(got, reference_sweeps(specs, part, innovations, iterations))


@pytest.mark.parametrize("case", ["paper_etas_coupled", "range_edges"])
def test_chain_engine_final_state_equals_a_full_run_bitwise(case):
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
    got, _ = chain_engine(specs, part, 3000)(streams)
    full, _ = chain_engine(specs, part, 3000, trace_every=3000)(streams)
    assert np.array_equal(got, full)


@pytest.mark.parametrize("trace_every", [0, 7])
@pytest.mark.parametrize("name", ["paper", "torus4x5"])
def test_one_engine_runs_every_set_of_streams_to_the_bits_of_a_fresh_engine(name, trace_every):
    # the engine is built and probed once; each run starts from zero, so no
    # state of the probe or of an earlier run reaches a later one (with no
    # burn-in the first traced state shows the start).  Each stream set also
    # runs on an engine built for it alone.
    g = torus_with_chords(18, 18, 60, seed=1) if name == "paper" else torus_with_chords(4, 5, 6, 2)
    part = concliques(g)
    specs = [GmrfSpec(g, eta, alpha=0.5) for eta in (0.12, -0.18, 0.12)]
    iterations, burn_in = 3000, 0
    engine = chain_engine(specs, part, iterations, burn_in, trace_every)
    for streams in ([(41, 0.7), (42, None)], [(5, None), (6, None), (7, None)],
                    [(41, 0.7), (42, None)], [(8, -0.3), (9, None)]):
        got = engine(streams)
        want = chain_engine(specs, part, iterations, burn_in, trace_every)(streams)
        assert np.array_equal(got[0], want[0])
        assert (got[1] is None) == (trace_every == 0) == (want[1] is None)
        assert trace_every == 0 or np.array_equal(got[1], want[1])


def _record_chain_blocks(monkeypatch, poison_before):
    """Record the (seed, block) of every chain-stream key the engine builds,
    and make the innovations of every sweep before `poison_before` NaN."""
    real, built = gmrf.stream, []

    class Poisoned:
        def __init__(self, rng, first):
            self.rng, self.first = rng, first

        def standard_normal(self, shape):
            w = self.rng.standard_normal(shape)
            w[:max(0, poison_before - self.first)] = np.nan
            return w

    def recording_stream(seed, *keys):
        rng = real(seed, *keys)
        if keys[0] != gmrf._TAG_CHAIN:
            return rng
        built.append((seed, keys[1]))
        return Poisoned(rng, keys[1] * SWEEP_BLOCK)

    monkeypatch.setattr(gmrf, "stream", recording_stream)
    return built


def test_chain_engine_never_applies_the_sweeps_that_cannot_reach_the_final_state(monkeypatch):
    # K0 = 70 on the paper graph at these etas, so the untraced run sweeps
    # from 2860 = 89*32 + 12: it never builds blocks 0..88, and draws but
    # never applies sweeps 2848..2859.  A NaN innovation poisons every later
    # state of a chain that applies it, and a traced run applies them all.
    g = torus_with_chords(18, 18, 60, seed=1)
    part = concliques(g)
    specs = [GmrfSpec(g, eta) for eta in (0.12, -0.18, 0.12)]
    streams = [(41, 0.7), (42, None)]
    clean, _ = chain_engine(specs, part, 3000)(streams)
    skip, blocks = 3000 - 2 * 70, -(-3000 // SWEEP_BLOCK)
    built = _record_chain_blocks(monkeypatch, poison_before=skip)
    poisoned, _ = chain_engine(specs, part, 3000)(streams)
    assert sorted(built) == [(seed, b) for seed in (41, 42)
                             for b in range(skip // SWEEP_BLOCK, blocks)]
    assert np.array_equal(poisoned, clean)
    built.clear()
    traced, _ = chain_engine(specs, part, 3000, trace_every=3000)(streams)
    assert sorted(built) == [(seed, b) for seed in (41, 42) for b in range(blocks)]
    assert np.isnan(traced).all()


def test_chain_engine_traced_run_sweeps_every_sweep():
    # untraced, these chains would skip most of their 300 sweeps; traced,
    # every kept state and the final one are the per-chain sweeps from the start
    g = torus_with_chords(4, 5, 6, 2)
    part = concliques(g)
    specs = [GmrfSpec(g, 0.1, alpha=0.5), GmrfSpec(g, -0.15)]
    rho = 0.6
    got, trace = chain_engine(specs, part, 300, burn_in=9, trace_every=100)([(51, rho)])

    def replay(iterations):
        coupled = iter(chain_normals(51, (2, g.node_count), iterations))

        def innovations():
            u, v = next(coupled)
            return u, rho * u + np.sqrt(1.0 - rho * rho) * v

        return reference_sweeps(specs, part, innovations, iterations)

    assert trace.shape == (3, 2, g.node_count)
    for kept, it in zip(trace, (9, 109, 209)):
        assert np.array_equal(kept, replay(it + 1))
    assert np.array_equal(got, replay(300))


def _sweep_cases():
    """(graph, partition) inputs of the engine: the chorded torus (degrees up
    to 7), a wheel whose hub sums 12 neighbours and its innovation, where
    numpy's pairwise sum (8 terms and up) rounds otherwise than left to
    right, the torus's
    concliques with empty classes among them, and a path whose isolated node
    shares a class of width 3 with nodes of degree 1 and 2."""
    torus = torus_with_chords(4, 5, 6, 2)
    wheel = Graph(13, [(0, k) for k in range(1, 13)] + [(k, k % 12 + 1) for k in range(1, 13)])
    empty, classes = np.empty(0, np.int64), concliques(torus).classes
    return {"torus4x5": (torus, concliques(torus)),
            "wheel12": (wheel, concliques(wheel)),
            "empty_classes": (torus, ConcliquePartition(
                (empty, classes[0], empty, *classes[1:], empty))),
            "isolated_node": (Graph(5, [(0, 1), (1, 2), (2, 3)]),
                              ConcliquePartition(([0, 2, 4], [1, 3])))}


_SHORT_RUNS = {   # name: (etas, iterations)
    "near_edge": ((0.1, -0.15, 0.2), 500),   # eta 0.2 contracts in about 470 sweeps: past the probe's cap
    "short": ((0.1, -0.15), 12),             # too few sweeps for a skip to pay
    "eta_zero": ((0.0,), 400),               # an eta = 0 chain contracts in one sweep
    "eta_zero_with_other": ((0.0, 0.1), 400),
    "zero_iterations": ((0.1, -0.15), 0),
}


# each run on each case, untraced and traced; the untraced torus keeps the run's name
@pytest.mark.parametrize("run, case, trace_every", [
    pytest.param(run, case, trace_every, id=run if (case, trace_every) == ("torus4x5", 0)
                 else f"{run}-{case}-{'traced' if trace_every else 'untraced'}")
    for run in _SHORT_RUNS for case in sorted(_sweep_cases()) for trace_every in (0, 1)])
def test_chain_engine_short_and_degenerate_runs_match_per_chain_sweeps(run, case, trace_every):
    (etas, iterations), (g, part) = _SHORT_RUNS[run], _sweep_cases()[case]
    specs = [GmrfSpec(g, eta, alpha=0.5) for eta in etas]
    seeds = range(61, 61 + len(etas))
    got, trace = chain_engine(specs, part, iterations,
                              trace_every=trace_every)([(seed, None) for seed in seeds])
    normals = [iter(chain_normals(seed, (g.node_count,), iterations)) for seed in seeds]
    want = reference_sweeps(specs, part, lambda: [next(z) for z in normals], iterations)
    assert np.array_equal(got, want)
    assert not (trace_every and iterations) or np.array_equal(trace[-1], got)


def test_chain_engine_batched_runs_equal_one_chain_runs():
    g = torus_with_chords(6, 6, 8, 1)
    part = concliques(g)
    specs = [GmrfSpec(g, eta, alpha=a) for eta, a in ((0.12, 0.0), (-0.18, 2.0), (0.05, -1.0))]
    seeds = (3, 4, 5)
    batched, trace = chain_engine(specs, part, 120, burn_in=20,
                                  trace_every=25)([(s, None) for s in seeds])
    assert trace.shape == (4, 3, g.node_count)
    for c, (spec, seed) in enumerate(zip(specs, seeds)):
        one, one_trace = gibbs_chain(spec, part, ChainConfig(120, 20, seed), trace_every=25)
        assert np.array_equal(batched[c], one)
        assert np.array_equal(trace[:, c], one_trace)


def test_chain_engine_sweeps_agree_with_conditional_params():
    # several chains and sweeps by hand through the per-node conditional
    # oracle, replaying each stream's innovations (u then v for the pair)
    g = torus_lattice(3, 4)
    part = concliques(g)
    specs = [GmrfSpec(g, 0.1), GmrfSpec(g, -0.2, alpha=1.5), GmrfSpec(g, 0.15, alpha=-0.5)]
    rho = -0.4
    got, _ = chain_engine(specs, part, 3)([(77, rho), (78, None)])

    xs = [spec.alpha.copy() for spec in specs]
    for (u, v), w in zip(chain_normals(77, (2, 12), 3), chain_normals(78, (12,), 3)):
        zs = (u, rho * u + np.sqrt(1.0 - rho * rho) * v, w)
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
        z1, z2 = chain_normals(13, (n,), 2)
        one, _ = chain_engine([spec], part, 1)([(13, None)])
        two, _ = chain_engine([spec], part, 2)([(13, None)])
        assert np.max(np.abs(one[0] - 0.5 - B @ z1)) < 1e-12
        assert np.max(np.abs(two[0] - 0.5 - (A @ (B @ z1) + B @ z2))) < 1e-12

        S, power = B @ B.T, A
        while np.max(np.abs(power)) > 1e-20:
            S, power = S + power @ S @ power.T, power @ power
        cov, _ = joint_covariance(spec)
        assert np.max(np.abs(S - cov)) < 1e-12
        assert np.max(np.abs(np.diag(S) - 1.0)) < 1e-12


def probe_k0(A):
    """K0 by the engine's rule: sweeps of A from the probe's start
    stream(0, 23) until max|y| is below 2^-60 of the start's."""
    y = stream(0, 23).standard_normal((A.shape[0], 1))[:, 0]
    tol, k0 = 2.0 ** -60 * np.abs(y).max(), 0
    while np.abs(y).max() >= tol:
        y, k0 = A @ y, k0 + 1
    return k0


def _skip_cases():
    graphs = {"paper": (torus_with_chords(18, 18, 60, seed=1), (0.12, -0.18)),
              "knn300": (knn_geometric_graph(300, 6, seed=3), (0.1,)),
              "torus4x5": (torus_with_chords(4, 5, 6, 2), (0.1, -0.15, 0.2))}
    return [pytest.param(g, eta, id=f"{name}-{eta:.4g}") for name, (g, etas) in graphs.items()
            for eta in (*etas, *(0.9 * end for end in eta_range(g)))]


@pytest.mark.parametrize("g, eta", _skip_cases())
def test_skipped_sweeps_reach_the_final_state_only_through_a_negligible_map(g, eta, monkeypatch):
    # exact oracle for the skip: the state K = 2*K0 sweeps before the end
    # reaches the final state only through A^K, and ||A^K|| <= 2^-100 is far
    # below the final state's last bit.  A is the sweep map of the
    # standardized y in the engine's class order, (I - eta*L)^{-1} eta*U with
    # L and U the adjacency to earlier and later classes.  The dense K0 is
    # the engine's: with m key blocks past 2*K0, a run of 2*K0 + 32m sweeps
    # first draws block m and a run one sweep shorter block m - 1.
    part, spec = concliques(g), GmrfSpec(g, eta)
    order, sd = np.concatenate(part.classes), np.sqrt(spec.tau2)
    A = (sweep_map(spec, part)[0] * sd[None, :] / sd[:, None])[np.ix_(order, order)]
    k0 = probe_k0(A)
    m = -(-(k0 + 2) // SWEEP_BLOCK)   # so the probe cap (iterations - 1) // 3 reaches K0
    built, firsts = _record_chain_blocks(monkeypatch, poison_before=0), []
    for iterations in (2 * k0 + SWEEP_BLOCK * m, 2 * k0 + SWEEP_BLOCK * m - 1):
        built.clear()
        chain_engine([spec], part, iterations)([(1, None)])
        firsts.append(min(b for _, b in built))
    assert firsts == [m, m - 1]
    assert np.abs(np.linalg.matrix_power(A, 2 * k0)).sum(axis=1).max() <= 2.0 ** -100


def test_chain_engine_isolated_node_is_alpha_plus_innovation():
    # node 4 has no neighbours, so its update sums only its innovation and,
    # if its class is wider, zero rows
    g = Graph(5, [(0, 1), (1, 2), (2, 3)])
    part = concliques(g)
    spec = GmrfSpec(g, -0.3, alpha=0.7)
    got, _ = chain_engine([spec], part, 3)([(9, None)])
    z = chain_normals(9, (5,), 3)[-1]
    at = int(np.flatnonzero(np.concatenate(part.classes) == 4)[0])
    assert got[0, 4] == 0.7 + np.sqrt(spec.tau2[4]) * z[at]


def test_chain_engine_rejects_bad_streams():
    g = torus_lattice(3, 3)
    part = concliques(g)
    spec = GmrfSpec(g, 0.1)
    for rho in (1.0, -1.0, 1.2):
        with pytest.raises(ValueError, match="rho"):
            chain_engine([spec, spec], part, 5)([(1, rho)])
    with pytest.raises(ValueError, match="one chain per spec"):
        chain_engine([spec, spec], part, 5)([(1, None)])
    with pytest.raises(ValueError, match="one graph"):
        chain_engine([spec, GmrfSpec(torus_lattice(3, 3), 0.1)], part,
                     5)([(1, None), (2, None)])


@pytest.mark.parametrize("trace_every", [0, 3])
def test_chain_engine_refused_run_leaves_the_engine_usable(trace_every):
    # a run refuses its streams before it touches the shared state, so the
    # next good run has the bits of a freshly built engine
    g = torus_with_chords(4, 5, 6, 2)
    part = concliques(g)
    specs = [GmrfSpec(g, 0.1, alpha=0.5), GmrfSpec(g, -0.15), GmrfSpec(g, 0.2)]
    engine = chain_engine(specs, part, 40, 5, trace_every)
    good = [(3, 0.6), (4, None)]
    engine(good)
    for bad, match in (([(3, 1.0), (4, None)], "rho"), ([(3, -1.5), (4, None)], "rho"),
                       ([(3, 0.6)], "one chain per spec"),
                       ([(3, None), (4, None)], "one chain per spec"),
                       ([(3, 0.6), (4, None), (5, None)], "one chain per spec")):
        with pytest.raises(ValueError, match=match):
            engine(bad)
        got, trace = engine(good)
        want, want_trace = chain_engine(specs, part, 40, 5, trace_every)(good)
        assert np.array_equal(got, want)
        assert trace_every == 0 or np.array_equal(trace, want_trace)


def _bad_partitions():
    # the checkerboard of the 4 x 4 torus, broken three ways
    g = torus_lattice(4, 4)
    even, odd = concliques(g).classes
    moved = g.indices[g.indptr[even[0]]]   # the first neighbour of even[0]
    return g, {
        "do not cover node": (even,),
        "repeat node": (even, odd, even[:1]),
        "not independent": (np.append(even, moved), odd[odd != moved]),
    }


@pytest.mark.parametrize("problem", sorted(_bad_partitions()[1]))
def test_chain_engine_rejects_partitions_that_are_not_concliques(problem):
    g, partitions = _bad_partitions()
    with pytest.raises(ValueError, match=problem):
        chain_engine([GmrfSpec(g, 0.1)], ConcliquePartition(partitions[problem]),
                     5)([(1, None)])


def test_chain_engine_takes_list_classes_as_arrays():
    g = torus_lattice(3, 3)
    classes = ([0, 4, 8], [1, 5, 6], [2, 3, 7])
    runs = [chain_engine([GmrfSpec(g, 0.1)], ConcliquePartition(part), 40,
                         trace_every=7)([(1, None)])
            for part in (classes, tuple(map(np.array, classes)))]
    for got, want in zip(*runs):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("trace_every", [0, 1])
def test_chain_engine_rejects_a_graph_without_nodes(trace_every):
    g = Graph(0, [])
    with pytest.raises(ValueError, match="at least one node"):
        chain_engine([GmrfSpec(g, 0.1)], concliques(g), 10, trace_every=trace_every)([(1, None)])


def test_chain_engine_eta_zero_chain_returns_its_last_innovations_exactly():
    # u = eta*y is zero, so y must come from the sums, never from u / eta
    g = torus_with_chords(4, 5, 6, 2)
    part = concliques(g)
    specs = [GmrfSpec(g, 0.0, alpha=0.25), GmrfSpec(g, 0.1)]
    got, trace = chain_engine(specs, part, 7, trace_every=3)([(4, None), (5, None)])
    order = np.concatenate(part.classes)
    z = np.empty(g.node_count)
    z[order] = chain_normals(4, (g.node_count,), 7)[-1]
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


@pytest.mark.parametrize("count, message", [(2.7, "count must be an integer, got 2.7"),
                                            (True, "count must be an integer, got True"),
                                            (-1, "count must be non-negative, got -1")])
def test_direct_sample_rejects_counts_that_are_not_counts(count, message):
    # 2.7 used to give 2 draws and True 1
    spec = GmrfSpec(torus_lattice(3, 3), 0.1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        direct_sample(spec, seed=5, count=count)
    assert direct_sample(spec, seed=5, count=np.int64(2)).shape == (2, 9)


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

def test_chain_engine_coupled_correlates_innovations():
    # at eta 0 every kept state is exactly that sweep's innovations, so the
    # trace holds 36 nodes x 3000 sweeps of coupled pairs
    g = torus_lattice(6, 6)
    spec = GmrfSpec(g, 0.0)
    for rho in (0.0, 0.7):
        _, trace = chain_engine([spec, spec], concliques(g), 3000, trace_every=1)([(9, rho)])
        pairs = trace.transpose(1, 0, 2).reshape(2, -1)
        assert np.corrcoef(pairs)[0, 1] == pytest.approx(rho, abs=0.02)
        # both margins standard normal
        assert np.max(np.abs(pairs.mean(axis=1))) < 0.02
        assert np.max(np.abs(pairs.var(axis=1) - 1.0)) < 0.02


def test_coupled_pair_is_the_pair_of_sweep_maps_on_shared_innovations():
    # exact oracle for `innovations` coupling: two coupled sweeps from alpha
    # replay through each chain's sweep map, the first chain fed u and the
    # second rho*u + sqrt(1 - rho^2)*v.  The stationary cross-covariance
    # solves the Stein equation S = A1 S A2^T + rho B1 B2^T (solved by
    # doubling); with equal etas it is rho times the joint covariance.
    rho = 0.7
    for g, etas in [(torus_with_chords(18, 18, 60, seed=1), (0.12, -0.18)),
                    (Graph(4, [(0, 1), (0, 2), (0, 3)]), (0.4, -0.3)),
                    (knn_geometric_graph(300, 6, seed=3), (0.12, 0.12))]:
        n, part = g.node_count, concliques(g)
        specs = [GmrfSpec(g, etas[0], alpha=0.5), GmrfSpec(g, etas[1], alpha=-1.0)]
        (A1, B1), (A2, B2) = (sweep_map(spec, part) for spec in specs)
        (u1, v1), (u2, v2) = chain_normals(17, (2, n), 2)
        c = np.sqrt(1.0 - rho * rho)
        w1, w2 = rho * u1 + c * v1, rho * u2 + c * v2
        one, _ = chain_engine(specs, part, 1)([(17, rho)])
        two, _ = chain_engine(specs, part, 2)([(17, rho)])
        assert np.max(np.abs(one - [0.5 + B1 @ u1, -1.0 + B2 @ w1])) < 1e-12
        assert np.max(np.abs(two - [0.5 + A1 @ (B1 @ u1) + B1 @ u2,
                                    -1.0 + A2 @ (B2 @ w1) + B2 @ w2])) < 1e-12

        S, P1, P2 = rho * B1 @ B2.T, A1, A2
        while max(np.max(np.abs(P1)), np.max(np.abs(P2))) > 1e-20:
            S, P1, P2 = S + P1 @ S @ P2.T, P1 @ P1, P2 @ P2
        assert np.max(np.abs(S - A1 @ S @ A2.T - rho * B1 @ B2.T)) < 1e-12
        if etas[0] == etas[1]:
            assert np.max(np.abs(S - rho * joint_covariance(specs[0])[0])) < 1e-12


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
