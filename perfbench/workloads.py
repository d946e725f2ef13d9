"""The benchmark's workloads.

Each workload is one experiment config in the JSON document form that
`wavesieve.config_from_dict` reads.  The benchmark adds only the root seed
(its `--seed` argument), the replication count and the output directory;
the program sees nothing but the resulting config.

Every workload stresses a different layer, so that an optimisation of one
layer has a workload that exercises it and others that bypass it:

- paper:   the chain engine (conclique Gibbs sweeps and normal draws);
- dense:   the n^3 dense algebra behind `tau_from_eta` and `eta_range`;
- knn_fit: the sieve fits, the `final` coupling path and the expression
           regression evaluated point by point.

Why each was chosen is recorded in BENCHMARK.json and perfbench/README.md.
"""

from dataclasses import dataclass

# Seed kept out of every tuning run of the benchmark; a later claim of a
# gain must also hold on it.
HELD_OUT_SEED = 4242

# Calls one run may make; call seeds of different run seeds never overlap.
CALLS_PER_SEED = 1000

_PAPER_GRAPH = {"kind": "torus", "rows": 18, "cols": 18, "chords": 60,
                "chord_seed": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict              # experiment config without seed/replications/out_dir
    replications: int      # per run_experiment call; fixed, so results.csv is too
    setup_repeats: int     # least number of fresh-graph set-ups timed per run

    def config_doc(self, seed, out_dir):
        return {**self.doc, "seed": int(seed), "replications": self.replications,
                "out_dir": str(out_dir)}


WORKLOADS = {w.name: w for w in (
    Workload(
        "paper",
        {"graph": _PAPER_GRAPH, "etas": [0.12, -0.18, 0.12],
         "regression": "bivariate_paper", "wavelets": ["haar", "d4"],
         "levels": [1, 2, 3, 4], "chain": {"iterations": 3000},
         "copula_rho": 0.7, "coupling": "innovations", "noise_scale": 1.0,
         "test_fraction": 0.3},
        replications=1, setup_repeats=15),
    Workload(
        "dense",
        {"graph": {"kind": "torus", "rows": 70, "cols": 70, "chords": 900,
                   "chord_seed": 1},
         "etas": [0.12, -0.18, 0.12], "regression": "bivariate_paper",
         "wavelets": ["haar", "d4"], "levels": [1, 2, 3],
         "chain": {"iterations": 200}, "copula_rho": 0.7,
         "coupling": "innovations", "noise_scale": 1.0, "test_fraction": 0.3},
        replications=1, setup_repeats=1),
    Workload(
        "knn_fit",
        {"graph": {"kind": "knn", "points": 1600, "k": 6, "point_seed": 3},
         "etas": [0.1, 0.1, 0.1],
         "regression": "sin(2*pi*x1)*exp(-x2) + x1*x2",
         "wavelets": ["haar", "d4"], "levels": [1, 2, 3, 4, 5],
         "chain": {"iterations": 200}, "copula_rho": 0.5, "coupling": "final",
         "noise_scale": 1.0, "test_fraction": 0.3},
        replications=1, setup_repeats=3),
)}


def call_seed(seed, call):
    """Root seed of the `call`-th run_experiment call of a run at `seed`.

    Every call is a fresh experiment, so the calls of a run pool into one
    Monte Carlo sample for the reference check, and short calls give many
    timings per run.
    """
    if not 0 <= call < CALLS_PER_SEED:
        raise ValueError(f"call {call} outside 0..{CALLS_PER_SEED - 1}")
    return seed * CALLS_PER_SEED + call


def build_graph(ws, graph):
    """The graph constructor `_context` calls for this graph spec."""
    if graph["kind"] == "torus":
        return ws.torus_with_chords(graph["rows"], graph["cols"],
                                    graph["chords"], graph["chord_seed"])
    if graph["kind"] == "knn":
        return ws.knn_geometric_graph(graph["points"], graph["k"],
                                      graph["point_seed"])
    raise ValueError(f"no constructor for graph kind {graph['kind']!r}")


def setup_once(ws, workload):
    """The public calls `_context` makes before the first replication, on a
    fresh graph (Graph caches its spectrum and concliques)."""
    graph = build_graph(ws, workload.doc["graph"])
    ws.eta_range(graph)
    ws.concliques(graph)
    for name in workload.doc["wavelets"]:
        ws.cascade(ws.filter_by_name(name))
