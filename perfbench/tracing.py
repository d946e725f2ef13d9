"""Outside-in layer trace for the benchmark's traced run.

The package is not edited: the tracer replaces, for the duration of one
`run_experiment` call, the module-level names that `wavesieve.experiment`,
`wavesieve.gmrf` and `wavesieve.regression` look up at call time with
wrappers that record a span (name, start, end, parent) and a few counts.
A name missing from the program is reported as absent, not an error, so the
trace keeps working while the layers are refactored.

Span times are CPU seconds of the process (`time.process_time`), which,
unlike wall seconds, leave out the time the hypervisor gives the core to
others.  Self time is a span's duration minus the durations of its direct
children.
"""

import time
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory spans, summed counts and last-seen gauges; wrappers are
    installed by `patch`."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.gauges = {}
        self.absent = []
        self._stack = []
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.process_time()
            self._stack.pop()
            self.spans[idx].start, self.spans[idx].end = start, end

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if note is not None:
                note(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr, name, note=None, around=None):
        """Replace module.attr by a traced wrapper.  `around`, if given,
        wraps the original first, inside the span."""
        if not hasattr(module, attr):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        inner = original if around is None else around(original)
        setattr(module, attr, self.wrap(name, inner, note))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def totals(self):
        """{span name: (inclusive seconds, self seconds, calls)}."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.duration
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for span, kids in zip(self.spans, child):
            acc = out[span.name]
            acc[0] += span.duration
            acc[1] += span.duration - kids
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# counts taken at the wrapped boundaries

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _note_graph(tracer, args, kwargs, graph):
    tracer.gauges["graphs.nodes"] = graph.node_count


def _note_concliques(tracer, args, kwargs, partition):
    tracer.gauges["graphs.conclique_classes"] = len(partition.classes)


def _note_normals(tracer, args, kwargs, result):
    tracer.counts["rng.normals_drawn"] += int(_arg(args, kwargs, 1, "size"))


def _note_svd(tracer, args, kwargs, result):
    rows, cols = _arg(args, kwargs, 0, "B").shape
    p, q = max(rows, cols), min(rows, cols)
    counts = tracer.counts
    # Golub & Van Loan R-SVD count for sigma, U1 and V, computed from shapes
    counts["regression.svd_flops"] += 6 * p * q * q + 20 * q ** 3
    counts["regression.underdetermined_fits"] += rows < cols
    counts["regression.rank_deficient_fits"] += result[1].rank < q


def _count_disconnected(counts):
    """Wrap connected_split so it counts its 'learning set is disconnected'
    warnings instead of printing them."""
    def around(split):
        def call(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = split(*args, **kwargs)
            counts["graphs.split_disconnected"] += sum(
                "learning set is disconnected" in str(w.message) for w in caught)
            return result
        return call
    return around


def install(tracer, ws):
    """Wrap every traced boundary of the package `ws`."""
    exp, gmrf, reg = ws.experiment, ws.gmrf, ws.regression
    for name in ("torus_lattice", "torus_with_chords", "knn_geometric_graph",
                 "load_graph"):
        tracer.patch(exp, name, "graphs.build", _note_graph)
    tracer.patch(exp, "eta_range", "graphs.eta_range")
    tracer.patch(exp, "concliques", "graphs.concliques", _note_concliques)
    tracer.patch(exp, "connected_split", "graphs.split",
                 around=_count_disconnected(tracer.counts))
    tracer.patch(exp, "GmrfSpec", "gmrf.spec")
    tracer.patch(exp, "gibbs_chain", "gmrf.chain")
    tracer.patch(exp, "gibbs_chain_coupled", "gmrf.chain")
    tracer.patch(exp, "to_uniform", "gmrf.to_uniform")
    tracer.patch(gmrf, "polar_normals", "rng.normals", _note_normals)
    tracer.patch(exp, "polar_normals", "rng.normals", _note_normals)
    tracer.patch(exp, "cascade", "wavelets.cascade")
    tracer.patch(exp, "covering_sieve", "wavelets.sieve")
    tracer.patch(exp, "fit", "regression.fit")
    tracer.patch(reg, "design_matrix", "regression.design")
    tracer.patch(reg, "svd_lstsq", "regression.svd", _note_svd)
    tracer.patch(exp, "l2_error_mc", "regression.l2_error")
    tracer.patch(reg, "predict_batch", "regression.predict")


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = {
    # layer: span names whose self time belongs to it; together with
    # experiment.run they partition the traced run_s
    "graphs": ("graphs.build", "graphs.eta_range", "graphs.concliques",
               "graphs.split"),
    "gmrf": ("gmrf.spec", "gmrf.chain", "gmrf.to_uniform"),
    "rng": ("rng.normals",),
    "wavelets": ("wavelets.cascade", "wavelets.sieve"),
    "regression": ("regression.fit", "regression.design", "regression.svd",
                   "regression.predict", "regression.l2_error"),
    "experiment": ("experiment.run",),
}


def layer_metrics(tracer, calls, sweeps_by_chains):
    """Per-layer metrics as {name: (value, unit)}, per traced call.

    `calls` is the number of traced run_experiment calls in `tracer`;
    `sweeps_by_chains` is sweeps x chains x replications of one call, from
    which node updates are computed with the traced graph's node count.
    """
    tot = {k: (incl / calls, self_ / calls, n / calls)
           for k, (incl, self_, n) in tracer.totals().items()}
    counts = Counter({k: v / calls for k, v in tracer.counts.items()})
    gauges = tracer.gauges
    node_updates = gauges.get("graphs.nodes", 0) * sweeps_by_chains

    def incl(name):
        return tot.get(name, (0.0, 0.0, 0))[0]

    def self_s(name):
        return tot.get(name, (0.0, 0.0, 0))[1]

    def spans(name):
        return tot.get(name, (0.0, 0.0, 0))[2]

    chain_incl = incl("gmrf.chain")
    return {
        "graphs.build_s": (incl("graphs.build"), "s"),
        "graphs.eta_range_s": (incl("graphs.eta_range"), "s"),
        "graphs.concliques_s": (incl("graphs.concliques"), "s"),
        "graphs.conclique_classes": (gauges.get("graphs.conclique_classes", 0), "count"),
        "graphs.split_s": (incl("graphs.split"), "s"),
        "graphs.split_disconnected": (counts["graphs.split_disconnected"], "count"),
        "gmrf.spec_s": (incl("gmrf.spec"), "s"),
        "gmrf.spec_calls": (spans("gmrf.spec"), "count"),
        "gmrf.chain_s": (self_s("gmrf.chain"), "s"),
        "gmrf.chain_calls": (spans("gmrf.chain"), "count"),
        "gmrf.node_updates": (node_updates, "count"),
        "gmrf.node_updates_per_s": (node_updates / chain_incl if chain_incl else 0.0, "1/s"),
        "gmrf.to_uniform_s": (incl("gmrf.to_uniform"), "s"),
        "rng.normals_s": (incl("rng.normals"), "s"),
        "rng.normals_drawn": (counts["rng.normals_drawn"], "count"),
        "wavelets.cascade_s": (incl("wavelets.cascade"), "s"),
        "wavelets.sieve_s": (incl("wavelets.sieve"), "s"),
        "regression.fit_calls": (spans("regression.fit"), "count"),
        "regression.design_s": (incl("regression.design"), "s"),
        "regression.svd_s": (incl("regression.svd"), "s"),
        "regression.svd_flops": (counts["regression.svd_flops"], "flop"),
        "regression.predict_s": (incl("regression.predict"), "s"),
        "regression.l2_error_s": (self_s("regression.l2_error"), "s"),
        "regression.underdetermined_fits": (counts["regression.underdetermined_fits"], "count"),
        "regression.rank_deficient_fits": (counts["regression.rank_deficient_fits"], "count"),
        "experiment.self_s": (self_s("experiment.run"), "s"),
    }


def layer_shares(tracer):
    """{layer: share of the traced run_s} from self times; sums to 1."""
    tot = tracer.totals()
    run_s = tot["experiment.run"][0]
    return {layer: sum(tot.get(n, (0.0, 0.0, 0))[1] for n in names) / run_s
            for layer, names in LAYERS.items()}
