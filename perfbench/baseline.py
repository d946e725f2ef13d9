"""Layer costs by graph size, next to the figures ROADMAP.md quotes.

Measures per-replication time of the paper workload, `tau_from_eta` (the
dense inverse), `eta_range` on a fresh graph (power iteration) and one Gibbs
sweep at n = 324, 1600 and 4900, plus the knn:2000 build.  Each figure is
the median of REPEATS runs with its min..max range; a figure whose range does
not cover the ROADMAP value is flagged.

    python3 perfbench/baseline.py [label]     # writes perfbench/BENCH_<label>.json
"""

import json
import statistics
import sys
import time
import warnings

import repo  # first: pins the BLAS threads before numpy loads
import checks
import envinfo
import workloads

REPEATS = 3
ETA = 0.12
# (rows, cols, chords): the paper's chorded torus, scaled at equal chord density
SIZES = {324: (18, 18, 60), 1600: (40, 40, 296), 4900: (70, 70, 900)}
ROADMAP = {   # hand-measured figures in ROADMAP.md "Baseline"
    "paper.rep_s": 1.2,
    "tau_from_eta_s.n324": 0.014, "tau_from_eta_s.n1600": 0.38, "tau_from_eta_s.n4900": 6.3,
    "eta_range_s.n324": 0.086, "eta_range_s.n1600": 0.77, "eta_range_s.n4900": 1.5,
    "sweep_s.n324": 0.15e-3, "sweep_s.n1600": 0.29e-3, "sweep_s.n4900": 0.46e-3,
    "knn2000_build_s": 0.55,
}


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _stats(samples):
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "samples": samples}


def _paper_rep(ws):
    w = workloads.WORKLOADS["paper"]
    reps = 3
    cfg = ws.config_from_dict({**w.config_doc(1, repo.WORK / "baseline"),
                               "replications": reps})
    setup = statistics.median(_timed(lambda: workloads.setup_once(ws, w))
                              for _ in range(5))
    return [(_timed(lambda: ws.run_experiment(cfg)) - setup) / reps
            for _ in range(REPEATS)]


def _sweep(ws, graph):
    spec = ws.GmrfSpec(graph, ETA)
    part = ws.concliques(graph)
    long_, short = 1000, 100

    def chain(iterations):
        return _timed(lambda: ws.gibbs_chain(spec, part, ws.ChainConfig(iterations, 0, 7)))
    return [(chain(long_) - chain(short)) / (long_ - short) for _ in range(REPEATS)]


def measure(ws):
    out = {"paper.rep_s": _stats(_paper_rep(ws))}
    for n, (rows, cols, chords) in SIZES.items():
        def fresh():
            return ws.torus_with_chords(rows, cols, chords, 1)
        graph = fresh()
        ws.eta_range(graph)
        out[f"tau_from_eta_s.n{n}"] = _stats(
            [_timed(lambda: ws.tau_from_eta(graph, ETA)) for _ in range(REPEATS)])
        eta_samples = []
        for _ in range(REPEATS):
            g = fresh()
            eta_samples.append(_timed(lambda: ws.eta_range(g)))
        out[f"eta_range_s.n{n}"] = _stats(eta_samples)
        out[f"sweep_s.n{n}"] = _stats(_sweep(ws, graph))
        print(f"n={n} done", file=sys.stderr)
    out["knn2000_build_s"] = _stats(
        [_timed(lambda: ws.knn_geometric_graph(2000, 6, 3)) for _ in range(REPEATS)])
    return out


def main(label="baseline"):
    ws = repo.import_wavesieve()
    warnings.filterwarnings("ignore", message="learning set is disconnected")
    measured = measure(ws)
    disagree = sorted(k for k, v in measured.items()
                      if not v["min"] <= ROADMAP[k] <= v["max"])
    doc = {
        "label": label,
        "environment": envinfo.environment(checks.source_digest()),
        "graphs": {f"n{n}": f"torus_with_chords({r}, {c}, {k}, seed=1)"
                   for n, (r, c, k) in SIZES.items()},
        "eta": ETA,
        "repeats": REPEATS,
        "unit": "s",
        "measured": measured,
        "roadmap": ROADMAP,
        "outside_measured_range": disagree,
    }
    path = repo.ROOT / "perfbench" / f"BENCH_{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for k, v in measured.items():
        flag = "  <- ROADMAP value outside range" if k in disagree else ""
        print(f"{k:24s} {v['median']:.4g} s  [{v['min']:.4g} .. {v['max']:.4g}]  "
              f"ROADMAP {ROADMAP[k]:.4g}{flag}")


if __name__ == "__main__":
    main(*sys.argv[1:])
