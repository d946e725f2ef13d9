"""Command line front end for the experiment runner.

Every flag overrides the matching key of the JSON config file.  On success
the exit code is 0 and the result table is printed; on failure, a run whose
every replication failed included, a machine-readable error JSON goes to
stdout and the exit code is nonzero.
"""

import argparse
import json
import re
import sys

from .experiment import _config_object, config_from_dict, format_table, run_experiment


_GRAPH_FORMS = "torus:RxC[+CHORDS] | knn:N,K | file:PATH"


def _parse_graph(text):
    """The config's graph dict for a spec of one of the _GRAPH_FORMS; any
    other spec raises the ValueError that names it and the forms."""
    torus = re.fullmatch(r"torus:(\d+)[xX](\d+)(?:\+(\d+))?", text)
    if torus:
        rows, cols, chords = map(int, torus.groups("0"))
        return {"kind": "torus", "rows": rows, "cols": cols, "chords": chords}
    knn = re.fullmatch(r"knn:(\d+),(\d+)", text)
    if knn:
        return {"kind": "knn", "points": int(knn[1]), "k": int(knn[2])}
    kind, _, path = text.partition(":")
    if kind == "file" and path:
        return {"kind": "file", "path": path}
    raise ValueError(f"cannot parse graph spec {text!r}; expected {_GRAPH_FORMS}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="wavesieve",
        description="Simulate Gaussian Markov random fields on a graph and fit "
                    "wavelet sieve regressions; writes results.csv/results.json.")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="root seed override")
    p.add_argument("--out", help="output directory override")
    p.add_argument("--reps", type=int, help="replication count override")
    p.add_argument("--graph", help=f"graph override: {_GRAPH_FORMS}")
    p.add_argument("--levels", help="comma separated levels override, e.g. 1,2,3,4")
    p.add_argument("--wavelets", help="comma separated wavelet names, e.g. haar,d4")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        doc = {}
        if args.config:
            with open(args.config) as fh:
                doc = _config_object(json.load(fh))
        if args.seed is not None:
            doc["seed"] = args.seed
        if args.out is not None:
            doc["out_dir"] = args.out
        if args.reps is not None:
            doc["replications"] = args.reps
        if args.graph is not None:
            doc["graph"] = _parse_graph(args.graph)
        if args.levels is not None:
            doc["levels"] = [int(v) for v in args.levels.split(",")]
        if args.wavelets is not None:
            doc["wavelets"] = [v.strip() for v in args.wavelets.split(",")]
        if doc.get("out_dir") is None:
            doc["out_dir"] = "results"
        cfg = config_from_dict(doc)
        table = run_experiment(cfg)
        if len(table.failures) == cfg.replications:
            raise RuntimeError(f"all {cfg.replications} replications failed, "
                               f"first: {table.failures[0]}")
    except Exception as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        return 1
    print(format_table(table))
    if table.failures:
        print(f"failed replications: {len(table.failures)} (see replications.log)")
    print(f"results written to {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
