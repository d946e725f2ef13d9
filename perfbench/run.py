"""wavesieve benchmark: end-to-end and per-layer cost of the experiment runner.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process, `WAVESIEVE_WORKERS` unset (the sequential path), one caller in
a closed loop: each `run_experiment` call starts when the previous one ends.
The k-th call of a run is the experiment at root seed
`workloads.call_seed(--seed, k)`; everything else comes from the workload
(see workloads.py).

--trace 0 measures, for `--seconds` of wall time:
  setup_s      median over fresh graphs of the public calls `_context` makes
               before the first replication (graph constructor, eta_range,
               concliques, filter_by_name + cascade per wavelet)
  run_s        median time of one run_experiment call
  rep_s        (run_s - setup_s) / replications
  peak_rss_mb  peak resident memory of this process, which runs only this
               workload, after its first set-up and call
Times are CPU seconds of this process (user + system): on a shared host,
wall time also counts the time the hypervisor gives the core to others.
Failed replications are reported as `failed` of `attempted` replications.

--trace 1 alternates untraced and traced run_experiment calls while the next
pair fits into `--seconds` and reports the per-layer metrics of tracing.py
per traced call, plus trace.overhead (median traced run_s over median
untraced run_s) and trace.run_s.

Every call's output is checked, and the run's calls pooled against the
Monte Carlo reference (checks.py); the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings

import repo  # first: pins the BLAS threads before numpy loads
import checks
import envinfo
import tracing
import workloads


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def timed(fn, *args):
    """fn(*args), the CPU seconds this process spent in it and its wall seconds."""
    c0, t0 = time.process_time(), time.perf_counter()
    result = fn(*args)
    return result, time.process_time() - c0, time.perf_counter() - t0


def _summary(name, samples):
    """One line of a run's (CPU, wall) samples."""
    cells = []
    for i, kind in enumerate(("CPU", "wall")):
        v = [x[i] for x in samples]
        cells.append(f"{kind} {[round(x, 4) for x in v]} s (median {statistics.median(v):.4g})")
    return f"{name} x{len(samples)}: " + ", ".join(cells)


class WorkloadRun:
    """One workload at one seed: the configs, their checks and the output dir."""

    def __init__(self, ws, workload, seed):
        self.ws = ws
        self.workload = workload
        self.seed = seed
        self.out_dir = repo.WORK / "runs" / workload.name
        self.cfg = self.config(0)
        self.band = checks.PooledBand(checks.load_reference(workload))
        self.digests = checks.DigestStore(workload)
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def config(self, call):
        seed = workloads.call_seed(self.seed, call)
        return self.ws.config_from_dict(self.workload.config_doc(seed, self.out_dir))

    def run(self, call, label, tracer=None):
        """Time the `call`-th run_experiment call, as a root span of `tracer`
        if given, and check its output.  Only untraced calls are pooled for
        the reference band; a traced call repeats its untraced twin."""
        cfg = self.config(call)
        if tracer is None:
            table, cpu, wall = timed(self.ws.run_experiment, cfg)
        else:
            table, cpu, wall = timed(tracer.call, "experiment.run", self.ws.run_experiment, cfg)
        self.attempted += self.workload.replications
        self.failed += len(table.failures)
        self.problems += [f"{label}: {p}" for p in checks.check_table(table, self.workload)]
        bad = self.digests.check(cfg.seed, (self.out_dir / "results.csv").read_bytes(), label)
        if bad:
            self.problems.append(bad)
        if tracer is None:
            self.band.add(table)
        return cpu, wall

    def finish(self):
        """Check the run's pooled replications against the reference."""
        self.problems += [f"pooled: {p}" for p in self.band.problems()]


def measure(bench, seconds):
    """The untraced run: end-to-end metrics as {name: (value, unit)}.

    Set-ups and calls alternate, so both sample the same stretch of machine
    time; calls repeat while the next one still fits into `seconds` of wall
    time.  Times are CPU seconds; wall seconds are printed beside them.
    """
    w = bench.workload
    start = time.perf_counter()
    setups, runs = [], []

    def setup():
        setups.append(timed(workloads.setup_once, bench.ws, w)[1:])

    while True:
        setup()
        runs.append(bench.run(len(runs), f"call {len(runs)}"))
        if len(runs) == 1:
            # later calls run other seeds on a fragmented heap and add a few
            # MiB that vary with the seeds and the number of calls
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if time.perf_counter() - start + setups[-1][1] + runs[-1][1] > seconds:
            break
    while len(setups) < w.setup_repeats:
        setup()
    setup_s = statistics.median(c for c, _ in setups)
    run_s = statistics.median(c for c, _ in runs)
    print(f"{w.name}: " + _summary("setup", setups))
    print(f"{w.name}: " + _summary("run_experiment", runs))
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "rep_s": ((run_s - setup_s) / w.replications, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def traced(bench, seconds):
    """The traced run: per-layer metrics as {name: (value, unit)}.

    Untraced and traced calls alternate while the next pair still fits into
    `seconds` of wall time; layer metrics are per traced call.
    """
    tracer = tracing.Tracer()
    plain, wrapped = [], []
    start = time.perf_counter()
    while True:
        call = len(plain)
        plain.append(bench.run(call, f"untraced {call}"))
        tracing.install(tracer, bench.ws)
        try:
            wrapped.append(bench.run(call, f"traced {call}", tracer))
        finally:
            tracer.restore()
        if time.perf_counter() - start + plain[-1][1] + wrapped[-1][1] > seconds:
            break
    cfg = bench.cfg
    metrics = tracing.layer_metrics(
        tracer, len(wrapped), cfg.iterations * len(cfg.etas) * cfg.replications)
    run_s = statistics.median(c for c, _ in wrapped)
    metrics["trace.run_s"] = (run_s, "s")
    metrics["trace.overhead"] = (run_s / statistics.median(c for c, _ in plain), "ratio")
    if tracer.absent:
        print(f"absent from the program, not traced: {', '.join(sorted(set(tracer.absent)))}")
    print(f"{bench.workload.name}: " + _summary("untraced", plain))
    print(f"{bench.workload.name}: " + _summary("traced", wrapped))
    shares = tracing.layer_shares(tracer)
    print(f"{bench.workload.name}: share of traced run_s by layer (self time): " + ", ".join(
        f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    return metrics


def run_one(args):
    try:
        ws = repo.import_wavesieve()
    except repo.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message="learning set is disconnected")
    bench = WorkloadRun(ws, workloads.WORKLOADS[args.workload], args.seed)
    metrics = (traced if args.trace else measure)(bench, args.seconds)
    bench.finish()

    env = envinfo.environment(checks.source_digest())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "problems": bench.problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    out = repo.WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in bench.problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_rep_share = "
          f"{bench.failed / bench.attempted:.6g} "
          f"({bench.failed} failed of {bench.attempted} replications attempted)")
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": record["metrics"]}))
    return 0


def run_all(args):
    """Each workload in a fresh process of its own, then one summary table."""
    status, lines = 0, []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        cells = [f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()]
        cells.append(f"failed_rep_share {result['failed'] / result['attempted']:.4g} "
                     f"(of {result['attempted']} replications)")
        lines.append(f"{name:8s} correct={result['correct']}  " + "  ".join(cells))
        status = status or (0 if result["correct"] else 1)
    print("\n" + "\n".join(lines))
    return status


def main(argv=None):
    args = _args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
