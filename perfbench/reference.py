"""Record the Monte Carlo reference that the benchmark's error band checks.

For each workload, runs one long experiment at REFERENCE_SEED and stores,
per (wavelet, level), the mean and standard deviation over replications of
the field test error and of the i.i.d. reference error, read from
`replications.log`.  The values describe the program at the commit where
they were recorded; re-record them only when a change alters the
estimator's statistics on purpose.

    python3 perfbench/reference.py [workload ...]
"""

import json
import math
import re
import sys
import time
import warnings

import repo  # first: pins the BLAS threads before numpy loads
import checks
import workloads

REFERENCE_SEED = 20161
REFERENCE_REPLICATIONS = {"paper": 200, "dense": 12, "knn_fit": 80}

_LOG_LINE = re.compile(r"rep=(\d+) wavelet=(\S+) j=(\d+) l2=(\S+) ref_l2=(\S+) ")


def _moments(values):
    mean = math.fsum(values) / len(values)
    var = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def record(ws, workload):
    reps = REFERENCE_REPLICATIONS[workload.name]
    out_dir = repo.WORK / "reference" / workload.name
    doc = {**workload.config_doc(REFERENCE_SEED, out_dir), "replications": reps}
    t0 = time.perf_counter()
    table = ws.run_experiment(ws.config_from_dict(doc))
    if table.failures:
        raise RuntimeError(f"{workload.name}: failed replications {table.failures}")
    per_key = {}
    with open(out_dir / "replications.log") as fh:
        for line in fh:
            m = _LOG_LINE.match(line)
            if m:
                key = f"{m[2]},{m[3]}"
                per_key.setdefault(key, ([], []))
                per_key[key][0].append(float(m[4]))
                per_key[key][1].append(float(m[5]))
    rows = {}
    for key, (l2, ref) in per_key.items():
        l2_mean, l2_sd = _moments(l2)
        ref_mean, ref_sd = _moments(ref)
        rows[key] = {"mean_l2": l2_mean, "sd_l2": l2_sd,
                     "ref_mean_l2": ref_mean, "ref_sd_l2": ref_sd}
    print(f"{workload.name}: {reps} replications in "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return {"seed": REFERENCE_SEED, "replications": reps, "rows": rows}


def main(names):
    ws = repo.import_wavesieve()
    warnings.filterwarnings("ignore", message="learning set is disconnected")
    doc = json.loads(checks.REFERENCE_FILE.read_text()) if checks.REFERENCE_FILE.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        doc[name] = record(ws, workloads.WORKLOADS[name])
        checks.REFERENCE_FILE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
