"""Output checks applied to every run_experiment call the benchmark makes.

Every call of a run is a fresh experiment at its own root seed
(workloads.call_seed), so the calls of one run pool into one Monte Carlo
sample.

1. Every ResultRow is finite and the table has one row per (wavelet, level).
2. n_reps == replications - failures on every row.
3. results.csv is byte-identical for every call of one root seed: between
   the untraced and the traced call of a traced run, and across runs of the
   same sources in one checkout (digests kept in the work directory).
4. At the end of a run, each mean_l2 and ref_mean_l2 pooled over the run's
   untraced calls lies in a Monte Carlo band around the value recorded in
   reference.json:
       ref - BAND_BELOW * s <= mean <= ref + BAND_ABOVE * s,
       s = sd_ref * sqrt(1/n + 1/n_ref)
   where n is the number of pooled replications and sd_ref is the
   per-replication standard deviation recorded with the reference.  The
   band is lopsided because the per-replication errors are: bounded below
   (no replication of the references fell 2.5 sd under the mean) and
   right-skewed by rare fit blow-ups (7 sd in 200 paper replications,
   11.5 sd once in 40 knn_fit seeds).  A change to the random stream layout
   that keeps the estimator's law passes; a broken estimator, or one that
   sees the test truth, does not.
"""

import hashlib
import json
import math
import os

import repo

BAND_BELOW = 5.0
BAND_ABOVE = 15.0
REFERENCE_FILE = repo.ROOT / "perfbench" / "reference.json"


def load_reference(workload):
    return json.loads(REFERENCE_FILE.read_text())[workload.name]


def check_table(table, workload):
    """List of problems with the shape of one ResultTable (empty when it passes)."""
    problems = []
    expected = {(w, j) for w in workload.doc["wavelets"] for j in workload.doc["levels"]}
    got = {(r.wavelet, r.j) for r in table.rows}
    if got != expected or len(table.rows) != len(expected):
        problems.append(f"rows {sorted(got)} != expected {sorted(expected)}")
    reps = workload.replications - len(table.failures)
    for r in table.rows:
        tag = f"{r.wavelet} j={r.j}"
        values = (r.mean_l2, r.sd_l2, r.ref_mean_l2, r.ref_sd_l2)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{tag}: non-finite row {values}")
        elif r.n_reps != reps:
            problems.append(f"{tag}: n_reps {r.n_reps} != {workload.replications} "
                            f"replications - {len(table.failures)} failures")
    return problems


class PooledBand:
    """Row means pooled over the calls of one run, checked against the
    reference band (check 4)."""

    FIELDS = ("mean_l2", "ref_mean_l2")

    def __init__(self, reference):
        self.reference = reference
        self.sums = {}      # "wavelet,j" -> [sum of mean_l2 * n, sum of ref_mean_l2 * n, n]

    def add(self, table):
        for r in table.rows:
            if r.n_reps < 1 or not all(math.isfinite(getattr(r, f)) for f in self.FIELDS):
                continue
            acc = self.sums.setdefault(f"{r.wavelet},{r.j}", [0.0, 0.0, 0])
            acc[0] += r.mean_l2 * r.n_reps
            acc[1] += r.ref_mean_l2 * r.n_reps
            acc[2] += r.n_reps

    def problems(self):
        if not self.sums:
            return ["no replication to check against the reference"]
        problems = []
        n_ref = self.reference["replications"]
        for key, (l2_sum, ref_sum, n) in sorted(self.sums.items()):
            ref = self.reference["rows"].get(key)
            if ref is None:
                problems.append(f"{key}: no reference to check against")
                continue
            for field, total in zip(self.FIELDS, (l2_sum, ref_sum)):
                s = ref[field.replace("mean", "sd")] * math.sqrt(1.0 / n + 1.0 / n_ref)
                lo, hi = ref[field] - BAND_BELOW * s, ref[field] + BAND_ABOVE * s
                if not lo <= total / n <= hi:
                    problems.append(f"{key}: {field} {total / n:.6g} over {n} "
                                    f"replications outside [{lo:.6g}, {hi:.6g}]")
        return problems


def source_digest():
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for base in (repo.SRC, repo.ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(repo.ROOT)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


class DigestStore:
    """results.csv digests per (sources, workload, root seed), kept across runs."""

    def __init__(self, workload):
        self.path = repo.WORK / "digests.json"
        self.prefix = f"{source_digest()[:16]}:{workload.name}:"
        try:
            self.doc = json.loads(self.path.read_text())
        except FileNotFoundError:
            self.doc = {}

    def check(self, seed, csv_bytes, label):
        """Compare one call's results.csv with every earlier one of its seed."""
        key = f"{self.prefix}{seed}"
        digest = hashlib.sha256(csv_bytes).hexdigest()
        stored = self.doc.get(key)
        if stored is None:
            self.doc[key] = digest
            self._save()
        elif stored != digest:
            return f"{label}: results.csv differs from an earlier call of seed {seed}"
        return None

    def _save(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.doc, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
