"""Truncated least-squares regression over a wavelet sieve.

Fits a jumpy univariate target from noisy samples, picks the level from the
sample size, and shows the squared error falling with the sample size at
the predicted polynomial rate (log factors aside).
"""

import numpy as np

import wavesieve as ws
from wavesieve.rng import polar_normals, stream
from wavesieve.theory import rate_curve, write_xy_csv
from wavesieve.wavelets import covering_sieve

m = ws.m_univariate          # smooth left branch, jump at 0.7
filt = ws.d4_filter()
table = ws.cascade(filt, 10)

rng = stream(2718)
n = 2000
X = rng.uniform(0.0, 1.0, n)
y = m(X) + 0.5 * polar_normals(rng, n)

j = ws.select_level(n, d=1, r=1.0)
print(f"sample size {n} -> level j = {j} (rule: 2^j <= n^(1/(d+2r)) < 2^(j+1))")

sieve = covering_sieve(filt, 1, j)
fitted = ws.fit(ws.Dataset(X, y), sieve, table, rho=ws.auto_rho(y, n))
rep = fitted.svd_report
print(f"fit: {rep.rank}/{rep.total_columns} components kept, "
      f"condition {rep.condition:.1f}, truncation bound {fitted.rho:.2f}")

test_X = rng.uniform(0.0, 1.0, 5000)
print("squared test error:", round(ws.l2_error_mc(fitted, table, m, test_X), 5))
print("prediction at 0.35:", round(ws.predict(fitted, table, (0.35,)), 4),
      "truth:", round(m(0.35), 4))

doc = ws.fit_to_json(fitted, "fit_demo.json")
print(f"fit serialized to fit_demo.json ({len(doc['coefficients'])} coefficients)")

# error decay across sample sizes (median of 5 runs), next to the
# predicted shape
print("\n    n    error      predicted shape (unit constant)")
sizes = [2 ** k for k in range(8, 14)]
shape = rate_curve(d=1, r=1.0, N=1, sizes=sizes)
errors = []
for size in sizes:
    runs = []
    for rep in range(5):
        rng_s = stream(31415, size, rep)
        Xs = rng_s.uniform(0.0, 1.0, size)
        ys = m(Xs) + 0.5 * polar_normals(rng_s, size)
        js = ws.select_level(size, 1, 1.0)
        fs = ws.fit(ws.Dataset(Xs, ys), covering_sieve(filt, 1, js), table,
                    rho=ws.auto_rho(ys, size))
        runs.append(ws.l2_error_mc(fs, table, m, rng_s.uniform(0.0, 1.0, 4000)))
    errors.append(float(np.median(runs)))
    print(f"{size:6d}  {errors[-1]:8.5f}  {shape[sizes.index(size)]:10.3f}")

write_xy_csv("error_decay.csv", sizes, errors)
print("measured decay written to error_decay.csv")
