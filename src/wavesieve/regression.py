"""Truncated least-squares regression over wavelet sieves.

The estimator minimizes the empirical squared error over the linear span of
the sieve's design functions: the minimum-norm solution in which singular
values at or below SVD_RTOL times the largest count as zero.  A design with
at most one nonzero per row (every haar sieve) has orthogonal columns and is
solved in closed form, column by column; any other goes to LAPACK gelsd.
Predictions are clamped to [-rho, rho].  The level rule picks j with
2^j <= n^(1/(d+2r)) < 2^(j+1).
"""

import json
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Dataset", "RegressionFit", "SvdReport",
    "design_matrix", "svd_lstsq", "fit", "predict", "predict_batch",
    "auto_rho", "select_level", "l2_error_mc", "fit_to_json",
]

SVD_RTOL = 1e-10


def _points(X):
    """X as an n x d float array of finite points."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.size and not np.all(np.isfinite(X)):
        raise ValueError("non-finite design value")
    return X


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design sites X (one row per observation) and responses y."""
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = _points(self.X)
        y = np.asarray(self.y, dtype=float).reshape(-1)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y lengths differ")
        if y.size and not np.all(np.isfinite(y)):
            raise ValueError("non-finite response value")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.y.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class SvdReport:
    rank: int
    condition: float
    dropped: np.ndarray
    total_columns: int

    @property
    def degenerate(self):
        return self.rank == 0


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Fitted sieve coefficients plus the truncation bound used at prediction."""
    sieve: object
    coeffs: np.ndarray
    rho: float
    svd_report: SvdReport


def _check_sieve(d, sieve, table):
    if d != sieve.d:
        raise ValueError(f"points have dimension {d}, sieve expects {sieve.d}")
    if table.filter.name != sieve.filter.name or not np.array_equal(table.filter.h,
                                                                    sieve.filter.h):
        raise ValueError(f"table of filter {table.filter.name!r} cannot evaluate a sieve "
                         f"of filter {sieve.filter.name!r}")


def _design(X, sieve, table):
    """The design of the finite n x d points X: one `PhiTable.eval` gives
    the n x d x |axis| factor tables phi(2^j x_i - gamma_i), and their
    row-wise Kronecker product, multiplied in axis order, has its columns in
    the lexicographic K.  Broadcast products keep the design C-ordered, the
    layout `svd_lstsq` reads without a copy; a gather such as X[:, idx]
    would give F order, on which the closed form's y @ B rounds otherwise."""
    _check_sieve(X.shape[1], sieve, table)
    n = X.shape[0]
    factors = table.eval(2.0 ** sieve.j * X[:, :, None] - sieve.axis)
    out = np.full((n, 1), sieve.scale)
    for i in range(sieve.d):
        out = (out[:, :, None] * factors[:, i, None, :]).reshape(n, -1)
    return out


def design_matrix(data, sieve, table):
    """Matrix with entry (s, gamma) = Phi_{j,gamma}(X_s); columns follow the
    sieve's lexicographic translation order."""
    return _design(data.X, sieve, table)


def svd_lstsq(B, y):
    """Minimum-norm least squares with a relative singular-value cutoff.

    Singular values s_i <= SVD_RTOL * s_1 count as zero and are reported as
    dropped.  When no row of B has more than one nonzero, B^T B is diagonal:
    the singular values are the column norms, and each column whose norm
    passes the cutoff gets (B[:, k] . y) / |B[:, k]|^2, the others 0.  Any
    other B is solved by np.linalg.lstsq (LAPACK gelsd) with rcond=SVD_RTOL,
    the same rule; neither path forms the singular vectors.  B is read in C
    order, so the result does not depend on B's memory layout.  Returns
    (coefficients, SvdReport); a fully degenerate matrix yields all-zero
    coefficients with rank 0.
    """
    B = np.ascontiguousarray(B, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.all(np.count_nonzero(B, axis=1) <= 1):
        norms2 = np.einsum("ij,ij->j", B, B)
        norms = np.sqrt(norms2)
        s = np.sort(norms)[::-1][:min(B.shape)]
        keep = norms > SVD_RTOL * norms.max(initial=0.0)
        coeffs = np.zeros(B.shape[1])
        coeffs[keep] = (y @ B)[keep] / norms2[keep]
    else:
        coeffs, _, _, s = np.linalg.lstsq(B, y, rcond=SVD_RTOL)
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return np.zeros(B.shape[1]), SvdReport(0, np.inf, s.copy(), B.shape[1])
    keep = s > SVD_RTOL * smax
    report = SvdReport(int(keep.sum()), float(smax / s[keep].min()),
                       s[~keep].copy(), B.shape[1])
    return coeffs, report


def fit(data, sieve, table, rho=np.inf):
    """Truncated least-squares fit of the sieve coefficients on a dataset."""
    if len(data) < 1:
        raise ValueError("need at least one observation")
    if not rho >= 0:   # nan too: it would turn every prediction into nan
        raise ValueError(f"truncation bound rho must be non-negative, got {rho!r}")
    coeffs, report = svd_lstsq(design_matrix(data, sieve, table), data.y)
    if report.degenerate:
        warnings.warn("degenerate design: all singular values dropped", stacklevel=2)
    return RegressionFit(sieve, coeffs, float(rho), report)


def predict(fit_result, table, x):
    """Truncated prediction at one point: `predict_batch` on one row."""
    row = np.asarray(x, dtype=float).reshape(1, -1)
    return float(predict_batch(fit_result, table, row)[0])


def predict_batch(fit_result, table, X):
    """Truncated predictions for an array of points."""
    raw = _design(_points(X), fit_result.sieve, table) @ fit_result.coeffs
    return np.clip(raw, -fit_result.rho, fit_result.rho)


def auto_rho(y, sample_size):
    """Default bound c log n with c = max(1, 2 max|y| / log n), max(log n,
    2 max|y|) up to the last bit: non-binding on well-scaled problems."""
    if sample_size < 2:
        raise ValueError("sample_size must be at least 2")
    c = max(1.0, 2.0 * float(np.max(np.abs(y))) / math.log(sample_size))
    return c * math.log(sample_size)


def select_level(sample_size, d, r):
    """The unique j with 2^j <= sample_size^(1/(d+2r)) < 2^(j+1)."""
    if sample_size < 2:
        raise ValueError("sample_size must be at least 2")
    if not 0.0 < r <= 1.0:
        raise ValueError("smoothness exponent r must lie in (0, 1]")
    if d < 1:
        raise ValueError("dimension must be at least 1")
    e = math.log2(sample_size) / (d + 2.0 * r)
    # absorb float noise when the target is an exact power of two
    return int(math.floor(e + 1e-12))


def l2_error_mc(fit_result, table, m_true, test_X):
    """Monte Carlo squared error: mean over test points of
    (prediction - m_true)^2.

    m_true is called once, with the columns of test_X as arrays, and must
    act elementwise; a scalar result stands for every point."""
    test_X = _points(test_X)
    if test_X.shape[0] == 0:
        raise ValueError("test set is empty")
    pred = predict_batch(fit_result, table, test_X)
    truth = np.broadcast_to(np.asarray(m_true(*test_X.T), dtype=float), pred.shape)
    if not np.all(np.isfinite(truth)):
        raise ValueError("non-finite regression value on the test set")
    return float(np.mean((pred - truth) ** 2))


# ---------------------------------------------------------------------------
# io

def _json_value(value):
    """`value` as strict JSON holds it: an ndarray as a list, a non-finite
    float as None (JSON has no nan or inf), anything else as is."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def fit_to_json(fit_result, path=None):
    """Serialize a fit as strict JSON; returns the dict and optionally writes it."""
    sieve = fit_result.sieve
    rep = fit_result.svd_report
    doc = {
        "filter": sieve.filter.name,
        "d": sieve.d,
        "j": sieve.j,
        "w": sieve.w,
        "rho": _json_value(fit_result.rho),
        "svd_report": {f.name: _json_value(getattr(rep, f.name)) for f in fields(SvdReport)},
        "coefficients": [
            {"gamma": [int(v) for v in gamma], "a": float(a)}
            for gamma, a in zip(sieve.K, fit_result.coeffs)
        ],
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, allow_nan=False)
    return doc
