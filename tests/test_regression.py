import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavesieve.regression import (SVD_RTOL, Dataset, SvdReport, auto_rho, default_rho,
                                  design_matrix, fit, fit_to_json, l2_error_mc,
                                  predict, predict_batch, select_level, svd_lstsq)
from wavesieve.rng import stream
from wavesieve.wavelets import (cascade, covering_sieve, d4_filter,
                                haar_filter, sieve_for_box, wavelet_sieve)


def gauss_solve(A, b):
    """Gaussian elimination with partial pivoting; independent of numpy.linalg."""
    A = [list(map(float, row)) for row in A]
    b = list(map(float, b))
    n = len(b)
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        if abs(A[piv][col]) == 0.0:
            raise ZeroDivisionError("singular system")
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, n):
            m = A[r][col] / A[col][col]
            if m == 0.0:
                continue
            for c in range(col, n):
                A[r][c] -= m * A[col][c]
            b[r] -= m * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / A[r][r]
    return np.array(x)


def normal_equation_oracle(B, y):
    return gauss_solve(B.T @ B, B.T @ y)


HAAR = haar_filter()
HAAR_TABLE = cascade(HAAR, 10)


# ---------------------------------------------------------------------------
# design matrix

def test_design_matrix_single_cell():
    sieve = wavelet_sieve(HAAR, 1, 0, 0)
    data = Dataset(np.array([0.5]), np.array([1.0]))
    B = design_matrix(data, sieve, HAAR_TABLE)
    assert B.shape == (1, 1)
    assert B[0, 0] == pytest.approx(1.0)


def test_design_matrix_level_one():
    sieve = wavelet_sieve(HAAR, 1, 1, 1)   # gamma in {-1, 0, 1}
    data = Dataset(np.array([0.2]), np.array([0.0]))
    B = design_matrix(data, sieve, HAAR_TABLE)
    cols = {tuple(g): B[0, i] for i, g in enumerate(sieve.K)}
    assert cols[(0,)] == pytest.approx(math.sqrt(2.0))
    assert cols[(1,)] == 0.0
    assert cols[(-1,)] == 0.0


def test_design_matrix_outside_support_is_zero_row():
    sieve = wavelet_sieve(HAAR, 2, 1, 1)
    data = Dataset(np.array([[5.0, 5.0]]), np.array([0.0]))
    B = design_matrix(data, sieve, HAAR_TABLE)
    assert np.all(B == 0.0)


def test_design_matrix_dimension_mismatch():
    sieve = wavelet_sieve(HAAR, 2, 0, 1)
    data = Dataset(np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        design_matrix(data, sieve, HAAR_TABLE)


def dense_design_reference(X, sieve, table):
    """The former design loop: every axis evaluated on the full n x size
    argument array built from the translation rows K."""
    scale = 2.0 ** sieve.j
    out = np.full((X.shape[0], sieve.size), sieve.scale)
    for i in range(sieve.d):
        out *= table.eval(scale * X[:, i, None] - sieve.K[None, :, i])
    return out


TABLES = {f.name: (f, cascade(f, 10)) for f in (HAAR, d4_filter())}
SIEVES = {"covering": covering_sieve, "box": sieve_for_box,
          "full": lambda filt, d, j: wavelet_sieve(filt, d, j, (1 << j) + 1)}
COORD = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(sorted(SIEVES)), name=st.sampled_from(sorted(TABLES)),
       d=st.integers(1, 3), j=st.integers(0, 2), data=st.data())
def test_design_matrix_equals_dense_reference(family, name, d, j, data):
    filt, table = TABLES[name]
    sieve = SIEVES[family](filt, d, j)
    rows = data.draw(st.lists(st.lists(COORD, min_size=d, max_size=d), max_size=12))
    X = np.vstack([np.zeros((1, d)), np.ones((1, d)), np.array(rows).reshape(-1, d)])
    B = design_matrix(Dataset(X, np.zeros(len(X))), sieve, table)
    assert B.shape == (len(X), sieve.size)
    assert np.array_equal(B, dense_design_reference(X, sieve, table))


# ---------------------------------------------------------------------------
# least squares

def test_fit_orthonormal_design_gives_cell_means():
    # haar level 0 translates with disjoint supports, several points per cell
    sieve = wavelet_sieve(HAAR, 1, 0, 2)   # gammas -2..2, supports [g, g+1)
    X = np.array([0.1, 0.4, 0.9, 1.2, 1.7, -1.5])
    y = np.array([2.0, 4.0, 6.0, 1.0, 3.0, 10.0])
    f = fit(Dataset(X, y), sieve, HAAR_TABLE)
    coef = {int(g): a for g, a in zip(sieve.K.ravel(), f.coeffs)}
    assert coef[0] == pytest.approx(4.0)    # mean of 2, 4, 6
    assert coef[1] == pytest.approx(2.0)    # mean of 1, 3
    assert coef[-2] == pytest.approx(10.0)
    assert coef[2] == pytest.approx(0.0)    # empty cell -> minimum norm zero


def svd_reference(B, y):
    """The former solver: a full SVD, singular values <= SVD_RTOL * s_1
    dropped, coefficients V diag(1/s) U^T y over the kept ones."""
    U, s, Vt = np.linalg.svd(B, full_matrices=False)
    smax = float(s[0]) if s.size else 0.0
    keep = s > SVD_RTOL * smax if smax > 0.0 else np.zeros(s.shape, dtype=bool)
    if not np.any(keep):
        return np.zeros(B.shape[1]), SvdReport(0, np.inf, s.copy(), B.shape[1])
    coeffs = Vt[keep].T @ ((U[:, keep].T @ y) / s[keep])
    return coeffs, SvdReport(int(keep.sum()), float(smax / s[keep].min()),
                             s[~keep].copy(), B.shape[1])


def assert_matches_reference(B, y, coeffs, rep, rtol=1e-12):
    want, want_rep = svd_reference(B, y)
    # below finfo.tiny doubles are spaced 2^-1074 apart, whatever their size
    assert (np.max(np.abs(coeffs - want), initial=0.0)
            <= rtol * np.max(np.abs(want), initial=0.0) + 2 * np.finfo(float).smallest_subnormal)
    assert (rep.rank, rep.total_columns) == (want_rep.rank, want_rep.total_columns)
    assert rep.condition == pytest.approx(want_rep.condition, rel=rtol)
    assert rep.dropped.shape == want_rep.dropped.shape
    assert np.allclose(rep.dropped, want_rep.dropped, rtol=0.0, atol=rtol * np.linalg.norm(B))


def test_fit_matches_normal_equation_oracle():
    rng = stream(31)
    for trial in range(20):
        B = rng.standard_normal((50, 9))
        y = rng.standard_normal(50)
        coeffs, rep = svd_lstsq(B, y)
        assert rep.rank == 9
        want = normal_equation_oracle(B, y)
        assert np.max(np.abs(coeffs - want)) / np.max(np.abs(want)) < 1e-8


# one row entry: column (-1 leaves the row zero), sign, mantissa, decade
ROW = st.tuples(st.integers(-1, 11), st.sampled_from([-1.0, 1.0]),
                st.floats(0.5, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), rows=st.lists(ROW, min_size=1, max_size=16), data=st.data())
def test_svd_lstsq_one_nonzero_per_row_matches_reference(n, rows, data):
    # orthogonal columns over two decades of scale, empty columns and zero
    # rows, m < n and m > n; the closed form must not reach lstsq
    B = np.zeros((len(rows), n))
    for i, (k, sign, mantissa, decade) in enumerate(rows):
        if 0 <= k < n:
            B[i, k] = sign * mantissa * 10.0 ** decade
    y = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=len(rows),
                                    max_size=len(rows))))
    with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError("lstsq path")):
        coeffs, rep = svd_lstsq(B, y)
    assert_matches_reference(B, y, coeffs, rep)
    assert np.all(coeffs[~B.any(axis=0)] == 0.0)


def dense_designs():
    rng = stream(37)
    base = rng.standard_normal((40, 5))
    q, _ = np.linalg.qr(rng.standard_normal((40, 4)))
    w, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    cycle = np.zeros((8, 8))
    cycle[np.arange(8), np.arange(8)] = cycle[np.arange(8), (np.arange(8) + 1) % 8] = 1.0
    return {
        # a duplicated column: rank 5 of 6
        "duplicated_column": (np.column_stack([base, base[:, 1]]), 5),
        # the edge-node incidence of an 8-cycle: two nonzeros a row, rank 7
        "two_per_row": (cycle, 7),
        # singular values 1, 1e-2, 1e-5 kept and 1e-12 dropped
        "graded": (q @ np.diag([1.0, 1e-2, 1e-5, 1e-12]) @ w, 3),
    }


@pytest.mark.parametrize("name", sorted(dense_designs()))
def test_svd_lstsq_dense_rank_deficient_matches_reference(name):
    # none of these has orthogonal columns, so each takes the lstsq path
    B, rank = dense_designs()[name]
    y = stream(38).standard_normal(B.shape[0])
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
        coeffs, rep = svd_lstsq(B, y)
    assert spy.call_count == 1
    assert rep.rank == rank
    assert_matches_reference(B, y, coeffs, rep, rtol=1e-9)


def test_svd_lstsq_drops_a_singular_value_at_the_cutoff():
    # s_2 == SVD_RTOL * s_1 exactly: dropped, the rule gelsd applies to rcond
    B = np.diag([2.0, 2.0 * SVD_RTOL])
    coeffs, rep = svd_lstsq(B, np.array([1.0, 1.0]))
    assert rep.rank == 1 and rep.dropped.tolist() == [2.0 * SVD_RTOL]
    assert coeffs.tolist() == [0.5, 0.0]
    assert_matches_reference(B, np.array([1.0, 1.0]), coeffs, rep)


def test_fit_on_real_design_matches_oracle():
    rng = stream(32)
    X = rng.uniform(0.0, 1.0, 120)
    y = np.sin(6.0 * X) + 0.1 * rng.standard_normal(120)
    sieve = sieve_for_box(HAAR, 1, 2)
    data = Dataset(X, y)
    f = fit(data, sieve, HAAR_TABLE)
    B = design_matrix(data, sieve, HAAR_TABLE)
    keep = B.any(axis=0)                      # boundary columns can be empty
    want = normal_equation_oracle(B[:, keep], y)
    assert np.allclose(f.coeffs[keep], want, atol=1e-8)
    assert np.allclose(f.coeffs[~keep], 0.0)


def test_fit_duplicated_column_splits_weight():
    # minimum-norm solution shares the coefficient equally across duplicates
    rng = stream(33)
    base = rng.standard_normal((30, 3))
    B = np.column_stack([base, base[:, 0]])
    y = rng.standard_normal(30)
    coeffs, rep = svd_lstsq(B, y)
    assert rep.rank == 3
    ref = normal_equation_oracle(base, y)
    assert coeffs[0] == pytest.approx(coeffs[3], abs=1e-10)
    assert coeffs[0] * 2 == pytest.approx(ref[0], abs=1e-8)


def test_fit_degenerate_design_zero_coeffs():
    sieve = wavelet_sieve(HAAR, 1, 0, 1)
    data = Dataset(np.array([10.0, 11.0]), np.array([1.0, 2.0]))  # outside support
    with pytest.warns(UserWarning, match="degenerate"):
        f = fit(data, sieve, HAAR_TABLE)
    assert f.svd_report.degenerate
    assert np.all(f.coeffs == 0.0)


def test_fit_optimality_against_perturbations():
    rng = stream(34)
    X = rng.uniform(0.0, 1.0, 80)
    y = rng.standard_normal(80) + 2.0 * X
    sieve = sieve_for_box(HAAR, 1, 1)
    data = Dataset(X, y)
    f = fit(data, sieve, HAAR_TABLE)
    B = design_matrix(data, sieve, HAAR_TABLE)
    best = np.sum((y - B @ f.coeffs) ** 2)
    for _ in range(100):
        delta = rng.standard_normal(f.coeffs.size) * 1e-3
        assert best <= np.sum((y - B @ (f.coeffs + delta)) ** 2) + 1e-12


# ---------------------------------------------------------------------------
# truncation, prediction, level rule

def test_predict_truncation_binds():
    sieve = wavelet_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([10.0])), sieve, HAAR_TABLE, rho=5.0)
    assert predict(f, HAAR_TABLE, (0.5,)) == 5.0


def test_predict_infinite_rho_is_raw():
    sieve = wavelet_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([10.0])), sieve, HAAR_TABLE, rho=np.inf)
    assert predict(f, HAAR_TABLE, (0.5,)) == pytest.approx(10.0)


def test_predict_outside_support_is_zero():
    sieve = wavelet_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([10.0])), sieve, HAAR_TABLE, rho=5.0)
    assert predict(f, HAAR_TABLE, (3.0,)) == 0.0


def test_predict_batch_majorized_by_untruncated():
    rng = stream(35)
    X = rng.uniform(0.0, 1.0, 60)
    y = 5.0 * rng.standard_normal(60)
    sieve = sieve_for_box(HAAR, 1, 2)
    data = Dataset(X, y)
    bounded = fit(data, sieve, HAAR_TABLE, rho=1.0)
    free = fit(data, sieve, HAAR_TABLE, rho=np.inf)
    xs = rng.uniform(0.0, 1.0, 200)
    pb = predict_batch(bounded, HAAR_TABLE, xs)
    pf = predict_batch(free, HAAR_TABLE, xs)
    assert np.all(np.abs(pb) <= 1.0 + 1e-12)
    assert np.all(np.abs(pb) <= np.abs(pf) + 1e-12)


def test_default_rho():
    assert default_rho(math.e ** 2, 1.0) == pytest.approx(2.0)
    assert default_rho(100, 2.0) == pytest.approx(2.0 * math.log(100))
    assert default_rho(1000, 1.0) > default_rho(100, 1.0)
    with pytest.raises(ValueError):
        default_rho(1, 1.0)
    with pytest.raises(ValueError, match="at least 2"):
        auto_rho(np.array([1.0]), 1)


def test_auto_rho_non_binding():
    y = np.array([-3.0, 2.0, 1.0])
    assert auto_rho(y, 100) == pytest.approx(max(math.log(100), 6.0))
    assert auto_rho(y, 10 ** 9) == pytest.approx(math.log(10 ** 9))


def test_select_level_examples():
    assert select_level(4096, 2, 1.0) == 3   # 4096^(1/4) = 8, boundary case
    assert select_level(256, 1, 1.0) == 2    # 256^(1/3) ~ 6.35
    assert select_level(2, 1, 0.5) == 0      # sqrt(2) ~ 1.41
    assert select_level(65536, 2, 1.0) == 4  # 65536^(1/4) = 16


def test_select_level_validation():
    with pytest.raises(ValueError):
        select_level(1, 1, 1.0)
    with pytest.raises(ValueError):
        select_level(100, 1, 0.0)
    with pytest.raises(ValueError):
        select_level(100, 0, 1.0)


def test_l2_error_examples():
    sieve = wavelet_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([2.0])), sieve, HAAR_TABLE)
    xs = np.array([0.25, 0.75])
    assert l2_error_mc(f, HAAR_TABLE, lambda x: 2.0, xs) == pytest.approx(0.0)
    assert l2_error_mc(f, HAAR_TABLE, lambda x: 2.0 + 3.0, xs) == pytest.approx(9.0)
    # errors 1 and 3 -> mean of squares 5
    assert l2_error_mc(f, HAAR_TABLE, lambda x: 2.0, np.array([0.25])) == 0.0
    f2 = fit(Dataset(np.array([0.5]), np.array([0.0])), sieve, HAAR_TABLE)
    errs = l2_error_mc(f2, HAAR_TABLE, lambda x: x, np.array([1.0, 3.0]))
    assert errs == pytest.approx(5.0)


def test_l2_error_calls_the_truth_once_on_the_columns():
    sieve = wavelet_sieve(HAAR, 2, 0, 0)
    f = fit(Dataset(np.array([[0.5, 0.5]]), np.array([2.0])), sieve, HAAR_TABLE)
    X = stream(33).uniform(0.0, 1.0, (50, 2))
    calls = []

    def m(x1, x2):
        calls.append((x1, x2))
        return x1 + x2

    err = l2_error_mc(f, HAAR_TABLE, m, X)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], X[:, 0]) and np.array_equal(calls[0][1], X[:, 1])
    assert err == pytest.approx(np.mean((2.0 - X.sum(axis=1)) ** 2), rel=1e-14)


@pytest.mark.parametrize("truth", [lambda x: np.log(x - 0.5), lambda x: np.inf,
                                   lambda x: np.ones(3)])
def test_l2_error_rejects_a_truth_it_cannot_use(truth):
    # a value at every test point, finite: a nan would turn the error into nan
    sieve = wavelet_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([2.0])), sieve, HAAR_TABLE)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        l2_error_mc(f, HAAR_TABLE, truth, np.array([0.25, 0.75]))


def test_l2_error_empty_test_set():
    sieve = wavelet_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([2.0])), sieve, HAAR_TABLE)
    with pytest.raises(ValueError):
        l2_error_mc(f, HAAR_TABLE, lambda x: 0.0, np.empty(0))


# ---------------------------------------------------------------------------
# io

def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        Dataset(np.array([np.nan]), np.array([1.0]))


def test_fit_to_json_fields(tmp_path):
    rng = stream(36)
    X = rng.uniform(0.0, 1.0, 50)
    y = np.cos(4.0 * X)
    sieve = sieve_for_box(d4_filter(), 1, 1)
    table = cascade(d4_filter(), 10)
    f = fit(Dataset(X, y), sieve, table, rho=3.5)
    path = tmp_path / "fit.json"
    doc = fit_to_json(f, path)
    assert json.loads(path.read_text()) == doc
    assert (doc["filter"], doc["d"], doc["j"], doc["w"], doc["rho"]) == \
        ("d4", 1, 1, sieve.w, 3.5)
    rep = f.svd_report
    assert doc["svd_report"] == {"rank": rep.rank, "condition": rep.condition,
                                 "dropped": rep.dropped.tolist(),
                                 "total_columns": rep.total_columns}
    assert [c["gamma"] for c in doc["coefficients"]] == sieve.K.tolist()
    assert [c["a"] for c in doc["coefficients"]] == f.coeffs.tolist()
    # an unbounded fit records its infinite bound as null
    assert fit_to_json(fit(Dataset(X, y), sieve, table))["rho"] is None
