import copy
import json
import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavesieve.regression import (SVD_RTOL, Dataset, SvdReport, auto_rho,
                                  design_matrix, fit, fit_to_json, l2_error_mc,
                                  predict, predict_batch, select_level, svd_lstsq)
from wavesieve.rng import stream
from wavesieve.wavelets import (PhiTable, WaveletSieve, cascade, covering_sieve,
                                d4_filter, haar_filter, sieve_for_box)


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


def box_sieve(filt, d, j, w):
    """The sieve whose translations are -w..w on each of the d axes."""
    return WaveletSieve(filt, j, np.arange(-w, w + 1, dtype=np.int64), d)


# ---------------------------------------------------------------------------
# design matrix

def test_design_matrix_single_cell():
    sieve = box_sieve(HAAR, 1, 0, 0)
    data = Dataset(np.array([0.5]), np.array([1.0]))
    B = design_matrix(data, sieve, HAAR_TABLE)
    assert B.shape == (1, 1)
    assert B[0, 0] == pytest.approx(1.0)


def test_design_matrix_level_one():
    sieve = box_sieve(HAAR, 1, 1, 1)   # gamma in {-1, 0, 1}
    data = Dataset(np.array([0.2]), np.array([0.0]))
    B = design_matrix(data, sieve, HAAR_TABLE)
    cols = {tuple(g): B[0, i] for i, g in enumerate(sieve.K)}
    assert cols[(0,)] == pytest.approx(math.sqrt(2.0))
    assert cols[(1,)] == 0.0
    assert cols[(-1,)] == 0.0


def test_design_matrix_outside_support_is_zero_row():
    sieve = box_sieve(HAAR, 2, 1, 1)
    data = Dataset(np.array([[5.0, 5.0]]), np.array([0.0]))
    B = design_matrix(data, sieve, HAAR_TABLE)
    assert np.all(B == 0.0)


def test_design_matrix_dimension_mismatch():
    sieve = box_sieve(HAAR, 2, 0, 1)
    data = Dataset(np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        design_matrix(data, sieve, HAAR_TABLE)


def test_design_rejects_a_table_of_another_filter():
    # fit, predict_batch and l2_error_mc all evaluate through the table: a d4
    # table must not fill a haar sieve, nor a table whose filter has the
    # sieve's name but other coefficients
    X = stream(36).uniform(0.0, 1.0, (40, 2))
    data = Dataset(X, X[:, 0])
    sieve = covering_sieve(HAAR, 2, 2)
    d4_table = cascade(d4_filter())
    renamed = replace(d4_table, filter=replace(d4_table.filter, name="haar"))
    for table in (d4_table, renamed):
        with pytest.raises(ValueError, match="cannot evaluate a sieve of filter 'haar'"):
            fit(data, sieve, table)
    fitted = fit(data, sieve, cascade(haar_filter()))
    with pytest.raises(ValueError, match="cannot evaluate"):
        predict_batch(fitted, d4_table, X)
    with pytest.raises(ValueError, match="cannot evaluate"):
        l2_error_mc(fitted, d4_table, lambda x1, x2: x1, X)


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
          "full": lambda filt, d, j: box_sieve(filt, d, j, (1 << j) + 1)}
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
    sieve = box_sieve(HAAR, 1, 0, 2)   # gammas -2..2, supports [g, g+1)
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
    want, _ = svd_reference(B, y)
    # below finfo.tiny doubles are spaced 2^-1074 apart, whatever their size
    assert (np.max(np.abs(coeffs - want), initial=0.0)
            <= rtol * np.max(np.abs(want), initial=0.0) + 2 * np.finfo(float).smallest_subnormal)
    assert_report_matches_reference(B, y, rep, rtol)


def assert_report_matches_reference(B, y, rep, rtol=1e-12):
    _, want_rep = svd_reference(B, y)
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


def closed_form_oracle(B, y):
    """Per column, sum_i B_ik y_i / sum_i B_ik^2 in exact rational arithmetic
    (0 for an empty column), and the error the closed form may make.  Its dot
    product rounds m products and m - 1 sums, each by at most 1e-12 of
    sum_i |B_ik y_i| or, below finfo.tiny, by half a 2^-1074 spacing; the
    division scales that by 1 / |B_k|^2 and rounds once more."""
    spacing = np.finfo(float).smallest_subnormal
    exact = []
    for b in B.T:
        den = sum(Fraction(v) ** 2 for v in b.tolist())
        num = sum(Fraction(v) * Fraction(w) for v, w in zip(b.tolist(), y.tolist()))
        exact.append(num / den if den else Fraction(0))
    norms2 = np.einsum("ij,ij->j", B, B)
    scale = np.divide(1.0, norms2, out=np.zeros_like(norms2), where=norms2 > 0.0)
    bound = (1e-12 * (np.abs(y) @ np.abs(B)) + len(y) * spacing) * scale + spacing
    return exact, bound


def assert_closed_form_matches_oracle(B, y):
    with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError("lstsq path")):
        coeffs, rep = svd_lstsq(B, y)
    exact, bound = closed_form_oracle(B, y)
    for c, e, b in zip(coeffs.tolist(), exact, bound.tolist()):
        assert abs(Fraction(c) - e) <= b, (c, float(e), b)
    assert np.all(coeffs[~B.any(axis=0)] == 0.0)
    assert_report_matches_reference(B, y, rep)


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
    assert_closed_form_matches_oracle(B, y)


def test_svd_lstsq_closed_form_on_a_subnormal_response():
    # B . y = 1.76e-314 rounds in 2^-1074 steps, and dividing by |B|^2 = 6.3e-3
    # scales that rounding 160-fold: the closed form lands 59 spacings from the
    # exact 2.81e-312, where the SVD reference happens to land exactly
    B = np.array([[0.07909973064564574]])
    y = np.array([2.2250738585e-313])
    assert_closed_form_matches_oracle(B, y)


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


@pytest.mark.parametrize("kind", ["one_hot", "dense"])
def test_svd_lstsq_gives_the_same_bits_whatever_the_layout_of_B(kind):
    # the closed form's y @ B rounds differently on an F-ordered B
    rng = stream(39)
    B = rng.standard_normal((60, 12))
    if kind == "one_hot":
        B = np.where(np.arange(12) == rng.integers(0, 12, (60, 1)), B, 0.0)
    y = rng.standard_normal(60)
    want_coeffs, want = svd_lstsq(B, y)
    got_coeffs, got = svd_lstsq(np.asfortranarray(B), y)
    assert got_coeffs.tobytes() == want_coeffs.tobytes()
    assert (got.rank, got.condition, got.dropped.tobytes(), got.total_columns) == \
        (want.rank, want.condition, want.dropped.tobytes(), want.total_columns)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_design_matrix_is_c_ordered(d, order):
    X = np.asarray(stream(40).uniform(0.0, 1.0, (30, d)), order=order)
    for f, table in TABLES.values():
        B = design_matrix(Dataset(X, np.zeros(30)), covering_sieve(f, d, 2), table)
        assert B.flags.c_contiguous


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
    sieve = box_sieve(HAAR, 1, 0, 1)
    data = Dataset(np.array([10.0, 11.0]), np.array([1.0, 2.0]))  # outside support
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = fit(data, sieve, HAAR_TABLE)
    assert [str(w.message) for w in caught] == ["degenerate design: all singular values dropped"]
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
    sieve = box_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([10.0])), sieve, HAAR_TABLE, rho=5.0)
    assert predict(f, HAAR_TABLE, (0.5,)) == 5.0


def test_predict_infinite_rho_is_raw():
    sieve = box_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([10.0])), sieve, HAAR_TABLE, rho=np.inf)
    assert predict(f, HAAR_TABLE, (0.5,)) == pytest.approx(10.0)


def test_predict_outside_support_is_zero():
    sieve = box_sieve(HAAR, 1, 0, 0)
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


def test_auto_rho_needs_two_observations():
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
    sieve = box_sieve(HAAR, 1, 0, 0)
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
    sieve = box_sieve(HAAR, 2, 0, 0)
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
                                   lambda x: np.ones(3), lambda x: np.ones((2, 2))])
def test_l2_error_rejects_a_truth_it_cannot_use(truth):
    # a value at every test point, finite: a nan would turn the error into nan
    sieve = box_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([2.0])), sieve, HAAR_TABLE)
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        l2_error_mc(f, HAAR_TABLE, truth, np.array([0.25, 0.75]))


def test_l2_error_checks_its_points():
    sieve = box_sieve(HAAR, 2, 0, 0)
    f = fit(Dataset(np.array([[0.5, 0.5]]), np.array([2.0])), sieve, HAAR_TABLE)

    def m(*xs):
        return 2.0

    with pytest.raises(ValueError, match="non-finite design value"):
        l2_error_mc(f, HAAR_TABLE, m, np.array([[0.5, np.inf]]))
    for empty in (np.empty((0, 2)), np.empty(0)):
        with pytest.raises(ValueError, match="test set is empty"):
            l2_error_mc(f, HAAR_TABLE, m, empty)
    with pytest.raises(ValueError, match="points have dimension 1, sieve expects 2"):
        l2_error_mc(f, HAAR_TABLE, m, np.array([0.5]))
    with pytest.raises(ValueError, match="cannot evaluate"):
        l2_error_mc(f, TABLES["d4"][1], m, np.array([[0.5, 0.5]]))
    assert l2_error_mc(f, HAAR_TABLE, m, np.array([[0.5, 0.5]])) == 0.0


def test_predict_rejects_a_point_that_is_not_finite():
    # phi of inf or nan is no number; such a point is refused, as in a Dataset
    sieve = box_sieve(HAAR, 2, 0, 0)
    f = fit(Dataset(np.array([[0.5, 0.5]]), np.array([2.0])), sieve, HAAR_TABLE)
    for point in ([np.inf, 0.4], [0.4, np.nan], [-np.inf, 0.4]):
        with pytest.raises(ValueError, match="non-finite design value"):
            predict(f, HAAR_TABLE, point)
        with pytest.raises(ValueError, match="non-finite design value"):
            predict_batch(f, HAAR_TABLE, np.array([[0.5, 0.5], point]))
        with pytest.raises(ValueError, match="non-finite design value"):
            l2_error_mc(f, HAAR_TABLE, lambda x1, x2: 2.0, np.array([point]))


def test_predict_far_outside_the_support_is_zero():
    sieve = box_sieve(HAAR, 1, 0, 0)
    f = fit(Dataset(np.array([0.5]), np.array([2.0])), sieve, HAAR_TABLE)
    assert predict(f, HAAR_TABLE, (1e300,)) == 0.0
    assert list(predict_batch(f, HAAR_TABLE, np.array([-1e300, 0.5, 1e300]))) == [0.0, 2.0, 0.0]


@pytest.mark.parametrize("rho", [math.nan, -1.0])
def test_fit_rejects_a_truncation_bound_that_is_not_non_negative(rho):
    # a nan bound would make every prediction and every error nan
    data = Dataset(np.array([0.5]), np.array([2.0]))
    sieve = box_sieve(HAAR, 1, 0, 0)
    with pytest.raises(ValueError, match=f"truncation bound rho must be non-negative, got {rho}"):
        fit(data, sieve, HAAR_TABLE, rho=rho)


def test_fit_needs_an_observation():
    with pytest.raises(ValueError, match="need at least one observation"):
        fit(Dataset(np.empty((0, 1)), np.empty(0)), box_sieve(HAAR, 1, 0, 0), HAAR_TABLE)


# ---------------------------------------------------------------------------
# a fit and its test error

@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND: the haar PhiTable interpolates linearly across its last cell, "
    "so 3 of these 600 points get a factor below 1; ROADMAP's exact scaling-function "
    "values item makes phi exact and must remove this mark"))
def test_noiseless_haar_fit_of_a_cell_constant_function_is_exact():
    # m is constant on the level-2 cells, so the haar covering sieve at j = 2
    # spans it; the design scale 4 and the cell means are exact in binary, so
    # with phi the indicator of [0, 1) the test error is exactly 0
    X = np.random.default_rng(0).uniform(0.0, 1.0, (600, 2))

    def m(x1, x2):
        return np.floor(4.0 * x1) + 10.0 * np.floor(4.0 * x2)

    y = m(*X.T)
    sieve = covering_sieve(HAAR, 2, 2)
    f = fit(Dataset(X[:400], y[:400]), sieve, HAAR_TABLE)
    assert l2_error_mc(f, HAAR_TABLE, m, X[400:]) == 0.0


def test_fit_and_l2_error_hold_one_design_at_a_time():
    # the knn_fit shape: d4 at j = 5 on 1600 points, 1120 learn and 480 test
    # rows.  fit + l2_error_mc peak at 1.13 learn designs; one design over
    # learn and test rows together would need 1.43 or more
    table = TABLES["d4"][1]
    sieve = covering_sieve(table.filter, 2, 5)
    rng = stream(41)
    X = rng.uniform(0.0, 1.0, (1600, 2))
    y = np.sin(3.0 * X.sum(axis=1)) + rng.standard_normal(1600)
    data, test_X = Dataset(X[:1120], y[:1120]), X[1120:]

    def m(x1, x2):
        return np.sin(3.0 * (x1 + x2))

    design_bytes = 1120 * sieve.size * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        l2_error_mc(fit(data, sieve, table, 4.0), table, m, test_X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * design_bytes


def test_design_peak_stays_near_the_design_and_its_factors():
    # the dense shape: d4 at j = 3 on 3430 points; the design is 1.68 MiB and
    # its factor tables 0.42 MiB.  PhiTable.eval reusing its buffers peaks at
    # 2.43 MiB; one fresh array per step peaked at 2.99
    table = TABLES["d4"][1]
    sieve = covering_sieve(table.filter, 2, 3)
    data = Dataset(stream(43).uniform(0.0, 1.0, (3430, 2)), np.zeros(3430))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        design_matrix(data, sieve, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * 2 ** 20


def test_fit_and_l2_error_make_one_table_lookup_per_design(monkeypatch):
    # d = 3 over 2 sieves: one learn and one test design each
    table = TABLES["d4"][1]
    calls = []
    real = PhiTable.eval

    def counted(self, x):
        calls.append(np.shape(x))
        return real(self, x)

    monkeypatch.setattr(PhiTable, "eval", counted)
    rng = stream(42)
    data = Dataset(rng.uniform(0.0, 1.0, (40, 3)), rng.standard_normal(40))
    test_X = rng.uniform(0.0, 1.0, (10, 3))
    sieves = [covering_sieve(table.filter, 3, j) for j in (0, 1)]
    for sieve in sieves:
        l2_error_mc(fit(data, sieve, table), table, lambda *xs: 0.0, test_X)
    assert calls == [(40, 3, 1), (10, 3, 1), (40, 3, 2), (10, 3, 2)]


# ---------------------------------------------------------------------------
# value types

def _value_of(kind):
    data = Dataset(np.array([0.25, 0.75]), np.array([1.0, 2.0]))
    sieve = box_sieve(HAAR, 1, 1, 0)
    result = fit(data, sieve, HAAR_TABLE)
    return {"ScalingFilter": HAAR, "PhiTable": HAAR_TABLE, "WaveletSieve": sieve,
            "Dataset": data, "SvdReport": result.svd_report, "RegressionFit": result}[kind]


@pytest.mark.parametrize("kind", ["ScalingFilter", "PhiTable", "WaveletSieve",
                                  "Dataset", "SvdReport", "RegressionFit"])
def test_array_holding_values_compare_and_hash_by_identity(kind):
    # the array fields would make a field-wise == ambiguous and the hash fail
    value = _value_of(kind)
    assert value == value
    assert len({value, value}) == 1
    again = copy.copy(value)
    assert value != again and len({value, again}) == 2


# ---------------------------------------------------------------------------
# io

def test_dataset_validation():
    with pytest.raises(ValueError, match="X and y lengths differ"):
        Dataset(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="non-finite design value"):
        Dataset(np.array([np.nan]), np.array([1.0]))
    # the point rule comes first, as in predict_batch
    with pytest.raises(ValueError, match="non-finite design value"):
        Dataset(np.array([np.nan, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="non-finite response value"):
        Dataset(np.array([1.0]), np.array([np.inf]))


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
    # one key per SvdReport field, in field order
    assert list(doc["svd_report"]) == [field.name for field in fields(SvdReport)]
    assert [c["gamma"] for c in doc["coefficients"]] == sieve.K.tolist()
    assert [c["a"] for c in doc["coefficients"]] == f.coeffs.tolist()
    # an unbounded fit records its infinite bound as null
    assert fit_to_json(fit(Dataset(X, y), sieve, table))["rho"] is None
