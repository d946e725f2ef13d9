import ast
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavesieve import experiment, gmrf, graphs
from wavesieve.cli import _parse_graph, main
from wavesieve.experiment import (ExperimentConfig, config_from_dict,
                                  config_to_dict, emit_table, format_table,
                                  load_table, m_bivariate, m_univariate,
                                  run_experiment)
from wavesieve.rng import stream


def small_config(**overrides):
    base = dict(
        graph={"kind": "torus", "rows": 6, "cols": 6},
        etas=(0.15, 0.15),
        regression="univariate_paper",
        wavelets=("haar",),
        levels=(0, 1),
        replications=2,
        iterations=200,
        noise_scale=0.5,
        test_fraction=0.3,
        seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# regression targets

def test_m_bivariate_values():
    assert m_bivariate(0.5, 0.0) == pytest.approx(2.0)
    assert m_bivariate(0.5, 1.0) == pytest.approx(3.0)
    assert m_bivariate(1.0, 0.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)


def test_m_univariate_values():
    assert m_univariate(0.0) == pytest.approx(2.0)
    # left branch at the jump: 2 + 8*0.49 - 1.19^4
    assert m_univariate(0.7) == pytest.approx(3.91466079, abs=1e-8)
    assert m_univariate(0.95) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        m_univariate(1.2)
    with pytest.raises(ValueError):
        m_univariate(-0.1)


def test_m_univariate_jump():
    left = m_univariate(0.7)
    right = m_univariate(0.7 + 1e-9)
    assert abs(left - right) > 1.0   # genuine discontinuity


def test_paper_functions_on_arrays_match_scalar_calls():
    # the grid holds both ends and both sides of the jump; array powers and
    # np.exp may round the last bit differently from float pow and math.exp
    x1 = np.concatenate([np.linspace(0.0, 1.0, 101), [0.7, np.nextafter(0.7, 1.0)]])
    x2 = stream(8).uniform(0.0, 1.0, x1.size)
    scalar = [m_bivariate(a, b) for a, b in zip(x1.tolist(), x2.tolist())]
    assert np.allclose(m_bivariate(x1, x2), scalar, rtol=1e-15, atol=0.0)
    scalar = [m_univariate(a) for a in x1.tolist()]
    assert np.allclose(m_univariate(x1), scalar, rtol=1e-15, atol=0.0)
    assert np.ndim(m_univariate(0.35)) == 0 and np.ndim(m_bivariate(0.5, 0.5)) == 0
    with pytest.raises(ValueError, match="x=1.2 outside"):
        m_univariate(np.array([0.5, 1.2]))


def _real_abs(v):
    # float pow of a negative base to a fractional power is complex, where
    # the array form is nan; only abs could turn it back into a float
    if isinstance(v, complex):
        raise TypeError("complex intermediate")
    return abs(v)


# the per-point evaluation the array expressions replaced: math functions
# and abs on the floats of one row
_SCALAR_NAMES = {name: getattr(math, name) for name in
                 ("exp", "log", "sqrt", "sin", "cos", "tan", "pi", "e")}
_SCALAR_NAMES["abs"] = _real_abs


def scalar_eval(text, row):
    # the constants are floats, as in the array expressions
    tree = ast.parse(text, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            node.value = float(node.value)
    local = {f"x{i + 1}": v for i, v in enumerate(row)}
    code = compile(tree, "<regression>", "eval")
    return float(eval(code, {"__builtins__": {}}, {**_SCALAR_NAMES, **local}))


class _Nudged(ast.NodeTransformer):
    """Routes the result of every call and every ** through nudge(k, value),
    numbering those nodes k = 0, 1, ..."""

    def __init__(self):
        self.nodes = 0

    def visit_Call(self, node):
        return self._route(node)

    def visit_BinOp(self, node):
        return self._route(node) if isinstance(node.op, ast.Pow) else self.generic_visit(node)

    def _route(self, node):
        self.generic_visit(node)
        self.nodes += 1
        return ast.Call(ast.Name("nudge", ast.Load()), [ast.Constant(self.nodes - 1), node], [])


def rounding_bound(text, row, ulps=8):
    """First-order bound on how far scalar_eval moves at `row` when the
    result of one call or power at a time moves by `ulps` relative ulps,
    summed over those nodes: numpy's exp, sin, log and power may round the
    last bits differently from math and float pow, and + - * / agree."""
    nudged = _Nudged()
    code = compile(ast.fix_missing_locations(nudged.visit(ast.parse(text, mode="eval"))),
                   "<regression>", "eval")
    local = {f"x{i + 1}": v for i, v in enumerate(row)}
    base = scalar_eval(text, row)
    bound = 0.0
    for k in range(nudged.nodes):
        moves = [0.0]
        for h in (ulps * math.ulp(1.0), -ulps * math.ulp(1.0)):
            def nudge(j, v, k=k, h=h):
                return v * (1.0 + h) if j == k else v
            try:
                moves.append(abs(float(eval(code, {"__builtins__": {}},
                                            {**_SCALAR_NAMES, **local, "nudge": nudge})) - base))
            except (ArithmeticError, ValueError, TypeError):
                return math.inf
        bound += max(moves)
    return bound


_LEAVES = st.one_of(st.sampled_from(["x1", "x2", "pi", "e"]),
                    st.integers(0, 3).map(str), st.floats(0.25, 4.0).map(repr))


def _extend(inner):
    # the exponent of ** is a leaf, so no integer power tower can form
    return st.one_of(
        st.builds("({} {} {})".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("({} ** {})".format, inner, _LEAVES),
        st.builds("({}{})".format, st.sampled_from("+-"), inner),
        st.builds("{}({})".format, st.sampled_from(sorted(experiment._EXPR_FUNCS)), inner))


EXPRESSIONS = st.recursive(_LEAVES, _extend, max_leaves=8)
POINTS = st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                  min_size=1, max_size=6).map(np.array)


@settings(max_examples=300, deadline=None)
@given(text=EXPRESSIONS, X=POINTS)
def test_expression_on_arrays_matches_per_point_eval(text, X):
    m_expr, d = experiment._regression_target(small_config(regression=text, etas=(0.1,) * 3))
    assert d == 2
    want = []
    for row in X.tolist():
        try:
            want.append(scalar_eval(text, row))
        except (ArithmeticError, ValueError, TypeError):   # log(-1), 1/0, complex pow
            want.append(None)
    got = np.broadcast_to(m_expr(*X.T), X.shape[:1])
    for g, w, row in zip(got.tolist(), want, X.tolist()):
        if w is not None and math.isfinite(w):
            assert abs(g - w) <= 1e-12 * abs(w) + rounding_bound(text, row), (g, w)


@pytest.mark.parametrize("text, value", [("x1 + 0*2**1100", math.nan), ("x1 + 1/0", math.inf),
                                         ("x1 - 1" + "0" * 400, -math.inf)],
                         ids=["overflow", "division", "literal"])
def test_expression_constants_follow_the_columns_float_rules(text, value):
    # Python's integers would compute 2**1100 exactly (and 9**9**9 without
    # end), raise at 1/0 and at a literal past the float range; as floats
    # they give the nan and inf that the finiteness checks reject
    m_expr, _ = experiment._regression_target(small_config(regression=text, etas=(0.1,) * 3))
    np.testing.assert_array_equal(m_expr(np.array([0.25, 0.5]), np.zeros(2)), [value, value])


@pytest.mark.parametrize("text, value", [("x1 + (-pi) ** pi", math.nan),
                                         ("x1 + pi / (e - e)", math.inf)],
                         ids=["power", "division"])
def test_named_constants_follow_the_columns_float_rules(text, value):
    # as Python floats, (-pi) ** pi would be complex and pi / (e - e) raise
    m_expr, _ = experiment._regression_target(small_config(regression=text, etas=(0.1,) * 3))
    got = m_expr(np.array([0.25, 0.5]), np.zeros(2))
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, [value, value])


# ---------------------------------------------------------------------------
# config plumbing

def test_config_round_trip():
    cfg = small_config()
    doc = config_to_dict(cfg)
    assert doc["chain"] == {"iterations": 200}
    cfg2 = config_from_dict(doc)
    assert cfg2 == cfg


def test_config_rejects_unknown_keys():
    doc = config_to_dict(small_config())
    doc["typo_key"] = 1
    with pytest.raises(ValueError, match="typo_key"):
        config_from_dict(doc)


@pytest.mark.parametrize("doc", [5, [1, 2], "torus", None])
def test_config_must_be_an_object(doc):
    with pytest.raises(ValueError, match=f"^config must be an object, got {re.escape(repr(doc))}$"):
        config_from_dict(doc)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replications=0)
    # no sweep leaves every field at its mean, so every design point at 0.5
    with pytest.raises(ValueError, match="iterations must be at least 1"):
        small_config(iterations=0)
    with pytest.raises(ValueError):
        small_config(levels=())
    with pytest.raises(ValueError):
        small_config(coupling="sideways")


@pytest.mark.parametrize("key, value, match", [
    ("chain", {"iterations": 100, "burn_in": 20}, "chain.burn_in"),
    ("test_fraction", 1.5, "test_fraction"),
    ("copula_rho", 1.2, "copula_rho"),
    ("levels", [-1, 1], "levels"),
    ("replications", 2.5, "replications"),
    ("chain", {"iterations": 200.5}, "iterations"),
    ("chain", {"iterations": -1}, "iterations"),
    ("seed", 2.5, "seed"),
    ("seed", -1, "seed"),
    ("levels", "12", "levels"),
    ("wavelets", "haar", "wavelets"),
    ("etas", "0.1", "etas"),
    ("graph", {"kind": "torus", "rows": 6.7, "cols": 6}, "graph.rows"),
    ("graph", {"kind": "torus", "rows": "6", "cols": 6}, "graph.rows"),
    ("graph", {"kind": "torus", "rows": 6, "cols": True}, "graph.cols"),
    ("graph", {"kind": "torus", "rows": 6, "cols": 6, "chords": 2.5}, "graph.chords"),
    ("graph", {"kind": "torus", "rows": 6, "cols": 6, "chords": 2, "chord_seed": 1.0},
     "graph.chord_seed"),
    ("graph", {"kind": "knn", "points": 30.0, "k": 3}, "graph.points"),
    ("graph", {"kind": "knn", "points": 30, "k": "3"}, "graph.k"),
    ("graph", {"kind": "knn", "points": 30, "k": 3, "point_seed": 0.5}, "graph.point_seed"),
    ("graph", {"kind": "knn", "points": 30, "k": 3, "point_seed": -1}, "graph.point_seed"),
    ("graph", {"kind": "torus", "rows": 6, "cols": 6, "chords": 2, "chord_seed": -2},
     "graph.chord_seed"),
    ("graph", {"kind": "torus", "rows": 6, "cols": 6, "chords": -2}, "graph.chords"),
    ("graph", ["torus", 6, 6], "graph"),
    ("chain", [200], "chain"),
    ("chain", 200, "chain"),
    ("noise_scale", "abc", "noise_scale"),
    ("noise_scale", math.nan, "noise_scale"),
    ("noise_scale", -0.5, "noise_scale"),
    ("noise_scale", True, "noise_scale"),
    ("copula_rho", "x", "copula_rho"),
    ("copula_rho", math.nan, "copula_rho"),
    ("test_fraction", "0.3", "test_fraction"),
    ("test_fraction", math.inf, "test_fraction"),
    ("regression", 5, "regression"),
    ("levels", [1.7, 2], r"levels\[0\] must be an integer"),
    ("levels", ["1"], r"levels\[0\] must be an integer"),
    ("levels", [1, True], r"levels\[1\] must be an integer"),
    ("etas", ["0.1", "0.1"], r"etas\[0\] must be a finite number"),
    ("etas", [True, 0.1], r"etas\[0\] must be a finite number"),
    ("etas", [0.1, math.nan], r"etas\[1\] must be a finite number"),
    ("wavelets", [1], "wavelets: unknown filter 1"),
    ("wavelets", ["haar", "db2"], "wavelets: unknown filter 'db2'"),
    ("wavelets", [["haar"]], "wavelets: unknown filter"),
    ("graph", {"kind": "torus", "cols": 6}, "graph.rows is required"),
    ("graph", {"kind": "knn", "points": 30}, "graph.k is required"),
    ("graph", {"kind": "file"}, "graph.path is required"),
    # open() would take an integer or a bool for a file descriptor
    ("graph", {"kind": "file", "path": 5}, "graph.path must be a string"),
    ("graph", {"kind": "file", "path": True}, "graph.path must be a string"),
    ("graph", {"kind": "file", "path": ["g.txt"]}, "graph.path must be a string"),
    ("out_dir", 5, "out_dir must be a string"),
    ("out_dir", True, "out_dir must be a string"),
    ("out_dir", ["a"], "out_dir must be a string"),
    ("wavelets", ["haar", "haar"], "wavelets must not repeat"),
    ("levels", [1, 1], "levels must not repeat"),
], ids=["burn_in", "test_fraction", "copula_rho", "negative_level",
        "float_replications", "float_iterations", "negative_iterations",
        "float_seed", "negative_seed", "string_levels", "string_wavelets",
        "string_etas", "float_rows", "string_rows", "bool_cols", "float_chords",
        "float_chord_seed", "float_points", "string_k", "float_point_seed",
        "negative_point_seed", "negative_chord_seed", "negative_chords",
        "list_graph", "list_chain", "int_chain", "string_noise_scale",
        "nan_noise_scale", "negative_noise_scale", "bool_noise_scale",
        "string_copula_rho", "nan_copula_rho", "string_test_fraction",
        "inf_test_fraction", "int_regression", "float_level", "string_level",
        "bool_level", "string_eta", "bool_eta", "nan_eta", "int_wavelet",
        "unknown_wavelet", "list_wavelet", "missing_rows", "missing_k", "missing_path",
        "int_path", "bool_path", "list_path", "int_out_dir", "bool_out_dir",
        "list_out_dir", "repeated_wavelet", "repeated_level"])
def test_config_rejects_values_that_fail_late(key, value, match):
    # each of these would otherwise be ignored, fail every replication of a
    # run or crash inside it
    doc = config_to_dict(small_config())
    doc[key] = value
    with pytest.raises(ValueError, match=match):
        config_from_dict(doc)


@pytest.mark.parametrize("graph, bad", [
    ({"kind": "torus", "rows": 6, "cols": 6, "chord": 60}, "chord"),
    ({"kind": "knn", "points": 30, "k": 3, "rows": 6}, "rows"),
    ({"kind": "file", "path": "g.txt", "point_seed": 1}, "point_seed"),
], ids=["torus", "knn", "file"])
def test_config_rejects_keys_the_graph_kind_does_not_read(graph, bad):
    doc = config_to_dict(small_config())
    doc["graph"] = graph
    with pytest.raises(ValueError, match=bad):
        config_from_dict(doc)
    doc["graph"] = {key: value for key, value in graph.items() if key != bad}
    assert config_from_dict(doc).graph == doc["graph"]


@pytest.mark.parametrize("key", ["graph", "etas", "regression"])
def test_config_missing_required_key_is_named(key):
    doc = config_to_dict(small_config())
    del doc[key]
    with pytest.raises(TypeError, match=key):
        config_from_dict(doc)


@pytest.mark.parametrize("text, message", [
    ("__import__('os')", "\"__import__('os')\" is not allowed"),
    ("x1.real", "'x1.real' is not allowed"),
    ("x1[0]", "'x1[0]' is not allowed"),
    ("(lambda: 1)()", "'(lambda: 1)()' is not allowed"),
    ("[x1 for _ in ()]", "'[x1 for _ in ()]' is not allowed"),
    ("x1 + x3", "'x3' is not allowed"),   # d = 2
    # a ufunc's second positional is `out`: this would write into X
    ("exp(x1, x1)", "'exp(x1, x1)' is not allowed"),
    ("exp(x=x1)", "'exp(x=x1)' is not allowed"),
    ("pi(x1)", "'pi(x1)' is not allowed"),
    ("2 * 'a'", "\"'a'\" is not allowed"),
    ("True", "'True' is not allowed"),
    ("x1 < 0.5", "'x1 < 0.5' is not allowed"),
    ("sin(x1) +", "invalid syntax"),
    ("-" * 100000 + "x1", "nested too deeply"),
], ids=["import", "attribute", "subscript", "lambda", "comprehension", "x3",
        "two_args", "keyword", "call_constant", "string", "bool", "compare",
        "syntax", "deep"])
def test_expression_outside_the_grammar_fails_before_any_replication(text, message,
                                                                     monkeypatch):
    attempted = []
    monkeypatch.setattr(experiment, "connected_split", lambda *args: attempted.append(args))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(small_config(regression=text, etas=(0.1, 0.1, 0.1)))
    assert attempted == []


@pytest.mark.parametrize("levels", [experiment._EXPR_DEPTH, experiment._EXPR_DEPTH + 1, 494],
                         ids=["limit", "past_limit", "parent_deepest"])
def test_expression_nesting_limit(levels, monkeypatch):
    # 494 unary levels were the deepest the former compiled evaluator took,
    # called from the top level
    cfg = small_config(regression="-" * levels + "x1", etas=(0.1, 0.1, 0.1))
    if levels > experiment._EXPR_DEPTH:
        attempted = []
        monkeypatch.setattr(experiment, "connected_split", lambda *args: attempted.append(args))
        with pytest.raises(ValueError, match="nested too deeply"):
            run_experiment(cfg)
        assert attempted == []
        return
    m_expr, _ = experiment._regression_target(cfg)

    def deeper(frames):
        return deeper(frames - 1) if frames else m_expr(np.array([0.25]), np.zeros(1))

    np.testing.assert_array_equal(deeper(100), [(-1) ** levels * 0.25])


def test_expression_error_quotes_the_leftmost_piece():
    with pytest.raises(ValueError, match="'x3' is not allowed"):
        experiment._regression_target(small_config(regression="x3 + y", etas=(0.1,) * 3))


def test_config_eta_range_checked_at_run():
    cfg = small_config(etas=(0.6, 0.15))   # torus range is (-0.25, 0.25)
    with pytest.raises(ValueError, match="admissible"):
        run_experiment(cfg)


def test_run_never_computes_eigen_bounds(monkeypatch):
    # admissibility is the Cholesky factor's to decide; the Lanczos range only
    # words its error
    def refuse(*args, **kwargs):
        raise AssertionError("eigen_bounds called")
    monkeypatch.setattr(graphs, "eigen_bounds", refuse)
    table = run_experiment(small_config(graph={"kind": "torus", "rows": 6, "cols": 6,
                                               "chords": 3}))
    assert table.failures == ()


def test_graph_without_edges_fails_before_any_replication(tmp_path, monkeypatch, capsys):
    attempted = []
    monkeypatch.setattr(experiment, "connected_split", lambda *args: attempted.append(args))
    empty = tmp_path / "empty.txt"
    empty.write_text("# no edges\n")
    cfg = small_config(graph={"kind": "file", "path": str(empty)})
    with pytest.raises(ValueError, match="the graph has no edges"):
        run_experiment(cfg)
    assert attempted == []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err == {"error": "the graph has no edges: Graph(nodes=0, edges=0)",
                   "type": "ValueError"}


def test_config_eta_count_checked():
    cfg = small_config(etas=(0.1, 0.1, 0.1))   # univariate wants 2
    with pytest.raises(ValueError, match="etas"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# running

def test_run_smoke_one_row():
    cfg = small_config(replications=1, levels=(0,))
    table = run_experiment(cfg)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert row.n_reps == 1
    for v in (row.mean_l2, row.ref_mean_l2):
        assert np.isfinite(v) and v >= 0.0
    assert row.sd_l2 == 0.0   # single replication


def test_run_deterministic_outputs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_experiment(small_config(out_dir=str(out_a)))
    run_experiment(small_config(out_dir=str(out_b)))
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "replications.log").read_bytes() == \
        (out_b / "replications.log").read_bytes()


def test_run_seed_changes_results(tmp_path):
    t1 = run_experiment(small_config(seed=1))
    t2 = run_experiment(small_config(seed=2))
    assert t1.rows[0].mean_l2 != t2.rows[0].mean_l2


def test_run_bivariate_with_coupling_modes():
    for coupling in ("innovations", "final"):
        cfg = ExperimentConfig(
            graph={"kind": "torus", "rows": 6, "cols": 6},
            etas=(0.12, -0.18, 0.12), regression="bivariate_paper",
            wavelets=("haar",), levels=(1,), replications=1,
            iterations=150, coupling=coupling, seed=5)
        table = run_experiment(cfg)
        assert np.isfinite(table.rows[0].mean_l2)


def test_run_expression_regression():
    cfg = small_config(regression="2.0 + 0.5 * x1", etas=(0.1, 0.1))
    table = run_experiment(cfg)
    assert all(np.isfinite(r.mean_l2) for r in table.rows)


def test_emit_and_load_round_trip(tmp_path):
    cfg = small_config()
    table = run_experiment(cfg)
    csv_path, json_path = emit_table(table, str(tmp_path))
    loaded = load_table(json_path)
    assert loaded.rows == table.rows
    assert loaded.seed == table.seed
    # the config echo of results.json rebuilds the config of the run
    assert config_from_dict(loaded.config) == cfg
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert lines[0] == "wavelet,j,mean_l2,sd_l2,ref_mean_l2,ref_sd_l2,n_reps"
    assert len(lines) == 1 + len(table.rows)


_L2 = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([math.nan, math.inf, -math.inf]))
RESULT_ROWS = st.builds(experiment.ResultRow, st.sampled_from(["haar", "d4", "d6"]),
                        st.integers(0, 6), _L2, _L2, _L2, _L2, st.integers(0, 50))
RESULT_TABLES = st.builds(
    experiment.ResultTable,
    rows=st.lists(RESULT_ROWS, min_size=1, max_size=4).map(tuple),
    config=st.just(config_to_dict(small_config())),
    seed=st.integers(0, 2 ** 63),
    failures=st.lists(st.text(max_size=20), max_size=3).map(tuple),
    blas_threads=st.sampled_from([1, None]))


@settings(max_examples=200, deadline=None)
@given(table=RESULT_TABLES)
def test_every_table_field_reads_back(table):
    with tempfile.TemporaryDirectory() as out:
        loaded = load_table(emit_table(table, out)[1])
    for f in dataclasses.fields(experiment.ResultTable):
        if f.name != "rows":
            assert getattr(loaded, f.name) == getattr(table, f.name), f.name
    assert len(loaded.rows) == len(table.rows)
    for got, want in zip(loaded.rows, table.rows):
        for f in dataclasses.fields(experiment.ResultRow):
            g, w = getattr(got, f.name), getattr(want, f.name)
            # strict JSON holds nan and +-inf as null, which reads back as nan
            if isinstance(w, float) and not math.isfinite(w):
                assert math.isnan(g), (f.name, g, w)
            else:
                assert g == w and type(g) is type(w), (f.name, g, w)


def test_a_results_json_without_blas_threads_loads_with_none(tmp_path):
    # files written before blas_threads was recorded lack the key
    table = experiment.ResultTable(
        (experiment.ResultRow("haar", 1, 0.5, 0.25, 0.75, 0.0, 2),), {"seed": 3}, 3,
        ("rep=1 boom",), 1)
    json_path = emit_table(table, str(tmp_path))[1]
    doc = json.loads(Path(json_path).read_text())
    del doc["blas_threads"]
    Path(json_path).write_text(json.dumps(doc))
    loaded = load_table(json_path)
    assert loaded.blas_threads is None
    assert loaded == dataclasses.replace(table, blas_threads=None)


def test_numpy_scalar_config_writes_the_bytes_of_python_numbers(tmp_path):
    # numpy numbers pass the config's checks; each must be stored as the
    # Python number, or results.json cannot be written after the run.  The
    # float32 values are exact, so both configs hold the same numbers
    plain = dict(graph={"kind": "torus", "rows": 6, "cols": 6, "chords": 2, "chord_seed": 1},
                 etas=(0.15, 0.15), levels=(1, 2), replications=1, seed=3, iterations=50,
                 noise_scale=0.5, test_fraction=0.25, copula_rho=0.5)
    scalars = dict(plain, graph={"kind": "torus", "rows": np.int64(6), "cols": np.int32(6),
                                 "chords": np.int16(2), "chord_seed": np.uint8(1)},
                   etas=(np.float64(0.15), np.float64(0.15)), levels=(np.int64(1), np.int8(2)),
                   replications=np.int64(1), seed=np.int64(3), iterations=np.int32(50),
                   noise_scale=np.float32(0.5), test_fraction=np.float32(0.25),
                   copula_rho=np.float64(0.5))
    outputs = []
    for name, values in (("plain", plain), ("numpy", scalars)):
        cfg = small_config(**values, out_dir=str(tmp_path / name))
        run_experiment(cfg)
        doc = json.loads((tmp_path / name / "results.json").read_text())
        assert config_from_dict(doc["config"]) == cfg
        outputs.append((tmp_path / name / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_format_table_has_parenthesized_sd():
    table = run_experiment(small_config())
    text = format_table(table)
    assert "(" in text and ")" in text
    assert "haar" in text


def test_replication_log_reports_sign(tmp_path):
    cfg = small_config(out_dir=str(tmp_path / "out"))
    run_experiment(cfg)
    log = (tmp_path / "out" / "replications.log").read_text()
    assert "field_minus_ref_sign=" in log
    assert log.count("rep=") == cfg.replications * len(cfg.wavelets) * len(cfg.levels)


# ---------------------------------------------------------------------------
# cli

def test_parse_graph_forms():
    assert _parse_graph("torus:6x6") == \
        {"kind": "torus", "rows": 6, "cols": 6, "chords": 0}
    assert _parse_graph("torus:18x18+60") == \
        {"kind": "torus", "rows": 18, "cols": 18, "chords": 60}
    assert _parse_graph("knn:100,4") == {"kind": "knn", "points": 100, "k": 4}
    assert _parse_graph("file:/tmp/g.txt") == {"kind": "file", "path": "/tmp/g.txt"}
    for spec in ("nonsense", "knn:10,3,4", "knn:10", "torus:3x3x3", "torus:3x", "torus:3x3+",
                 "torus:axb"):
        # the message names the spec and the accepted forms, not an unpack or int() failure
        with pytest.raises(ValueError, match=re.escape(f"cannot parse graph spec {spec!r}; "
                                                       "expected torus:RxC[+CHORDS]")):
            _parse_graph(spec)


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "graph": {"kind": "torus", "rows": 6, "cols": 6},
        "etas": [0.15, 0.15],
        "regression": "univariate_paper",
        "wavelets": ["haar"],
        "levels": [0, 1],
        "replications": 1,
        "chain": {"iterations": 150},
        "noise_scale": 0.5,
        "seed": 7,
    }))
    out_dir = tmp_path / "out"
    code = main(["--config", str(cfg_path), "--out", str(out_dir), "--reps", "2"])
    assert code == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "results.json").exists()
    assert (out_dir / "replications.log").exists()
    doc = json.loads((out_dir / "results.json").read_text())
    assert doc["config"]["replications"] == 2   # flag overrode the file
    assert "haar" in capsys.readouterr().out


def test_cli_flag_overrides(tmp_path):
    out_dir = tmp_path / "o2"
    code = main(["--graph", "torus:6x6", "--seed", "3", "--out", str(out_dir),
                 "--reps", "1", "--levels", "0", "--wavelets", "haar",
                 "--config", str(tmp_path / "base.json")])
    # missing config file is an error with machine readable output
    assert code == 1


def test_cli_error_is_machine_readable(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "missing.json")])
    assert code != 0
    doc = json.loads(capsys.readouterr().out.strip())
    assert "error" in doc and "type" in doc


def test_cli_refuses_a_config_that_is_not_an_object(tmp_path, capsys):
    # a JSON list used to fail with "list indices must be integers", a TypeError
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text(json.dumps([{"seed": 1}]))
    assert main(["--config", str(cfg_path), "--seed", "3"]) != 0
    assert json.loads(capsys.readouterr().out) == {
        "error": "config must be an object, got [{'seed': 1}]", "type": "ValueError"}


def test_cli_minimal_invocation(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "graph": {"kind": "knn", "points": 30, "k": 3},
        "etas": [0.05, 0.05],
        "regression": "univariate_paper",
        "wavelets": ["haar"],
        "levels": [1],
        "replications": 1,
        "chain": {"iterations": 100},
        "seed": 1,
        "out_dir": str(tmp_path / "res"),
    }))
    assert main(["--config", str(cfg_path)]) == 0
    assert (tmp_path / "res" / "results.csv").exists()


def test_cli_exits_nonzero_when_every_replication_fails(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    doc = config_to_dict(small_config(regression="1.0 / (x1 - x1)", etas=(0.1, 0.1)))
    cfg_path.write_text(json.dumps(doc))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "res")]) == 1
    err = json.loads(capsys.readouterr().out.strip())
    assert err["type"] == "RuntimeError"
    assert err["error"].startswith("all 2 replications failed, first: rep=0 ")
    assert "non-finite response" in err["error"]


def test_run_parallel_workers_match_sequential(tmp_path, monkeypatch):
    # 5 replications split unevenly over the chunks of 2 workers
    from wavesieve.experiment import WORKERS_ENV
    for reps in (2, 5):
        seq, par = tmp_path / f"seq{reps}", tmp_path / f"par{reps}"
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        seq_table = run_experiment(small_config(replications=reps, out_dir=str(seq)))
        monkeypatch.setenv(WORKERS_ENV, "2")
        par_table = run_experiment(small_config(replications=reps, out_dir=str(par)))
        assert par_table.rows == seq_table.rows
        for name in ("results.csv", "replications.log"):
            assert (seq / name).read_bytes() == (par / name).read_bytes()


@pytest.mark.parametrize("value", ["two", "0", "-1", "", "²"])
def test_run_rejects_bad_worker_count(value, monkeypatch):
    # a value that is not a positive integer names the variable instead of
    # failing inside int() or silently meaning one worker
    from wavesieve.experiment import WORKERS_ENV
    monkeypatch.setenv(WORKERS_ENV, value)
    with pytest.raises(ValueError, match=WORKERS_ENV):
        run_experiment(small_config())


def test_failed_replications_are_logged_not_fatal(tmp_path):
    # an expression that raises on every evaluation aborts each replication
    cfg = small_config(regression="1.0 / (x1 - x1)", etas=(0.1, 0.1),
                       replications=3, out_dir=str(tmp_path / "out"))
    table = run_experiment(cfg)
    assert len(table.failures) == 3
    assert all(r.n_reps == 0 for r in table.rows)
    assert all(math.isnan(r.mean_l2) for r in table.rows)
    log = (tmp_path / "out" / "replications.log").read_text()
    assert log.count("status=failed") == 3
    # numpy turns the division into inf, so the finiteness invariant trips
    assert "non-finite response" in log
    # no mean is finite, and results.json is still strict JSON: null, not NaN
    text = (tmp_path / "out" / "results.json").read_text()

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    rows = json.loads(text, parse_constant=refuse)["rows"]
    assert all(r[key] is None for r in rows
               for key in ("mean_l2", "ref_mean_l2", "field_minus_ref"))
    loaded = load_table(tmp_path / "out" / "results.json")
    assert all(math.isnan(r.mean_l2) and math.isnan(r.ref_mean_l2) for r in loaded.rows)
    assert [r.sd_l2 for r in loaded.rows] == [r.sd_l2 for r in table.rows]


def test_aggregate_skips_failed_replications(tmp_path, monkeypatch):
    # the split of replication 1 alone raises; replications 0 and 2 aggregate
    cfg = small_config(replications=3, out_dir=str(tmp_path))
    bad_seed = experiment.child_seed(cfg.seed, experiment._SLOT_SPLIT, 1)
    real_split = experiment.connected_split

    def split(graph, fraction, seed):
        if seed == bad_seed:
            raise RuntimeError("split refused")
        return real_split(graph, fraction, seed)

    monkeypatch.setattr(experiment, "connected_split", split)
    table = run_experiment(cfg)
    assert table.failures == ("rep=1 RuntimeError: split refused",)
    lines = (tmp_path / "replications.log").read_text().splitlines()
    assert [line.split()[0] for line in lines] == ["rep=0"] * 2 + ["rep=1"] + ["rep=2"] * 2
    assert lines[2] == "rep=1 status=failed error=RuntimeError: split refused"
    logged = [dict(item.split("=", 1) for item in line.split()) for line in lines
              if "status=failed" not in line]
    for row in table.rows:
        assert row.n_reps == 2
        kept = [e for e in logged if e["wavelet"] == row.wavelet and e["j"] == str(row.j)]
        assert [e["rep"] for e in kept] == ["0", "2"]
        assert row.mean_l2 == np.mean([float(e["l2"]) for e in kept])
        assert row.ref_mean_l2 == np.mean([float(e["ref_l2"]) for e in kept])


# the names the benchmark's layer trace (perfbench/tracing.py) replaces on
# wavesieve.experiment; each must be looked up there at call time
_TRACED_NAMES = ("GmrfSpec", "concliques", "connected_split", "to_uniform", "cascade",
                 "covering_sieve", "fit", "l2_error_mc")


@pytest.mark.filterwarnings("ignore:learning set is disconnected")
@pytest.mark.parametrize("kind, builder", [("torus", "torus_with_chords"),
                                           ("knn", "knn_geometric_graph"),
                                           ("file", "load_graph")])
def test_traced_names_are_called_through_the_module(kind, builder, tmp_path, monkeypatch):
    graph = {"torus": {"kind": "torus", "rows": 6, "cols": 6},
             "knn": {"kind": "knn", "points": 36, "k": 4},
             "file": {"kind": "file", "path": str(tmp_path / "torus.txt")}}[kind]
    graphs.save_graph(graphs.torus_lattice(6, 6), tmp_path / "torus.txt")
    calls = dict.fromkeys((*_TRACED_NAMES, builder), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(experiment, name, counted(name, getattr(experiment, name)))
    table = run_experiment(small_config(graph=graph, etas=(0.05, 0.05)))
    assert table.failures == ()
    assert {name for name, n in calls.items() if n < 1} == set()


# sha256 of results.csv for one small config per stream layout (the d = 2
# `innovations` pair, d = 2 `final`, d = 1 and d >= 3), recorded with
# numpy 2.4.6; CHANGES.md records each re-recording.  Byte identity
# is promised only for the same numpy version and the same C math library.
# A run fits on one BLAS thread whatever the environment says, so each
# config runs in a fresh interpreter in the default environment, with
# OPENBLAS_NUM_THREADS removed.
GOLDEN_NUMPY = "2.4.6"
_TORUS = {"kind": "torus", "rows": 18, "cols": 18, "chords": 60, "chord_seed": 1}
GOLDEN = {
    "d2_innovations_torus": (
        dict(graph=_TORUS, etas=(0.12, -0.18, 0.12), regression="bivariate_paper",
             coupling="innovations"),
        "6a4a5d8b09d16a7f9db01056e58e74f84f027738a3ad38aa6c8a4e45c33421e6"),
    "d2_final_knn": (
        dict(graph={"kind": "knn", "points": 300, "k": 6, "point_seed": 3},
             etas=(0.1, 0.1, 0.1), regression="bivariate_paper", coupling="final",
             copula_rho=0.5),
        "4a35227cd96c339b13faf117ca34668dc676697b16caa503448bda0b9df1f622"),
    "d1_univariate": (
        dict(graph=_TORUS, etas=(0.12, 0.1), regression="univariate_paper",
             noise_scale=0.5),
        "f3f17677ee40bef5b623bb414351eb22ceade001c7fa74fc4c9758af6a236375"),
    "d3_expression": (
        dict(graph=_TORUS, etas=(0.1, -0.1, 0.12, 0.1),
             regression="x1 + x2 * x3 - sin(pi * x3)"),
        "1e6fcc4877b40605874e1251bfeec6e5a4131f6b4637e8f220b8093dbe4b0662"),
}


golden_numpy = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"digests recorded with numpy {GOLDEN_NUMPY}; results.csv "
           "bytes are reproducible only under the same numpy version")


# the CLI with the BLAS thread-count lookup finding nothing, as under a BLAS
# that exports no setter
_CLI_WITHOUT_SETTER = ("import sys\nfrom wavesieve import experiment\n"
                       "from wavesieve.cli import main\n"
                       "experiment._blas_thread_calls = lambda: None\n"
                       "sys.exit(main(sys.argv[1:]))\n")


def cli_digest(name, tmp_path, env, levels=(1, 2), hide_setter=False):
    """sha256 of the results.csv the CLI writes for golden config `name` at
    `levels`, run in a fresh interpreter with `env` over this process's
    environment (a None value removes the variable), and with the BLAS
    thread-count setter hidden when `hide_setter`."""
    overrides, _ = GOLDEN[name]
    cfg = ExperimentConfig(wavelets=("haar", "d4"), levels=levels, replications=2,
                           iterations=200, seed=11, out_dir=str(tmp_path), **overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_dict(cfg)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cli = ["-c", _CLI_WITHOUT_SETTER] if hide_setter else ["-m", "wavesieve.cli"]
    proc = subprocess.run([sys.executable, *cli, "--config", str(config)],
                          env={k: v for k, v in env.items() if v is not None},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "failed replications" not in proc.stdout
    return hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()


@golden_numpy
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_csv_digest(name, tmp_path):
    assert cli_digest(name, tmp_path, {"OPENBLAS_NUM_THREADS": None}) == GOLDEN[name][1]


def test_readme_lists_the_golden_digests():
    # the README's "- `name`: `sha256`" lines must be GOLDEN's digests, so a
    # change to the bytes re-records both
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = dict(re.findall(r"^- `(\w+)`: `([0-9a-f]{64})`$", readme, re.MULTILINE))
    assert listed == {name: digest for name, (_, digest) in GOLDEN.items()}


@golden_numpy
def test_results_csv_bytes_follow_neither_the_thread_nor_the_worker_count(tmp_path):
    # up to level 4 the d4 fits are large enough that 2 BLAS threads round
    # otherwise than 1, so every environment writes one digest only because
    # the run pins one thread
    def digest(env, hide_setter=False):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        return cli_digest("d2_innovations_torus", out, env, levels=(1, 2, 3, 4),
                          hide_setter=hide_setter)

    digests = {(threads, workers): digest({"OPENBLAS_NUM_THREADS": threads,
                                           experiment.WORKERS_ENV: workers})
               for threads in (None, "1", "2") for workers in (None, "2")}
    assert len(set(digests.values())) == 1, digests
    pinned = digests[None, None]
    # with the setter hidden the variable chooses the bytes again
    assert digest({"OPENBLAS_NUM_THREADS": "1"}, hide_setter=True) == pinned
    if (os.cpu_count() or 1) > 1:   # on one CPU OpenBLAS runs one thread whatever the variable says
        assert digest({"OPENBLAS_NUM_THREADS": "2"}, hide_setter=True) != pinned


@pytest.mark.parametrize("workers", [None, "2"])
@pytest.mark.parametrize("fails", [False, True])
def test_a_run_leaves_the_callers_blas_threads_as_it_found_them(workers, fails, monkeypatch):
    # the run sets the process's BLAS thread count while it runs; after it,
    # also after a run whose _context raises, the caller's count and
    # variable are as they were
    calls = experiment._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS exports no known thread-count setter")
    set_threads, get_threads = calls
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    if workers is None:
        monkeypatch.delenv(experiment.WORKERS_ENV, raising=False)
    else:
        monkeypatch.setenv(experiment.WORKERS_ENV, workers)
    saved = get_threads()
    set_threads(2)
    try:
        caller = get_threads()
        if fails:   # a univariate target with three etas fails in _context
            with pytest.raises(ValueError, match="needs 2 etas"):
                run_experiment(small_config(etas=(0.1, 0.1, 0.1)))
        else:
            assert run_experiment(small_config()).failures == ()
        assert get_threads() == caller
    finally:
        set_threads(saved)
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"


@pytest.mark.parametrize("hidden", [False, True])
def test_results_json_records_the_blas_thread_count(hidden, tmp_path, monkeypatch):
    # 1 when the run pinned one thread, null when no setter was found
    pinned = None if hidden or experiment._blas_thread_calls() is None else 1
    if hidden:
        monkeypatch.setattr(experiment, "_blas_thread_calls", lambda: None)
    monkeypatch.delenv(experiment.WORKERS_ENV, raising=False)
    table = run_experiment(small_config(out_dir=str(tmp_path)))
    assert table.blas_threads == pinned
    assert json.loads((tmp_path / "results.json").read_text())["blas_threads"] == pinned


def test_unguarded_pool_script_names_the_missing_guard(tmp_path):
    # spawn workers re-import the main module, so a script that calls
    # run_experiment at module level re-runs the call in each worker, which
    # dies; the error names the guard instead of a bare BrokenProcessPool
    doc = json.dumps(config_to_dict(small_config()))
    script = tmp_path / "unguarded.py"
    script.write_text("import json\nfrom wavesieve import config_from_dict, run_experiment\n"
                      f"run_experiment(config_from_dict(json.loads({doc!r})))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, experiment.WORKERS_ENV: "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(script)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    # searched, not taken as the last line: the resource tracker may warn about
    # the killed workers' semaphores after the traceback
    error = re.search(r"^RuntimeError: a worker process died.*$", proc.stderr, re.M)
    assert error, proc.stderr
    assert experiment.WORKERS_ENV in error[0] and 'if __name__ == "__main__":' in error[0]


def test_bootstrapping_worker_raises_before_building_a_pool(monkeypatch):
    # a spawned worker importing an unguarded main module re-runs the call; it
    # must fail before the pool makes the semaphores the resource tracker
    # would report as leaked
    built = []
    monkeypatch.setenv(experiment.WORKERS_ENV, "2")
    monkeypatch.setattr(multiprocessing.current_process(), "_inheriting", True, raising=False)
    monkeypatch.setattr(experiment, "ProcessPoolExecutor", lambda *args: built.append(args))
    with pytest.raises(RuntimeError, match=re.escape('if __name__ == "__main__":')):
        run_experiment(small_config())
    assert built == []


@pytest.mark.filterwarnings("ignore:learning set is disconnected")
def test_results_csv_bytes_do_not_depend_on_the_sweeps_the_engine_skips(tmp_path, monkeypatch):
    # at the digests' 200 sweeps this config runs every sweep (its eta = -0.18
    # chain contracts in about 70 sweeps, past the probe's cap of 66); at 1000
    # it skips most, and the bytes must equal those of a run forced through
    # every sweep by asking for a trace
    overrides, _ = GOLDEN["d2_innovations_torus"]

    def run(out_dir):
        cfg = ExperimentConfig(wavelets=("haar", "d4"), levels=(1, 2), replications=2,
                               iterations=1000, seed=11, out_dir=str(out_dir), **overrides)
        table = run_experiment(cfg)
        assert not table.failures
        return (out_dir / "results.csv").read_bytes()

    skipping = run(tmp_path / "skip")
    full = experiment.chain_engine
    monkeypatch.setattr(experiment, "chain_engine",
                        lambda specs, partition, iterations:
                        full(specs, partition, iterations, trace_every=iterations))
    assert run(tmp_path / "full") == skipping


def test_a_run_probes_its_chains_once(monkeypatch):
    # the K0 probe depends on the graph, the etas and the run length alone, so
    # the engine that runs it is built once per run, not per replication
    real, probes = gmrf.stream, []

    def spy(seed, *keys):
        if (seed, *keys) == (0, gmrf._TAG_PROBE):
            probes.append(keys)
        return real(seed, *keys)

    monkeypatch.delenv(experiment.WORKERS_ENV, raising=False)
    monkeypatch.setattr(gmrf, "stream", spy)
    table = run_experiment(small_config(replications=3))
    assert not table.failures and all(row.n_reps == 3 for row in table.rows)
    assert len(probes) == 1


def test_a_run_builds_one_elimination_plan(monkeypatch):
    # the plan depends on the graph alone, so the run's two distinct etas share it
    real, calls = gmrf._elimination_plan, []
    monkeypatch.delenv(experiment.WORKERS_ENV, raising=False)
    monkeypatch.setattr(gmrf, "_elimination_plan", lambda graph: calls.append(1) or real(graph))
    table = run_experiment(small_config(replications=1, etas=(0.12, -0.18, 0.12),
                                        regression="bivariate_paper"))
    assert not table.failures and all(row.n_reps == 1 for row in table.rows)
    assert len(calls) == 1
