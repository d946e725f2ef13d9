import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavesieve.cli import _parse_graph, main
from wavesieve.experiment import (ExperimentConfig, config_from_dict,
                                  config_to_dict, emit_table, format_table,
                                  load_table, m_bivariate, m_univariate,
                                  run_experiment)


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


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(replications=0)
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
], ids=["burn_in", "test_fraction", "copula_rho", "negative_level",
        "float_replications", "float_iterations", "negative_iterations",
        "float_seed", "negative_seed", "string_levels", "string_wavelets",
        "string_etas", "float_rows", "string_rows", "bool_cols", "float_chords",
        "float_chord_seed", "float_points", "string_k", "float_point_seed",
        "negative_point_seed", "negative_chord_seed", "negative_chords",
        "list_graph", "list_chain", "int_chain"])
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


def test_config_eta_range_checked_at_run():
    cfg = small_config(etas=(0.6, 0.15))   # torus range is (-0.25, 0.25)
    with pytest.raises(ValueError, match="admissible"):
        run_experiment(cfg)


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
    with pytest.raises(ValueError):
        _parse_graph("nonsense")


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


@pytest.mark.parametrize("value", ["two", "0", "-1", ""])
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


# sha256 of results.csv for one small config per stream layout (the d = 2
# `innovations` pair, d = 2 `final`, d = 1 and d >= 3), recorded with
# numpy 2.4.6 once the chains summed the neighbours' eta*y.  Byte identity
# is promised only for the same numpy version and the same OpenBLAS thread
# count, so each config runs in a fresh interpreter with
# OPENBLAS_NUM_THREADS=1, whatever the host's core count.
GOLDEN_NUMPY = "2.4.6"
_TORUS = {"kind": "torus", "rows": 18, "cols": 18, "chords": 60, "chord_seed": 1}
GOLDEN = {
    "d2_innovations_torus": (
        dict(graph=_TORUS, etas=(0.12, -0.18, 0.12), regression="bivariate_paper",
             coupling="innovations"),
        "e26d49dd589eaabc561a45995d9072962ff781659a21264cbef836f9b3612975"),
    "d2_final_knn": (
        dict(graph={"kind": "knn", "points": 300, "k": 6, "point_seed": 3},
             etas=(0.1, 0.1, 0.1), regression="bivariate_paper", coupling="final",
             copula_rho=0.5),
        "c6976b6127751904a6e811bd7d0619bb10f21d72debd64aaea652e06f869ca2e"),
    "d1_univariate": (
        dict(graph=_TORUS, etas=(0.12, 0.1), regression="univariate_paper",
             noise_scale=0.5),
        "d9dcf310240f7a8a958220cdf577a1d582db6e6c0bbf76b77e04fa52ca8ee8cd"),
    "d3_expression": (
        dict(graph=_TORUS, etas=(0.1, -0.1, 0.12, 0.1),
             regression="x1 + x2 * x3 - sin(pi * x3)"),
        "b983a93c6921270ffb837e31c2a9b856cfb82fdc59a367a9c22aeb455c0af945"),
}


@pytest.mark.skipif(np.__version__ != GOLDEN_NUMPY,
                    reason=f"digests recorded with numpy {GOLDEN_NUMPY}; results.csv "
                           "bytes are reproducible only under the same numpy version")
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_results_csv_digest(name, tmp_path):
    overrides, digest = GOLDEN[name]
    cfg = ExperimentConfig(wavelets=("haar", "d4"), levels=(1, 2), replications=2,
                           iterations=200, seed=11, out_dir=str(tmp_path), **overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_to_dict(cfg)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "wavesieve.cli", "--config", str(config)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "failed replications" not in proc.stdout
    data = (tmp_path / "results.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
