"""Configuration-driven simulation experiments.

Each replication simulates the field components on the configured graph,
maps the design components onto the unit cube, builds responses from the
chosen regression function plus the independent noise component, splits the
graph into connected learning and testing node sets, fits every configured
(wavelet, level) pair, and records the Monte Carlo squared error on the test
nodes next to the error of an independent i.i.d. reference sample of the
same size.  Results aggregate to a mean/sd table; everything is a pure
function of the root seed.
"""

import ast
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .gmrf import GmrfSpec, gibbs_chains, to_uniform
from .graphs import (concliques, connected_split, eta_range,
                     knn_geometric_graph, load_graph, torus_lattice,
                     torus_with_chords)
from .regression import Dataset, auto_rho, fit, l2_error_mc
from .rng import child_seed, stream
from .wavelets import cascade, covering_sieve, filter_by_name

__all__ = [
    "ExperimentConfig", "ResultRow", "ResultTable",
    "m_bivariate", "m_univariate", "run_experiment",
    "emit_table", "load_table", "format_table",
    "config_from_dict", "config_to_dict",
]

WORKERS_ENV = "WAVESIEVE_WORKERS"

# per-replication stream slots under the root seed
_SLOT_DESIGN = 100
_SLOT_NOISE = 101
_SLOT_SPLIT = 102
_SLOT_REFERENCE = 103


def m_bivariate(x1, x2):
    """Smooth bivariate test regression function on the unit square,
    elementwise over arrays."""
    return (2.0 - 3.0 * x2 ** 2 + 4.0 * x2 ** 4) * np.exp(-((2.0 * x1 - 1.0) ** 2))


def m_univariate(x):
    """Univariate test regression function with a jump at x = 0.7,
    elementwise over arrays; a scalar gives a scalar."""
    x = np.asarray(x, dtype=float)
    outside = ~((0.0 <= x) & (x <= 1.0))
    if outside.any():
        raise ValueError(f"x={x[outside][0]} outside [0, 1]")
    # the abs keeps the unused branch of np.where real
    return np.where(x <= 0.7, 2.0 + 8.0 * x ** 2 - (1.7 * x) ** 4,
                    2.0 * (np.sqrt(4.0 * np.abs(x - 0.7)) + 1.0))[()]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; see config_from_dict for the JSON schema."""
    graph: dict
    etas: tuple
    regression: str
    wavelets: tuple = ("haar", "d4")
    levels: tuple = (1, 2, 3, 4)
    replications: int = 50
    iterations: int = 3000
    copula_rho: float = 0.7
    coupling: str = "innovations"   # or "final": couple finished fields
    noise_scale: float = 1.0
    test_fraction: float = 0.3
    seed: int = 0
    out_dir: str = None

    def __post_init__(self):
        for key in ("etas", "wavelets", "levels"):
            if isinstance(getattr(self, key), str):
                raise ValueError(f"{key} must be a list, got {getattr(self, key)!r}")
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "wavelets", tuple(self.wavelets))
        object.__setattr__(self, "levels", tuple(int(j) for j in self.levels))
        if not isinstance(self.regression, str):
            raise ValueError(f"regression must be a string, got {self.regression!r}")
        for key in ("copula_rho", "noise_scale", "test_fraction"):
            value = getattr(self, key)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be non-negative, got {self.noise_scale!r}")
        if not isinstance(self.graph, dict):
            raise ValueError(f"graph must be an object, got {self.graph!r}")
        kind = self.graph.get("kind")
        if kind not in _GRAPH_KEYS:
            raise ValueError(f"unknown graph kind {kind!r}")
        unknown = sorted(set(self.graph) - _GRAPH_KEYS[kind] - {"kind"})
        if unknown:
            raise ValueError(f"unknown graph keys for kind {kind!r}: {unknown}")
        # every graph key but kind and path is a count or a seed
        integers = [(key, getattr(self, key)) for key in ("replications", "iterations", "seed")]
        integers += [(f"graph.{key}", self.graph[key])
                     for key in sorted(self.graph.keys() - {"kind", "path"})]
        for key, value in integers:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{key} must be non-negative, got {value!r}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if not self.levels:
            raise ValueError("levels must be nonempty")
        if min(self.levels) < 0:
            raise ValueError("levels must be non-negative")
        if not self.wavelets:
            raise ValueError("wavelets must be nonempty")
        if self.coupling not in ("innovations", "final"):
            raise ValueError("coupling must be 'innovations' or 'final'")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be strictly between 0 and 1")
        if not -1.0 < self.copula_rho < 1.0:
            raise ValueError("|copula_rho| must be below 1")


@dataclass(frozen=True)
class ResultRow:
    wavelet: str
    j: int
    mean_l2: float
    sd_l2: float
    ref_mean_l2: float
    ref_sd_l2: float
    n_reps: int

    @property
    def field_minus_ref(self):
        return self.mean_l2 - self.ref_mean_l2


@dataclass(frozen=True)
class ResultTable:
    rows: tuple
    config: dict
    seed: int
    failures: tuple = ()


# ---------------------------------------------------------------------------
# configuration plumbing

# the keys each graph kind reads, besides "kind"
_GRAPH_KEYS = {"torus": {"rows", "cols", "chords", "chord_seed"},
               "knn": {"points", "k", "point_seed"},
               "file": {"path"}}


def _build_graph(graph_cfg):
    kind = graph_cfg["kind"]
    if kind == "torus":
        chords = graph_cfg.get("chords", 0)
        if chords:
            return torus_with_chords(graph_cfg["rows"], graph_cfg["cols"], chords,
                                     graph_cfg.get("chord_seed", 0))
        return torus_lattice(graph_cfg["rows"], graph_cfg["cols"])
    if kind == "knn":
        return knn_geometric_graph(graph_cfg["points"], graph_cfg["k"],
                                   graph_cfg.get("point_seed", 0))
    return load_graph(graph_cfg["path"])


# numpy ufuncs, so that one call evaluates a whole design column
_EXPR_FUNCS = {name: getattr(np, name) for name in
               ("exp", "log", "sqrt", "sin", "cos", "tan", "abs")}
_EXPR_CONSTS = {"pi": math.pi, "e": math.e}
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _parse_expression(text, d):
    """The compiled tree of `text` once every node is in the grammar over
    x1..xd; otherwise ValueError quoting the offending piece."""
    try:
        tree = ast.parse(text, "<regression>", mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"regression expression {text!r}: {exc.msg}") from None
    values = {f"x{i + 1}" for i in range(d)} | _EXPR_CONSTS.keys()
    pending = [tree.body]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_BINOPS):
            pending += [node.left, node.right]
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            pending.append(node.operand)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _EXPR_FUNCS and len(node.args) == 1
              and not isinstance(node.args[0], ast.Starred) and not node.keywords):
            pending.append(node.args[0])
        elif not (isinstance(node, ast.Name) and node.id in values
                  or isinstance(node, ast.Constant) and type(node.value) in (int, float)):
            piece = ast.get_source_segment(text, node)
            raise ValueError(f"regression expression {text!r}: {piece!r} is not allowed")
    return compile(tree, "<regression>", "eval")


def _regression_target(cfg):
    """(callable, design dimension) for the configured regression id; the
    callable is elementwise in the design columns."""
    if cfg.regression == "bivariate_paper":
        return m_bivariate, 2
    if cfg.regression == "univariate_paper":
        return m_univariate, 1
    # otherwise an expression over x1..xd
    d = len(cfg.etas) - 1
    if d < 1:
        raise ValueError("expression regression needs at least two etas "
                         "(design components plus one noise component)")
    try:
        code = _parse_expression(cfg.regression, d)
    except (RecursionError, MemoryError):   # how parse and compile report deep nesting
        raise ValueError("regression expression is nested too deeply") from None

    def m_expr(*xs):
        local = {f"x{i + 1}": x for i, x in enumerate(xs)}
        with np.errstate(all="ignore"):   # inf and nan fail the finiteness checks
            return eval(code, {"__builtins__": {}}, {**_EXPR_FUNCS, **_EXPR_CONSTS, **local})

    return m_expr, d


def config_from_dict(doc):
    """Build a config from the JSON document form.

    Schema: graph {kind: torus|knn|file, ...}, etas [..] (one per component,
    the last component drives the noise), regression id or expression,
    wavelets [..], levels [..], replications, chain {iterations},
    copula_rho, coupling, noise_scale, test_fraction, seed, out_dir.
    Unknown keys are rejected, in the `chain` and `graph` sections too.
    """
    doc = dict(doc)
    chain = doc.pop("chain", {})
    if not isinstance(chain, dict):
        raise ValueError(f"chain must be an object, got {chain!r}")
    top = {field.name for field in fields(ExperimentConfig)} - {"iterations"}
    unknown = (sorted(doc.keys() - top)
               + [f"chain.{key}" for key in sorted(chain.keys() - {"iterations"})])
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return ExperimentConfig(**doc, **chain)


def config_to_dict(cfg):
    doc = asdict(cfg)
    doc["etas"] = list(cfg.etas)
    doc["wavelets"] = list(cfg.wavelets)
    doc["levels"] = list(cfg.levels)
    doc["chain"] = {"iterations": doc.pop("iterations")}
    return doc


# ---------------------------------------------------------------------------
# the run itself

def _context(cfg):
    """Validated shared state: graph, concliques, one GmrfSpec per component
    (built once per distinct eta), filters with phi tables."""
    graph = _build_graph(cfg.graph)
    lo, hi = eta_range(graph)
    for eta in cfg.etas:
        if not lo < eta < hi:
            raise ValueError(f"eta={eta} outside the graph's admissible "
                             f"range ({lo:.6g}, {hi:.6g})")
    m_true, d = _regression_target(cfg)
    if len(cfg.etas) != d + 1:
        raise ValueError(f"regression dimension {d} needs {d + 1} etas "
                         f"(design components plus noise), got {len(cfg.etas)}")
    tables = {}
    for name in cfg.wavelets:
        filt = filter_by_name(name)
        tables[name] = (filt, cascade(filt))
    partition = concliques(graph)
    by_eta = {eta: GmrfSpec(graph, eta) for eta in dict.fromkeys(cfg.etas)}
    specs = tuple(by_eta[eta] for eta in cfg.etas)
    return graph, partition, specs, tables, m_true, d


def _simulate_design(cfg, partition, specs, rep):
    """Design components mapped to the unit cube, plus the noise component,
    all simulated as one batch of chains.  The `innovations` pair shares the
    design stream; otherwise design component i owns the stream keyed
    (rep, i), or (rep,) for the first one when d <= 2."""
    d = len(specs) - 1
    if d == 2 and cfg.coupling == "innovations":
        streams = [(child_seed(cfg.seed, _SLOT_DESIGN, rep), cfg.copula_rho)]
    else:
        keys = [(rep, i) if i or d > 2 else (rep,) for i in range(d)]
        streams = [(child_seed(cfg.seed, _SLOT_DESIGN, *key), None) for key in keys]
    streams.append((child_seed(cfg.seed, _SLOT_NOISE, rep), None))   # the noise chain
    fields, _ = gibbs_chains(specs, partition, streams, cfg.iterations)
    design = list(fields[:d])
    if d == 2 and cfg.coupling == "final":
        mix = math.sqrt(1.0 - cfg.copula_rho ** 2)
        design[1] = cfg.copula_rho * design[0] + mix * design[1]
    X = np.column_stack([to_uniform(z) for z in design])
    return X, fields[-1]


def _fit_errors(cfg, tables, m_true, X_learn, y_learn, X_test):
    """Squared test error for every configured (wavelet, level).

    Uses the minimal covering sieve (2^(jd) translates on the unit cube):
    with the boundary-overhang family, level-1 fits on a few hundred nodes
    are rich enough that the error curve loses the interior minimum the
    larger reference tables show.
    """
    n = len(y_learn)
    rho = auto_rho(y_learn, n)
    data = Dataset(X_learn, y_learn)
    out = {}
    for name in cfg.wavelets:
        filt, table = tables[name]
        for j in cfg.levels:
            sieve = covering_sieve(filt, X_learn.shape[1], j)
            fitted = fit(data, sieve, table, rho=rho)
            out[(name, j)] = l2_error_mc(fitted, table, m_true, X_test)
    return out


def _replicate(cfg, ctx, rep):
    graph, partition, specs, tables, m_true, d = ctx
    X, noise = _simulate_design(cfg, partition, specs, rep)
    y = m_true(*X.T) + cfg.noise_scale * noise
    learn, test = connected_split(graph, cfg.test_fraction,
                                  child_seed(cfg.seed, _SLOT_SPLIT, rep))
    field_err = _fit_errors(cfg, tables, m_true, X[learn], y[learn], X[test])

    # independent reference sample with the same marginals and sizes
    rng = stream(cfg.seed, _SLOT_REFERENCE, rep)
    n = graph.node_count
    X_ref = rng.uniform(0.0, 1.0, size=(n, d))
    y_ref = m_true(*X_ref.T) + cfg.noise_scale * rng.standard_normal(n)
    nl = learn.size
    ref_err = _fit_errors(cfg, tables, m_true, X_ref[:nl], y_ref[:nl], X_ref[nl:])
    return field_err, ref_err


def _attempt(cfg, ctx, rep):
    """(rep, field errors, reference errors, None), or the error text in place
    of the errors."""
    try:
        return (rep, *_replicate(cfg, ctx, rep), None)
    except Exception as exc:   # a failed replication is recorded, not fatal
        return rep, None, None, f"{type(exc).__name__}: {exc}"


def _replicate_chunk(args):
    """Build the context once, then attempt every replication of the chunk."""
    cfg, reps = args
    ctx = _context(cfg)
    return [_attempt(cfg, ctx, rep) for rep in reps]


def _workers():
    """Worker process count from WORKERS_ENV: a positive integer, 1 when unset."""
    raw = os.environ.get(WORKERS_ENV, "1")
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def run_experiment(cfg):
    """Run all replications, aggregate to a ResultTable, and (when out_dir is
    set) write results.csv, results.json and replications.log."""
    workers = min(_workers(), cfg.replications)
    chunks = [(cfg, range(w, cfg.replications, workers)) for w in range(workers)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_replicate_chunk, chunks))
    else:
        done = [_replicate_chunk(chunks[0])]
    outcomes = sorted((o for chunk in done for o in chunk), key=lambda item: item[0])

    rows = []
    for name in cfg.wavelets:
        for j in cfg.levels:
            errs = [o[1][(name, j)] for o in outcomes if o[3] is None]
            refs = [o[2][(name, j)] for o in outcomes if o[3] is None]
            rows.append(ResultRow(
                name, j,
                float(np.mean(errs)) if errs else math.nan,
                float(np.std(errs, ddof=1)) if len(errs) > 1 else 0.0,
                float(np.mean(refs)) if refs else math.nan,
                float(np.std(refs, ddof=1)) if len(refs) > 1 else 0.0,
                len(errs)))
    failures = tuple(f"rep={o[0]} {o[3]}" for o in outcomes if o[3] is not None)
    table = ResultTable(tuple(rows), config_to_dict(cfg), cfg.seed, failures)

    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        emit_table(table, cfg.out_dir)
        _write_log(cfg, outcomes, os.path.join(cfg.out_dir, "replications.log"))
    return table


def _write_log(cfg, outcomes, path):
    with open(path, "w") as fh:
        for rep, field_err, ref_err, err in outcomes:
            if err is not None:
                fh.write(f"rep={rep} status=failed error={err}\n")
                continue
            for name in cfg.wavelets:
                for j in cfg.levels:
                    l2 = field_err[(name, j)]
                    rl2 = ref_err[(name, j)]
                    sign = "+" if l2 - rl2 >= 0 else "-"
                    fh.write(f"rep={rep} wavelet={name} j={j} l2={l2!r} "
                             f"ref_l2={rl2!r} field_minus_ref_sign={sign}\n")


# ---------------------------------------------------------------------------
# table io

_CSV_HEADER = "wavelet,j,mean_l2,sd_l2,ref_mean_l2,ref_sd_l2,n_reps"


def emit_table(table, out_dir):
    """Write results.csv and results.json; returns the two paths."""
    if not table.rows:
        raise ValueError("table has no rows")
    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "results.json")
    os.makedirs(out_dir, exist_ok=True)
    with open(csv_path, "w") as fh:
        fh.write(_CSV_HEADER + "\n")
        for r in table.rows:
            fh.write(f"{r.wavelet},{r.j},{r.mean_l2!r},{r.sd_l2!r},"
                     f"{r.ref_mean_l2!r},{r.ref_sd_l2!r},{r.n_reps}\n")
    doc = {
        "seed": table.seed,
        "config": table.config,
        "failures": list(table.failures),
        "rows": [dict(wavelet=r.wavelet, j=r.j, mean_l2=r.mean_l2, sd_l2=r.sd_l2,
                      ref_mean_l2=r.ref_mean_l2, ref_sd_l2=r.ref_sd_l2,
                      n_reps=r.n_reps, field_minus_ref=r.field_minus_ref)
                 for r in table.rows],
    }
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return csv_path, json_path


def load_table(json_path):
    with open(json_path) as fh:
        doc = json.load(fh)
    rows = tuple(ResultRow(r["wavelet"], r["j"], r["mean_l2"], r["sd_l2"],
                           r["ref_mean_l2"], r["ref_sd_l2"], r["n_reps"])
                 for r in doc["rows"])
    return ResultTable(rows, doc["config"], doc["seed"], tuple(doc["failures"]))


def format_table(table):
    """Text rendering with the standard deviation in parentheses."""
    wavelets = sorted({r.wavelet for r in table.rows})
    levels = sorted({r.j for r in table.rows})
    by_key = {(r.wavelet, r.j): r for r in table.rows}
    width = 16
    heads = ["j"] + list(wavelets) + [f"{w} (ref)" for w in wavelets]
    lines = [" | ".join(h.rjust(width) for h in heads)]
    for j in levels:
        cells = [str(j).rjust(width)]
        for mean_attr, sd_attr in (("mean_l2", "sd_l2"), ("ref_mean_l2", "ref_sd_l2")):
            for w in wavelets:
                r = by_key.get((w, j))
                cell = (f"{getattr(r, mean_attr):.3f} ({getattr(r, sd_attr):.3f})"
                        if r else "")
                cells.append(cell.rjust(width))
        lines.append(" | ".join(cells))
    return "\n".join(lines)
