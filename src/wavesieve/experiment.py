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
import contextlib
import ctypes
import functools
import json
import math
import multiprocessing
import numbers
import operator
import os
from collections.abc import Mapping
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from .gmrf import GmrfSpec, chain_engine, to_uniform
from .graphs import (_count, concliques, connected_split, knn_geometric_graph,
                     load_graph, torus_with_chords)
from .regression import Dataset, _json_value, auto_rho, sieve_errors
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
            object.__setattr__(self, key, tuple(getattr(self, key)))
        for name in self.wavelets:
            try:
                filter_by_name(name)
            except ValueError as exc:
                raise ValueError(f"wavelets: {exc}") from None
        if not isinstance(self.regression, str):
            raise ValueError(f"regression must be a string, got {self.regression!r}")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string or null, got {self.out_dir!r}")
        reals = [(k, getattr(self, k)) for k in ("copula_rho", "noise_scale", "test_fraction")]
        reals += [(f"etas[{i}]", eta) for i, eta in enumerate(self.etas)]
        for key, value in reals:
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
        for key in ("copula_rho", "noise_scale", "test_fraction"):
            object.__setattr__(self, key, float(getattr(self, key)))
        object.__setattr__(self, "etas", tuple(float(eta) for eta in self.etas))
        if self.noise_scale < 0:
            raise ValueError(f"noise_scale must be non-negative, got {self.noise_scale!r}")
        if not isinstance(self.graph, dict):
            raise ValueError(f"graph must be an object, got {self.graph!r}")
        kind = self.graph.get("kind")
        if kind not in _GRAPH_KEYS:
            raise ValueError(f"unknown graph kind {kind!r}")
        required, optional = _GRAPH_KEYS[kind]
        unknown = sorted(set(self.graph) - {"kind", *required, *optional})
        if unknown:
            raise ValueError(f"unknown graph keys for kind {kind!r}: {unknown}")
        for key in required:
            if key not in self.graph:
                raise ValueError(f"graph.{key} is required for kind {kind!r}")
        if not isinstance(self.graph.get("path", ""), str):
            raise ValueError(f"graph.path must be a string, got {self.graph['path']!r}")
        for key in ("replications", "iterations", "seed"):
            object.__setattr__(self, key, _count(key, getattr(self, key)))
        # every graph key but kind and path is a count or a seed
        object.__setattr__(self, "graph", {**self.graph, **{
            key: _count(f"graph.{key}", self.graph[key])
            for key in sorted(self.graph.keys() - {"kind", "path"})}})
        object.__setattr__(self, "levels", tuple(_count(f"levels[{i}]", j)
                                                 for i, j in enumerate(self.levels)))
        for key in ("replications", "iterations"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be at least 1")
        for key in ("wavelets", "levels"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} must be nonempty")
            if len(set(values)) < len(values):
                raise ValueError(f"{key} must not repeat an entry, got {list(values)!r}")
        if self.coupling not in ("innovations", "final"):
            raise ValueError("coupling must be 'innovations' or 'final'")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be strictly between 0 and 1")
        if not -1.0 < self.copula_rho < 1.0:
            raise ValueError("|copula_rho| must be below 1")


# ResultRow and ResultTable are the schema of the run record: emit_table
# writes their fields to results.csv and results.json, load_table reads them back

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
    blas_threads: int = None   # the BLAS thread count of the fits; None if not pinned


# ---------------------------------------------------------------------------
# configuration plumbing

# the keys each graph kind reads besides "kind": (required, optional)
_GRAPH_KEYS = {"torus": (("rows", "cols"), ("chords", "chord_seed")),
               "knn": (("points", "k"), ("point_seed",)),
               "file": (("path",), ())}


def _build_graph(graph_cfg):
    kind = graph_cfg["kind"]
    if kind == "torus":
        return torus_with_chords(graph_cfg["rows"], graph_cfg["cols"],
                                 graph_cfg.get("chords", 0), graph_cfg.get("chord_seed", 0))
    if kind == "knn":
        return knn_geometric_graph(graph_cfg["points"], graph_cfg["k"],
                                   graph_cfg.get("point_seed", 0))
    return load_graph(graph_cfg["path"])


# numpy ufuncs, so that one call evaluates a whole design column
_EXPR_FUNCS = {name: getattr(np, name) for name in
               ("exp", "log", "sqrt", "sin", "cos", "tan", "abs")}
_EXPR_CONSTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}
_EXPR_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
             ast.Div: operator.truediv, ast.Pow: operator.pow,
             ast.UAdd: operator.pos, ast.USub: operator.neg}
# the deepest nesting _evaluate walks: its frames stay well inside Python's
# default recursion limit of 1000 from any call depth a run reaches
_EXPR_DEPTH = 500


def _evaluate(text, node, names, depth=0):
    """The value of the parsed expression `node` of `text`, its names read
    from `names`, or ValueError quoting the leftmost piece outside the grammar.

    Each number is an np.float64, as are pi and e, so constants follow the
    IEEE rules of the columns: 0*2**1100 and (-pi)**pi are nan and 1/0 inf,
    which the finiteness checks reject, where Python would compute 2**1100
    exactly, 9**9**9 without end, raise at 1/0 and make (-pi)**pi complex."""
    if depth > _EXPR_DEPTH:
        raise ValueError("regression expression is nested too deeply")
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_evaluate(text, node.left, names, depth + 1),
                                        _evaluate(text, node.right, names, depth + 1))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_OPS:
        return _EXPR_OPS[type(node.op)](_evaluate(text, node.operand, names, depth + 1))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCS and len(node.args) == 1
            and not isinstance(node.args[0], ast.Starred) and not node.keywords):
        return _EXPR_FUNCS[node.func.id](_evaluate(text, node.args[0], names, depth + 1))
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            return np.float64(node.value)
        except OverflowError:   # an integer past the float range
            return np.float64(np.inf)
    piece = ast.get_source_segment(text, node)
    raise ValueError(f"regression expression {text!r}: {piece!r} is not allowed")


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
    text = cfg.regression
    try:
        tree = ast.parse(text, "<regression>", mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"regression expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):   # how the parser reports deep nesting
        raise ValueError("regression expression is nested too deeply") from None

    def m_expr(*xs):
        names = {**_EXPR_CONSTS, **{f"x{i + 1}": x for i, x in enumerate(xs)}}
        with np.errstate(all="ignore"):   # inf and nan fail the finiteness checks
            return _evaluate(text, tree.body, names)

    m_expr(*np.zeros((d, 0)))   # checks the grammar before any replication
    return m_expr, d


def config_from_dict(doc):
    """Build a config from the JSON document form.

    Schema: graph {kind: torus|knn|file, ...}, etas [..] (one per component,
    the last component drives the noise), regression id or expression,
    wavelets [..], levels [..], replications, chain {iterations},
    copula_rho, coupling, noise_scale, test_fraction, seed, out_dir.
    Unknown keys are rejected, in the `chain` and `graph` sections too.
    """
    doc = dict(_config_object(doc))
    chain = doc.pop("chain", {})
    if not isinstance(chain, dict):
        raise ValueError(f"chain must be an object, got {chain!r}")
    top = {field.name for field in fields(ExperimentConfig)} - {"iterations"}
    unknown = (sorted(doc.keys() - top)
               + [f"chain.{key}" for key in sorted(chain.keys() - {"iterations"})])
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    return ExperimentConfig(**doc, **chain)


def _config_object(doc):
    """`doc` if it is a mapping, the JSON object form of a config; otherwise
    the ValueError naming it, so a JSON list is not indexed by key."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"config must be an object, got {doc!r}")
    return doc


def config_to_dict(cfg):
    doc = asdict(cfg)
    doc.update((key, list(getattr(cfg, key))) for key in ("etas", "wavelets", "levels"))
    doc["chain"] = {"iterations": doc.pop("iterations")}
    return doc


# ---------------------------------------------------------------------------
# the run itself

def _context(cfg):
    """Build the run once and return `replicate(rep)`, which maps each
    (wavelet, level) to the pair (field error, reference error) of
    replication `rep`.

    The build raises on a graph without edges, on an eta count that does not
    fit the regression target and on an inadmissible eta (one GmrfSpec per
    distinct eta); the `chain_engine` runs its K0 probe here, once per run.
    A replication runs the engine once: the `innovations` pair shares the
    design stream; otherwise design component i owns the stream keyed
    (rep, i), or (rep,) for the first one when d <= 2.  Each fit uses the
    minimal covering sieve (2^(jd) translates on the unit cube): with the
    boundary-overhang family, level-1 fits on a few hundred nodes are rich
    enough that the error curve loses the interior minimum the larger
    reference tables show.
    """
    graph = _build_graph(cfg.graph)
    if graph.edge_count == 0:
        raise ValueError(f"the graph has no edges: {graph!r}")
    m_true, d = _regression_target(cfg)
    if len(cfg.etas) != d + 1:
        raise ValueError(f"regression dimension {d} needs {d + 1} etas "
                         f"(design components plus noise), got {len(cfg.etas)}")
    tables = {name: cascade(filter_by_name(name)) for name in cfg.wavelets}
    by_eta = {eta: GmrfSpec(graph, eta) for eta in dict.fromkeys(cfg.etas)}
    engine = chain_engine([by_eta[eta] for eta in cfg.etas], concliques(graph), cfg.iterations)
    pairs = [(name, j) for name in cfg.wavelets for j in cfg.levels]
    sieves = {name: [covering_sieve(tables[name].filter, d, j) for j in cfg.levels]
              for name in cfg.wavelets}

    def fit_errors(X_learn, y_learn, X_test):
        """Squared test error for every configured (wavelet, level), in order:
        one sieve pass per wavelet."""
        rho = auto_rho(y_learn, len(y_learn))
        data = Dataset(X_learn, y_learn)
        truth = m_true(*X_test.T)
        return [error for name in cfg.wavelets
                for error in sieve_errors(data, X_test, truth, tables[name], sieves[name], rho)]

    def replicate(rep):
        if d == 2 and cfg.coupling == "innovations":
            streams = [(child_seed(cfg.seed, _SLOT_DESIGN, rep), cfg.copula_rho)]
        else:
            keys = [(rep, i) if i or d > 2 else (rep,) for i in range(d)]
            streams = [(child_seed(cfg.seed, _SLOT_DESIGN, *key), None) for key in keys]
        streams.append((child_seed(cfg.seed, _SLOT_NOISE, rep), None))   # the noise chain
        fields, _ = engine(streams)
        design = list(fields[:d])
        if d == 2 and cfg.coupling == "final":
            mix = math.sqrt(1.0 - cfg.copula_rho ** 2)
            design[1] = cfg.copula_rho * design[0] + mix * design[1]
        X = np.column_stack([to_uniform(z) for z in design])
        y = m_true(*X.T) + cfg.noise_scale * fields[-1]
        learn, test = connected_split(graph, cfg.test_fraction,
                                      child_seed(cfg.seed, _SLOT_SPLIT, rep))
        field_err = fit_errors(X[learn], y[learn], X[test])

        # independent reference sample with the same marginals and sizes
        rng = stream(cfg.seed, _SLOT_REFERENCE, rep)
        n = graph.node_count
        X_ref = rng.uniform(0.0, 1.0, size=(n, d))
        y_ref = m_true(*X_ref.T) + cfg.noise_scale * rng.standard_normal(n)
        nl = learn.size
        ref_err = fit_errors(X_ref[:nl], y_ref[:nl], X_ref[nl:])
        return dict(zip(pairs, zip(field_err, ref_err)))

    return replicate


# the (set, get) thread-count pairs OpenBLAS builds export, in lookup order
_BLAS_THREAD_CALLS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                      ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
                      ("openblas_set_num_threads", "openblas_get_num_threads"))


@functools.cache
def _blas_thread_calls():
    """(set, get) of the thread count of the OpenBLAS that numpy's LAPACK
    calls run on, looked up once per process; None when numpy's linalg
    extension exports no known pair (another BLAS)."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for set_name, get_name in _BLAS_THREAD_CALLS:
        setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with the process's BLAS on one thread and restore the
    caller's count after it; when no setter is found the body runs at
    whatever count it has.

    LAPACK's gelsd (the d4 fits from level 3 on) and the dense factor of
    tau_from_eta round otherwise on two threads than on one, so without the
    pin the bytes of results.csv would follow the caller's thread count."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    saved = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(saved)


def _replicate_chunk(args):
    """Build the run once, then replicate every rep of the chunk, all on one
    BLAS thread; returns the outcomes, each (rep, pair map, None), or (rep,
    None, error text) when the replication fails."""
    cfg, reps = args
    with _one_blas_thread():
        replicate = _context(cfg)
        outcomes = []
        for rep in reps:
            try:
                outcomes.append((rep, replicate(rep), None))
            except Exception as exc:   # a failed replication is recorded, not fatal
                outcomes.append((rep, None, f"{type(exc).__name__}: {exc}"))
    return outcomes


def _workers():
    """Worker process count from WORKERS_ENV: a positive integer, 1 when unset."""
    raw = os.environ.get(WORKERS_ENV, "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def run_experiment(cfg):
    """Run all replications, aggregate to a ResultTable, and (when out_dir is
    set) write results.csv, results.json and replications.log.

    The replications run with BLAS on one thread, so the bytes follow neither
    the caller's thread count nor the worker count.  The count is
    process-wide: the caller's other threads run at 1 thread too until the
    run restores their count."""
    # spawned workers load this process's numpy, so they find the same setter
    blas_threads = None if _blas_thread_calls() is None else 1
    workers = min(_workers(), cfg.replications)
    chunks = [(cfg, range(w, cfg.replications, workers)) for w in range(workers)]
    if workers > 1:
        guard = (f"with {WORKERS_ENV} >= 2 a script must call run_experiment under "
                 '`if __name__ == "__main__":`')
        # a spawned worker that is still importing the main module re-ran this
        # call; it raises before the pool creates its queues and semaphores
        if getattr(multiprocessing.current_process(), "_inheriting", False):
            raise RuntimeError(f"run_experiment called while a worker imports the main module; "
                               f"{guard}")
        try:
            with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
                done = list(pool.map(_replicate_chunk, chunks))
        except BrokenProcessPool as exc:   # spawned workers re-import the main module
            raise RuntimeError(f"a worker process died; {guard}") from exc
    else:
        done = [_replicate_chunk(chunks[0])]
    outcomes = sorted((o for chunk in done for o in chunk), key=lambda item: item[0])

    kept = [pairs for _, pairs, err in outcomes if err is None]
    rows = []
    for name in cfg.wavelets:
        for j in cfg.levels:
            errs = [pairs[(name, j)][0] for pairs in kept]
            refs = [pairs[(name, j)][1] for pairs in kept]
            rows.append(ResultRow(name, j, *_mean_sd(errs), *_mean_sd(refs), len(errs)))
    failures = tuple(f"rep={rep} {err}" for rep, _, err in outcomes if err is not None)
    table = ResultTable(tuple(rows), config_to_dict(cfg), cfg.seed, failures, blas_threads)

    if cfg.out_dir is not None:
        emit_table(table, cfg.out_dir)
        _write_log(outcomes, os.path.join(cfg.out_dir, "replications.log"))
    return table


def _mean_sd(values):
    """Mean and sample standard deviation; nan and 0 for no values, 0 sd for one."""
    return (float(np.mean(values)) if values else math.nan,
            float(np.std(values, ddof=1)) if len(values) > 1 else 0.0)


def _write_log(outcomes, path):
    with open(path, "w") as fh:
        for rep, pairs, err in outcomes:
            if err is not None:
                fh.write(f"rep={rep} status=failed error={err}\n")
                continue
            for (name, j), (l2, rl2) in pairs.items():
                sign = "+" if l2 - rl2 >= 0 else "-"
                fh.write(f"rep={rep} wavelet={name} j={j} l2={l2!r} "
                         f"ref_l2={rl2!r} field_minus_ref_sign={sign}\n")


# ---------------------------------------------------------------------------
# table io

def _csv_cell(value):
    return repr(value) if isinstance(value, float) else str(value)


def _json_row(row):
    doc = {**asdict(row), "field_minus_ref": row.field_minus_ref}
    return {key: _json_value(value) for key, value in doc.items()}


def emit_table(table, out_dir):
    """Write results.csv and results.json; returns the two paths.

    The fields of ResultRow and ResultTable are the schema: the CSV has one
    column per ResultRow field (floats by repr, the rest by str), and
    results.json has one top-level key per ResultTable field.  Each JSON row
    also holds its field_minus_ref, and a non-finite row value is written as
    null, since strict JSON holds no nan or inf."""
    if not table.rows:
        raise ValueError("table has no rows")
    csv_path = os.path.join(out_dir, "results.csv")
    json_path = os.path.join(out_dir, "results.json")
    os.makedirs(out_dir, exist_ok=True)
    columns = [f.name for f in fields(ResultRow)]
    with open(csv_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for r in table.rows:
            fh.write(",".join(_csv_cell(getattr(r, name)) for name in columns) + "\n")
    doc = {f.name: getattr(table, f.name) for f in fields(ResultTable)}
    doc["rows"] = [_json_row(r) for r in table.rows]
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
    return csv_path, json_path


def load_table(json_path):
    """The table emit_table wrote, every ResultTable field read back.

    A field missing from an older file takes its dataclass default (a file
    written before blas_threads was recorded loads with None).  A null row
    value, written for nan or +-inf, reads back as nan."""
    with open(json_path) as fh:
        doc = json.load(fh)
    # the table's sequences are tuples; JSON reads them back as lists
    values = {f.name: tuple(doc[f.name]) if isinstance(doc[f.name], list) else doc[f.name]
              for f in fields(ResultTable) if f.name in doc}
    values["rows"] = tuple(ResultRow(**{f.name: math.nan if r[f.name] is None else r[f.name]
                                        for f in fields(ResultRow)})
                           for r in values["rows"])
    return ResultTable(**values)


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
