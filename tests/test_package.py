"""The package namespace re-exports every public name of its modules, and an
experiment runs on numpy and the standard library alone."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wavesieve

MODULES = {info.name: importlib.import_module(f"wavesieve.{info.name}")
           for info in pkgutil.iter_modules(wavesieve.__path__)}
EXPORTING = sorted(name for name, module in MODULES.items() if hasattr(module, "__all__"))


@pytest.mark.parametrize("name", EXPORTING)
def test_module_exports_are_defined_and_reexported(name):
    module = MODULES[name]
    for export in module.__all__:
        assert hasattr(module, export), f"wavesieve.{name}.__all__ names missing {export}"
        assert getattr(wavesieve, export, None) is getattr(module, export), \
            f"wavesieve.{export} is not wavesieve.{name}.{export}"


# a one-replication experiment; prints the top-level modules loaded from a file
# since start-up that are neither standard library nor numpy nor wavesieve
_RUNTIME_PROBE = """
import sys, tempfile
before = set(sys.modules)
from wavesieve.experiment import ExperimentConfig, run_experiment
with tempfile.TemporaryDirectory() as out:
    run_experiment(ExperimentConfig(
        graph={"kind": "torus", "rows": 6, "cols": 6}, etas=(0.15, 0.15),
        regression="univariate_paper", wavelets=("haar", "d4"), levels=(0, 1),
        replications=1, iterations=50, out_dir=out))
allowed = set(sys.stdlib_module_names) | {"numpy", "wavesieve"}
loaded = {name.partition(".")[0] for name in set(sys.modules) - before
          if getattr(sys.modules[name], "__file__", None) is not None}
print(sorted(loaded - allowed))
"""


def test_experiment_loads_only_numpy_and_the_standard_library():
    # pyproject.toml lists numpy as the one runtime dependency; scipy is a
    # test dependency only.  Modules without a file (numpy's Cython runtime,
    # the __main__ alias) come from no installed package.
    src = str(Path(wavesieve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _RUNTIME_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
