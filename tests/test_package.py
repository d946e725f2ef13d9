"""The package namespace re-exports every public name of its modules."""

import importlib
import pkgutil

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
