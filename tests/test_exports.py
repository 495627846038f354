import importlib
import pkgutil

import pytest

import adjckpt

MODULES = [f"adjckpt.{info.name}" for info in pkgutil.iter_modules(adjckpt.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
