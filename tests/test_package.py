import importlib
import pkgutil

import pytest

import busemann

MODULES = ["busemann"] + [f"busemann.{m.name}" for m in pkgutil.iter_modules(busemann.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deleted function must not stay behind in an __all__
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
