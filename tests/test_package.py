import importlib
import pkgutil

import pytest

import magtube

MODULES = sorted(m.name for m in pkgutil.iter_modules(magtube.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # every exported name exists, so a star-import of the module works
    mod = importlib.import_module(f"magtube.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
    exec(f"from magtube.{name} import *", {})
