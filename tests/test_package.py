import importlib
import pkgutil

import pytest

import sieveboot

MODULES = sorted(m.name for m in pkgutil.iter_modules(sieveboot.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # ``from sieveboot.<name> import *`` fails on an __all__ entry the module lacks
    module = importlib.import_module(f"sieveboot.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
