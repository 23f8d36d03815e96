"""Package-level checks that no single module's tests cover."""

import importlib
import pkgutil

import pytest

import minifunc

MODULES = sorted(m.name for m in pkgutil.iter_modules(minifunc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # __all__ is edited by hand whenever a public name goes
    module = importlib.import_module(f"minifunc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from minifunc.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
