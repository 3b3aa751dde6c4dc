"""Every bnvc module imports, and every name in its __all__ resolves."""

import importlib
import pkgutil

import pytest

import bnvc

MODULES = sorted(f"bnvc.{m.name}" for m in pkgutil.iter_modules(bnvc.__path__))


def test_modules_found():
    assert "bnvc.codec" in MODULES and "bnvc.tensor" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which the module does not define"
