"""Every name a fracblow module exports resolves."""

import importlib
import pkgutil

import pytest

import fracblow

MODULES = sorted(info.name for info in pkgutil.iter_modules(fracblow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fracblow.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing
