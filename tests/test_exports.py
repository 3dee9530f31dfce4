"""Every name a fracblow module exports resolves."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import fracblow

MODULES = sorted(info.name for info in pkgutil.iter_modules(fracblow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fracblow.{name}")
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


def _defining_module(name):
    """The one module whose ``__all__`` lists ``name``; ``errors``, which
    has no ``__all__``, for the exception classes."""
    owners = [m for m in MODULES if name in getattr(
        importlib.import_module(f"fracblow.{m}"), "__all__", ())]
    assert len(owners) <= 1, (name, owners)
    return importlib.import_module(f"fracblow.{(owners or ['errors'])[0]}")


def test_every_package_name_is_its_modules_object():
    listed = dir(fracblow)
    for name in fracblow.__all__:
        assert getattr(fracblow, name) is getattr(_defining_module(name), name)
        assert name in listed, name


def test_star_import_binds_every_package_name(child_env):
    # import fracblow loads errors and quad only; the star import loads
    # the rest and binds each name to the package's object
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracblow\n"
         "print(sorted(m for m in sys.modules if m.startswith('fracblow')),"
         " 'numpy' in sys.modules)\n"
         "from fracblow import *\n"
         "print([n for n in fracblow.__all__"
         " if globals().get(n) is not getattr(fracblow, n)])"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("['fracblow', 'fracblow.errors', 'fracblow.quad']"
                           " False\n[]\n")


@pytest.mark.parametrize("name", ["no_such_name", "even_block", "np",
                                  "check_band", "BandReport", "distance_d"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(fracblow, name)
