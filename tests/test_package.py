"""Package layout: every exported name exists on the module that exports it."""

import importlib
import pkgutil

import pytest

import n2sr

MODULES = sorted(f"n2sr.{info.name}" for info in pkgutil.iter_modules(n2sr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_module_is_checked():
    assert {"n2sr.bloch", "n2sr.pressure", "n2sr.superradiance", "n2sr.cli"} <= set(MODULES)
