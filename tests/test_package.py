"""Package layout: every exported name exists on the module that exports it."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_burst_module_does_not_load_the_seed_stage():
    """superradiance reads only the handover state (medium, theta_r): importing it
    alone leaves n2sr.bloch unloaded."""
    src = str(Path(n2sr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, n2sr.superradiance; print('n2sr.bloch' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
