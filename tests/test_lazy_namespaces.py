"""Every re-exporting package namespace is lazy and still complete."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro._lazy import lazy_exports

PACKAGES = sorted(info.name for info in
                  pkgutil.walk_packages(repro.__path__, "repro.")
                  if info.ispkg)


def test_every_subpackage_is_lazy():
    assert {"repro.farm", "repro.workloads.npb"} <= set(PACKAGES)
    for name in PACKAGES:
        assert importlib.import_module(name).__getattr__.__module__ \
            == lazy_exports.__module__, name


@pytest.mark.parametrize("name", PACKAGES)
def test_namespace_resolves_lists_and_rejects(name):
    pkg = importlib.import_module(name)
    assert pkg.__all__ and len(set(pkg.__all__)) == len(pkg.__all__)
    for attr in pkg.__all__:
        value = getattr(pkg, attr)
        assert vars(pkg)[attr] is value     # cached after the first access
    assert set(dir(pkg)) >= set(pkg.__all__)
    with pytest.raises(AttributeError, match=repr(name)):
        getattr(pkg, "no_such_name")


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_exactly_all(name):
    ns: dict = {}
    exec(f"from {name} import *", ns)
    del ns["__builtins__"]
    assert set(ns) == set(importlib.import_module(name).__all__)


def test_subpackage_export_is_the_module():
    from repro.workloads import npb
    assert npb is importlib.import_module("repro.workloads.npb")


_SUBMODULES_FIRST = """
import importlib, json, pkgutil, sys
import repro
names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
         if info.name != "repro.__main__"]
for name in names:
    importlib.import_module(name)
wrong = []
for name in names:
    pkg = sys.modules[name]
    if not hasattr(pkg, "__path__"):
        continue
    subs = [m for m in map(sys.modules.get, names)
            if m.__name__.rpartition(".")[0] == name]
    for attr in pkg.__all__:
        value = getattr(pkg, attr)
        owners = [vars(m)[attr] for m in subs if attr in vars(m)]
        if not (any(v is value for v in owners) if owners
                else value is sys.modules.get(f"{name}.{attr}")):
            wrong.append(f"{name}.{attr}")
print(json.dumps(wrong))
"""


def test_exports_survive_importing_every_submodule_first():
    """Importing a submodule binds it on its package; an export that
    shares a submodule's name must still be the submodule's attribute."""
    env = {**os.environ,
           "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
    out = subprocess.run([sys.executable, "-c", _SUBMODULES_FIRST], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == []


def test_autotune_is_the_function():
    module = importlib.import_module("repro.analysis.autotune")
    from repro.analysis import autotune
    assert callable(autotune) and autotune is module.autotune
