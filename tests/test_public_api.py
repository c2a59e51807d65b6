"""The public API resolves: every ``__all__`` name of ``repro`` and of each
subpackage imports, and no list names anything twice."""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro


def _packages_with_all():
    names = [repro.__name__]
    names += [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.ispkg
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "__all__")]


PACKAGES = _packages_with_all()


def test_every_subpackage_declares_its_api():
    assert {"repro", "repro.core", "repro.crossbar", "repro.nn", "repro.nn.layers"} <= set(
        PACKAGES
    )


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_import(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_has_no_duplicates(name):
    exported = importlib.import_module(name).__all__
    assert len(exported) == len(set(exported))


def test_import_loads_no_scipy():
    """``import repro`` needs numpy alone; scipy is a test-only dependency."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "module, name",
    [("repro", "Memristor"), ("repro.device", "Memristor"), ("repro.exceptions", "DeviceError")],
)
def test_one_device_model(module, name):
    """A single cell is a 1x1 ``Crossbar``; there is no scalar cell class."""
    assert not hasattr(importlib.import_module(module), name)


def test_device_layer_imports_nothing_above_it():
    """``repro.device`` is the bottom layer: it imports no crossbar."""
    device = pathlib.Path(repro.__file__).parent / "device"
    imported = set()
    for path in device.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
    assert not {m for m in imported if m and m.startswith("repro.crossbar")}
