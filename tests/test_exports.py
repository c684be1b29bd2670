"""Every public name the package lists exists where it is listed."""

import ast
import importlib
import pkgutil

import pytest

import mbp

MODULES = sorted(
    f"mbp.{info.name}"
    for info in pkgutil.iter_modules(mbp.__path__)
    if hasattr(importlib.import_module(f"mbp.{info.name}"), "__all__")
)


def _package_imports():
    """(submodule, name) for every ``from .submodule import name`` in mbp/__init__.py."""
    with open(mbp.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [
        (f"mbp.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_modules_found():
    assert {"mbp.estimator", "mbp.likelihood", "mbp.simulate", "mbp._kernels"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_package_reexports_are_public():
    imports = _package_imports()
    assert len(imports) > 50
    stray = [
        f"{module}.{attr}"
        for module, attr in imports
        if attr not in importlib.import_module(module).__all__
    ]
    assert not stray, f"mbp re-exports names missing from their module's __all__: {stray}"
