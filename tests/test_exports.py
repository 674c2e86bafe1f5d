"""Every exported name resolves, so a deleted type leaves no stale export."""

import importlib
import pkgutil

import pxpy

SUBMODULES = [
    importlib.import_module(f"pxpy.{info.name}")
    for info in pkgutil.iter_modules(pxpy.__path__)
]


def test_package_exports_resolve():
    missing = [name for name in pxpy.__all__ if not hasattr(pxpy, name)]
    assert missing == []


def test_submodule_exports_resolve():
    missing = [
        f"{module.__name__}.{name}"
        for module in SUBMODULES
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from pxpy import *", namespace)
    assert set(pxpy.__all__) <= set(namespace)


def test_package_exports_exactly_the_modules_exports():
    module_names = [
        name for module in SUBMODULES for name in getattr(module, "__all__", ())
    ]
    assert sorted(pxpy.__all__) == sorted(module_names)
    assert len(set(module_names)) == len(module_names)
