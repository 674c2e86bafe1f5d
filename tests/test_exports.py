"""Every exported name resolves, so a deleted type leaves no stale export."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_no_module_imports_a_siblings_private_name():
    # A private name is one module's decision; a sibling that needs it
    # means that decision is spread over two modules.
    leaks = [
        f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
        for path in sorted(Path(pxpy.__path__[0]).glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert leaks == []


def test_no_private_name_is_left_unused():
    # A module-level _name that nothing in the package reads is an orphan
    # its last user left behind.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(pxpy.__path__[0]).glob("*.py"))
    }
    read = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{name}:{target}" for target in targets
                        if target.startswith("_") and not target.startswith("__")]
    assert [entry for entry in defined if entry.split(":")[1] not in read] == []


def test_cold_cli_import_leaves_out_dataclasses_and_inspect():
    # Records are tuples, so a cold command pays for neither module. Modules
    # a site hook loaded before pxpy are not pxpy's, so they are left aside.
    src = str(Path(pxpy.__path__[0]).parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import sys; before = set(sys.modules); import pxpy.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_the_one_exception_lives_beside_verify():
    assert pxpy.InternalInconsistencyError.__module__ == "pxpy.classifier"
    assert pxpy.InternalInconsistencyError is pxpy.classifier.InternalInconsistencyError
