"""The export lists stay consistent with the modules: every name in a
module's ``__all__`` exists, so ``from wpkrylov.X import *`` cannot fail,
and every name the package imports is one its module exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wpkrylov

MODULES = sorted(info.name for info in pkgutil.iter_modules(wpkrylov.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"wpkrylov.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from wpkrylov.{name} import *", namespace)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(wpkrylov.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"wpkrylov.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(wpkrylov, alias.asname or alias.name) is getattr(module, alias.name)
