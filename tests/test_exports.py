"""The export lists stay consistent with the modules: every name in a
module's ``__all__`` exists, so ``from wpkrylov.X import *`` cannot fail,
and every name the package imports is one its module exports.  The
layers import each other only downwards: linalg at the bottom, then
weighting, cdr and matrixio, then schwarz, solvers and bounds (the CLI
and the package on top read them all)."""

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


# the modules each layer may import, relatively, from within the package
LAYERS = {
    "linalg": set(),
    "weighting": {"linalg"},
    "cdr": {"linalg"},
    "matrixio": {"linalg"},
    "schwarz": {"linalg", "weighting"},
    "solvers": {"linalg", "weighting"},
    "bounds": {"linalg", "weighting"},
}


def relative_imports(name):
    """The package modules that wpkrylov.<name> imports: ``from .x import``
    and ``from . import x``, anywhere in the module."""
    tree = ast.parse(Path(wpkrylov.__file__).with_name(f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_layers_import_only_the_layers_below(name):
    assert relative_imports(name) == LAYERS[name]


def test_every_module_has_a_layer_or_reads_them_all():
    assert set(MODULES) - set(LAYERS) == {"cli"}
    assert relative_imports("cli") <= set(LAYERS)
