"""The public surface: each module's ``__all__`` and the package re-exports.

A name deleted from a module must leave its ``__all__`` and the package's
``from .module import ...`` lines with it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import spheredecon

MODULES = sorted(p.stem for p in Path(spheredecon.__file__).parent.glob("*.py")
                 if p.stem != "__init__")


def package_imports() -> list:
    """(module, name) for every name that the package's __init__ imports from a submodule."""
    tree = ast.parse(Path(spheredecon.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_are_defined_in_their_module(module):
    mod = importlib.import_module(f"spheredecon.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), name
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == mod.__name__, name


def test_package_reexports_only_public_names():
    imports = package_imports()
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"spheredecon.{module}")
        assert name in mod.__all__, f"{module}.{name}"
        assert getattr(spheredecon, name) is getattr(mod, name)
