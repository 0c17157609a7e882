"""Every ``__all__`` in the package names what its module defines, and all of it."""

import importlib
import inspect
import pkgutil

import pytest

import sensorcal

MODULES = [
    importlib.import_module(f"sensorcal.{info.name}")
    for info in pkgutil.iter_modules(sensorcal.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_some_modules_declare_exports():
    assert len(EXPORTING) >= 5


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_public_definition_is_exported(module):
    defined = [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []
