import importlib
import inspect
import pkgutil

import pytest

import mboxsim

MODULES = ["mboxsim"] + [f"mboxsim.{m.name}" for m in pkgutil.iter_modules(mboxsim.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_has_one_home(module_name):
    # a class or function is exported only by the module that defines it
    module = importlib.import_module(module_name)
    elsewhere = [
        f"{name} (from {obj.__module__})"
        for name in module.__all__
        if (inspect.isclass(obj := getattr(module, name)) or inspect.isfunction(obj))
        and obj.__module__ != module_name
    ]
    assert not elsewhere, f"{module_name}.__all__ re-exports {elsewhere}"


def test_package_exports_only_its_version():
    assert mboxsim.__all__ == ["__version__"]
