import importlib
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
