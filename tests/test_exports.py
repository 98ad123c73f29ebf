import importlib
import pathlib

import pytest

import halfspace_lab

MODULES = sorted(p.stem for p in pathlib.Path(halfspace_lab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a name deleted from a module must also leave its __all__
    module = importlib.import_module(f"halfspace_lab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
