import importlib
import pkgutil

import pytest

import multizeta

MODULES = ["multizeta"] + [
    f"multizeta.{info.name}" for info in pkgutil.iter_modules(multizeta.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []
