import importlib
import pkgutil

import pytest

import dstlab

MODULES = ["dstlab"] + sorted(
    info.name for info in pkgutil.walk_packages(dstlab.__path__, "dstlab.")
)


def test_every_module_is_listed():
    # the walk reaches the subpackage and its modules, so an export check
    # below cannot pass by finding nothing to check
    assert {"dstlab.action", "dstlab.solver", "dstlab.continuum",
            "dstlab.continuum.lightcone"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a deleted function that stays in __all__ breaks `from module import *`
    # without failing any test that imports the names it uses
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
