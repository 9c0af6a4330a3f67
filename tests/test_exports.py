"""Module exports: every ``__all__`` name exists, every public definition is listed."""

import importlib
import inspect
import pathlib

import pytest

import jetres

PACKAGE = pathlib.Path(jetres.__file__).parent
MODULES = ["jetres"] + sorted(f"jetres.{p.stem}" for p in PACKAGE.glob("*.py")
                              if p.stem != "__init__")
# the command-line front end is run, not imported, and keeps no export list
LIBRARY = [name for name in MODULES if name != "jetres.cli"]


@pytest.mark.parametrize("name", LIBRARY)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(name)
    exported = set(module.__all__)
    assert {x for x in exported if not hasattr(module, x)} == set(), "stale names in __all__"
    defined = {
        x
        for x, obj in vars(module).items()
        if not x.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    }
    assert defined - exported == set(), "public definitions missing from __all__"
