"""Every public name a module lists in ``__all__`` resolves.

The benchmark tracer wraps each function in ``hcfnet.ops.__all__``, so a
stale entry there would crash a traced run."""

import importlib
import pkgutil

import pytest

import hcfnet

MODULES = sorted(info.name for info in pkgutil.iter_modules(hcfnet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hcfnet.{name}")
    public = getattr(module, "__all__", [])
    assert len(set(public)) == len(public)
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert missing == []

