"""The package's export lists name only what its modules define."""

import importlib
import pkgutil

import schreier


def test_every_exported_name_resolves():
    modules = [schreier] + [
        importlib.import_module(f"schreier.{info.name}")
        for info in pkgutil.iter_modules(schreier.__path__)
    ]
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert stale == []
    namespace: dict = {}
    exec("from schreier import *", namespace)
    assert set(schreier.__all__) <= namespace.keys()
