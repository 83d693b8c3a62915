import importlib
import pkgutil

import ineqlab


def test_every_exported_name_resolves():
    # a stale __all__ entry survives its deleted member until a star import
    for info in pkgutil.iter_modules(ineqlab.__path__):
        module = importlib.import_module(f"ineqlab.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, (info.name, missing)
