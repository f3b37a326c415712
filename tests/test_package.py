import importlib
import pkgutil

import herglotz


def test_every_public_name_resolves():
    modules = [herglotz] + [importlib.import_module(f"herglotz.{m.name}")
                            for m in pkgutil.iter_modules(herglotz.__path__)]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names undefined {missing}"
