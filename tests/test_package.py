import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import herglotz


def test_every_public_name_resolves():
    modules = [herglotz] + [importlib.import_module(f"herglotz.{m.name}")
                            for m in pkgutil.iter_modules(herglotz.__path__)]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names undefined {missing}"


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package and its CLI must not need it.
    src = str(Path(herglotz.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, herglotz, herglotz.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
