import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import herglotz
from herglotz import quadrature
from herglotz.catalog import AnalyticFunction
from herglotz.cli import main
from herglotz.measures import BoundaryMeasure, DensityPart

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_perfbench_herglotz_imports_resolve():
    # The benchmark imports the package by name; a rename must not break it.
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "herglotz":
                mod = importlib.import_module(node.module)
                missing = [a.name for a in node.names if not hasattr(mod, a.name)]
                assert not missing, f"{path.name}: {node.module} lacks {missing}"


def test_traced_attributes_exist():
    # perfbench/tracing.py hooks these methods and reads these parameters.
    for cls, attr in ((AnalyticFunction, "__call__"), (DensityPart, "__call__"),
                      (BoundaryMeasure, "__post_init__")):
        assert attr in vars(cls), f"{cls.__name__}.{attr}"
    for name in quadrature.__all__:
        params = inspect.signature(getattr(quadrature, name)).parameters
        assert "atol" in params and "rtol" in params, f"{name} lacks atol, rtol"
    assert "f" in inspect.signature(quadrature.adaptive_quad).parameters
    assert "argv" in inspect.signature(main).parameters


def test_only_quadrature_cuts_the_line():
    # How the line is cut into pieces and how a tail is mapped is decided in
    # quadrature.py alone; other modules take panels from its walk.
    owned = {"_line_pieces", "_tail_map"}
    src = Path(herglotz.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        assert not names & owned, f"{path.name} uses {sorted(names & owned)}"
