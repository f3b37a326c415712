import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import herglotz
from herglotz import catalog, quadrature
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


def test_benchmark_workloads_pass_their_checks(tmp_path, monkeypatch):
    # One round of each benchmark workload at seed 7, every operation passing
    # its check, the known-fault points included.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    workloads = importlib.import_module("workloads")
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, tmp_path / name)
        report = wl.check(wl.run_round())
        assert report["failed"] == 0, f"{name}: {report['failed_calls']}"


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


def _names_outside(owner):
    # (file name, every name, attribute and imported alias it uses) for each
    # package module other than owner.
    src = Path(herglotz.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        if path.name == owner:
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        yield path.name, names


def test_only_quadrature_cuts_the_line():
    # How the line is cut into pieces and how a tail is mapped is decided in
    # quadrature.py alone; other modules take panels from its walk.
    owned = {"_line_pieces", "_tail_map"}
    for name, names in _names_outside("quadrature.py"):
        assert not names & owned, f"{name} uses {sorted(names & owned)}"


def test_only_extraction_gates_growth():
    # Whether f grows slowly enough near the boundary is decided in
    # extraction.py alone; other modules call its _require_simple.
    owned = {"_GROWTH_MARGIN", "sup_abs_growth"}
    for name, names in _names_outside("extraction.py"):
        assert not names & owned, f"{name} uses {sorted(names & owned)}"


def test_only_extrapolation_combines_samples():
    # How samples are combined into a limit is decided in extrapolation.py
    # alone; other modules hand their samples to best_limit or a schedule.
    owned = {"neville_zero_limit", "aitken_limit", "_at_zero"}
    for name, names in _names_outside("extrapolation.py"):
        assert not names & owned, f"{name} uses {sorted(names & owned)}"


def test_only_catalog_reads_star_symmetry():
    # Whether the lower side of a mirror pair is the conjugate of the upper one
    # is decided in catalog.py alone; other modules take both sides from its
    # _with_reflection.
    for name, names in _names_outside("catalog.py"):
        assert "star_symmetric" not in names, name


def test_only_quadrature_sets_the_threshold():
    # The relative tolerance and the panel budget of a refinement are
    # quadrature.py's defaults; other modules pass atol alone, or a budget
    # built from _MAX_PANELS.
    src = Path(herglotz.__file__).resolve().parent
    kernels = {"_refine", "_walk", "_quad_rows", "_power_weighted_zero"}
    for path in sorted(src.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            fn = getattr(node.func, "id", getattr(node.func, "attr", None))
            if fn not in kernels:
                continue
            params = list(inspect.signature(getattr(quadrature, fn)).parameters)
            where = f"{path.name}:{node.lineno} {fn}"
            assert len(node.args) <= params.index("rtol"), where
            for kw in node.keywords:
                assert kw.arg != "rtol", where
                assert kw.arg != "max_panels" or not any(
                    isinstance(c, ast.Constant) and isinstance(c.value, (int, float))
                    for c in ast.walk(kw.value)), where


def test_only_quadrature_sets_the_absolute_tolerance():
    # The absolute tolerance of every integral is quadrature._ATOL: no public
    # function or dataclass outside quadrature.py takes an atol, and outside
    # quadrature.py only the CLI checks' two budgets pass a number for one.
    modules = [importlib.import_module(f"herglotz.{m.name}")
               for m in pkgutil.iter_modules(herglotz.__path__)]
    for mod in modules:
        if mod is quadrature:
            continue
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) or inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                assert "atol" not in inspect.signature(obj).parameters, f"{mod.__name__}.{name}"
    takes_atol = {}
    for mod in modules:
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            params = list(inspect.signature(fn).parameters)
            if "atol" in params:
                takes_atol[name] = params.index("atol")
    src = Path(herglotz.__file__).resolve().parent
    numbers = []
    for path in sorted(src.glob("*.py")):
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            given = []
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args.args + node.args.kwonlyargs
                defaults = [None] * (len(node.args.args) - len(node.args.defaults)) \
                    + node.args.defaults + node.args.kw_defaults
                given = [d for a, d in zip(args, defaults) if a.arg == "atol" and d is not None]
            elif isinstance(node, ast.Call):
                fn = getattr(node.func, "id", getattr(node.func, "attr", None))
                if fn in takes_atol:
                    given = [kw.value for kw in node.keywords if kw.arg == "atol"]
                    given += node.args[takes_atol[fn]:takes_atol[fn] + 1]
            numbers += [(path.name, c.value) for v in given for c in ast.walk(v)
                        if isinstance(c, ast.Constant) and isinstance(c.value, (int, float))]
    assert sorted(numbers) == [("cli.py", 1e-12), ("cli.py", 1e-08)], numbers


def test_line_panel_tails_are_the_tail_map():
    # The cauchy evaluator samples a fitted density on its tail panels exactly
    # as quadrature's tail map samples it at the same nodes (8 of these 60
    # samples differed by one ulp while catalog wrote the map again).
    lorentz = lambda s: (1.0 / (np.pi * (1.0 + s * s))).astype(complex)
    d = DensityPart((-np.inf, np.inf), lorentz)
    _, P = catalog._line_panels(BoundaryMeasure((), (d,)))
    rows = np.repeat(np.arange(P["A"].size), quadrature._XK.size)
    mapped = quadrature._tail_map(lambda s, g: d(s), P["A"])(P["u"].ravel(), rows)
    assert np.array_equal(P["q"].ravel(), mapped)
