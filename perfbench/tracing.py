"""Span tracing of the package's layers from outside the package.

``install`` wraps every public function of each layer module (its
``__all__``), plus the evaluator entry points ``AnalyticFunction.__call__``
and ``DensityPart.__call__`` and the measure validation
``BoundaryMeasure.__post_init__``.  Modules import these functions by name, so
each wrapper is bound in every loaded module namespace that holds the
original.  A span records (name, start, end, parent) and one count: points for
evaluators and densities, panels (integrand calls) for ``adaptive_quad``,
samples for extrapolation, bytes written for the CLI.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = ("catalog", "measures", "quadrature", "extrapolation", "extraction",
          "reconstruction", "boundary_limits", "circle_line", "cli")

# Measure construction: tables, descriptors, transport, validation.
CONSTRUCT = ("measures.table_density", "measures.density_from_descriptor",
             "measures.measure_from_json", "measures.pushforward_mobius",
             "measures.conjugate", "measures.BoundaryMeasure.__post_init__")


class Tracer:
    """Spans kept in flat lists; parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.count: list[int] = []
        self.flag: list[int] = []  # 1 for a quadrature call that missed its tolerance
        self.stack = [-1]

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name, fn, hook=None):
        nid = self._id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1])
            self.count.append(0)
            self.flag.append(0)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, idx, fn, args, kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()

        return traced

    # -- metrics ------------------------------------------------------------

    def arrays(self):
        return dict(name=np.asarray(self.span_name, dtype=np.int32),
                    parent=np.asarray(self.parent, dtype=np.int64),
                    start=np.asarray(self.start, dtype=np.int64),
                    end=np.asarray(self.end, dtype=np.int64),
                    count=np.asarray(self.count, dtype=np.int64),
                    flag=np.asarray(self.flag, dtype=np.int8))

    def save(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def metrics(self) -> dict:
        a = self.arrays()
        ids = a["name"]
        layer_of = np.asarray([n.split(".")[0] for n in self.names] + [""])
        layer = layer_of[ids]
        dur = (a["end"] - a["start"]) * 1e-9
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        count = a["count"]

        def is_(*names):
            return np.isin(ids, [self.name_id[n] for n in names if n in self.name_id])

        def outermost(mask):
            """Spans in mask with no ancestor in mask."""
            nested = np.zeros(mask.shape, dtype=bool)
            anc = parent.copy()
            while np.any(anc >= 0):
                live = anc >= 0
                nested[live] |= mask[anc[live]]
                anc[live] = parent[anc[live]]
            return mask & ~nested

        def total(values, mask, kind=float):
            return kind(values[mask].sum())

        quad = layer == "quadrature"
        quad_top = outermost(quad)
        extrap_top = outermost(layer == "extrapolation")
        ev = is_("catalog.AnalyticFunction.__call__")
        dens = is_("measures.DensityPart.__call__")
        table = is_("measures.table_density")
        cauchy = is_("catalog.cauchy_eval")
        m = {
            "catalog.eval_calls": (int(ev.sum()), "count"),
            "catalog.eval_points": (total(count, ev, int), "count"),
            "catalog.cauchy_eval.calls": (int(cauchy.sum()), "count"),
            "catalog.cauchy_eval.self_s": (total(self_s, cauchy), "s"),
            "measures.density_calls": (int(dens.sum()), "count"),
            "measures.density_points": (total(count, dens, int), "count"),
            "measures.table_density.calls": (int(table.sum()), "count"),
            "measures.table_density.self_s": (total(self_s, table), "s"),
            "measures.construct_s": (total(dur, outermost(is_(*CONSTRUCT))), "s"),
            "quadrature.calls": (int(quad_top.sum()), "count"),
            "quadrature.panels": (total(count, is_("quadrature.adaptive_quad"), int), "count"),
            "quadrature.self_s": (total(self_s, quad), "s"),
            "quadrature.unconverged": (total(a["flag"], quad_top, int), "count"),
            "extrapolation.calls": (int(extrap_top.sum()), "count"),
            "extrapolation.samples": (total(count, extrap_top, int), "count"),
            "extrapolation.self_s": (total(self_s, layer == "extrapolation"), "s"),
        }
        for name in ("extraction", "reconstruction", "boundary_limits", "circle_line", "cli"):
            m[f"{name}.self_s"] = (total(self_s, layer == name), "s")
        m["reconstruction.resynthesis_s"] = (
            total(dur, outermost(is_("reconstruction.resynthesis_residual"))), "s")
        m["cli.bytes_written"] = (total(count, outermost(layer == "cli"), int), "bytes")
        return m


# ---------------------------------------------------------------------------
# Hooks that read a layer's work off its arguments and results


def _points(tracer, idx, fn, args, kwargs):
    tracer.count[idx] = int(np.size(args[1]))
    return fn(*args, **kwargs)


def _bind(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _quad(tracer, idx, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    if fn.__name__ == "adaptive_quad":
        f = bound.arguments["f"]

        def counted(x):
            tracer.count[idx] += 1
            return f(x)

        bound.arguments["f"] = counted
    result = fn(*bound.args, **bound.kwargs)
    value, err = result
    scale = float(np.max(np.abs(value)))
    if fn.__name__ == "trapezoid_periodic":
        tol = bound.arguments["tol"] * max(1.0, scale)
    else:
        tol = max(bound.arguments["atol"], bound.arguments["rtol"] * scale)
    tracer.flag[idx] = int(err > tol)
    return result


def _samples(tracer, idx, fn, args, kwargs):
    arguments = _bind(fn, args, kwargs).arguments
    tracer.count[idx] = int(np.size(arguments.get("values", arguments.get("fs"))))
    return fn(*args, **kwargs)


def _cli_bytes(tracer, idx, fn, args, kwargs):
    argv = list(_bind(fn, args, kwargs).arguments["argv"] or [])
    code = fn(*args, **kwargs)
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out is not None and out.is_dir():
        tracer.count[idx] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return code


def _hook_for(layer, name):
    if layer == "quadrature":
        return _quad
    if layer == "extrapolation":
        return _samples
    if layer == "cli" and name == "main":
        return _cli_bytes
    return None


def install(tracer: Tracer, extra_modules=()) -> None:
    """Wrap every layer's public functions in every namespace that binds them."""
    from herglotz.catalog import AnalyticFunction
    from herglotz.measures import BoundaryMeasure, DensityPart

    replace = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"herglotz.{layer}")
        public = getattr(mod, "__all__", None) or [
            n for n in vars(mod) if not n.startswith("_")]
        for name in public:
            obj = getattr(mod, name, None)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                replace[obj] = tracer.wrap(f"{layer}.{name}", obj, _hook_for(layer, name))

    for cls, attr, name, hook in (
            (AnalyticFunction, "__call__", "catalog.AnalyticFunction.__call__", _points),
            (DensityPart, "__call__", "measures.DensityPart.__call__", _points),
            (BoundaryMeasure, "__post_init__", "measures.BoundaryMeasure.__post_init__", None)):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), hook))

    namespaces = [m for n, m in list(sys.modules.items())
                  if n == "herglotz" or n.startswith("herglotz.")]
    namespaces += list(extra_modules)
    for mod in namespaces:
        for key, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in replace:
                setattr(mod, key, replace[val])
