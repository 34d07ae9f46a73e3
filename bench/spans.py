"""Layer spans recorded from outside toric_quant, by wrapping its public API.

``Tracer.install`` replaces the public functions and evaluation methods of
every toric_quant module with wrappers that record one span per call, in
every module namespace that holds a reference to them (``from .polytope
import lattice_points`` copies the reference into cli).  ``Tracer.restore``
puts the original objects back.  Nothing in ``src/`` changes.

Spans live in memory as parallel arrays: name, start, end, parent span,
op id, and one count (points evaluated, nodes built, ...).  A span's self
time is its duration minus the time its children cover; calls are nested
and single-threaded, so the children's durations never overlap.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import replace

import numpy as np

MODULES = ("polytope", "_intlin", "subtorus", "potential", "legendre",
           "polarization", "sections", "quadrature", "cli")
LAYER = {"_intlin": "intlin"}

# functions of a module left unwrapped: their time stays in the caller's self
# time (cli.parse_weight and cli.max_threads are part of cli.run's own work)
_SKIP = {"cli": {"parse_weight", "max_threads", "main"}}

# methods wrapped on classes: (module, class, attribute, span name)
_METHODS = (
    ("polytope", "DelzantPolytope", "vertices", "polytope.vertices"),
    ("polytope", "DelzantPolytope", "facet_values_array", "polytope.facet_values_array"),
    ("polytope", "DelzantPolytope", "contains", "polytope.contains"),
    ("polytope", "DelzantPolytope", "box_bounds", "polytope.box_bounds"),
    ("polytope", "Slice", "embed", "polytope.Slice.embed"),
    ("polytope", "Slice", "chart_halfspaces", "polytope.Slice.chart_halfspaces"),
    ("polytope", "Slice", "chart_vertices", "polytope.Slice.chart_vertices"),
    ("subtorus", "SubtorusProjection", "apply", "subtorus.SubtorusProjection.apply"),
    ("potential", "SymplecticPotential", "value", "potential.value"),
    ("potential", "SymplecticPotential", "gradient", "potential.gradient"),
    ("potential", "SymplecticPotential", "hessian", "potential.hessian"),
    ("sections", "ConcentrationWeight", "__call__", "sections.ConcentrationWeight.__call__"),
)

# spans whose count is the number of points in one argument: name -> index
_POINT_ARG = {
    "polytope.facet_values_array": 1,
    "potential.value": 1, "potential.gradient": 1, "potential.hessian": 1,
    "sections.ConcentrationWeight.__call__": 1,
    "sections.pointwise_norm": 1, "sections.closed_form_norm_g0": 2,
    "subtorus.psi.value": 0, "subtorus.psi.gradient": 0, "subtorus.psi.hessian": 0,
}
_RULES = ("quadrature.box_rule", "quadrature.grid_rule", "quadrature.slice_rule",
          "quadrature.make_rule")


def _count(name, args, result):
    """The work count recorded with a span (points, nodes, lattice points)."""
    if name in _POINT_ARG:
        x = np.asarray(args[_POINT_ARG[name]])
        return int(x.size // x.shape[-1]) if x.ndim else 1
    if name == "polytope.lattice_points":
        return len(result)
    if name in _RULES:
        return result.size
    if name == "quadrature.integrate":
        return args[1].size
    if name == "quadrature.concentration_experiment":
        return len(result.t_values)
    if name == "polarization.decay_report":
        return len(args[3])
    return 1


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self.grid = {}  # span index -> (kept nodes, res**dim) for grid rules
        self.current_op = -1
        self._stack: list = []
        self._patches: list = []

    # --- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._id(name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            self.count.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            self.count[idx] = _count(name, args, result)
            if name in ("quadrature.grid_rule", "quadrature.slice_rule") \
                    and result.kind == "grid":
                res = args[1] if len(args) > 1 else kwargs["resolution"]
                self.grid[idx] = (result.size, int(res) ** args[0].dim)
            if name in ("subtorus.pullback", "subtorus.quadratic"):
                kind = "psi" if name == "subtorus.pullback" else "phi"
                result = replace(result, **{
                    attr: self.wrap(f"subtorus.{kind}.{attr}", getattr(result, attr))
                    for attr in ("value", "gradient", "hessian")})
            return result

        return traced

    # --- installation ------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"toric_quant.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("toric_quant")]
        wrapped = {}
        for short, mod in mods.items():
            layer = LAYER.get(short, short)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in _SKIP.get(short, ()):
                    continue
                if callable(obj) and getattr(obj, "__module__", None) == mod.__name__ \
                        and not isinstance(obj, type):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patch(ns, attr, wrapped[id(obj)][1])
        for short, cls_name, attr, label in _METHODS:
            cls = getattr(mods[short], cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, functools.cached_property):
                new = functools.cached_property(self.wrap(label, orig.func))
                new.__set_name__(cls, attr)
            else:
                new = self.wrap(label, orig)
            self._patch(cls, attr, new)

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # --- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, with duration, self time and parent name."""
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return {
            "name": name, "start": start, "end": end, "parent": parent,
            "op": np.frombuffer(self.op, dtype=np.int32),
            "count": np.frombuffer(self.count, dtype=np.int64),
            "dur": dur, "self": dur - child,
            "parent_name": np.where(has, name[np.maximum(parent, 0)], -1),
        }

    def save(self, path):
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"], start=a["start"],
                 end=a["end"], parent=a["parent"], op=a["op"], count=a["count"])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanView:
    """Sums over the spans of a set of ops (one pass, or one set-up round)."""

    def __init__(self, tracer: Tracer, arrays: dict, ops):
        self.tracer = tracer
        self.all = arrays
        self.mask = np.isin(arrays["op"], list(ops))
        self.a = {k: v[self.mask] for k, v in arrays.items()}

    def _id(self, name):
        return self.tracer._ids.get(name, -1)

    def _sel(self, name):
        return self.a["name"] == self._id(name)

    def calls(self, name):
        return int(np.sum(self._sel(name)))

    def count(self, name):
        return int(np.sum(self.a["count"][self._sel(name)]))

    def incl(self, name):
        return float(np.sum(self.a["dur"][self._sel(name)]))

    def _layer_ids(self, layer):
        return [i for i, n in enumerate(self.tracer.names) if layer_of(n) == layer]

    def layer_self(self, layer):
        return float(np.sum(self.a["self"][np.isin(self.a["name"], self._layer_ids(layer))]))

    def child_calls(self, parent_name, child_name):
        """Calls of child_name made directly by parent_name."""
        return int(np.sum(self._sel(child_name)
                          & (self.a["parent_name"] == self._id(parent_name))))

    def grid_nodes(self):
        """(kept nodes, res**dim) summed over midpoint-grid rules."""
        kept = [v for i, v in self.tracer.grid.items() if self.mask[i]]
        return sum(k for k, _ in kept), sum(t for _, t in kept)

    def concentration_node_t(self):
        """Sum over concentration runs of (rule nodes built) x (number of t)."""
        conc = self._id("quadrature.concentration_experiment")
        kids = self.a["name"] == self._id("quadrature.make_rule")
        kids &= self.a["parent_name"] == conc
        parents = self.a["parent"][kids]
        return int(np.sum(self.a["count"][kids] * self.all["count"][parents]))

    def covered(self, inclusive=(), layers=()):
        """Time covered by the named spans (whole) and the layers' self time.

        Self time of a layer span that sits inside one of the named spans is
        already part of that span, so it is not counted twice.
        """
        roots = np.isin(self.all["name"], [self._id(n) for n in inclusive])
        inside = np.zeros(len(roots), dtype=bool)
        cur = self.all["parent"].copy()
        while np.any(cur >= 0):
            live = cur >= 0
            inside[live] |= roots[cur[live]]
            cur[live] = self.all["parent"][cur[live]]
        inside, roots = inside[self.mask], roots[self.mask]
        ids = [i for layer in layers for i in self._layer_ids(layer)]
        total = np.sum(self.a["dur"][roots & ~inside])
        total += np.sum(self.a["self"][np.isin(self.a["name"], ids) & ~inside & ~roots])
        return float(total)
