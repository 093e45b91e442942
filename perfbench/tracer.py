"""A span tracer that wraps hodgepath from the outside, for the traced run.

`Tracer.install()` wraps every public module-level function of each
`hodgepath` layer module, plus the methods in `SPAN_METHODS`, and rebinds
every module-level or class-level name in any `hodgepath.*` module that
refers to one of them (names imported by value included, such as
`sullivan.cohomology`).  Scalar arithmetic gets call counters instead of
spans, because it runs millions of times per op.  `uninstall()` puts every
original binding back.

Spans live in parallel arrays (name, start, end, parent, op, outermost) and
are aggregated, and optionally written out, once the run has ended.  A
span's self time is its duration minus the durations of its children, which
cannot overlap: the library is single-threaded.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
from array import array

# Layer modules, in stack order.  `scalars` is counted, not spanned.
LAYERS = ("scalars", "linalg", "algebra", "homology", "ops", "paths", "lifting",
          "filtered", "sullivan", "diagrams", "hodge", "documents", "exprs",
          "cache", "cli")

# Methods that get spans; public module-level functions are found by scanning.
SPAN_METHODS = {
    ("algebra", "GradedAlgebra"): ("coords", "mul_terms"),
    ("algebra", "SubCdga"): ("coords", "basis"),
    ("linalg", "Subquotient"): ("__init__",),
    ("filtered", "FilteredComplex"): ("coords",),
}

# Scalar methods -> counter name.  `__radd__`/`__rmul__` are the same
# function objects as `__add__`/`__mul__`, so they share one wrapper.
SCALAR_COUNTERS = {"__add__": "scalars.add.calls", "__mul__": "scalars.mul.calls",
                   "inverse": "scalars.inverse.calls"}

HOOK_SPAN = "perfbench.hook"


def _rref_hook(tracer, args, kwargs, result):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    coeffs = tuple(tuple(row[:ncols]) for row in rows)
    key = (len(rows), ncols, hash(coeffs))
    seen = tracer.op_state.setdefault("rref", set())
    repeat = key in seen
    seen.add(key)
    nnz = sum(1 for row in coeffs for a in row if not a.is_zero)
    return {"cells": len(rows) * ncols, "nnz": nnz, "repeat": int(repeat)}


def _cohomology_hook(tracer, args, kwargs, result):
    X = args[0]
    n = args[1] if len(args) > 1 else kwargs["n"]
    seen = tracer.op_state.setdefault("cohomology", {})
    repeat = (id(X), n) in seen
    seen[(id(X), n)] = X   # keeps X alive, so its id is not reused in this op
    return {"repeat": int(repeat)}


def _minimal_model_hook(tracer, args, kwargs, result):
    return {"generators": len(result.M.gens)}


def _free_lift_hook(tracer, args, kwargs, result):
    return {"generators": len(args[0].gens)}


def _cache_lookup_hook(tracer, args, kwargs, result):
    cache = sys.modules["hodgepath.cache"]
    if not os.environ.get(cache.ENV_VAR):
        return {}
    return {"hit": int(result is not None), "miss": int(result is None)}


# span name -> hook run after the span closes; it returns the span's counters.
HOOKS = {
    "linalg.rref": _rref_hook,
    "homology.cohomology": _cohomology_hook,
    "sullivan.minimal_model": _minimal_model_hook,
    "lifting.free_lift": _free_lift_hook,
    "cache.lookup": _cache_lookup_hook,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hodgepath" or name.startswith("hodgepath."))]


def _bindings(modules):
    """(owner, name, value) for every module global and class attribute."""
    out = []
    for mod in modules:
        for name, value in list(vars(mod).items()):
            out.append((mod, name, value))
            if inspect.isclass(value) and value.__module__.startswith("hodgepath"):
                for attr, member in list(vars(value).items()):
                    out.append((value, attr, member))
    return out


class Tracer:
    def __init__(self):
        self.span_names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.outer = array("b")       # 1 if no ancestor has the same name
        self.span_data = {}           # span index -> counters from its hook
        self.scalar_counts = {}       # counter name -> [count]
        self.current_op = -1
        self.op_state = {}
        self._stack = []
        self._depth = []
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def begin_op(self, op_index):
        """Start attributing spans to op `op_index`; repeats are per op."""
        self.current_op = op_index
        self.op_state = {}

    def _open(self, nid):
        i = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        depth = self._depth[nid]
        self.outer.append(depth == 0)
        self._depth[nid] = depth + 1
        self.end.append(0.0)
        stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i, nid):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._depth[nid] -= 1

    def _span_wrapper(self, fn, span_name):
        nid = self._intern(span_name)
        hook = HOOKS.get(span_name)
        hook_id = self._intern(HOOK_SPAN)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i, nid)
            if hook is not None:
                j = tracer._open(hook_id)
                try:
                    tracer.span_data[i] = hook(tracer, args, kwargs, result)
                finally:
                    tracer._close(j, hook_id)
            return result

        return wrapper

    def _counter_wrapper(self, fn, counter):
        cell = self.scalar_counts.setdefault(counter, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    # -- patching -------------------------------------------------------------

    def traced_functions(self):
        """original function -> span or counter wrapper, for every traced target."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hodgepath.{layer}"]
            if layer == "scalars":
                for meth, counter in SCALAR_COUNTERS.items():
                    fn = vars(mod.Scalar)[meth]
                    wrappers[fn] = self._counter_wrapper(fn, counter)
                continue
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._span_wrapper(obj, f"{layer}.{obj.__qualname__}")
        for (layer, cls_name), methods in SPAN_METHODS.items():
            cls = getattr(sys.modules[f"hodgepath.{layer}"], cls_name)
            for meth in methods:
                fn = vars(cls)[meth]
                wrappers[fn] = self._span_wrapper(fn, f"{layer}.{cls_name}.{meth}")
        return wrappers

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = self.traced_functions()
        for owner, name, value in _bindings(_package_modules()):
            try:
                wrapper = wrappers.get(value)
            except TypeError:          # unhashable value
                continue
            if wrapper is not None:
                self._patches.append((owner, name, value))
                setattr(owner, name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    # -- results --------------------------------------------------------------

    def aggregate(self):
        """Per-name calls, self_s and total_s, and the derived layer metrics."""
        n = len(self.name)
        names = self.span_names
        name, parent, start, end, outer = self.name, self.parent, self.start, self.end, self.outer
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(names)
        self_s = [0.0] * len(names)
        total_s = [0.0] * len(names)
        for i in range(n):
            k = name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            if outer[i]:
                total_s[k] += dur[i]
        per_name = {names[k]: {"calls": calls[k], "self_s": self_s[k], "total_s": total_s[k]}
                    for k in range(len(names))}

        # spans below a minimal_model span; outermost spans of the build group
        mm = self._name_ids.get("sullivan.minimal_model", -2)
        build_group = {self._name_ids[s] for s in self.span_names
                       if s.startswith("documents.build_") or s == "documents.parse_document"}
        in_mm = [False] * n
        in_build = [False] * n
        mm_cohomology = 0
        mm_certify = 0.0
        build_total = 0.0
        cohom = self._name_ids.get("homology.cohomology", -2)
        qir = self._name_ids.get("homology.quasi_iso_report", -2)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                in_mm[i] = in_mm[p] or name[p] == mm
                in_build[i] = in_build[p] or name[p] in build_group
            k = name[i]
            if in_mm[i]:
                if k == cohom:
                    mm_cohomology += 1
                elif k == qir and outer[i]:
                    mm_certify += dur[i]
            if k in build_group and not in_build[i]:
                build_total += dur[i]

        data = {}
        for i, counters in self.span_data.items():
            key = names[name[i]]
            agg = data.setdefault(key, {})
            for c, v in counters.items():
                agg[c] = agg.get(c, 0) + v
        layer_self = {}
        for k, s in enumerate(self_s):
            layer = names[k].split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + s
        return {"per_name": per_name, "data": data, "layer_self": layer_self,
                "mm_cohomology_calls": mm_cohomology, "mm_certify_s": mm_certify,
                "build_total_s": build_total,
                "scalars": {c: cell[0] for c, cell in self.scalar_counts.items()}}

    def write(self, path):
        """Write every span as one tab-separated line to a gzip file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.span_names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\top\tcounters\n")
            for i in range(len(self.name)):
                extra = self.span_data.get(i)
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{extra or ''}\n")


def per_layer_metrics(agg):
    """The per-layer metrics of BENCHMARK.json, as name -> (value, unit)."""
    per_name, data = agg["per_name"], agg["data"]

    def stat(span, key):
        return per_name.get(span, {}).get(key, 0)

    def spans(metric_prefix, span, *keys):
        return {f"{metric_prefix}.{k}": (stat(span, k), "s" if k.endswith("_s") else "count")
                for k in keys}

    def ratio(num, den):
        return num / den if den else 0.0

    rref = data.get("linalg.rref", {})
    cohom = data.get("homology.cohomology", {})
    lookup = data.get("cache.lookup", {})
    m = {name: (agg["scalars"].get(name, 0), "count")
         for name in ("scalars.mul.calls", "scalars.add.calls", "scalars.inverse.calls")}
    m.update(spans("linalg.rref", "linalg.rref", "calls", "self_s"))
    m.update({
        "linalg.rref.cells": (rref.get("cells", 0), "count"),
        "linalg.rref.density": (ratio(rref.get("nnz", 0), rref.get("cells", 0)), "ratio"),
        "linalg.rref.repeat_ratio": (ratio(rref.get("repeat", 0), stat("linalg.rref", "calls")),
                                     "ratio"),
    })
    m.update(spans("linalg.solve", "linalg.solve", "calls", "self_s"))
    m.update(spans("linalg.kernel_basis", "linalg.kernel_basis", "calls"))
    m.update(spans("linalg.Subquotient", "linalg.Subquotient.__init__", "calls", "self_s"))
    m.update(spans("algebra.coords", "algebra.GradedAlgebra.coords", "calls", "self_s"))
    m.update(spans("algebra.SubCdga.coords", "algebra.SubCdga.coords", "calls", "self_s"))
    m.update(spans("algebra.SubCdga.basis", "algebra.SubCdga.basis", "self_s"))
    m.update(spans("algebra.solve_preimage", "algebra.solve_preimage", "calls"))
    m.update(spans("algebra.mul_terms", "algebra.GradedAlgebra.mul_terms", "calls", "self_s"))
    m.update(spans("homology.cohomology", "homology.cohomology", "calls", "self_s", "total_s"))
    m["homology.cohomology.repeat_ratio"] = (
        ratio(cohom.get("repeat", 0), stat("homology.cohomology", "calls")), "ratio")
    m.update(spans("homology.quasi_iso_report", "homology.quasi_iso_report", "total_s"))
    for fn in ("indecomposables", "table_presentation", "check_cdga"):
        m.update(spans(f"ops.{fn}", f"ops.{fn}", "total_s"))
    m.update(spans("paths.path_of", "paths.path_of", "calls"))
    m.update(spans("paths.mapping_path", "paths.mapping_path", "total_s"))
    m.update(spans("paths.verify_homotopy", "paths.verify_homotopy", "total_s"))
    m.update(spans("lifting.free_lift", "lifting.free_lift", "calls", "total_s", "self_s"))
    m["lifting.free_lift.generators"] = (data.get("lifting.free_lift", {}).get("generators", 0),
                                         "count")
    for fn in ("lift_homotopy", "fill_square", "homotopy_add"):
        m.update(spans(f"lifting.{fn}", f"lifting.{fn}", "total_s"))
    m.update(spans("filtered.FilteredComplex.coords", "filtered.FilteredComplex.coords",
                   "calls", "self_s"))
    for fn in ("spectral_page", "decalage", "is_Er_quasi_iso"):
        m.update(spans(f"filtered.{fn}", f"filtered.{fn}", "total_s"))
    m.update(spans("sullivan.minimal_model", "sullivan.minimal_model",
                   "calls", "total_s", "self_s"))
    m.update({
        "sullivan.minimal_model.generators": (
            data.get("sullivan.minimal_model", {}).get("generators", 0), "count"),
        "sullivan.minimal_model.cohomology_calls": (agg["mm_cohomology_calls"], "count"),
        "sullivan.minimal_model.certify_s": (agg["mm_certify_s"], "s"),
    })
    for fn in ("rectify", "compose_ho", "build_ho_homotopy", "validate_ho_homotopy"):
        m.update(spans(f"diagrams.{fn}", f"diagrams.{fn}", "total_s"))
    m.update(spans("hodge.check_mhd", "hodge.check_mhd", "total_s"))
    m.update(spans("hodge.transport_rational_structure",
                   "hodge.transport_rational_structure", "calls"))
    m.update(spans("hodge.pi_star", "hodge.pi_star", "total_s"))
    m["documents.build.total_s"] = (agg["build_total_s"], "s")
    m.update(spans("documents.serialize", "documents.serialize", "total_s"))
    m.update(spans("exprs.parse_expression", "exprs.parse_expression", "calls", "self_s"))
    m.update(spans("cli.main", "cli.main", "calls", "self_s"))
    m.update({"cache.lookup.hits": (lookup.get("hit", 0), "count"),
              "cache.lookup.misses": (lookup.get("miss", 0), "count")})
    m.update(spans("cache.store", "cache.store", "calls", "total_s"))
    for layer in LAYERS[1:]:
        m[f"layer.{layer}.self_s"] = (agg["layer_self"].get(layer, 0.0), "s")
    return m
