"""Span tracing around the public functions of each vgbs module.

The wrappers live here, not in the engine: install() patches every vgbs
module namespace that bound a target function by name (and the class
attribute for methods), and uninstall() puts the originals back.  A
target that no longer exists is listed in `missing` and reported with
zero counts instead of failing the run, so the trace survives renames.

Every call records a span (function, start, end, parent span, query id)
in flat arrays that stay in memory until the run ends; metrics() derives
calls, total time (outermost activations only, so recursion is not
double counted) and self time (span minus its wrapped children).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import weakref
from array import array
from time import perf_counter

# module -> public functions to wrap; "Class.method" patches the class
TARGETS = {
    "cli": ("run_command", "parse_word"),
    "graph": ("validate_graph", "build_presentation", "AdaptedPresentation.transport_across"),
    "words": ("word_simplify", "reduced_form", "is_trivial"),
    "tree": ("tree_path", "translation_profile", "axis_vertex", "stabilizer_coords"),
    "equations": ("local_conjugators", "solve_syllable_equation"),
    "modulus": ("classify_intersection", "halfline_fixation", "compute_modulus"),
    "linalg": ("RatMatrix.mul_vec", "IntMatrix.mul_vec", "column_hnf_with_transform", "affine_preimage"),
    "conjugacy": ("multi_conjugate", "conjugate_hyperbolic", "centralizer_hyperbolic"),
    "gbs": ("build_reachability_instance", "bounded_reachability"),
}
# functions whose argument repeats measure the chance for caching
REPEAT_TARGETS = ("words.reduced_form", "tree.translation_profile", "modulus.compute_modulus")
REACHABILITY = "gbs.bounded_reachability"


def function_names():
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.names = function_names()
        self.missing = []
        self.query_id = -1
        self._restore = []
        self._stack = []
        self._active = [0] * len(self.names)
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.query = array("q")
        self.nested = array("b")
        self.repeats = {name: [0, 0] for name in REPEAT_TARGETS}
        self._seen = {name: set() for name in REPEAT_TARGETS}
        self._pres_ids = weakref.WeakKeyDictionary()
        self.states = 0
        self.states_time = 0.0

    # -- patching ----------------------------------------------------------------

    def install(self):
        for index, name in enumerate(self.names):
            mod_name, _, attr_path = name.partition(".")
            try:
                module = importlib.import_module(f"vgbs.{mod_name}")
                owner, attr = module, attr_path
                if "." in attr_path:
                    cls_name, attr = attr_path.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(index, name, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            for mod_key, mod in list(sys.modules.items()):
                if mod is None or not (mod_key == "vgbs" or mod_key.startswith("vgbs.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _key(self, signature, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = list(bound.arguments.values())
        pres = values[0]
        serial = self._pres_ids.get(pres)
        if serial is None:
            serial = self._pres_ids[pres] = len(self._pres_ids) + 1
        return (serial, *values[1:])

    def _wrap(self, index, name, original):
        tracer = self
        stack, active = self._stack, self._active
        fn_a, start_a, end_a, parent_a, query_a, nested_a = (
            self.fn, self.start, self.end, self.parent, self.query, self.nested)
        signature = inspect.signature(original) if name in REPEAT_TARGETS else None
        reach = name == REACHABILITY

        def wrapper(*args, **kwargs):
            if signature is not None:
                counts = tracer.repeats[name]
                counts[1] += 1
                try:
                    key = tracer._key(signature, args, kwargs)
                    seen = tracer._seen[name]
                    if key in seen:
                        counts[0] += 1
                    else:
                        seen.add(key)
                except TypeError:
                    pass
            span = len(start_a)
            fn_a.append(index)
            parent_a.append(stack[-1] if stack else -1)
            query_a.append(tracer.query_id)
            nested_a.append(1 if active[index] else 0)
            end_a.append(0.0)
            active[index] += 1
            stack.append(span)
            begin = perf_counter()
            start_a.append(begin)
            try:
                result = original(*args, **kwargs)
            finally:
                finish = perf_counter()
                end_a[span] = finish
                stack.pop()
                active[index] -= 1
            if reach:
                explored = getattr(result, "closure_size", None)
                if explored is None:
                    explored = getattr(result, "explored", None)
                if explored is not None:
                    tracer.states += explored
                    tracer.states_time += finish - begin
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    # -- results -------------------------------------------------------------------

    def metrics(self, overhead_ratio):
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        own = [0.0] * n
        start, end, parent, fn, nested = self.start, self.end, self.parent, self.fn, self.nested
        children = [0.0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                children[p] += end[i] - start[i]
        for i in range(len(start)):
            f = fn[i]
            dur = end[i] - start[i]
            calls[f] += 1
            own[f] += dur - children[i]
            if not nested[i]:
                total[f] += dur
        out = {}
        modules = {mod: 0.0 for mod in TARGETS}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.total_s"] = total[i]
            out[f"{name}.self_s"] = own[i]
            modules[name.partition(".")[0]] += own[i]
        for mod, value in modules.items():
            out[f"{mod}.self_s"] = value
        for name, (hits, seen) in self.repeats.items():
            out[f"{name}.repeat_ratio"] = hits / seen if seen else 0.0
        out["gbs.states_explored"] = self.states
        out["gbs.states_per_s"] = self.states / self.states_time if self.states_time else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out
