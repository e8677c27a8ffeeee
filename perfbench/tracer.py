"""Run-time spans and counters around probdiag's entry points.

The benchmark installs these wrappers itself, so the library carries no
tracing code.  A wrapper replaces a function in every probdiag module that
binds it (``diagrams.pushforward`` is the same object as
``spaces.pushforward``), or a method on its class.  Spans are kept in memory
and written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


def _function_entry(module, attr, name, hook=None):
    return ("function", module, attr, name, hook)


def _method_entry(module, cls, attr, name, hook=None):
    return ("method", module, (cls, attr), name, hook)


def _hook_pushforward(tracer, args, kwargs):
    tracer.counters["spaces.pushforward.atoms"] += len(args[0])


def _hook_diagram(tracer, args, kwargs):
    if kwargs.get("validate", True):
        tracer.counters["diagrams.Diagram.validated_calls"] += 1


def _hook_composite(tracer, args, kwargs):
    diagram, src, dst = args[:3]
    hit = (src, dst) in diagram._composites
    tracer.counters["diagrams.composite_mapping.hits" if hit
                    else "diagrams.composite_mapping.misses"] += 1


def _hook_fiber_iso(tracer, args, kwargs):
    ext, u_atom = args[:2]
    hit = ("verdict", u_atom) in ext._fiber_iso_cache
    tracer.counters["contraction.fiber_iso.hits" if hit
                    else "contraction.fiber_iso.misses"] += 1


def _hook_draw_many(tracer, args, kwargs):
    tracer.counters["sampling.draws"] += args[2] if len(args) > 2 else kwargs["n"]


def _hook_min_entropy_coupling(tracer, args, kwargs):
    from probdiag.distances import DEFAULT_COUPLING_CAP

    m, n = len(args[0]), len(args[1])
    if m * n <= kwargs.get("cap", DEFAULT_COUPLING_CAP):
        # computed: spanning trees of K_{m,n}, all of which the exact path visits
        tracer.counters["distances.trees_visited"] += m ** (n - 1) * n ** (m - 1)


def _hook_monte_carlo(tracer, args, kwargs):
    ext = kwargs.get("ext")
    if ext is None:
        return
    trials = kwargs["trials"]
    tracer.counters["contraction.mc.trials"] += trials
    # computed: the dense batch x |x0| int64 count matrix of one batch
    batch = min(kwargs.get("chunk", 2000), trials)
    tracer.gauges["contraction.mc.bytes_per_batch"] = max(
        tracer.gauges.get("contraction.mc.bytes_per_batch", 0), batch * ext.x0_card * 8)


# (kind, module, attribute, span name, hook).  The span name is the layer
# name used in BENCHMARK.json: <module>.<entry>.
ENTRIES = (
    _method_entry("spaces", "ProbSpace", "__init__", "spaces.ProbSpace"),
    _function_entry("spaces", "pushforward", "spaces.pushforward", _hook_pushforward),
    _method_entry("spaces", "Reduction", "__init__", "spaces.Reduction"),
    _function_entry("spaces", "tensor_spaces", "spaces.tensor_spaces"),
    _method_entry("categories", "IndexingCategory", "__init__", "categories.IndexingCategory"),
    _method_entry("diagrams", "Diagram", "__init__", "diagrams.Diagram", _hook_diagram),
    _method_entry("diagrams", "Diagram", "composite_mapping", "diagrams.composite_mapping",
                  _hook_composite),
    _function_entry("diagrams", "_from_initial_measure", "diagrams.from_initial_measure"),
    _function_entry("diagrams", "joint_space", "diagrams.joint_space"),
    _function_entry("diagrams", "coupling_fan", "diagrams.coupling_fan"),
    _method_entry("sampling", "CategoricalSampler", "draw_many", "sampling.draw_many",
                  _hook_draw_many),
    _function_entry("automorphisms", "analyze", "automorphisms.analyze"),
    _function_entry("automorphisms", "find_diagram_morphism",
                    "automorphisms.find_diagram_morphism"),
    _function_entry("automorphisms", "verify_explicit_iso", "automorphisms.verify_explicit_iso"),
    _function_entry("automorphisms", "diagram_isomorphic", "automorphisms.diagram_isomorphic"),
    _function_entry("contraction", "extend_admissible_fan", "contraction.extend_admissible_fan"),
    _function_entry("contraction", "contract_once", "contraction.contract_once"),
    _method_entry("contraction", "ExtendedFan", "fiber_isomorphic_to_reference",
                  "contraction.fiber_iso", _hook_fiber_iso),
    _function_entry("contraction", "_materialize_fan", "contraction.materialize_fan"),
    _function_entry("contraction", "recover_collapsed_diagram",
                    "contraction.recover_collapsed_diagram"),
    _function_entry("contraction", "monte_carlo_tails", "contraction.monte_carlo_tails",
                    _hook_monte_carlo),
    _function_entry("expansion", "expand_diagram", "expansion.expand_diagram"),
    _function_entry("expansion", "verify_expansion", "expansion.verify_expansion"),
    _function_entry("jsonio", "load_diagram", "jsonio.load_diagram"),
    _function_entry("distances", "ikd_bounds", "distances.ikd_bounds"),
    _function_entry("distances", "min_entropy_coupling", "distances.min_entropy_coupling",
                    _hook_min_entropy_coupling),
    _function_entry("distances", "local_estimate_witness", "distances.local_estimate_witness"),
)

SPAN_NAMES = tuple(entry[3] for entry in ENTRIES)

COUNTERS = (
    "spaces.pushforward.atoms",
    "diagrams.Diagram.validated_calls",
    "diagrams.composite_mapping.hits",
    "diagrams.composite_mapping.misses",
    "contraction.fiber_iso.hits",
    "contraction.fiber_iso.misses",
    "sampling.draws",
    "distances.trees_visited",
    "distances.vertices",
    "contraction.mc.trials",
)

# Derived from counters or gauges rather than counted directly.
RATIOS = (
    ("diagrams.composite_mapping.cache_hit_ratio",
     "diagrams.composite_mapping.hits", "diagrams.composite_mapping.misses"),
    ("contraction.fiber_iso.cache_hit_ratio",
     "contraction.fiber_iso.hits", "contraction.fiber_iso.misses"),
)


class Tracer:
    """Spans and counters for one traced run.

    Each span is [name, start, end, parent index, op id, child time,
    outermost]; `op` is the id of the operation in progress ("setup" before
    the first timed operation).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.gauges: dict = {}
        self.op = "setup"
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import probdiag  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "probdiag" or k.startswith("probdiag."))]
        for kind, module, attr, name, hook in ENTRIES:
            owner = sys.modules[f"probdiag.{module}"]
            if kind == "method":
                cls = getattr(owner, attr[0])
                original = cls.__dict__[attr[1]]
                self._patch(cls, attr[1], original, self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        distances = sys.modules["probdiag.distances"]
        original = distances._coupling_vertices
        self._patch(distances, "_coupling_vertices", original, self._count_yields(original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def _count_yields(self, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters["distances.vertices"] += 1
                yield item
        return wrapper

    def _wrap(self, name, fn, hook):
        tracer = self
        spans = self.spans
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, tracer.op, 0.0, active[name] == 0]
            stack.append(len(spans))
            spans.append(record)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                record[1] = start
                record[2] = end
                if parent is not None:
                    spans[parent][5] += end - start
        return wrapper

    # -- results ----------------------------------------------------------

    def layer_metrics(self, ops: set) -> dict:
        """calls, total_s and self_s per span name over the spans whose op
        id is in `ops`.  total_s counts only outermost spans of a name, so
        recursion is not counted twice."""
        calls = Counter()
        total = Counter()
        self_time = Counter()
        for name, start, end, _parent, op, child, outermost in self.spans:
            if op not in ops:
                continue
            duration = end - start
            calls[name] += 1
            self_time[name] += duration - child
            if outermost:
                total[name] += duration
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.total_s"] = (total[name], "s")
            out[f"{name}.self_s"] = (self_time[name], "s")
        return out

    def write_spans(self, path, origin: float) -> None:
        """One JSON line per span, times in seconds from `origin`."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, op, _c, _o) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent, "op": op},
                                    separators=(",", ":")) + "\n")


def counter_metrics(counters: dict, gauges: dict) -> dict:
    """Counter, gauge and ratio metrics from a snapshot of a tracer's state."""
    out = {name: (counters.get(name, 0), "count") for name in COUNTERS}
    out["distances.trees_visited"] = (counters.get("distances.trees_visited", 0),
                                      "count_computed")
    out["contraction.mc.bytes_per_batch"] = (gauges.get("contraction.mc.bytes_per_batch", 0),
                                             "B_computed")
    for name, hits, misses in RATIOS:
        looked_up = counters.get(hits, 0) + counters.get(misses, 0)
        out[name] = (counters.get(hits, 0) / looked_up if looked_up else 0.0, "ratio")
    trees = counters.get("distances.trees_visited", 0)
    out["distances.vertex_yield_ratio"] = (
        counters.get("distances.vertices", 0) / trees if trees else 0.0, "ratio")
    return out
