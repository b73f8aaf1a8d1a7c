"""Span tracing of laminar's public functions, installed from outside ``src/``.

``Tracer`` wraps every public function of every ``laminar`` module and
rebinds the wrapper wherever a module holds the original, including the
names imported with ``from .x import y``, so that calls between modules are
traced too.  Leaving the ``with`` block restores every binding.  Each call
records a span: function, parent span, start and end.  The spans stay in
memory and are reduced to per-layer metrics after each traced pass.  A few
observers also read arguments and return values, for counts and ratios that
time alone cannot give.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter

VERIFY_REASONS = {
    "set exceeds the size bound": "size_bound",
    "a subset is denser (density network not saturated)": "subset_unsaturated",
    "a subset is denser (shortcut network has a small cut)": "subset_small_cut",
    "a proper superset is at least as dense": "superset",
}

RENDERERS = ("cli.hierarchy_to_json", "cli.hierarchy_to_text", "cli.hierarchy_to_dot")


def laminar_modules() -> list:
    """The laminar package and every module in it, imported."""
    package = importlib.import_module("laminar")
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__, "laminar."):
        modules.append(importlib.import_module(info.name))
    return modules


def public_functions(module) -> dict[str, object]:
    """Functions a module defines under a public name, keyed by name."""
    return {
        name: value
        for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
        and not inspect.isgeneratorfunction(value)
    }


def function_bindings() -> dict[tuple[str, str], object]:
    """Every function object bound at the top level of a laminar module."""
    return {
        (module.__name__, name): value
        for module in laminar_modules()
        for name, value in vars(module).items()
        if inspect.isfunction(value)
    }


def tree_shape(tree) -> tuple[int, int]:
    """(internal nodes, depth) of a HierarchyTree, without recursion."""
    internal = depth = 0
    stack = [(tree.root, 0)]
    while stack:
        node, level = stack.pop()
        depth = max(depth, level)
        if node.children:
            internal += 1
            stack.extend((child, level + 1) for child in node.children)
    return internal, depth


class Tracer:
    """Records spans of laminar's public functions while installed."""

    def __init__(self):
        self.names: list[str] = []  # traced function names, "module.function"
        self.name_of = array("i")  # per span: index into names
        self.parent_of = array("i")  # per span: parent span, or -1
        self.start_of = array("d")
        self.end_of = array("d")
        self.counts: Counter[str] = Counter()
        self.build_mode: dict[int, str] = {}  # build_hierarchy span -> mode
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop the recorded spans and counts, keeping the wrappers."""
        for spans in (self.name_of, self.parent_of, self.start_of, self.end_of):
            del spans[:]
        self.counts.clear()
        self.build_mode.clear()
        del self._stack[1:]

    # -- installing -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._bindings:
            raise RuntimeError("the tracer is already installed")
        self.names.clear()
        modules = laminar_modules()
        wrapper_of: dict[int, object] = {}
        for module in modules:
            short = module.__name__.split(".", 1)[-1]
            for name, fn in public_functions(module).items():
                qualname = f"{short}.{name}"
                self.names.append(qualname)
                wrapper_of[id(fn)] = self._wrap(fn, len(self.names) - 1, qualname)
        try:
            for module in modules:
                for name, value in list(vars(module).items()):
                    wrapper = wrapper_of.get(id(value))
                    if wrapper is not None:
                        self._bindings.append((module, name, value))
                        setattr(module, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._bindings:
            module, name, original = self._bindings.pop()
            setattr(module, name, original)

    def _wrap(self, fn, index: int, qualname: str):
        enter = getattr(self, "_enter_" + qualname.replace(".", "_"), None)
        observe = getattr(self, "_observe_" + qualname.replace(".", "_"), None)
        clock = time.perf_counter
        stack = self._stack
        name_of, parent_of = self.name_of, self.parent_of
        start_of, end_of = self.start_of, self.end_of

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name_of)
            name_of.append(index)
            parent_of.append(stack[-1])
            end_of.append(0.0)
            if enter is not None:
                enter(span, args, kwargs)
            stack.append(span)
            start_of.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_of[span] = clock()
                stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def _parent_is(self, span: int, qualname: str) -> bool:
        parent = self.parent_of[span]
        return parent >= 0 and self.names[self.name_of[parent]] == qualname

    # -- observers: counts read from arguments and return values ----------

    def _observe_flow_max_flow(self, span, args, kwargs, result):
        net = args[0] if args else kwargs["net"]
        self.counts["flow.max_flow.arcs"] += net.arc_count
        self.counts["flow.max_flow.reached_limit"] += result.reached_limit
        if self._parent_is(span, "flow.t_mincut_exhaustive"):
            self.counts["flow.sources_scanned"] += 1

    def _observe_goldberg_build_goldberg(self, span, args, kwargs, result):
        self.counts["goldberg.arcs_built"] += result.network.arc_count

    _observe_goldberg_build_modified = _observe_goldberg_build_goldberg

    def _observe_densecore_probe(self, span, args, kwargs, result):
        self.counts["densecore.probe.hits"] += bool(result[0])

    def _observe_densecore_verify_core_explain(self, span, args, kwargs, result):
        ok, reason = result
        if ok:
            self.counts["densecore.verify.accepted"] += 1
        else:
            slug = VERIFY_REASONS.get(reason, "other")
            self.counts["densecore.verify.reject." + slug] += 1

    def _observe_densecore_find_star(self, span, args, kwargs, result):
        parent = self.parent_of[span]
        if parent in self.build_mode:
            self.counts["hierarchy.find_star"] += 1
            if self.build_mode[parent] == "randomized" and kwargs.get("mode") == "exact":
                self.counts["hierarchy.exact_fallbacks"] += 1

    def _enter_hierarchy_build_hierarchy(self, span, args, kwargs):
        self.build_mode[span] = kwargs.get("mode", "exact")

    def _observe_hierarchy_build_hierarchy(self, span, args, kwargs, result):
        internal, depth = tree_shape(result)
        self.counts["hierarchy.internal_nodes"] += internal
        self.counts["hierarchy.depth"] = max(self.counts["hierarchy.depth"], depth)

    def _observe_arboricity_compute_arboricity(self, span, args, kwargs, result):
        self.counts["arboricity.probes"] += len(result.probes)

    def _observe_dircut_find_small_cut(self, span, args, kwargs, result):
        self.counts["dircut.find_small_cut.hits"] += result is not None

    # -- reduction ----------------------------------------------------------

    def function_totals(self) -> dict[str, dict[str, float]]:
        """Per traced function: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans, which never overlap in a single thread.
        """
        count = len(self.name_of)
        duration = [self.end_of[i] - self.start_of[i] for i in range(count)]
        child = [0.0] * count
        for i, parent in enumerate(self.parent_of):
            if parent >= 0:
                child[parent] += duration[i]
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, index in enumerate(self.name_of):
            entry = totals[self.names[index]]
            entry["calls"] += 1
            entry["s"] += duration[i]
            entry["self_s"] += duration[i] - child[i]
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """The named per-layer metrics of the spans recorded since reset."""
        f = self.function_totals()
        c = self.counts

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        flows = f["flow.max_flow"]["calls"]
        verified = f["densecore.verify_core_explain"]["calls"]
        metrics = {
            "graph.parse_edge_list.s": f["graph.parse_edge_list"]["s"],
            "graph.contract.calls": f["graph.contract"]["calls"],
            "graph.contract.s": f["graph.contract"]["s"],
            "goldberg.build_goldberg.calls": f["goldberg.build_goldberg"]["calls"],
            "goldberg.build_goldberg.s": f["goldberg.build_goldberg"]["s"],
            "goldberg.build_modified.calls": f["goldberg.build_modified"]["calls"],
            "goldberg.build_modified.s": f["goldberg.build_modified"]["s"],
            "goldberg.arcs_built": c["goldberg.arcs_built"],
            "flow.max_flow.calls": flows,
            "flow.max_flow.self_s": f["flow.max_flow"]["self_s"],
            "flow.max_flow.limit_ratio": ratio(c["flow.max_flow.reached_limit"], flows),
            "flow.max_flow.arcs_mean": ratio(c["flow.max_flow.arcs"], flows),
            "flow.t_mincut_exhaustive.calls": f["flow.t_mincut_exhaustive"]["calls"],
            "flow.t_mincut_exhaustive.self_s": f["flow.t_mincut_exhaustive"]["self_s"],
            "flow.sources_scanned": c["flow.sources_scanned"],
            "flow.min_source_side.s": f["flow.min_source_side"]["s"],
            "flow.max_source_side.s": f["flow.max_source_side"]["s"],
            "densecore.probe.calls": f["densecore.probe"]["calls"],
            "densecore.probe.self_s": f["densecore.probe"]["self_s"],
            "densecore.probe.hit_ratio": ratio(
                c["densecore.probe.hits"], f["densecore.probe"]["calls"]
            ),
            "densecore.find_star_full.calls": f["densecore.find_star_full"]["calls"],
            "densecore.find_star_full.self_s": f["densecore.find_star_full"]["self_s"],
            "densecore.verify_core_explain.calls": verified,
            "densecore.verify_core_explain.s": f["densecore.verify_core_explain"]["s"],
            "densecore.verify.accept_ratio": ratio(c["densecore.verify.accepted"], verified),
        }
        for slug in (*VERIFY_REASONS.values(), "other"):
            key = "densecore.verify.reject." + slug
            metrics[key] = c[key]
        internal = c["hierarchy.internal_nodes"]
        metrics.update(
            {
                "arboricity.compute_arboricity.s": f["arboricity.compute_arboricity"]["s"],
                "arboricity.probes": c["arboricity.probes"],
                "arboricity.t_bar_mincut.calls": f["arboricity.t_bar_mincut"]["calls"],
                "hierarchy.build_hierarchy.s": f["hierarchy.build_hierarchy"]["s"],
                "hierarchy.build_hierarchy.self_s": f["hierarchy.build_hierarchy"]["self_s"],
                "hierarchy.internal_nodes": internal,
                "hierarchy.depth": c["hierarchy.depth"],
                "hierarchy.find_star_per_node": ratio(c["hierarchy.find_star"], internal),
                "hierarchy.exact_fallbacks": c["hierarchy.exact_fallbacks"],
                "loads.ideal_loads.s": f["loads.ideal_loads"]["s"],
            }
        )
        for name in (
            "sparsify",
            "pack_arborescences",
            "min_cost_arborescence",
            "one_respecting_mincut",
            "find_small_cut",
            "size_bounded_t_mincut",
        ):
            metrics[f"dircut.{name}.calls"] = f[f"dircut.{name}"]["calls"]
            metrics[f"dircut.{name}.self_s"] = f[f"dircut.{name}"]["self_s"]
        # Inclusive: the whole sampling pipeline, with the flows it runs.
        metrics["dircut.find_small_cut.s"] = f["dircut.find_small_cut"]["s"]
        metrics["dircut.find_small_cut.hit_ratio"] = ratio(
            c["dircut.find_small_cut.hits"], f["dircut.find_small_cut"]["calls"]
        )
        metrics["cli.main.s"] = f["cli.main"]["s"]
        metrics["cli.render.s"] = sum(f[name]["s"] for name in RENDERERS)
        return metrics
