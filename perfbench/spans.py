"""Span tracing of the dncat layers from outside the package.

`Tracer.install()` replaces every traced public function of the dncat
modules by a wrapper that records a span around the call.  A name is
replaced in every module that looks it up (for example
`triangulations.maximal_cliques` as well as `kernels.maximal_cliques`),
and all the replacements of one function share one wrapper, so a span is
named after the layer that defines the function whatever module calls it.

A span's self time is its duration minus the time covered by the spans it
encloses.  Spans are aggregated in memory per name (calls, self time,
inclusive time of the outermost activation) and read out with
`Tracer.snapshot()` when the traced work has finished.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns

# The package's modules and the layer each is reported under.
LAYERS = {
    "dncat._maxcliques_py": "kernels",
    "dncat._maxcliques_cy": "kernels",
    "dncat.kernels": "kernels",
    "dncat.edges": "edges",
    "dncat.staple": "staple",
    "dncat.triangulations": "triangulations",
    "dncat.quivers": "quivers",
    "dncat.relations": "relations",
    "dncat.catalog": "catalog",
    "dncat.verify": "verify",
    "dncat.cli": "cli",
}

# Per-edge helpers that run millions of times inside the layers above (label
# arithmetic, validation of single edges, lookups and the tau/sigma images).
# Wrapping them would multiply the tracing overhead several times over, so
# their time is counted in the self time of the traced function calling them.
UNTRACED = frozenset({
    "dncat.edges.plain", "dncat.edges.spoke", "dncat.edges.check_size",
    "dncat.edges.check_vertex", "dncat.edges.check_edge", "dncat.edges.wrap",
    "dncat.edges.delta_length", "dncat.edges.edge_length",
    "dncat.edges.sort_key", "dncat.edges.edge_index", "dncat.edges.tau",
    "dncat.edges.tau_inv", "dncat.edges.sigma", "dncat.edges.tau_order",
    "dncat.edges.all_edges", "dncat.edges.classify_edge",
})

# Several functions of one concept reported under one span name.
ALIASES = {
    "quivers.mutation_class_a": "quivers.mutation_class",
    "quivers.mutation_class_d": "quivers.mutation_class",
}


class _Span:
    __slots__ = ("calls", "self_ns", "total_ns", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.active = 0


class Tracer:
    """Aggregated spans plus the counters observed at the same boundaries."""

    def __init__(self) -> None:
        self.spans: dict[str, _Span] = {}
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        # result objects of cached builders, keyed by id so a cached result
        # handed out again is counted once
        self._tables: dict[str, dict[int, int]] = {"quivers.transport_table": {},
                                                  "triangulations.equivalence_classes": {}}
        self._keys: set = set()
        self.cliques = 0
        self.paused = False  # when set, wrapped calls run unrecorded

    # -- wrapping ---------------------------------------------------------

    def _observe(self, name: str, result) -> None:
        if name == "kernels.maximal_cliques":
            self.cliques += len(result)
        elif name == "quivers.canonical_key":
            self._keys.add(result)
        elif name in self._tables:
            self._tables[name][id(result)] = len(result)

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, _Span())
        stack = self._stack
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            stack.append(0)
            span.active += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                span.active -= 1
                span.calls += 1
                span.self_ns += dt - stack.pop()
                if not span.active:
                    span.total_ns += dt
                if stack:
                    stack[-1] += dt
            observe(name, result)
            return result

        return traced

    def install(self) -> None:
        """Import every layer and patch its traced functions wherever they
        are looked up."""
        modules = []
        for modname in LAYERS:
            try:
                modules.append(importlib.import_module(modname))
            except ImportError:
                continue  # the compiled kernel is optional
        modules.append(importlib.import_module("dncat"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = self._span_name(attr, value)
                if name is None:
                    continue
                wrapper = self._wrappers.get(id(value))
                if wrapper is None:
                    wrapper = self._wrappers[id(value)] = self.wrap(name, value)
                setattr(module, attr, wrapper)

    @staticmethod
    def _span_name(attr: str, value) -> str | None:
        if attr.startswith("_") or isinstance(value, type) or not callable(value):
            return None
        home = getattr(value, "__module__", None)
        if home not in LAYERS or f"{home}.{attr}" in UNTRACED:
            return None
        if getattr(value, "__name__", None) != attr:
            return None  # re-bound under another name
        if inspect.isgeneratorfunction(value):
            return None  # its body runs in the caller's loop, not in the call
        name = f"{LAYERS[home]}.{attr}"
        return ALIASES.get(name, name)

    # -- read-out ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data view: spans plus the observed counters."""
        return {
            "spans": {name: {"calls": s.calls, "self_s": s.self_ns / 1e9,
                             "s": s.total_ns / 1e9}
                      for name, s in sorted(self.spans.items())},
            "counters": {
                "kernels.cliques": self.cliques,
                "quivers.canonical_key.distinct": len(self._keys),
                "quivers.transport_entries":
                    sum(self._tables["quivers.transport_table"].values()),
                "triangulations.classes":
                    sum(self._tables["triangulations.equivalence_classes"].values()),
            },
        }

