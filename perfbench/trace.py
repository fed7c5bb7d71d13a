"""Outside-in layer tracing for the benchmark's traced run.

:class:`Tracer` wraps the public entry points of each engine layer from
the benchmark's own code; nothing under ``src/`` knows it exists.  Each
wrapped call records one span: layer name, start, end, parent span and
the flush it belongs to.  Spans stay in flat in-memory lists until the
run ends.  A span's self time is its duration minus its children's, so
the self times of one flush partition that flush's wall time exactly,
and the root ``pool`` span keeps whatever no wrapped layer claimed.

``ContinuousQuery.can_affect_edge`` is called about once per edge per
distance-routed query; it is counted without reading the clock, because
timing each consult would distort the router's share.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine import eligibility, distances, plan, pool, query, router

# (owner, attribute, layer) for every class- or module-level wrapper.
# Layers are named after the modules that own them.
WRAPPED: Tuple[Tuple[Any, str, str], ...] = (
    (pool.MatcherPool, "flush", "pool"),
    (pool.MatcherPool, "register", "setup.register"),
    (pool, "net_updates", "types"),
    (router.UpdateRouter, "route_edge", "router"),
    (router.UpdateRouter, "route_flips", "router"),
    (eligibility.SharedEligibilityIndex, "observe_events", "eligibility"),
    (eligibility.SharedEligibilityIndex, "observe_node_added", "eligibility"),
    (distances.SharedDistanceSubstrate, "observe_inserted", "distances"),
    (distances.SharedDistanceSubstrate, "observe_deleted", "distances"),
    (distances.SharedDistanceSubstrate, "enforce_lm_budget", "distances"),
    (query.ContinuousQuery, "prepare_deletions", "query.del"),
    (query.ContinuousQuery, "repair_deletions", "query.del"),
    (query.ContinuousQuery, "repair_insertions", "query.ins"),
    (query.ContinuousQuery, "apply_node_added", "query.node"),
    (query.ContinuousQuery, "apply_attr_update", "query.node"),
    (query.ContinuousQuery, "apply_eligibility_flips", "query.node"),
    (query.ContinuousQuery, "apply_eligibility_flip_batch", "query.node"),
    (query.ContinuousQuery, "emit_delta", "feeds"),
    (plan.SharedPlan, "deliver", "plan"),
)
# Edit methods of the pool's own data graph.  Graph classes use
# ``__slots__``, so the class is wrapped and the wrapper records a span
# only for the pool's instance; graphs built by verification or by the
# shared plan stay untraced.
GRAPH_EDITS = ("add_edge", "remove_edge", "add_node")
LAYERS = ("pool", "router", "eligibility", "distances", "query.del",
          "query.ins", "query.node", "plan", "feeds", "types", "graphs")

_MISSING = object()


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self) -> None:
        self.layer_ids: Dict[str, int] = {}
        self.layer_names: List[str] = []
        self.name: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.flush: List[int] = []
        self._stack: List[int] = []
        self._flush_id = -1
        self.consults = 0
        self.consult_hits = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------
    def _layer(self, layer: str) -> int:
        lid = self.layer_ids.get(layer)
        if lid is None:
            lid = self.layer_ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        return lid

    def _span(self, fn: Callable, layer: str) -> Callable:
        lid = self._layer(layer)
        is_flush = layer == "pool"
        names, starts, ends = self.name, self.start, self.end
        parents, flushes, stack = self.parent, self.flush, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(lid)
            parents.append(stack[-1] if stack else -1)
            if is_flush:
                self._flush_id = i
            flushes.append(self._flush_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if is_flush:
                    self._flush_id = -1

        return traced

    def _counted_consult(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def consult(*args, **kwargs):
            hit = fn(*args, **kwargs)
            self.consults += 1
            if hit:
                self.consult_hits += 1
            return hit

        return consult

    # -- patching --------------------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for owner, attr, layer in WRAPPED:
            self._patch(owner, attr, self._span(getattr(owner, attr), layer))
        self._patch(query.ContinuousQuery, "can_affect_edge",
                    self._counted_consult(query.ContinuousQuery.can_affect_edge))

    def trace_graph(self, graph: Any) -> None:
        cls = type(graph)
        for attr in GRAPH_EDITS:
            plain = getattr(cls, attr)
            spanned = self._span(plain, "graphs")

            def edit(g, *args, _plain=plain, _spanned=spanned, **kwargs):
                fn = _spanned if g is graph else _plain
                return fn(g, *args, **kwargs)

            self._patch(cls, attr, functools.wraps(plain)(edit))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- analysis --------------------------------------------------------
    def self_times(self) -> List[float]:
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def layer_self(self, flush_ids) -> Dict[str, float]:
        """Total self seconds per layer over spans of the given flushes."""
        wanted = set(flush_ids)
        totals = {layer: 0.0 for layer in LAYERS}
        for i, st in enumerate(self.self_times()):
            if self.flush[i] in wanted:
                layer = self.layer_names[self.name[i]]
                totals[layer] = totals.get(layer, 0.0) + st
        return totals

    def flush_spans(self) -> List[int]:
        pid = self.layer_ids.get("pool")
        return [i for i, n in enumerate(self.name) if n == pid]

    def spans_of(self, layer: str) -> List[int]:
        lid = self.layer_ids.get(layer)
        return [i for i, n in enumerate(self.name) if n == lid]

    def write(self, path, meta: Optional[Dict[str, Any]] = None) -> None:
        """Every span as one JSON line (gzip), after a metadata line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"meta": meta or {},
                                 "layers": self.layer_names}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent,
                           self.flush):
                fh.write(json.dumps(row) + "\n")
