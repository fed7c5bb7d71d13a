"""Dynamic single-source shortest paths (Ramalingam & Reps 1996).

The paper's landmark maintenance (Section 6.4) "adopt[s] a variant of a
dynamic fixed point algorithm [Ramalingam and Reps 1996a]" to update
distance vectors.  This module is that substrate: it maintains hop
distances from a fixed source (or *to* a fixed target with ``reverse=True``)
under edge insertions and deletions, touching only the affected area.

- Insertion is a decrease-only relaxation cascade.
- Deletion runs the two-phase RR algorithm: (1) identify the affected set —
  nodes whose every tight in-edge comes from another affected node; (2)
  recompute the affected set with a Dijkstra seeded from its unaffected
  boundary.

All updates assume the underlying graph has **already been mutated**; the
class only repairs its distance map.  ``stats.nodes_touched`` counts the
work done, which is how the experiments measure ``|AFF|``.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, Iterable, List, MutableSequence, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node

INF = float("inf")


class SSSPStats:
    """Work counters: the affected-area proxy used by the experiments."""

    __slots__ = ("nodes_touched", "edges_scanned")

    def __init__(self) -> None:
        self.nodes_touched = 0
        self.edges_scanned = 0

    def reset(self) -> None:
        self.nodes_touched = 0
        self.edges_scanned = 0


class DynamicSSSP:
    """Hop distances from ``source`` maintained under edge updates.

    ``reverse=True`` maintains distances *to* ``source`` instead (BFS over
    reversed edges) — the ``distvt`` direction of landmark vectors.
    """

    def __init__(self, graph: DiGraph, source: Node, reverse: bool = False) -> None:
        self._graph = graph
        self.source = source
        self.reverse = reverse
        self.stats = SSSPStats()
        self._dist: Dict[Node, int] = {}
        self._rebuild()

    # -- orientation helpers -------------------------------------------
    def _out(self, v: Node) -> Iterable[Node]:
        """Neighbours whose distance may be dist(v) + 1."""
        return self._graph.parents(v) if self.reverse else self._graph.children(v)

    def _in(self, v: Node) -> Iterable[Node]:
        """Neighbours that may supply dist(v) = dist(p) + 1."""
        return self._graph.children(v) if self.reverse else self._graph.parents(v)

    def _orient(self, x: Node, y: Node) -> Tuple[Node, Node]:
        """Map a graph edge (x, y) to (tail, head) in traversal direction."""
        return (y, x) if self.reverse else (x, y)

    # -- queries ---------------------------------------------------------
    def dist(self, v: Node) -> float:
        return self._dist.get(v, INF)

    def distances(self) -> Dict[Node, int]:
        """Finite distances only; missing nodes are unreachable."""
        return self._dist

    def size_entries(self) -> int:
        return len(self._dist)

    # -- full rebuild (the batch baseline) -------------------------------
    def _rebuild(self) -> None:
        self._dist = {}
        if self.source not in self._graph:
            return
        self._dist[self.source] = 0
        queue = deque([self.source])
        while queue:
            v = queue.popleft()
            d = self._dist[v]
            for w in self._out(v):
                if w not in self._dist:
                    self._dist[w] = d + 1
                    queue.append(w)

    def recompute(self) -> None:
        """Recompute from scratch (used by the BatchLM baselines)."""
        self._rebuild()

    # -- insertion: decrease-only cascade --------------------------------
    def on_insert(self, x: Node, y: Node) -> int:
        """Repair after edge (x, y) was inserted.  Returns #nodes updated."""
        a, b = self._orient(x, y)
        da = self._dist.get(a)
        if a == self.source:
            da = 0
            self._dist.setdefault(a, 0)
        if da is None:
            return 0
        updated = 0
        if self._dist.get(b, INF) > da + 1:
            self._dist[b] = da + 1
            updated += 1
            self.stats.nodes_touched += 1
            queue = deque([b])
            while queue:
                v = queue.popleft()
                dv = self._dist[v]
                for w in self._out(v):
                    self.stats.edges_scanned += 1
                    if self._dist.get(w, INF) > dv + 1:
                        self._dist[w] = dv + 1
                        updated += 1
                        self.stats.nodes_touched += 1
                        queue.append(w)
        return updated

    # -- deletion: two-phase Ramalingam-Reps ------------------------------
    def on_delete(self, x: Node, y: Node) -> int:
        """Repair after edge (x, y) was deleted.  Returns #nodes updated."""
        _, b = self._orient(x, y)
        return self._repair([b], [])

    def _has_support(self, v: Node, affected: Set[Node]) -> bool:
        """Does v keep a tight in-edge from an unaffected node?"""
        dv = self._dist.get(v)
        if dv is None:
            return True  # already unreachable: nothing to invalidate
        if v == self.source:
            return True
        for p in self._in(v):
            self.stats.edges_scanned += 1
            if p in affected:
                continue
            dp = self._dist.get(p)
            if dp is not None and dp + 1 == dv:
                return True
        return False

    def _repair(
        self, seeds: Iterable[Node], decreased: MutableSequence[Node]
    ) -> int:
        """Two-phase RR repair from the deletion-affected ``seeds``.

        Appends to ``decreased`` every affected node that phase 2 settles
        *below* its old distance.  Pure deletions never do that; in a
        mixed batch an inserted edge can, and the node's unaffected
        children then need the caller's decrease cascade.
        """
        # Phase 1: identify the affected set.
        affected: Set[Node] = set()
        queue = deque(v for v in seeds if v in self._graph)
        while queue:
            v = queue.popleft()
            if v in affected or v not in self._dist:
                continue
            if self._has_support(v, affected):
                continue
            affected.add(v)
            self.stats.nodes_touched += 1
            dv = self._dist[v]
            for w in self._out(v):
                if w not in affected and self._dist.get(w) == dv + 1:
                    queue.append(w)
        if not affected:
            return 0
        # Phase 2: Dijkstra over the affected set, seeded from its boundary.
        old = {v: self._dist[v] for v in affected}
        for v in affected:
            del self._dist[v]
        heap: List[Tuple[int, Node]] = []
        best: Dict[Node, int] = {}
        for v in affected:
            b = INF
            for p in self._in(v):
                self.stats.edges_scanned += 1
                dp = self._dist.get(p)
                if dp is not None and dp + 1 < b:
                    b = dp + 1
            if b != INF:
                best[v] = int(b)
                heapq.heappush(heap, (int(b), v))
        changed = 0
        while heap:
            d, v = heapq.heappop(heap)
            if v in self._dist or best.get(v) != d:
                continue
            self._dist[v] = d
            if old[v] != d:
                changed += 1
                if d < old[v]:
                    decreased.append(v)
            for w in self._out(v):
                self.stats.edges_scanned += 1
                if w in affected and w not in self._dist:
                    if best.get(w, INF) > d + 1:
                        best[w] = d + 1
                        heapq.heappush(heap, (d + 1, w))
        # Nodes left without a distance became unreachable.
        changed += sum(1 for v in affected if v not in self._dist)
        return changed

    # -- batch updates -----------------------------------------------------
    def on_batch(
        self,
        inserted: Iterable[Tuple[Node, Node]] = (),
        deleted: Iterable[Tuple[Node, Node]] = (),
    ) -> int:
        """Repair after a mixed batch (graph already reflects all edits).

        Deletions are repaired together (one identify + one Dijkstra pass),
        then insertions run one combined decrease cascade — the batching
        that makes ``IncLM`` beat per-update ``InsLM + DelLM`` (Fig. 20(f)).
        The cascade also starts from every deletion-affected node that an
        inserted edge settled below its old distance.
        """
        seeds = [self._orient(x, y)[1] for x, y in deleted]
        queue: deque = deque()
        changed = self._repair(seeds, queue) if seeds else 0
        # Combined decrease pass over all inserted edges.
        for x, y in inserted:
            a, b = self._orient(x, y)
            da = self._dist.get(a)
            if da is None:
                continue
            if self._dist.get(b, INF) > da + 1:
                self._dist[b] = da + 1
                changed += 1
                self.stats.nodes_touched += 1
                queue.append(b)
        while queue:
            v = queue.popleft()
            dv = self._dist[v]
            for w in self._out(v):
                self.stats.edges_scanned += 1
                if self._dist.get(w, INF) > dv + 1:
                    self._dist[w] = dv + 1
                    changed += 1
                    self.stats.nodes_touched += 1
                    queue.append(w)
        return changed
