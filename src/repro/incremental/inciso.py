"""Incremental subgraph isomorphism (paper Section 7).

Theorem 7.1 proves IncIsoMat is unbounded (even trees/forests) and IncIso
NP-complete for fixed data graphs — there is no good incremental algorithm.
What *can* be built is an embedding index that avoids recomputing matches
that cannot have changed:

- every current embedding is indexed by the data edges it uses;
- a deleted data edge invalidates exactly the embeddings in its posting
  list (O(|affected|));
- an inserted data edge can only create embeddings that *use* it, so the
  search is re-run anchored on the new edge (each pattern edge is pinned to
  the new data edge in turn and VF2 completes the mapping) — correct, but
  with the exponential worst case the theorem promises.

Public entry points: ``apply_batch`` (the incremental IsoMat of the
experiments: deletions drop postings, insertions anchor-search),
``delete_edge`` / ``insert_edge`` (the same on a one-update batch) and
``update_node_attrs`` (a node event).  They share one repair core:
``repair_deleted_edges`` / ``repair_inserted_edges`` (which a pool calls
on a graph it edited itself) for edges, and
``apply_eligibility_flip_batch`` for node events.

``IsoIndex`` is the comparison point the experiments use to show why the
simulation family is the practical choice on evolving graphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..matching.isomorphism import Embedding, iter_embeddings
from ..patterns.pattern import Pattern, PatternError, PatternNode
from .delta import DeltaLog
from .types import Update, delete, edit_edges, insert, net_edges

EdgeKey = Tuple[Node, Node]
EmbKey = FrozenSet[Tuple[PatternNode, Node]]


def _undirected_ball(graph: DiGraph, sources, radius: int):
    """Nodes within ``radius`` undirected hops of any source."""
    seen = set(sources)
    frontier = list(seen)
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in graph.children(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
            for w in graph.parents(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    return seen


class IsoIndex:
    """The set ``Miso(P, G)`` maintained under edge updates."""

    def __init__(
        self,
        pattern: Pattern,
        graph: DiGraph,
        max_embeddings: Optional[int] = None,
        eligibility=None,
    ) -> None:
        if not pattern.is_normal():
            raise PatternError("IsoIndex requires a normal pattern")
        self.pattern = pattern
        self.graph = graph
        self.max_embeddings = max_embeddings
        # A pool-level SharedEligibilityIndex: per-pattern-node predicate
        # verdicts are read off the shared member sets (one evaluation per
        # distinct predicate per pool) instead of re-evaluated here, and
        # attribute churn arrives as resolved flips
        # (apply_eligibility_flip_batch) rather than update_node_attrs.
        self._eligibility = eligibility
        # The leased member sets, which anchored searches also read as
        # their candidate sets (read-only, never copied) instead of
        # re-scanning the graph.
        self._cands: Optional[Dict[PatternNode, Set[Node]]] = None
        if eligibility is not None:
            self._cands = {
                u: eligibility.lease(pattern.predicate(u)).members
                for u in pattern.nodes()
            }
        self._embeddings: Dict[EmbKey, Embedding] = {}
        self._by_edge: Dict[EdgeKey, Set[EmbKey]] = {}
        self.delta = DeltaLog()
        self._collect(iter_embeddings(pattern, graph))
        # The initial embedding set is state, not change.
        self.delta.clear()

    # ------------------------------------------------------------------
    # Index bookkeeping
    # ------------------------------------------------------------------
    @staticmethod
    def _key(emb: Embedding) -> EmbKey:
        return frozenset(emb.items())

    def _used_edges(self, emb: Embedding) -> List[EdgeKey]:
        return [(emb[u1], emb[u2]) for u1, u2 in self.pattern.edges()]

    def _store(self, emb: Embedding) -> bool:
        key = self._key(emb)
        if key in self._embeddings:
            return False
        stored = dict(emb)
        self._embeddings[key] = stored
        self.delta.add(key, stored)
        for edge in self._used_edges(emb):
            self._by_edge.setdefault(edge, set()).add(key)
        return True

    def _collect(self, embeddings: Iterable[Embedding]) -> bool:
        """Store ``embeddings`` up to the ``max_embeddings`` cap; returns
        whether the cap is reached."""
        cap = self.max_embeddings
        if cap is not None and len(self._embeddings) >= cap:
            return True
        for emb in embeddings:
            self._store(emb)
            if cap is not None and len(self._embeddings) >= cap:
                return True
        return False

    def _discard(self, key: EmbKey) -> None:
        emb = self._embeddings.pop(key, None)
        if emb is None:
            return
        self.delta.remove(key, emb)
        for edge in self._used_edges(emb):
            postings = self._by_edge.get(edge)
            if postings is not None:
                postings.discard(key)
                if not postings:
                    del self._by_edge[edge]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def embeddings(self) -> List[Embedding]:
        return [dict(e) for e in self._embeddings.values()]

    def count(self) -> int:
        return len(self._embeddings)

    def has_match(self) -> bool:
        return bool(self._embeddings)

    def pop_match_delta(self) -> Tuple[List[Embedding], List[Embedding]]:
        """Net ``(added, removed)`` embeddings since the last pop."""
        added, removed = self.delta.pop()
        return (
            [dict(e) for e in added.values()],
            [dict(e) for e in removed.values()],
        )

    # ------------------------------------------------------------------
    # Edge updates
    # ------------------------------------------------------------------
    def delete_edge(self, v: Node, w: Node) -> bool:
        """Drop the embeddings whose image used (v, w)."""
        return self.apply_batch([delete(v, w)]) > 0

    def insert_edge(self, v: Node, w: Node) -> bool:
        """Search for embeddings anchored on the new edge (v, w), and on
        endpoints the edge brought into the graph."""
        return self.apply_batch([insert(v, w)]) > 0

    def apply_batch(self, updates: Iterable[Update]) -> int:
        """Deletions drop postings; insertions anchor-search afterwards;
        returns the number of net edge changes.

        An endpoint new to the graph is searched at every pattern node it
        can play: it can host an embedding of an edge-less pattern
        component (e.g. a lone ``TRUE`` node), which no edge anchor would
        find.
        """
        deleted, inserted = net_edges(self.graph, updates)
        fresh = [
            n for n in dict.fromkeys(n for e in inserted for n in e)
            if n not in self.graph
        ]
        edit_edges(self.graph, deleted, inserted)
        self.repair_deleted_edges(deleted)
        self.repair_inserted_edges(inserted)
        self.apply_eligibility_flip_batch(
            [(n, self._satisfied(n), []) for n in fresh]
        )
        return len(deleted) + len(inserted)

    def repair_deleted_edges(self, edges: Iterable[EdgeKey]) -> None:
        """Drop posting lists for edges already removed from the graph."""
        for edge in edges:
            for key in list(self._by_edge.get(edge, ())):
                self._discard(key)

    def repair_inserted_edges(self, edges: Iterable[EdgeKey]) -> None:
        """Anchored re-search on edges already present in the graph."""
        for v, w in edges:
            if self.graph.has_edge(v, w):
                self._search_anchored(v, w)

    def _search_anchored(self, v: Node, w: Node) -> None:
        """Embeddings that use edge (v, w): each pattern edge is pinned to
        it in turn and the search completes the mapping."""
        graph = self._search_graph(v, w)
        for u1, u2 in self.pattern.edges():
            if u1 == u2:
                if v != w:
                    continue  # a self-loop pattern edge needs a data self-loop
                seed: Embedding = {u1: v}
            elif v == w:
                continue  # injectivity forbids mapping two nodes to one
            else:
                seed = {u1: v, u2: w}
            if self._collect(self._anchored(seed, graph)):
                return

    def _search_graph(self, v: Node, w: Node) -> DiGraph:
        """The graph anchored search around edge (v, w) runs on."""
        return self.graph

    def _anchored(self, seed: Embedding, graph: DiGraph):
        """Embeddings extending ``seed`` in ``graph``; a leased index
        seeds the search with its shared eligible sets."""
        return iter_embeddings(
            self.pattern, graph, partial=seed, candidates=self._cands
        )

    # ------------------------------------------------------------------
    # Node events
    # ------------------------------------------------------------------
    def _satisfied(self, v: Node) -> List[PatternNode]:
        """Pattern nodes whose predicate ``v`` satisfies — shared
        member-set lookups when leased, predicate evaluations otherwise."""
        if self._cands is not None:
            return [u for u in self.pattern.nodes() if v in self._cands[u]]
        attrs = self.graph.attrs(v)
        return [
            u for u in self.pattern.nodes()
            if self.pattern.predicate(u).satisfied_by(attrs)
        ]

    def update_node_attrs(self, v: Node, **attrs) -> None:
        """Change ``v``'s attributes and repair the embedding set.

        Embeddings whose image of some pattern node no longer satisfies its
        predicate are dropped; fresh embeddings that map a pattern node to
        ``v`` are found by anchored search on ``v``.
        """
        self.graph.add_node(v, **attrs)
        ok = self._satisfied(v)
        self.apply_eligibility_flip_batch(
            [(v, ok, [u for u in self.pattern.nodes() if u not in ok])]
        )

    def apply_eligibility_flip_batch(
        self,
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]],
    ) -> None:
        """Repair after eligibility flipped for a batch of node events
        (sets already final).

        A lost layer invalidates exactly the embeddings mapping that
        pattern node to the node; a gained layer can only create
        embeddings that map it there.  Layers whose verdict did not flip
        need no work: the graph's edges are unchanged, so their
        embeddings through the node are unchanged.  One scan drops every
        embedding invalidated by any loss in the batch, then each gain
        anchor-searches — against the final graph and final sets, so
        per-event interleaving is immaterial (anchored search reads only
        current truth).
        """
        lost_pairs = {
            (u, v) for v, _gained, lost in events for u in lost
        }
        if lost_pairs:
            for key in list(self._embeddings):
                emb = self._embeddings[key]
                if any(emb.get(u) == v for u, v in lost_pairs):
                    self._discard(key)
        for v, gained, _lost in events:
            for u in gained:
                if self._collect(self._anchored({u: v}, self.graph)):
                    return

    def release(self) -> None:
        """Release shared-eligibility leases (pool unregister); idempotent."""
        if self._eligibility is None:
            return
        for u in self.pattern.nodes():
            self._eligibility.release(self.pattern.predicate(u))
        self._eligibility = None
        self._cands = None


class LocalizedIsoIndex(IsoIndex):
    """IsoIndex with locality-bounded anchored search (paper Section 9).

    The paper lists "bounded incremental heuristic algorithms for subgraph
    isomorphism, with performance guarantees" as open work.  This variant
    bounds the re-search after an insertion to the *undirected ball* of
    radius ``radius`` around the new edge:

    - any embedding that uses the edge maps every pattern node within
      ``|Vp| - 1`` undirected hops of an endpoint **when the pattern is
      weakly connected**, so ``radius >= |Vp| - 1`` (the default) is exact
      for connected patterns while searching a far smaller subgraph;
    - a smaller radius is a heuristic: cheaper still, but it may miss
      embeddings whose far side lies outside the ball (deletions and
      predicate checks remain exact either way).
    """

    def __init__(self, pattern, graph, radius=None, max_embeddings=None):
        if radius is None:
            radius = max(1, pattern.num_nodes() - 1)
        self.radius = radius
        super().__init__(pattern, graph, max_embeddings=max_embeddings)

    def _search_graph(self, v, w):
        return self.graph.subgraph(
            _undirected_ball(self.graph, (v, w), self.radius)
        )
