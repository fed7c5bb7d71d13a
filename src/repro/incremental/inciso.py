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

``IsoIndex`` is the comparison point the experiments use to show why the
simulation family is the practical choice on evolving graphs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..matching.isomorphism import Embedding, iter_embeddings
from ..patterns.pattern import Pattern, PatternError, PatternNode
from .delta import DeltaLog
from .types import Update

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
        for emb in iter_embeddings(pattern, graph):
            self._store(emb)
            if (
                max_embeddings is not None
                and len(self._embeddings) >= max_embeddings
            ):
                break
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
    # Incremental updates
    # ------------------------------------------------------------------
    def delete_edge(self, v: Node, w: Node) -> bool:
        """Drop the embeddings whose image used (v, w)."""
        if not self.graph.remove_edge(v, w):
            return False
        for key in list(self._by_edge.get((v, w), ())):
            self._discard(key)
        return True

    def insert_edge(self, v: Node, w: Node) -> bool:
        """Search for embeddings anchored on the new edge (v, w), and on
        endpoints the edge brought into the graph."""
        fresh = self._add_endpoints(v, w)
        if not self.graph.add_edge(v, w):
            return False
        self._search_anchored(v, w)
        for node in fresh:
            self._search_node(node)
        return True

    def _add_endpoints(self, v: Node, w: Node) -> List[Node]:
        """Add missing endpoints; return those new to the graph.  A fresh
        node can host an embedding of an edge-less pattern component
        (e.g. a lone ``TRUE`` node), which no edge anchor would find."""
        fresh = [n for n in dict.fromkeys((v, w)) if n not in self.graph]
        for n in fresh:
            self.graph.add_node(n)
        return fresh

    def _search_anchored(self, v: Node, w: Node) -> None:
        for u1, u2 in self.pattern.edges():
            if (
                self.max_embeddings is not None
                and len(self._embeddings) >= self.max_embeddings
            ):
                return
            if u1 == u2:
                if v != w:
                    continue  # a self-loop pattern edge needs a data self-loop
                seed: Embedding = {u1: v}
            else:
                if v == w:
                    continue  # injectivity forbids mapping two nodes to one
                seed = {u1: v, u2: w}
            for emb in self._anchored(seed):
                self._store(emb)
                if (
                    self.max_embeddings is not None
                    and len(self._embeddings) >= self.max_embeddings
                ):
                    return

    def _anchored(self, seed: Embedding):
        """Embeddings extending ``seed`` in the full graph; a leased index
        seeds the search with its shared eligible sets."""
        return iter_embeddings(
            self.pattern, self.graph, partial=seed, candidates=self._cands
        )

    def _satisfies(self, u: PatternNode, v: Node, attrs) -> bool:
        """Predicate verdict for ``v`` at pattern node ``u`` — a shared
        member-set lookup when leased, a predicate evaluation otherwise."""
        if self._eligibility is not None:
            return v in self._cands[u]
        return self.pattern.predicate(u).satisfied_by(attrs)

    def update_node_attrs(self, v: Node, **attrs) -> None:
        """Change ``v``'s attributes and repair the embedding set.

        Embeddings whose image of some pattern node no longer satisfies its
        predicate are dropped; fresh embeddings that map a pattern node to
        ``v`` are found by anchored search on ``v``.
        """
        self.graph.add_node(v, **attrs)
        node_attrs = self.graph.attrs(v)
        # Drop embeddings that stop satisfying a predicate at v.
        for key in list(self._embeddings):
            emb = self._embeddings[key]
            for u, node in emb.items():
                if node == v and not self._satisfies(u, v, node_attrs):
                    self._discard(key)
                    break
        self._search_node(v)

    def _search_node(self, v: Node) -> None:
        """Anchor a search at every pattern node ``v`` can play."""
        node_attrs = self.graph.attrs(v)
        for u in self.pattern.nodes():
            if not self._satisfies(u, v, node_attrs):
                continue
            for emb in self._anchored({u: v}):
                self._store(emb)
                if (
                    self.max_embeddings is not None
                    and len(self._embeddings) >= self.max_embeddings
                ):
                    return

    def apply_eligibility_flip_batch(
        self,
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]],
    ) -> None:
        """Repair after the substrate flipped eligibility for a whole
        flush's node events at once (sets already final, flips netted).

        A lost layer invalidates exactly the embeddings mapping that
        pattern node to the node; a gained layer can only create
        embeddings that map it there.  Layers whose verdict did not flip
        need no work: the graph's edges are unchanged, so their
        embeddings through the node are unchanged.  One scan drops every
        embedding invalidated by any loss in the batch, then each gain
        anchor-searches — against the final graph and final shared sets,
        so per-event interleaving is immaterial (anchored search reads
        only current truth).
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
                for emb in self._anchored({u: v}):
                    self._store(emb)
                    if (
                        self.max_embeddings is not None
                        and len(self._embeddings) >= self.max_embeddings
                    ):
                        return

    def release(self) -> None:
        """Release shared-eligibility leases (pool unregister); idempotent."""
        if self._eligibility is None:
            return
        for u in self.pattern.nodes():
            self._eligibility.release(self.pattern.predicate(u))
        self._eligibility = None
        self._cands = None

    def apply_batch(self, updates: Iterable[Update]) -> None:
        """Deletions drop postings; insertions anchor-search afterwards."""
        updates = list(updates)
        inserted: List[EdgeKey] = []
        fresh: List[Node] = []
        for upd in updates:
            if upd.op == "delete":
                if self.graph.remove_edge(upd.source, upd.target):
                    for key in list(self._by_edge.get(upd.edge, ())):
                        self._discard(key)
            else:
                fresh += self._add_endpoints(upd.source, upd.target)
                if self.graph.add_edge(upd.source, upd.target):
                    inserted.append(upd.edge)
        for v, w in inserted:
            if self.graph.has_edge(v, w):
                self._search_anchored(v, w)
        for node in fresh:
            self._search_node(node)

    # ------------------------------------------------------------------
    # Shared-graph repair (MatcherPool plumbing)
    # ------------------------------------------------------------------
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

    def _search_anchored(self, v, w):
        ball = _undirected_ball(self.graph, (v, w), self.radius)
        local = self.graph.subgraph(ball)
        for u1, u2 in self.pattern.edges():
            if (
                self.max_embeddings is not None
                and len(self._embeddings) >= self.max_embeddings
            ):
                return
            if u1 == u2:
                if v != w:
                    continue
                seed = {u1: v}
            else:
                if v == w:
                    continue
                seed = {u1: v, u2: w}
            for emb in iter_embeddings(self.pattern, local, partial=seed):
                self._store(emb)
                if (
                    self.max_embeddings is not None
                    and len(self._embeddings) >= self.max_embeddings
                ):
                    return
