"""Landmark vectors and distance vectors (paper Section 6.2).

A landmark vector ``lm`` is a node list such that every node pair has some
landmark on a shortest path between them; with per-node distance vectors
``distvf (v -> lm)`` and ``distvt (lm -> v)``, the distance from ``v`` to
``w`` is ``min_i distvf[v][i] + distvt[w][i]`` — exact for ``v != w`` when
``lm`` is a vertex cover, with at most ``|lm|`` operations per query.

We store the vectors column-wise: one :class:`DynamicSSSP` per landmark and
direction, which is exactly the paper's maintenance strategy ("a variant of
a dynamic fixed point algorithm [Ramalingam and Reps 1996a]") and gives
``InsLM`` / ``DelLM`` / ``IncLM`` for free via the RR update routines.

:class:`LandmarkIndex` also implements the
:class:`repro.matching.oracles.DistanceOracle` protocol so it can drive
``Match`` and ``IncBMatch`` directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.traversal import (
    INF,
    ancestors_within,
    descendants_within,
    shortest_cycle_through,
)
from ..shortestpaths.dynamic_sssp import DynamicSSSP
from .selection import select_landmarks

Update = Tuple[Node, Node]


class LandmarkIndex:
    """Landmark vector + distance vectors with incremental maintenance.

    All mutation methods expect the underlying graph to have **already**
    been updated; they repair the vectors (this matches how the matching
    engine sequences updates).
    """

    def __init__(
        self,
        graph: DiGraph,
        landmarks: Optional[Iterable[Node]] = None,
        strategy: str = "matching",
    ) -> None:
        self._graph = graph
        self._strategy = strategy
        self._fwd: Dict[Node, DynamicSSSP] = {}  # dist(lm -> v): distvt column
        self._bwd: Dict[Node, DynamicSSSP] = {}  # dist(v -> lm): distvf column
        # Bumped on every structural change (edge repair, landmark growth,
        # rebuild); version-keyed caches such as :class:`EligibleLegMinima`
        # use it to invalidate lazily.
        self.version = 0
        if landmarks is None:
            landmarks = select_landmarks(graph, strategy)
        for lm in landmarks:
            self._add(lm)
        # Size of the last from-scratch selection.  ``InsLM`` may add one
        # landmark per insertion, so the live set grows monotonically
        # between re-selections; budget policies (BatchLM triggers) compare
        # the live size against this baseline.
        self.selected_size = len(self._fwd)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def landmarks(self) -> List[Node]:
        return list(self._fwd)

    def has_landmark(self, v: Node) -> bool:
        return v in self._fwd

    def _add(self, v: Node) -> None:
        if v in self._fwd:
            return
        self._fwd[v] = DynamicSSSP(self._graph, v, reverse=False)
        self._bwd[v] = DynamicSSSP(self._graph, v, reverse=True)
        self.version += 1

    def add_landmark(self, v: Node) -> None:
        """Extend the vector by one landmark (full BFS both directions)."""
        if v not in self._graph:
            raise ValueError(f"landmark {v!r} not in graph")
        self._add(v)

    def size_entries(self) -> int:
        """Total stored distance entries — the space cost of Fig. 20(b)."""
        return sum(s.size_entries() for s in self._fwd.values()) + sum(
            s.size_entries() for s in self._bwd.values()
        )

    def covers_edge(self, x: Node, y: Node) -> bool:
        return x in self._fwd or y in self._fwd

    # ------------------------------------------------------------------
    # Queries (DistanceOracle protocol)
    # ------------------------------------------------------------------
    def dist(self, v: Node, w: Node) -> float:
        """Plain shortest-path distance (0 when v == w)."""
        if v == w:
            return 0 if v in self._graph else INF
        best = INF
        for lm, fwd in self._fwd.items():
            to_lm = self._bwd[lm].dist(v)
            if to_lm >= best:
                continue
            from_lm = fwd.dist(w)
            total = to_lm + from_lm
            if total < best:
                best = total
        return best

    def pathdist(self, v: Node, w: Node) -> float:
        """Nonempty-path distance (self distance == shortest cycle)."""
        if v != w:
            return self.dist(v, w)
        # Shortest cycle through v: min over landmarks != v of the round
        # trip; a cycle covered only by v itself needs a local search.
        best = INF
        for lm in self._fwd:
            if lm == v:
                continue
            total = self._bwd[lm].dist(v) + self._fwd[lm].dist(v)
            if total < best:
                best = total
        if v in self._fwd:
            local = shortest_cycle_through(self._graph, v)
            if local is not None and local < best:
                best = local
        return best

    def within(self, v: Node, w: Node, bound: Optional[int]) -> bool:
        """Early-exit check: nonempty path from v to w within ``bound``?

        Scans the vector only until a witness ``<= bound`` is found, which
        is what the IncBMatch pair rechecks need (most suspects survive and
        exit after a few landmarks).
        """
        if bound is None:
            return self.pathdist(v, w) != INF
        if v == w:
            return self.pathdist(v, v) <= bound
        for lm in self._fwd:
            to_lm = self._bwd[lm].dist(v)
            if to_lm > bound:
                continue
            if to_lm + self._fwd[lm].dist(w) <= bound:
                return True
        return False

    def leg_within(self, v: Node, w: Node, radius: Optional[int]) -> bool:
        """Early-exit check on *possibly-empty* paths: ``d(v, w) <= radius``.

        The legs of a witness path around an updated edge may be empty
        (``d(v, v) == 0``), unlike the nonempty-path semantics of
        :meth:`within` — this is what the distance-aware routing oracle of
        ``IncBMatch`` needs.  ``radius is None`` means plain reachability.
        """
        if v == w:
            return v in self._graph
        if radius is None:
            return self.dist(v, w) != INF
        for lm, fwd in self._fwd.items():
            to_lm = self._bwd[lm].dist(v)
            if to_lm > radius:
                continue
            if to_lm + fwd.dist(w) <= radius:
                return True
        return False

    def ball_out(self, v: Node, k: Optional[int]) -> Dict[Node, int]:
        """Bounded forward ball; BFS is used directly (k is small)."""
        return descendants_within(self._graph, v, k)

    def ball_in(self, v: Node, k: Optional[int]) -> Dict[Node, int]:
        return ancestors_within(self._graph, v, k)

    # ------------------------------------------------------------------
    # Maintenance: InsLM / DelLM / IncLM / BatchLM
    # ------------------------------------------------------------------
    def insert_edge(self, x: Node, y: Node) -> None:
        """``InsLM``: repair after inserting (x, y); may add one landmark.

        Prop. 6.2: adding either endpoint keeps the covering property, so
        at most one new landmark is needed per insertion.
        """
        if not self.covers_edge(x, y):
            deg = lambda n: self._graph.out_degree(n) + self._graph.in_degree(n)
            self._add(x if deg(x) >= deg(y) else y)
        for sssp in self._fwd.values():
            sssp.on_insert(x, y)
        for sssp in self._bwd.values():
            sssp.on_insert(x, y)
        self.version += 1

    def delete_edge(self, x: Node, y: Node) -> None:
        """``DelLM``: repair after deleting (x, y); landmarks never shrink
        online (Prop. 6.2 — a cover of G covers any subgraph)."""
        for sssp in self._fwd.values():
            sssp.on_delete(x, y)
        for sssp in self._bwd.values():
            sssp.on_delete(x, y)
        self.version += 1

    def apply_batch(
        self,
        inserted: Iterable[Update] = (),
        deleted: Iterable[Update] = (),
    ) -> None:
        """``IncLM``: one combined repair per landmark for a whole batch."""
        inserted = list(inserted)
        deleted = list(deleted)
        for x, y in inserted:
            if not self.covers_edge(x, y):
                deg = lambda n: (
                    self._graph.out_degree(n) + self._graph.in_degree(n)
                )
                self._add(x if deg(x) >= deg(y) else y)
        for sssp in self._fwd.values():
            sssp.on_batch(inserted, deleted)
        for sssp in self._bwd.values():
            sssp.on_batch(inserted, deleted)
        if inserted or deleted:
            self.version += 1

    def rebuild(self) -> None:
        """``BatchLM``: recompute the landmark set and all vectors."""
        landmarks = select_landmarks(self._graph, self._strategy)
        self._fwd = {}
        self._bwd = {}
        for lm in landmarks:
            self._add(lm)
        self.selected_size = len(self._fwd)
        self.version += 1

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    def nodes_touched(self) -> int:
        """Aggregate RR work counters across all columns (|AFF| proxy)."""
        return sum(s.stats.nodes_touched for s in self._fwd.values()) + sum(
            s.stats.nodes_touched for s in self._bwd.values()
        )

    def reset_stats(self) -> None:
        for s in self._fwd.values():
            s.stats.reset()
        for s in self._bwd.values():
            s.stats.reset()


class EligibleLegMinima:
    """Per-landmark minima over keyed member sets: O(|lm|) leg checks.

    The naive witness-leg consult of the distance-aware routing oracle asks
    "is some member of a set within ``r`` possibly-empty hops of ``node``?"
    by scanning the member set with one vector query each —
    O(|members| * |lm|) per consult.  Since ``min_e d(e, node) =
    min_lm (min_e d(e, lm) + d(lm, node))`` for ``node`` outside the member
    set (every nonempty shortest path crosses a landmark when ``lm`` covers
    the edges), precomputing ``min_e d(e, lm)`` and ``min_e d(lm, e)`` per
    landmark collapses the consult to a single O(|lm|) early-exit scan.

    ``members_of`` maps opaque hashable keys to live member sets.  The
    pool-level
    :class:`~repro.engine.distances.SharedDistanceSubstrate` keys by
    **interned predicate** over the shared eligibility member sets — the
    cache entry is then effectively keyed ``(predicate, lm-version)``, so
    however many same-predicate landmark queries the pool holds, one
    O(|members| * |lm|) refresh per flush serves them all.

    The minima are cached per key and checked against
    :attr:`LandmarkIndex.version`, so one refresh per key per *flush*
    amortizes over every per-edge consult in that flush.  Membership gains
    merge in O(|lm|); losses invalidate the key (the departed member may
    have been the minimum).
    """

    def __init__(
        self, lm: LandmarkIndex, members_of: Dict[Node, set]
    ) -> None:
        self._lm = lm
        self._eligible = members_of
        # key -> (lm.version, {lm: min d(member, lm)}, {lm: min d(lm, member)})
        self._cache: Dict[Node, Tuple[int, Dict[Node, float], Dict[Node, float]]] = {}
        # Full O(|members| * |lm|) cache refreshes performed — the
        # quantity the substrate-level (predicate, lm-version) keying
        # amortizes across same-predicate queries.
        self.refreshes = 0

    def _entry(
        self, layer: Node
    ) -> Tuple[int, Dict[Node, float], Dict[Node, float]]:
        version = self._lm.version
        cached = self._cache.get(layer)
        if cached is not None and cached[0] == version:
            return cached
        self.refreshes += 1
        members = self._eligible[layer]
        to_lm: Dict[Node, float] = {}
        from_lm: Dict[Node, float] = {}
        for lm, fwd in self._lm._fwd.items():
            bwd = self._lm._bwd[lm]
            best_to: float = INF
            best_from: float = INF
            for v in members:
                d = bwd.dist(v)
                if d < best_to:
                    best_to = d
                d = fwd.dist(v)
                if d < best_from:
                    best_from = d
            to_lm[lm] = best_to
            from_lm[lm] = best_from
        entry = (version, to_lm, from_lm)
        self._cache[layer] = entry
        return entry

    def note_gained(self, layer: Node, v: Node) -> None:
        """``v`` joined ``eligible[layer]``: O(|lm|) min-merge if cached."""
        cached = self._cache.get(layer)
        if cached is None or cached[0] != self._lm.version:
            return  # next consult refreshes anyway
        _, to_lm, from_lm = cached
        for lm, fwd in self._lm._fwd.items():
            d = self._lm._bwd[lm].dist(v)
            if d < to_lm.get(lm, INF):
                to_lm[lm] = d
            d = fwd.dist(v)
            if d < from_lm.get(lm, INF):
                from_lm[lm] = d

    def note_lost(self, layer: Node, v: Node) -> None:
        """``v`` left the key's member set: its minima may have been tight."""
        self._cache.pop(layer, None)

    def drop(self, layer: Node) -> None:
        """Forget a key entirely (its member set is being unleased)."""
        self._cache.pop(layer, None)

    def reaches_within(
        self, layer: Node, node: Node, radius: Optional[int]
    ) -> bool:
        """Is some member of ``eligible[layer]`` within ``radius``
        possibly-empty hops *of* ``node`` (member -> node)?"""
        if node in self._eligible[layer]:
            return True
        _, to_lm, _ = self._entry(layer)
        for lm, fwd in self._lm._fwd.items():
            t = to_lm[lm]
            if radius is not None and t > radius:
                continue
            total = t + fwd.dist(node)
            if total != INF and (radius is None or total <= radius):
                return True
        return False

    def reached_within(
        self, layer: Node, node: Node, radius: Optional[int]
    ) -> bool:
        """Does ``node`` reach some member of ``eligible[layer]`` within
        ``radius`` possibly-empty hops (node -> member)?"""
        if node in self._eligible[layer]:
            return True
        _, _, from_lm = self._entry(layer)
        for lm in self._lm._fwd:
            f = from_lm[lm]
            if radius is not None and f > radius:
                continue
            total = self._lm._bwd[lm].dist(node) + f
            if total != INF and (radius is None or total <= radius):
                return True
        return False
