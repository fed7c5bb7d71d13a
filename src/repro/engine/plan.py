"""Pool-level multi-query plan: shared sub-pattern leg views.

PRs 3, 4, and 6 deduped the pool's *auxiliary* structures (distance
substrate, predicate/atom eligibility), but every registered query still
maintained its own full match relation: two patterns sharing a leg
(``A -2-> B``) each repaired that leg from scratch on every flush.  This
module factors the common *structure* itself — the incremental-view-
maintenance discipline of Berkholz et al.'s "answering queries under
updates" regime applied at the pool level:

- At ``register`` time each pattern is decomposed into **legs** — its
  edges with their endpoint predicates and bound.  Legs are interned by
  canonical fingerprint (:func:`~repro.patterns.minimize.canonical_pattern`)
  into refcount-leased :class:`LegView` objects, so structurally equal
  sub-patterns *inside different registered patterns* resolve to one view.
- Each view owns one incrementally-maintained match relation: an internal
  bounded-simulation :class:`~repro.engine.query.ContinuousQuery` over the
  two-node (or self-loop) leg pattern, repaired through the pool's normal
  routed flush phases exactly once per flush regardless of how many
  queries lease it.  Views export their *pair-relation deltas*
  (:meth:`BoundedSimulationIndex.pop_pair_delta`).
- Each registered pattern becomes a :class:`SharedJoin` (interned by
  whole-pattern fingerprint, so identical queries also collapse): a pair
  graph whose edges are copied — not recomputed — from the leased views'
  relations, with a per-join :class:`~repro.incremental.incsim.SimulationIndex`
  over the layered pattern running the join fixpoint.  By Proposition 6.1
  this is exactly bounded simulation, but the expensive part — the
  within-``b`` distance relation per pattern edge — is maintained once in
  the views; the join consumes their deltas as plain edge updates on its
  pair graph, never running a ball BFS of its own.
- ``unregister`` releases leases; views and joins with zero leaseholders
  are dropped (and the views' eligibility/substrate leases released).

The flush ordering lives in :meth:`MatcherPool.flush`: phases A-D repair
the views alongside ordinary queries (they are router-registered), then
:meth:`SharedPlan.deliver` drains each view's pair delta once and applies
the translated updates to every join that leases it.

Isomorphism queries are not plannable (their semantics is not a per-node
relation join) and silently fall back to the ``plan_scope='per-query'``
path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.traversal import descendants_within
from ..incremental.incbsim import LAYER_ATTR, _layered_pattern
from ..incremental.incsim import SimulationIndex
from ..incremental.types import Update, delete as upd_delete, insert as upd_insert
from ..matching.relation import MatchRelation, totalize
from ..patterns.minimize import CanonicalForm, canonical_pattern
from ..patterns.pattern import Bound, Pattern, PatternError, PatternNode
from ..patterns.predicate import Predicate
from .query import SEMANTICS, ContinuousQuery

# Isomorphism matches are embeddings, not per-node match sets; they have
# no leg-join decomposition, so the pool falls back to plan_scope
# 'per-query' indexes.
PLANNABLE_SEMANTICS = ("simulation", "bounded")

# (added pair edges, removed pair edges) popped from a view's delta log.
PairDelta = Tuple[Set[Tuple[Node, Node]], Set[Tuple[Node, Node]]]

FlipEvent = Tuple[Predicate, Node, bool]  # (predicate, node, gained)


class LegView:
    """One interned leg: a single-edge sub-pattern whose match relation is
    maintained once and shared by every join that leases it.

    The wrapped query is an ordinary bounded ``ContinuousQuery`` (always
    on the pool's shared substrate and eligibility), router-registered so
    the flush phases repair it like any other query — but marked
    ``internal`` so it never emits user-facing deltas.
    """

    __slots__ = ("key", "query", "leases")

    def __init__(self, key: Tuple, query: ContinuousQuery) -> None:
        self.key = key
        self.query = query
        self.leases = 0

    def pair_edges(self) -> Iterable[Tuple[Node, Node]]:
        return self.query.index.pair_edges()

    def pop_pair_delta(self) -> PairDelta:
        return self.query.index.pop_pair_delta()


class SharedJoin:
    """One interned whole-pattern relation, joined from leased leg views.

    Mirrors :class:`BoundedSimulationIndex`'s pair-graph construction, but
    the pair edges are *copied* from the views (and thereafter patched
    from their deltas) rather than recomputed by ball BFS.  The inner
    simulation index runs on private eligible sets — they are the
    adopted pair nodes, which retirement must be able to drop.
    """

    def __init__(
        self, plan: "SharedPlan", canon: CanonicalForm, distance_mode: str
    ) -> None:
        self._plan = plan
        self.key = canon.key
        self.pattern = canon.pattern  # canonical, on nodes 0..n-1
        self.leases = 0
        self.consumers: List["PlanAdapter"] = []
        # Net per-flush match deltas (in canonical (layer, node) pairs),
        # appended once and read by every consumer through its cursor.
        self.history: List[Tuple[Set, Set]] = []

        pool = plan.pool
        self._graph = pool.graph
        # One eligibility lease per canonical pattern node; the leased
        # member sets are live views the substrate keeps current.
        self._elig_preds: List[Predicate] = []
        self.eligible: Dict[PatternNode, Set[Node]] = {}
        self._layers_by_pred: Dict[Predicate, List[PatternNode]] = {}
        for u in self.pattern.nodes():
            pred = self.pattern.predicate(u)
            entry = pool.eligibility.lease(pred)
            self._elig_preds.append(pred)
            self.eligible[u] = entry.members
            self._layers_by_pred.setdefault(pred, []).append(u)
        self._bounds: Dict[Tuple[PatternNode, PatternNode], Bound] = {
            (u, u2): self.pattern.bound(u, u2) for u, u2 in self.pattern.edges()
        }
        # One view lease per pattern edge; duplicate legs share a view.
        self._edge_legs: List[Tuple[PatternNode, PatternNode, LegView]] = []
        for u, u2 in self.pattern.edges():
            view = plan._lease_view(
                self.pattern.predicate(u),
                self.pattern.predicate(u2),
                self.pattern.bound(u, u2),
                u == u2,
                distance_mode,
            )
            self._edge_legs.append((u, u2, view))
        # Pair graph seeded from current eligibility and view relations.
        # A view pair edge carries no layer information of its own — the
        # pattern edge it is leased for supplies the (u, u2) orientation.
        self._pair_graph = DiGraph()
        for u, members in self.eligible.items():
            for v in members:
                self._pair_graph.add_node((u, v), **{LAYER_ATTR: u})
        for u, u2, view in self._edge_legs:
            for (_, a), (_, c) in view.pair_edges():
                self._pair_graph.add_edge((u, a), (u2, c))
        self._inner = SimulationIndex(_layered_pattern(self.pattern), self._pair_graph)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def stats(self):
        return self._inner.stats

    def raw_match_sets(self) -> MatchRelation:
        raw = self._inner.raw_match_sets()
        return {u: {v for (_, v) in pairs} for u, pairs in raw.items()}

    def is_total(self) -> bool:
        return self._inner.is_total()

    def uses_predicate(self, pred: Predicate) -> bool:
        return pred in self._layers_by_pred

    # ------------------------------------------------------------------
    # Per-flush repair
    # ------------------------------------------------------------------
    def _adopted(self, u: PatternNode, v: Node) -> bool:
        return (u, v) in self._inner.eligible[u]

    def apply_changes(
        self,
        flip_events: Iterable[FlipEvent],
        view_deltas: Dict[Tuple, PairDelta],
    ) -> Tuple[bool, int]:
        """Patch the pair graph from eligibility flips and view deltas.

        Returns ``(changed, num_pair_updates)``.  Ordering mirrors
        :meth:`BoundedSimulationIndex.apply_eligibility_flip_batch`: gains
        are adopted first (so view-delta insertions incident to them
        land on registered pair nodes), then all translated view deltas
        apply as one netted batch, then losses retire — by which point
        the views (which share the same eligible member sets) have
        already deleted every pair edge incident to a lost node.
        """
        gained: List[Tuple[PatternNode, Node]] = []
        lost: List[Tuple[PatternNode, Node]] = []
        for pred, v, is_gain in flip_events:
            for u in self._layers_by_pred.get(pred, ()):
                if is_gain:
                    if not self._adopted(u, v):
                        gained.append((u, v))
                elif self._adopted(u, v):
                    lost.append((u, v))
        for u, v in gained:
            self._inner.add_node((u, v), **{LAYER_ATTR: u})
        updates: List[Update] = []
        for u, u2, view in self._edge_legs:
            delta = view_deltas.get(view.key)
            if delta is None:
                continue
            added, removed = delta
            for (_, a), (_, c) in removed:
                updates.append(upd_delete((u, a), (u2, c)))
            for (_, a), (_, c) in added:
                updates.append(upd_insert((u, a), (u2, c)))
        if updates:
            self._inner.apply_batch(updates)
        for u, v in lost:
            self._inner.retire_node((u, v))
        if not (gained or lost or updates):
            return False, 0
        added_pairs, removed_pairs = self._inner.pop_match_delta()
        delta = (
            {(u, v) for (_, (u, v)) in added_pairs},
            {(u, v) for (_, (u, v)) in removed_pairs},
        )
        if delta[0] or delta[1]:
            self.history.append(delta)
        return True, len(updates)

    def compact_history(self) -> None:
        """Drop history every consumer has already read."""
        if self.history and all(
            adapter.cursor >= len(self.history) for adapter in self.consumers
        ):
            self.history.clear()
            for adapter in self.consumers:
                adapter.cursor = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def release_structures(self) -> None:
        pool = self._plan.pool
        for pred in self._elig_preds:
            pool.eligibility.release(pred)
        for _u, _u2, view in self._edge_legs:
            self._plan._release_view(view)

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """The joined pair graph must mirror true bounded distances —
        the same ground truth :meth:`BoundedSimulationIndex.check_invariants`
        demands, reached here through the views."""
        self._inner.check_invariants()
        for (u, u2), bound in self._bounds.items():
            for a in self.eligible[u]:
                ball = descendants_within(self._graph, a, bound)
                expected = {
                    c
                    for c, d in ball.items()
                    if c in self.eligible[u2] and (bound is None or d <= bound)
                }
                actual = {
                    c
                    for (layer, c) in self._pair_graph.children((u, a))
                    if layer == u2
                }
                assert actual == expected, (
                    f"join pair drift at edge ({u}, {u2}), node {a}: "
                    f"{actual ^ expected}"
                )


class PlanAdapter:
    """The ``index`` facade a planned query carries: reads its leased
    :class:`SharedJoin` through the original pattern's canonical renaming.

    Exposes the slice of the :class:`BoundedSimulationIndex` interface the
    engine consumes (match sets, deltas, totality, result graph, stats,
    invariants) — so :class:`~repro.engine.query.ContinuousQuery`'s delta
    emission and the CLI/bench plumbing work unchanged.
    """

    __slots__ = ("_plan", "join", "_renaming", "_originals", "cursor", "query", "_released")

    def __init__(
        self,
        plan: "SharedPlan",
        join: SharedJoin,
        renaming: Dict[PatternNode, int],
    ) -> None:
        self._plan = plan
        self.join = join
        self._renaming = dict(renaming)
        self._originals: Dict[int, List[PatternNode]] = {}
        for orig, idx in self._renaming.items():
            self._originals.setdefault(idx, []).append(orig)
        self.cursor = len(join.history)
        self.query: Optional[ContinuousQuery] = None
        self._released = False

    @property
    def stats(self):
        return self.join.stats

    def raw_match_sets(self) -> MatchRelation:
        raw = self.join.raw_match_sets()
        return {orig: set(raw[idx]) for orig, idx in self._renaming.items()}

    def matches(self) -> MatchRelation:
        return totalize(self.raw_match_sets())

    def is_total(self) -> bool:
        return self.join.is_total()

    def pop_match_delta(self) -> Tuple[Set, Set]:
        """Net the join's history entries since this consumer's cursor,
        translated back to the original pattern's node names (a canonical
        index fans out to every original node minimization merged)."""
        entries = self.join.history[self.cursor :]
        self.cursor = len(self.join.history)
        added_c: Set[Tuple[PatternNode, Node]] = set()
        removed_c: Set[Tuple[PatternNode, Node]] = set()
        for entry_added, entry_removed in entries:
            # Within one entry added/removed are disjoint (the inner index
            # nets them); across entries opposite signs cancel.
            for pair in entry_removed:
                if pair in added_c:
                    added_c.discard(pair)
                else:
                    removed_c.add(pair)
            for pair in entry_added:
                if pair in removed_c:
                    removed_c.discard(pair)
                else:
                    added_c.add(pair)
        added = {
            (orig, v)
            for (idx, v) in added_c
            for orig in self._originals.get(idx, ())
        }
        removed = {
            (orig, v)
            for (idx, v) in removed_c
            for orig in self._originals.get(idx, ())
        }
        return added, removed

    def result_graph(self) -> DiGraph:
        """The paper's unique maximum result graph (empty if non-total),
        assembled from the join's pair graph like
        :meth:`BoundedSimulationIndex.result_graph`."""
        raw = self.join.raw_match_sets()
        result = DiGraph()
        if not raw or not all(raw.values()):
            return result
        graph = self.join._graph
        for vs in raw.values():
            for v in vs:
                result.add_node(v, **dict(graph.attrs(v)))
        for (u, a), (u2, c) in self.join._pair_graph.edges():
            if a in raw.get(u, ()) and c in raw.get(u2, ()):
                result.add_edge(a, c)
        return result

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._plan._release_join(self)

    def check_invariants(self) -> None:
        self.join.check_invariants()


class PlannedQuery(ContinuousQuery):
    """A registered query rewritten against the pool's shared plan.

    Its ``index`` is a :class:`PlanAdapter` over an interned
    :class:`SharedJoin`; it is *not* router-registered — the plan delivers
    all of its changes after the views are repaired.  Delta emission,
    feeds, and result access inherit from :class:`ContinuousQuery`.
    """

    planned = True

    def __init__(
        self,
        name: str,
        pattern: Pattern,
        graph: DiGraph,
        semantics: str,
        adapter: PlanAdapter,
    ) -> None:
        self._adapter = adapter
        super().__init__(name, pattern, graph, semantics=semantics)

    def _build_index(
        self, pattern, graph, semantics, distance_mode, max_embeddings,
        substrate, eligibility,
    ):
        return self._adapter

    def result_graph(self) -> DiGraph:
        return self._adapter.result_graph()


class SharedPlan:
    """The pool's multi-query plan: interned leg views and pattern joins.

    Owned by :class:`~repro.engine.pool.MatcherPool`; queries registered
    with ``plan_scope='shared'`` (and a plannable semantics) are built
    through :meth:`build_query` instead of carrying their own index.
    """

    def __init__(self, pool) -> None:
        self.pool = pool
        self._views: Dict[Tuple, LegView] = {}
        self._joins: Dict[Tuple, SharedJoin] = {}
        self._view_counter = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def plannable(semantics: str) -> bool:
        return semantics in PLANNABLE_SEMANTICS

    def active(self) -> bool:
        return bool(self._joins)

    def num_views(self) -> int:
        return len(self._views)

    def num_joins(self) -> int:
        return len(self._joins)

    def num_leases(self) -> int:
        return sum(join.leases for join in self._joins.values())

    def views(self) -> List[ContinuousQuery]:
        """The internal view queries (for flush routing accounting)."""
        return [view.query for view in self._views.values()]

    # ------------------------------------------------------------------
    # Registration / release
    # ------------------------------------------------------------------
    def build_query(
        self,
        name: str,
        pattern: Pattern,
        semantics: str,
        distance_mode: str,
    ) -> PlannedQuery:
        if semantics not in SEMANTICS:
            raise ValueError(
                f"unknown semantics {semantics!r}; expected one of {SEMANTICS}"
            )
        if semantics not in PLANNABLE_SEMANTICS:
            raise ValueError(
                f"semantics {semantics!r} is not plannable; "
                f"expected one of {PLANNABLE_SEMANTICS}"
            )
        if semantics == "simulation" and not pattern.is_normal():
            raise PatternError(
                "simulation semantics requires a normal pattern "
                "(all bounds = 1); use semantics='bounded'"
            )
        pattern.validate()
        canon = canonical_pattern(pattern)
        join = self._joins.get(canon.key)
        if join is None:
            join = SharedJoin(self, canon, distance_mode)
            self._joins[canon.key] = join
        join.leases += 1
        adapter = PlanAdapter(self, join, canon.renaming)
        join.consumers.append(adapter)
        query = PlannedQuery(name, pattern, self.pool.graph, semantics, adapter)
        adapter.query = query
        return query

    def _lease_view(
        self,
        src_pred: Predicate,
        tgt_pred: Predicate,
        bound: Bound,
        self_loop: bool,
        distance_mode: str,
    ) -> LegView:
        leg = Pattern()
        if self_loop:
            leg.add_node(0, src_pred)
            leg.add_edge(0, 0, bound)
        else:
            leg.add_node(0, src_pred)
            leg.add_node(1, tgt_pred)
            leg.add_edge(0, 1, bound)
        canon = canonical_pattern(leg)
        view = self._views.get(canon.key)
        if view is None:
            pool = self.pool
            name = f"__leg{self._view_counter}"
            self._view_counter += 1
            # distance_mode is first-wins: the view serves every later
            # leaseholder with whatever mode the first one asked for.
            query = ContinuousQuery(
                name,
                canon.pattern,
                pool.graph,
                semantics="bounded",
                distance_mode=distance_mode,
                substrate=pool.substrate,
                eligibility=pool.eligibility,
                internal=True,
            )
            query.index.enable_pair_delta()
            view = LegView(canon.key, query)
            self._views[canon.key] = view
            pool._attach_view(query)
        view.leases += 1
        return view

    def _release_view(self, view: LegView) -> None:
        view.leases -= 1
        if view.leases == 0:
            del self._views[view.key]
            self.pool._detach_view(view.query)

    def _release_join(self, adapter: PlanAdapter) -> None:
        join = adapter.join
        join.consumers.remove(adapter)
        join.leases -= 1
        if join.leases == 0:
            del self._joins[join.key]
            join.release_structures()
        else:
            join.compact_history()

    # ------------------------------------------------------------------
    # Per-flush delivery
    # ------------------------------------------------------------------
    def deliver(self, flip_events: List[FlipEvent]) -> List[ContinuousQuery]:
        """Drain every view's pair delta once and patch every join.

        Called by the pool at the end of the repair phases (views are
        fully repaired by then).  Returns the planned queries whose join
        changed, so the pool emits their deltas.  View-repair work is
        counted per *view with a nonempty delta* — the quantity the bench
        gate asserts is flat in query count.
        """
        stats = self.pool.stats
        if not self._joins:
            return []
        for join in self._joins.values():
            join.compact_history()
        view_deltas: Dict[Tuple, PairDelta] = {}
        for key, view in self._views.items():
            # Views never emit user deltas; drain their match log too so
            # it cannot grow without bound.
            view.query.index.pop_match_delta()
            added, removed = view.pop_pair_delta()
            if added or removed:
                view_deltas[key] = (added, removed)
        stats.view_repairs += len(view_deltas)
        touched: List[ContinuousQuery] = []
        for join in self._joins.values():
            changed, num_updates = join.apply_changes(flip_events, view_deltas)
            if changed:
                stats.join_repairs += 1
                stats.join_pair_updates += num_updates
                touched.extend(
                    adapter.query
                    for adapter in join.consumers
                    if adapter.query is not None
                )
        return touched
