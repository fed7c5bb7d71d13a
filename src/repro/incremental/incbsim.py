"""Incremental bounded simulation (paper Section 6).

Proposition 6.1 is the load-bearing insight: ``P |>bsim G`` iff ``P``
(read as a normal pattern) simulates the *result graph* over the matches
and candidates.  :class:`BoundedSimulationIndex` therefore maintains a
**pair graph**: one node ``(u, v)`` per pattern node ``u`` and
predicate-eligible data node ``v``, and one edge
``(u, a) -> (u', c)`` per pattern edge ``(u, u')`` whose bound admits a
nonempty path from ``a`` to ``c`` in the data graph.  These edges are
exactly the paper's ss / cs / cc *pairs* (Table III).  An inner
:class:`~repro.incremental.incsim.SimulationIndex` then runs incremental
*simulation* over the pair graph — IncBMatch+/-/batch reduce to pair-level
insertions and deletions fed to IncMatch+/-/batch.

Public entry points and the paper's algorithms they run:

- ``apply_batch`` — **IncBMatch**: balls on the pre-deletion graph, one
  edit of the net batch, one pair-level IncMatch pass;
- ``delete_edge`` / ``insert_edge`` — **IncBMatch-** / **IncBMatch+**:
  IncBMatch on a one-update batch;
- ``apply_batch_naive`` — the unit-at-a-time baseline;
- ``add_node`` / ``update_node_attrs`` — node events: layers gained or
  lost, repaired by ``apply_eligibility_flip_batch``.

Every entry point shares one repair core: ``_repair`` for edges (which a
pool calls through ``prepare_deleted_edges`` / ``repair_deleted_edges``
/ ``repair_inserted_edges`` on a graph it edited itself) and
``apply_eligibility_flip_batch`` for node events.

What remains is distance maintenance: which pairs appear or disappear when
a data edge changes.

- **Insertion** of ``(x, y)``: any pair newly within bound ``k`` has its new
  shortest path through ``(x, y)``, so it decomposes as
  ``d(a, x) + 1 + d(y, c) <= k`` with both legs avoiding ``(x, y)``; the
  legs come from one backward ball around ``x`` and one forward ball around
  ``y`` of radius ``k - 1`` (per distinct bound).
- **Deletion** of ``(x, y)``: a broken pair's old path decomposes the same
  way *on the pre-deletion graph*, so suspects are collected from balls
  computed before the edit and rechecked afterwards (one bounded BFS per
  suspect source, or landmark / matrix distance queries depending on
  ``distance_mode``).

``distance_mode``:

- ``'bfs'``       — rechecks by grouped bounded BFS (default IncBMatch);
- ``'landmark'``  — maintains a :class:`LandmarkIndex` (``IncLM``) and
  answers rechecks from the vectors — the paper's Section 6.3 algorithm;
- ``'matrix'``    — maintains a full all-pairs matrix (min-plus updates on
  insert, rebuild on delete): the ``IncBMatch_m`` baseline of Exp-2, whose
  heavier auxiliary structure is exactly what Fig. 19 measures;
- ``'interval'``  — routes through an SCC-interval reachability oracle
  (:class:`~repro.graphs.reachability.IntervalReachabilityIndex`): the
  routing oracle over-approximates "within bound k" by "reachable", with
  per-(predicate, direction) :class:`ReachClosure` caches making each
  consult an O(1) component-membership test (sublinear in the eligible
  sets); suspect rechecks use exact reachability for ``*`` bounds when
  the labelling is clean and grouped bounded BFS otherwise (a dirty
  labelling never rebuilds just for rechecks — bulk deletion batches
  such as window expiry stay decremental).  Cheapest upkeep of the four —
  the labelling rebuilds lazily under a staleness budget that only ever
  errs toward routing *more* edges (deletions tolerated, insertions
  force a rebuild).

A standalone index owns the distance structures its repairs read (the
landmark index, the matrix, the interval oracle for ``*``-bound
rechecks) and keeps them in sync inside its own update entry points.
When a pool-level :class:`~repro.engine.distances.SharedDistanceSubstrate`
is passed, those structures are **leased** from it instead, and the pool
keeps them in sync once per flush for every leasing query.  Only a
substrate-backed index has a distance-aware routing oracle
(:meth:`can_affect_edge`): shared per-landmark leg minima in ``landmark``
mode (one O(|lm|) early-exit scan per pattern edge), shared reach
closures in ``interval`` mode, and the shared ball fields in ``bfs`` and
``matrix`` modes.  :meth:`routing_legs` exposes the same oracle as
per-pattern-edge legs, which the pool's router inverts instead of
consulting each query.
"""

from __future__ import annotations

from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple, Union,
)

from ..graphs.digraph import DiGraph, Node
from ..graphs.distance import DistanceMatrix
from ..graphs.reachability import IntervalReachabilityIndex, ReachClosure
from ..graphs.traversal import INF, ancestors_within, descendants_within
from ..landmarks.vector import LandmarkIndex
from .ballsummary import BallField
from ..matching.relation import MatchRelation, totalize
from ..matching.simulation import candidate_sets
from ..patterns.pattern import Bound, Pattern, PatternNode
from ..patterns.predicate import Predicate
from .delta import DeltaLog
from .incsim import IncStats, SimulationIndex, eligibility_flips
from .types import (
    Update, delete as upd_delete, edit_edges, insert as upd_insert, net_edges,
    net_updates,
)

PatternEdge = Tuple[PatternNode, PatternNode]
LAYER_ATTR = "__layer__"


class FieldLeg(NamedTuple):
    """One pattern edge routed through shared ball fields: an edge
    ``(x, y)`` can matter iff ``x`` lies within ``radius`` in the forward
    field ``src`` and ``y`` within ``radius`` in the reverse field
    ``tgt`` (``radius=None`` is unbounded)."""

    src: BallField
    tgt: BallField
    radius: Optional[int]


class OracleLeg(NamedTuple):
    """One pattern edge routed by a shared oracle that has no postings
    (landmark minima, reach closures).  Legs with equal ``key`` return
    equal verdicts, so one ``probe(x, y)`` per key serves them all."""

    key: Tuple
    probe: Callable[[Node, Node], bool]


RoutingLeg = Union[FieldLeg, OracleLeg]


def _radius(bound: Bound) -> Optional[int]:
    """Leg radius of a pattern-edge bound: witness paths of length ``k``
    put each endpoint within ``k - 1`` of an anchor."""
    return None if bound is None else bound - 1


def _layered_pattern(pattern: Pattern) -> Pattern:
    """The pattern with predicates replaced by layer-membership tests."""
    layered = Pattern()
    for u in pattern.nodes():
        layered.add_node(u, Predicate.label(u, attribute=LAYER_ATTR))
    for u, u2 in pattern.edges():
        layered.add_edge(u, u2, 1)
    return layered


class BoundedSimulationIndex:
    """Maximum bounded simulation maintained under edge updates."""

    def __init__(
        self,
        pattern: Pattern,
        graph: DiGraph,
        distance_mode: str = "bfs",
        landmark_strategy: str = "matching",
        substrate=None,
        eligibility=None,
    ) -> None:
        if distance_mode not in ("bfs", "landmark", "matrix", "interval"):
            raise ValueError(f"unknown distance_mode {distance_mode!r}")
        self.pattern = pattern
        self.graph = graph
        self.distance_mode = distance_mode
        # A pool-level SharedDistanceSubstrate (engine.distances).  When
        # set, the landmark index / matrix are leased rather than owned,
        # the routing-oracle ball fields are leased per (predicate,
        # radius, direction), and the *pool* keeps every shared structure
        # in sync.
        self.substrate = substrate
        # A pool-level SharedEligibilityIndex (engine.eligibility): the
        # per-pattern-node eligible sets become leased read-views of one
        # shared member set per distinct predicate.  The substrate
        # mutates them; attribute churn arrives as resolved flips
        # (apply_eligibility_flip_batch), never via update_node_attrs.
        self._eligibility = eligibility
        self._bounds: Dict[PatternEdge, Bound] = {
            (u, u2): pattern.bound(u, u2) for u, u2 in pattern.edges()
        }
        if eligibility is not None:
            self.eligible: MatchRelation = {
                u: eligibility.lease(pattern.predicate(u)).members
                for u in pattern.nodes()
            }
        else:
            self.eligible = candidate_sets(pattern, graph)
        self._pair_graph = DiGraph()
        self._build_pair_graph()
        self._inner = SimulationIndex(_layered_pattern(pattern), self._pair_graph)
        # Opt-in pair-edge change log (enable_pair_delta): the plan layer's
        # leg views export their relation deltas through it so downstream
        # joins consume changes instead of re-deriving them.
        self._pair_delta: Optional[DeltaLog] = None
        self._lm: Optional[LandmarkIndex] = None
        self._matrix: Optional[DistanceMatrix] = None
        # Routing oracle: pattern edge -> (src, tgt) leased BallField,
        # plus the exact lease keys so release() returns what was taken.
        self._shared_fields: Optional[Dict[PatternEdge, Tuple[BallField, BallField]]] = None
        self._field_keys: List[Tuple] = []
        # Interval mode: SCC-interval reachability oracle plus one source
        # closure per (predicate, direction).  A substrate-backed index
        # leases both; a standalone one owns only the oracle (built lazily
        # for *-bound rechecks).
        self._reach: Optional[IntervalReachabilityIndex] = None
        self._reach_closures: Optional[
            Dict[PatternEdge, Tuple[ReachClosure, ReachClosure]]
        ] = None
        self._closure_keys: List[Tuple[Predicate, bool]] = []
        # Substrate leg-minima leases (landmark mode): distinct predicates
        # whose shared member minima this index's oracle reads.
        self._minima_keys: List[Predicate] = []
        # A trivial (TRUE) predicate sends landmark-mode routing through
        # the shared ball fields (see _routes_via_shared_fields).
        self.has_trivial_pred = any(
            pattern.predicate(u).is_trivial() for u in pattern.nodes()
        )
        if distance_mode == "landmark":
            if substrate is not None:
                self._lm = substrate.lease_landmarks(strategy=landmark_strategy)
                # The leg minima are hoisted to the substrate, keyed by
                # (predicate, lm-version): same-predicate landmark queries
                # share one minima refresh per flush instead of one per
                # query.  Lease the member sets the oracle will read.
                for u in pattern.nodes():
                    pred = pattern.predicate(u)
                    if pred not in self._minima_keys:
                        self._minima_keys.append(pred)
                        substrate.lease_leg_minima(pred)
            else:
                self._lm = LandmarkIndex(graph, strategy=landmark_strategy)
        elif distance_mode == "matrix":
            if substrate is not None:
                self._matrix = substrate.lease_matrix()
            else:
                self._matrix = DistanceMatrix(graph)
        elif distance_mode == "interval" and substrate is not None:
            # Lease the shared oracle and closures eagerly (build cost
            # belongs to registration); the oracle is also consulted for
            # *-bound suspect rechecks, so lease it even when the bounds
            # alone would not force distance routing.
            self._reach = substrate.lease_reachability()
            closures: Dict[PatternEdge, Tuple[ReachClosure, ReachClosure]] = {}
            for (u, u2) in self._bounds:
                src_key = (pattern.predicate(u), False)
                tgt_key = (pattern.predicate(u2), True)
                closures[(u, u2)] = (
                    substrate.lease_reach_closure(*src_key),
                    substrate.lease_reach_closure(*tgt_key),
                )
                self._closure_keys.extend((src_key, tgt_key))
            self._reach_closures = closures
        # Shared ball fields are leased eagerly when this index's routing
        # oracle will read them (build cost belongs to registration, not
        # to the first flush that happens to consult the oracle).
        if self._routes_via_shared_fields() and self.distance_routed():
            self._ensure_shared_fields()

    # ------------------------------------------------------------------
    # Pair graph construction
    # ------------------------------------------------------------------
    def _build_pair_graph(self) -> None:
        for u, vs in self.eligible.items():
            for v in vs:
                self._pair_graph.add_node((u, v), **{LAYER_ATTR: u})
        for (u, u2), bound in self._bounds.items():
            targets = self.eligible[u2]
            for a in self.eligible[u]:
                ball = descendants_within(self.graph, a, bound)
                for c, d in ball.items():
                    if c in targets and (bound is None or d <= bound):
                        self._pair_graph.add_edge((u, a), (u2, c))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def stats(self) -> IncStats:
        return self._inner.stats

    def matches(self) -> MatchRelation:
        """The maximum bounded-simulation match (totalized)."""
        return totalize(self.raw_match_sets())

    def raw_match_sets(self) -> MatchRelation:
        raw = self._inner.raw_match_sets()
        return {u: {v for (_, v) in raw[u]} for u in raw}

    def is_total(self) -> bool:
        return self._inner.is_total()

    def pop_match_delta(self):
        """Net ``(added, removed)`` raw match pairs since the last pop.

        The inner index works over pair-graph nodes ``(u, v)`` in layer
        ``u``, so its delta translates one-to-one into data-level pairs.
        """
        added, removed = self._inner.pop_match_delta()
        return (
            {(u, v) for (_, (u, v)) in added},
            {(u, v) for (_, (u, v)) in removed},
        )

    def _apply_pair_batch(self, pair_updates: List[Update]) -> None:
        """Feed pair-graph edits to the inner index, logging net changes
        when pair-delta export is enabled.

        Netting against the current pair graph before logging is
        behavior-preserving (the inner index nets internally anyway) and
        keeps the exported delta exact: a pair emitted by two inserted
        edges is reported once.
        """
        if self._pair_delta is None:
            self._inner.apply_batch(pair_updates)
            return
        net = net_updates(self._pair_graph, pair_updates)
        for upd in net:
            if upd.op == "insert":
                self._pair_delta.add((upd.source, upd.target))
            else:
                self._pair_delta.remove((upd.source, upd.target))
        self._inner.apply_batch(net)

    def enable_pair_delta(self) -> None:
        """Start logging net pair-edge changes for :meth:`pop_pair_delta`.

        Consumers (the plan layer's leg views) read the current relation
        wholesale via :meth:`pair_edges` at attach time, then consume
        deltas from the next flush on — so enabling starts the log empty.
        """
        if self._pair_delta is None:
            self._pair_delta = DeltaLog()

    def pop_pair_delta(self) -> Tuple[Set[Tuple], Set[Tuple]]:
        """Net ``(added, removed)`` pair edges ``((u, a), (u2, c))`` since
        the last pop.  Requires :meth:`enable_pair_delta`."""
        if self._pair_delta is None:
            raise RuntimeError("pair-delta export not enabled on this index")
        added, removed = self._pair_delta.pop()
        return set(added), set(removed)

    def pair_edges(self) -> Iterable[Tuple[Tuple, Tuple]]:
        """The current pair relation as ``((u, a), (u2, c))`` edges."""
        return self._pair_graph.edges()

    def candidates(self) -> MatchRelation:
        return {
            u: {v for (_, v) in self._inner.candt[u]}
            for u in self._inner.candt
        }

    def has_pair(self, edge: PatternEdge, a: Node, c: Node) -> bool:
        u, u2 = edge
        return self._pair_graph.has_edge((u, a), (u2, c))

    def result_graph(self) -> DiGraph:
        """The paper's ``Gr``: matched data nodes and their pair edges."""
        raw = self.raw_match_sets()
        gr = DiGraph()
        if not all(raw.values()):
            return gr
        for u, vs in raw.items():
            for v in vs:
                gr.add_node(v, **dict(self.graph.attrs(v)))
        for (u, a), (u2, c) in self._pair_graph.edges():
            if a in raw.get(u, ()) and c in raw.get(u2, ()):
                gr.add_edge(a, c)
        return gr

    def landmark_index(self) -> Optional[LandmarkIndex]:
        return self._lm

    # ------------------------------------------------------------------
    # Node events: IncBMatch on a one-node batch
    # ------------------------------------------------------------------
    def add_node(self, v: Node, **attrs) -> None:
        """Add ``v`` (or merge ``attrs`` into it) and repair the match:
        every gained or lost layer goes through
        :meth:`apply_eligibility_flip_batch`.

        On leased sets this is the pool announcing a node whose edges it
        has already routed and repaired, so gained layers are only
        adopted (as for an edge endpoint).
        """
        self.graph.add_node(v, **attrs)
        if self._eligibility is not None:
            self._register_node(v)
        else:
            self.apply_eligibility_flip_batch(
                [(v, *eligibility_flips(self, v))]
            )

    def update_node_attrs(self, v: Node, **attrs) -> None:
        """Change ``v``'s attributes and repair the match.

        Eligibility per pattern node is re-evaluated: a lost layer retires
        the pair node (its pair edges are deleted with the usual cascade);
        a gained layer materializes the node's pairs in both directions and
        feeds them to the inner incremental simulation.
        """
        if self._eligibility is not None:
            raise RuntimeError(
                "a shared-eligibility BoundedSimulationIndex receives "
                "attribute changes as resolved flips "
                "(apply_eligibility_flip_batch), driven by the pool"
            )
        self.add_node(v, **attrs)

    def _register_node(self, v: Node) -> None:
        """Adopt the layers an edge endpoint has gained; its pairs come
        from the balls around the edges that brought it in."""
        for u in eligibility_flips(self, v)[0]:
            self._adopt(u, v)

    def _adopted(self, u: PatternNode, v: Node) -> bool:
        """Has this index wired ``v`` into layer ``u``'s pair bookkeeping?

        The inner index's eligible set is the marker (pair-graph node
        presence alone would lie after a retire, which leaves the orphaned
        pair node in the graph).  With private sets adoption coincides
        with ``v in self.eligible[u]`` until a node event updates the
        sets; with shared sets a member may predate this index's sight
        of it.
        """
        return (u, v) in self._inner.eligible[u]

    def _adopt(self, u: PatternNode, v: Node) -> None:
        self._inner.add_node((u, v), **{LAYER_ATTR: u})

    def apply_eligibility_flip_batch(
        self,
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]],
    ) -> None:
        """Repair after eligibility flipped for a batch of node events
        (sets already final).  No predicate is evaluated: lost layers
        retire their pair nodes (with the usual pair-edge cascade),
        gained layers materialize their pairs in both directions.

        All losses across the batch retire first (their pair edges in one
        inner batch), then **all** gains adopt before any pair
        materialization — the final sets may pair a gained node with a
        node gained in a *different* event of the batch, and the inner
        index must see both endpoints.  Materialization consults only the
        final sets, so the interleaved per-event order reaches the same
        pair graph.
        """
        events = [
            (
                v,
                [u for u in gained if not self._adopted(u, v)],
                [u for u in lost if self._adopted(u, v)],
            )
            for v, gained, lost in events
        ]
        pair_updates: List[Update] = []
        for v, _gained, lost in events:
            for u in lost:
                pv = (u, v)
                for child in list(self._pair_graph.children(pv)):
                    pair_updates.append(upd_delete(pv, child))
                for parent in list(self._pair_graph.parents(pv)):
                    pair_updates.append(upd_delete(parent, pv))
        if pair_updates:
            self._apply_pair_batch(pair_updates)
        # Retire after the edges are gone so leaf-layer matches drop too.
        for v, _gained, lost in events:
            for u in lost:
                self._inner.retire_node((u, v))
        if not any(gained for _v, gained, _lost in events):
            return
        for v, gained, _lost in events:
            for u in gained:
                self._adopt(u, v)
        inserts: List[Update] = []
        for v, gained, _lost in events:
            for u in gained:
                # Outgoing pairs: targets within bound of v, per edge
                # from u.
                for u2 in self.pattern.children(u):
                    bound = self._bounds[(u, u2)]
                    ball = descendants_within(self.graph, v, bound)
                    for c, d in ball.items():
                        if c in self.eligible[u2] and (
                            bound is None or d <= bound
                        ):
                            inserts.append(upd_insert((u, v), (u2, c)))
                # Incoming pairs: sources reaching v, per edge into u.
                for u0 in self.pattern.parents(u):
                    bound = self._bounds[(u0, u)]
                    ball = ancestors_within(self.graph, v, bound)
                    for a, d in ball.items():
                        if a in self.eligible[u0] and (
                            bound is None or d <= bound
                        ):
                            inserts.append(upd_insert((u0, a), (u, v)))
        if inserts:
            self._apply_pair_batch(inserts)

    # ------------------------------------------------------------------
    # Distance-structure maintenance helpers
    # ------------------------------------------------------------------
    def _distinct_bounds(self) -> Set[Bound]:
        return set(self._bounds.values())

    def _balls_around(
        self, x: Node, y: Node
    ) -> Tuple[Dict[Bound, Dict[Node, int]], Dict[Bound, Dict[Node, int]]]:
        """Backward balls at x and forward balls at y, per distinct bound.

        Radius is ``bound - 1`` (a leg of a path through the edge); the
        anchor itself is included at distance 0.
        """
        bins: Dict[Bound, Dict[Node, int]] = {}
        bouts: Dict[Bound, Dict[Node, int]] = {}
        for bound in self._distinct_bounds():
            radius = _radius(bound)
            bin_ball = dict(ancestors_within(self.graph, x, radius))
            bin_ball[x] = 0
            bout_ball = dict(descendants_within(self.graph, y, radius))
            bout_ball[y] = 0
            bins[bound] = bin_ball
            bouts[bound] = bout_ball
        return bins, bouts

    def _pairs_created_by_insert(
        self,
        bins: Dict[Bound, Dict[Node, int]],
        bouts: Dict[Bound, Dict[Node, int]],
    ) -> List[Update]:
        """Pair insertions unlocked by an inserted data edge — balls
        around it are on the graph that already contains the edge."""
        out: List[Update] = []
        for (u, u2), bound in self._bounds.items():
            bin_ball = bins[bound]
            bout_ball = bouts[bound]
            sources = [a for a in bin_ball if a in self.eligible[u]]
            targets = [c for c in bout_ball if c in self.eligible[u2]]
            if not sources or not targets:
                continue
            for a in sources:
                da = bin_ball[a]
                pa = (u, a)
                for c in targets:
                    if bound is not None and da + 1 + bout_ball[c] > bound:
                        continue
                    pc = (u2, c)
                    if not self._pair_graph.has_edge(pa, pc):
                        out.append(upd_insert(pa, pc))
        return out

    def _collect_suspects(
        self,
        bins: Dict[Bound, Dict[Node, int]],
        bouts: Dict[Bound, Dict[Node, int]],
        suspects: Dict[PatternEdge, Set[Tuple[Node, Node]]],
    ) -> None:
        """Gather pairs whose old witness path may have used a deleted edge.

        ``bins``/``bouts`` were computed on the pre-deletion graph: the old
        path's prefix/suffix around the deleted edge survives in them, so
        every broken pair lands in ``suspects``.
        """
        for (u, u2), bound in self._bounds.items():
            bin_ball = bins[bound]
            bout_ball = bouts[bound]
            bucket = suspects.setdefault((u, u2), set())
            for a in bin_ball:
                if a not in self.eligible[u]:
                    continue
                pa = (u, a)
                if pa not in self._pair_graph:
                    continue
                for layer, c in self._pair_graph.children(pa):
                    if layer == u2 and c in bout_ball:
                        bucket.add((a, c))

    def _recheck_suspects(
        self, suspects: Dict[PatternEdge, Set[Tuple[Node, Node]]]
    ) -> List[Update]:
        """Pair deletions among ``suspects``, rechecked on the current graph.

        With a landmark index / distance matrix each pair is an O(|lm|)
        early-exit query; otherwise suspects are grouped by source so each
        source pays a single bounded BFS regardless of how many deleted
        edges implicated it.  In ``interval`` mode, ``*``-bound pairs ask
        the reachability oracle exactly when its labelling is clean (each
        consult is then near-O(1)); a *dirty* labelling would pay a full
        rebuild just to answer rechecks — ruinous for bulk decremental
        batches such as sliding-window expiry — so dirty oracles route
        ``*``-bound suspects through the grouped BFS too (exact on the
        post-deletion graph) and keep their budgeted lazy-rebuild policy
        intact.  Finite bounds need true distances, so they always take
        the grouped BFS.
        """
        out: List[Update] = []
        if self.distance_mode == "interval":
            reach = self._ensure_reach()
            graph = self.graph
            bounded: Dict[PatternEdge, Set[Tuple[Node, Node]]] = {}
            dirty = reach.dirty
            for (u, u2), pairs in suspects.items():
                bound = self._bounds[(u, u2)]
                if bound is not None or dirty:
                    if pairs:
                        bounded[(u, u2)] = pairs
                    continue
                for a, c in pairs:
                    # Pair semantics need a *nonempty* path: for a != c
                    # reflexive reachability coincides; a self-pair needs
                    # a cycle through a, i.e. a successor that reaches it.
                    if a != c:
                        ok = reach.reachable(a, c)
                    else:
                        ok = a in graph and any(
                            reach.reachable(w, a) for w in graph.children(a)
                        )
                    if not ok:
                        out.append(upd_delete((u, a), (u2, c)))
            suspects = bounded
        elif self._lm is not None or self._matrix is not None:
            for (u, u2), pairs in suspects.items():
                bound = self._bounds[(u, u2)]
                for a, c in pairs:
                    if self._lm is not None:
                        ok = self._lm.within(a, c, bound)
                    else:
                        d = self._matrix.dist(a, c)
                        ok = d != INF and (bound is None or d <= bound)
                    if not ok:
                        out.append(upd_delete((u, a), (u2, c)))
            return out
        by_source: Dict[Node, List[Tuple[PatternNode, PatternNode, Bound, Node]]] = {}
        for (u, u2), pairs in suspects.items():
            bound = self._bounds[(u, u2)]
            for a, c in pairs:
                by_source.setdefault(a, []).append((u, u2, bound, c))
        for a, entries in by_source.items():
            has_star = any(b is None for _, _, b, _ in entries)
            radius: Bound
            if has_star:
                radius = None
            else:
                radius = max(b for _, _, b, _ in entries)
            ball = descendants_within(self.graph, a, radius)
            for u, u2, bound, c in entries:
                d = ball.get(c)
                if d is None or (bound is not None and d > bound):
                    out.append(upd_delete((u, a), (u2, c)))
        return out

    # ------------------------------------------------------------------
    # Edge updates: IncBMatch-, IncBMatch+, IncBMatch
    # ------------------------------------------------------------------
    def insert_edge(self, x: Node, y: Node) -> bool:
        """IncBMatch+: insert data edge (x, y) and repair the match."""
        return self.apply_batch([upd_insert(x, y)]) > 0

    def delete_edge(self, x: Node, y: Node) -> bool:
        """IncBMatch-: delete data edge (x, y) and repair the match."""
        return self.apply_batch([upd_delete(x, y)]) > 0

    def apply_batch(self, updates: Iterable[Update]) -> int:
        """IncBMatch: balls on the pre-deletion graph, one edit of the net
        batch, then one pair-level IncMatch pass (which itself applies
        minDelta at the pair level); returns the number of net edge
        changes."""
        updates = list(updates)
        deleted, inserted = net_edges(self.graph, updates)
        self.stats.original_updates += len(updates)
        self.stats.reduced_updates += len(deleted) + len(inserted)
        prepared = self.prepare_deleted_edges(deleted)
        edit_edges(self.graph, deleted, inserted)
        self._sync_owned_distances(deleted, inserted)
        self._repair(prepared, inserted)
        return len(deleted) + len(inserted)

    def apply_batch_naive(self, updates: Iterable[Update]) -> None:
        """Unit-at-a-time processing (the IncBMatch_n-style baseline)."""
        for u in updates:
            self.apply_batch([u])

    def _sync_owned_distances(self, deleted, inserted) -> None:
        """Bring the distance structures this index owns up to the edited
        graph; leased ones are the pool substrate's to sync."""
        if self.substrate is not None or not (deleted or inserted):
            return
        if self._lm is not None:
            self._lm.apply_batch(inserted=inserted, deleted=deleted)
        if self._matrix is not None:
            if deleted:
                self._matrix.apply_deletions(deleted)
            for x, y in inserted:
                self._matrix.apply_insert(x, y)
        if self._reach is not None:
            if deleted:
                self._reach.notify_edges_deleted(len(deleted))
            if inserted:
                self._reach.notify_edges_inserted(len(inserted))

    # ------------------------------------------------------------------
    # Distance-aware routing oracle (MatcherPool plumbing)
    # ------------------------------------------------------------------
    def distance_routed(self) -> bool:
        """Do the bounds force distance-aware (rather than endpoint) routing?

        Any bound ``> 1`` (or ``*``) lets an edge between unlabeled nodes
        shorten or break a witness path, so endpoint-attribute routing is
        unsound; :meth:`can_affect_edge` is the sound replacement.  Pure
        bound-1 patterns behave like plain simulation and stay
        endpoint-routable.
        """
        return any(b != 1 for b in self._bounds.values())

    def _ensure_reach(self) -> IntervalReachabilityIndex:
        """The interval oracle — leased from the substrate at registration
        or owned by a standalone index (built lazily on first recheck)."""
        if self._reach is None:
            self._reach = IntervalReachabilityIndex(self.graph)
        return self._reach

    def reachability_index(self) -> Optional[IntervalReachabilityIndex]:
        return self._reach

    def _substrate(self):
        """The leased substrate the routing oracle reads; standalone
        indexes have no routing oracle."""
        if self.substrate is None:
            raise RuntimeError(
                "the routing oracle reads a shared distance substrate; "
                "this BoundedSimulationIndex was built without one"
            )
        return self.substrate

    def _routes_via_shared_fields(self) -> bool:
        """Does the routing oracle read the substrate's shared ball fields
        (vs the landmark minima / reach closures)?
        Single predicate for the eager-lease decision and the
        can_affect_edge branch.  Interval mode never does: its closures
        handle trivial predicates soundly (a fresh node is announced to
        the eligibility substrate — hence a closure member — before
        insertion routing)."""
        return (
            self.substrate is not None
            and self.distance_mode != "interval"
            and (self.distance_mode != "landmark" or self.has_trivial_pred)
        )

    def _ensure_shared_fields(
        self,
    ) -> Dict[PatternEdge, Tuple[BallField, BallField]]:
        """Lease the substrate's (src, tgt) ball pair per pattern edge.

        Queries whose pattern edges agree on (predicate, radius,
        direction) end up reading the same field objects — that is the
        pool-level amortization.
        """
        if self._shared_fields is None:
            fields: Dict[PatternEdge, Tuple[BallField, BallField]] = {}
            for (u, u2), bound in self._bounds.items():
                r = _radius(bound)
                src_key = (self.pattern.predicate(u), r, False)
                tgt_key = (self.pattern.predicate(u2), r, True)
                fields[(u, u2)] = (
                    self.substrate.lease_field(*src_key),
                    self.substrate.lease_field(*tgt_key),
                )
                self._field_keys.extend((src_key, tgt_key))
            self._shared_fields = fields
        return self._shared_fields

    def release(self) -> None:
        """Release every substrate lease (pool unregister).

        Idempotent; a released index must not be consulted again through
        the routing oracle.
        """
        if self._eligibility is not None:
            for u in self.pattern.nodes():
                self._eligibility.release(self.pattern.predicate(u))
            self._eligibility = None
        if self.substrate is None:
            return
        if self._lm is not None:
            self.substrate.release_landmarks()
            self._lm = None
        for pred in self._minima_keys:
            self.substrate.release_leg_minima(pred)
        self._minima_keys = []
        if self._matrix is not None:
            self.substrate.release_matrix()
            self._matrix = None
        for key in self._field_keys:
            self.substrate.release_field(*key)
        self._field_keys = []
        self._shared_fields = None
        for key in self._closure_keys:
            self.substrate.release_reach_closure(*key)
        self._closure_keys = []
        if self._reach is not None:
            self.substrate.release_reachability()
            self._reach = None
        self._reach_closures = None
        # Detach so a stray consult on a released index cannot silently
        # re-lease substrate structures nobody will ever release again.
        self.substrate = None

    def routing_legs(self) -> List[RoutingLeg]:
        """:meth:`can_affect_edge` split into one leg per pattern edge
        over the substrate's shared structures, for the pool's inverted
        router: the oracle admits ``(x, y)`` iff some leg does.

        - ``bfs``/``matrix`` modes (and trivial-predicate landmark
          queries) read the shared ball fields: :class:`FieldLeg`;
        - ``landmark`` mode reads the shared leg minima, one verdict per
          ``(pred_u, pred_u2, r)``: :class:`OracleLeg`;
        - ``interval`` mode reads the shared reach closures, keyed by
          (predicate, direction), one verdict per ``(pred_u, pred_u2)``:
          :class:`OracleLeg`.

        Only meaningful for :meth:`distance_routed` indexes.
        """
        substrate = self._substrate()
        pred = self.pattern.predicate
        legs: List[RoutingLeg] = []
        if self.distance_mode == "interval":
            for u, u2 in self._bounds:
                src, tgt = self._reach_closures[(u, u2)]
                legs.append(OracleLeg(
                    ("interval", pred(u), pred(u2)),
                    lambda x, y, s=src, t=tgt: s.contains(x) and t.contains(y),
                ))
        elif self._routes_via_shared_fields():
            fields = self._ensure_shared_fields()
            for edge, bound in self._bounds.items():
                legs.append(FieldLeg(*fields[edge], _radius(bound)))
        else:
            for (u, u2), bound in self._bounds.items():
                r = _radius(bound)

                def probe(x, y, pu=pred(u), pu2=pred(u2), r=r):
                    minima = substrate.leg_minima()
                    return minima.reaches_within(
                        pu, x, r
                    ) and minima.reached_within(pu2, y, r)

                legs.append(OracleLeg(("landmark", pred(u), pred(u2), r), probe))
        return legs

    def can_affect_edge(self, x: Node, y: Node) -> bool:
        """Sound routing oracle: can an edge update between ``x`` and
        ``y`` create or break any pair?

        May err towards ``True``; ``False`` is a proof of irrelevance on
        the distance structure's current state.  The pool consults it
        *before* the edit for deletions (old witness paths decompose over
        pre-deletion distances) and *after* the insertion batch is
        observed (so same-batch edges are already reflected) — mirroring
        the ``prepare_deletions`` two-phase dance.

        Backing store (always the leased substrate's): in ``landmark``
        mode, the shared per-landmark minima over the eligible sets keyed
        by ``(predicate, lm-version)`` make each consult one O(|lm|)
        early-exit scan, and same-predicate queries share one minima
        refresh per flush; ``bfs`` and ``matrix`` modes consult the
        shared ball fields.  Trivial-(TRUE)-predicate queries always go
        through the shared fields: the pool announces fresh nodes to the
        substrate before insertion routing, so a brand-new attribute-less
        node is already a pinned distance-0 source when this oracle runs
        — the one case the eligible-set-based minima cannot anticipate.

        In ``interval`` mode the consult is two O(1) closure-membership
        tests per pattern edge: ``x`` reachable from an eligible source
        and ``y`` reaching an eligible target.  Reachability ignores the
        bounds, so this branch over-approximates the ball oracles for
        finite bounds — still sound (``False`` remains a proof), and the
        tolerated-deletion staleness of the underlying labelling only ever
        widens it.
        """
        substrate = self._substrate()
        if self.distance_mode == "interval":
            closures = self._reach_closures
            for edge in self._bounds:
                src, tgt = closures[edge]
                if src.contains(x) and tgt.contains(y):
                    return True
            return False
        if self._routes_via_shared_fields():
            fields = self._ensure_shared_fields()
            for edge, bound in self._bounds.items():
                r = _radius(bound)
                src, tgt = fields[edge]
                # Stratified consult: the shared field may be capped
                # higher (another lease's stratum); read our own radius.
                if src.within(x, r) and tgt.within(y, r):
                    return True
            return False
        minima = substrate.leg_minima()
        for (u, u2), bound in self._bounds.items():
            r = _radius(bound)
            if minima.reaches_within(
                self.pattern.predicate(u), x, r
            ) and minima.reached_within(self.pattern.predicate(u2), y, r):
                return True
        return False

    # ------------------------------------------------------------------
    # Shared-graph repair (MatcherPool plumbing)
    # ------------------------------------------------------------------
    def prepare_deleted_edges(
        self, edges: Iterable[Tuple[Node, Node]]
    ) -> List[Tuple]:
        """Phase-D prep: balls on the *pre-deletion* graph.

        Must be called before the pool removes the edges; the returned
        token is handed back to :meth:`repair_deleted_edges`.
        """
        return [(x, y, *self._balls_around(x, y)) for x, y in edges]

    def repair_deleted_edges(self, prepared: List[Tuple]) -> None:
        """IncBMatch- for edges already removed from a shared graph (the
        pool syncs the shared distance structures first)."""
        self._repair(prepared, [])

    def repair_inserted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncBMatch+ for edges already present in a shared graph (the
        pool syncs the shared distance structures first)."""
        self._repair([], list(edges))

    def _repair(
        self, prepared: List[Tuple], inserted: List[Tuple[Node, Node]]
    ) -> None:
        """IncBMatch over edges already edited in the graph, with distance
        structures in sync: suspects of the deleted edges (from their
        pre-deletion balls) are rechecked on the current graph, the balls
        around each inserted edge yield the pairs it creates, and all pair
        changes feed the inner index as one batch.

        A suspect is deleted only if no path within bound survives in the
        current graph, and a pair is created only if absent, so no pair
        change of one side undoes one of the other.
        """
        for x, y in inserted:
            self._register_node(x)
            self._register_node(y)
        suspects: Dict[PatternEdge, Set[Tuple[Node, Node]]] = {}
        for _, _, bins, bouts in prepared:
            self._collect_suspects(bins, bouts, suspects)
        pair_updates = self._recheck_suspects(suspects) if suspects else []
        for x, y in inserted:
            pair_updates.extend(
                self._pairs_created_by_insert(*self._balls_around(x, y))
            )
        if pair_updates:
            self._apply_pair_batch(pair_updates)

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Pair graph must mirror true bounded distances; inner invariants
        must hold.  Private eligible sets must equal predicate truth, each
        wired into the inner index as its layer."""
        self._inner.check_invariants()
        if self._eligibility is None:
            for u in self.pattern.nodes():
                pred = self.pattern.predicate(u)
                truth = {
                    v for v in self.graph.nodes()
                    if pred.satisfied_by(self.graph.attrs(v))
                }
                wired = {v for (_, v) in self._inner.eligible[u]}
                assert self.eligible[u] == truth == wired, (
                    f"eligibility drift at {u}: "
                    f"{(self.eligible[u] ^ truth) | (truth ^ wired)}"
                )
        for (u, u2), bound in self._bounds.items():
            for a in self.eligible[u]:
                ball = descendants_within(self.graph, a, bound)
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
                    f"pair drift at edge ({u}, {u2}), node {a}: "
                    f"{actual ^ expected}"
                )
