"""Incremental graph simulation (paper Section 5).

:class:`SimulationIndex` maintains the maximum simulation of a normal
pattern in a data graph under edge updates, together with the auxiliary
structures of the paper — ``match()``, ``candt()``, and per-(pattern-edge,
node) support counters (the "local information": how many children of a
candidate currently match the target pattern node).

Algorithms implemented on top of the counters:

- ``delete_edge``  — **IncMatch-** (unit deletion, general patterns,
  O(|AFF|)): deleting an ss edge may zero a support counter; demotions
  cascade to graph parents.
- ``insert_edge``  — **IncMatch+dag** (worklist promotion, complete for DAG
  patterns) and **IncMatch+** (general patterns: the worklist plays
  ``propCS``, and a bottom-up pass over the pattern condensation performs
  the coinductive ``propCC`` refinement of Fig. 9).
- ``apply_batch``  — **IncMatch** (batch updates): the ``minDelta``
  reduction cancels and drops irrelevant updates, all edits are applied to
  the counters at once, then one demotion cascade and one promotion pass
  run.
- ``apply_batch_naive`` — **IncMatch_n**, the paper's naive baseline that
  feeds unit updates one at a time.

The central invariant (checked by the test suite): a predicate-eligible
node is in ``match(u)`` iff every outgoing pattern edge has support
``>= 1``; candidates always have some zero counter.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.scc import condensation, strongly_connected_components
from ..patterns.pattern import Pattern, PatternError, PatternNode
from ..matching.relation import MatchRelation, copy_relation, totalize
from ..matching.simulation import candidate_sets, maximum_simulation
from .delta import DeltaLog
from .types import Update, net_updates

PatternEdge = Tuple[PatternNode, PatternNode]
CntKey = Tuple[PatternNode, PatternNode, Node]


class IncStats:
    """Work counters: |AFF| proxies and minDelta effectiveness."""

    __slots__ = (
        "promotions",
        "demotions",
        "counter_updates",
        "candidates_examined",
        "original_updates",
        "reduced_updates",
        "skipped_updates",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.promotions = 0
        self.demotions = 0
        self.counter_updates = 0
        self.candidates_examined = 0
        self.original_updates = 0
        self.reduced_updates = 0
        self.skipped_updates = 0

    def aff_size(self) -> int:
        return self.promotions + self.demotions + self.counter_updates


class SimulationIndex:
    """Maximum graph simulation maintained under edge updates.

    ``eligibility`` (a pool-level
    :class:`~repro.engine.eligibility.SharedEligibilityIndex`) makes this
    index *lease* its per-pattern-node eligible sets instead of owning
    private copies: ``self.eligible[u]`` becomes the shared member set of
    ``pattern.predicate(u)``, maintained once per pool however many
    queries read it.  A leased index never evaluates predicates or
    mutates the sets itself — the substrate mutates them before the pool
    invokes the repair entry points, and attribute-driven eligibility
    changes arrive through :meth:`apply_eligibility_flip_batch` (already
    resolved to gained/lost pattern nodes) rather than
    :meth:`update_node_attrs`.
    """

    def __init__(
        self, pattern: Pattern, graph: DiGraph, eligibility=None
    ) -> None:
        if not pattern.is_normal():
            raise PatternError(
                "SimulationIndex requires a normal pattern; "
                "use BoundedSimulationIndex for b-patterns"
            )
        self.pattern = pattern
        self.graph = graph
        self._eligibility = eligibility
        self.stats = IncStats()
        self.delta = DeltaLog()
        # Pattern structure is immutable: precompute SCC data once.
        comps = strongly_connected_components(pattern.graph())
        dag, comp_of = condensation(pattern.graph())
        self._components: List[List[PatternNode]] = comps  # sinks first
        self._comp_of: Dict[PatternNode, int] = comp_of
        self._nontrivial: Set[int] = {
            i
            for i, comp in enumerate(comps)
            if len(comp) > 1 or pattern.has_edge(comp[0], comp[0])
        }
        self._has_cycles = bool(self._nontrivial)
        self._scc_edges: Set[PatternEdge] = {
            (u, u2)
            for u, u2 in pattern.edges()
            if comp_of[u] == comp_of[u2]
        }
        self._rebuild()

    # ------------------------------------------------------------------
    # Initialization / batch recomputation
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Batch computation of match/candt and all support counters."""
        if self._eligibility is not None:
            # Shared read-views: one leased set per pattern-node predicate
            # (pattern nodes with equal predicates alias the same object).
            eligible = {
                u: self._eligibility.lease(self.pattern.predicate(u)).members
                for u in self.pattern.nodes()
            }
        else:
            eligible = candidate_sets(self.pattern, self.graph)
        self.eligible: MatchRelation = eligible
        # Nodes whose predicates have been evaluated; registration of a
        # known node is a no-op unless add_node refreshes its attributes.
        self._registered = set(self.graph.nodes())
        self.match: MatchRelation = maximum_simulation(
            self.pattern, self.graph, candidates=copy_relation(eligible)
        )
        self.candt: MatchRelation = {
            u: eligible[u] - self.match[u] for u in eligible
        }
        self._cnt: Dict[CntKey, int] = {}
        for u, u2 in self.pattern.edges():
            target = self.match[u2]
            for v in eligible[u]:
                c = 0
                for w in self.graph.children(v):
                    if w in target:
                        c += 1
                self._cnt[(u, u2, v)] = c
        # The initial relation is state, not change.
        self.delta.clear()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def matches(self) -> MatchRelation:
        """The paper's maximum match: totalized (empty if non-total)."""
        return totalize(copy_relation(self.match))

    def raw_match_sets(self) -> MatchRelation:
        """Per-node maximal sets without the totality convention."""
        return copy_relation(self.match)

    def is_total(self) -> bool:
        """Does every pattern node currently have at least one match?"""
        return all(self.match[u] for u in self.match)

    def pop_match_delta(self) -> Tuple[Set[Tuple[PatternNode, Node]], Set[Tuple[PatternNode, Node]]]:
        """Net ``(added, removed)`` raw match pairs since the last pop.

        Promotions and demotions that cancel within the window leave no
        trace, so the result is exactly ``raw_now - raw_then`` /
        ``raw_then - raw_now``.  Totalization is the caller's concern.
        """
        added, removed = self.delta.pop()
        return set(added), set(removed)

    def support(self, u: PatternNode, u2: PatternNode, v: Node) -> int:
        return self._cnt.get((u, u2, v), 0)

    # ------------------------------------------------------------------
    # Node registration (updates may reference fresh nodes)
    # ------------------------------------------------------------------
    def add_node(self, v: Node, **attrs) -> None:
        """Register a (possibly new) node, re-evaluating its predicates.

        If the node was already wired into the graph and its fresh
        attributes create matches, a full promotion pass propagates them.
        """
        self.graph.add_node(v, **attrs)
        before = self.stats.promotions
        self._registered.discard(v)  # attributes may have changed
        self._register_node(v)
        if self.stats.promotions > before and (
            self.graph.parents(v) or self.graph.children(v)
        ):
            self._promote_sweep()

    def _register_node(self, v: Node) -> bool:
        """Wire a node's eligibility into candt/counters; True iff unseen.

        A standalone index evaluates the node's predicates once; a leased
        one reads membership off the leased sets (the substrate evaluated each
        distinct predicate once for the whole pool) and adopts layers the
        index has not wired yet.
        """
        if v in self._registered:
            return False
        self._registered.add(v)
        if self._eligibility is not None:
            self._adopt_layers(
                v,
                [
                    u
                    for u in self.pattern.nodes()
                    if v in self.eligible[u] and not self._adopted(u, v)
                ],
            )
            return True
        attrs = self.graph.attrs(v)
        for u in self.pattern.nodes():
            if v in self.eligible[u]:
                continue
            if self.pattern.predicate(u).satisfied_by(attrs):
                self.eligible[u].add(v)
                self._adopt_candidate(u, v)
        return True

    def _adopted(self, u: PatternNode, v: Node) -> bool:
        """Has this index wired ``v`` into layer ``u``'s bookkeeping?

        With private sets adoption coincides with eligibility membership;
        with shared sets a member may predate this index's sight of it.
        """
        return v in self.match[u] or v in self.candt[u]

    def _adopt_candidate(self, u: PatternNode, v: Node) -> bool:
        """Add an eligible node to candt, compute its counters, and promote
        it immediately when every obligation is already met (a node
        matching a childless pattern node is a match right away;
        _promote_node also fixes up its parents' counters).  Returns
        whether it was promoted."""
        self.candt[u].add(v)
        supported = True
        for u2 in self.pattern.children(u):
            c = 0
            for w in self.graph.children(v):
                if w in self.match[u2]:
                    c += 1
            self._cnt[(u, u2, v)] = c
            if c == 0:
                supported = False
        if supported:
            self._promote_node(u, v)
        return supported

    def _adopt_layers(self, v: Node, layers: List[PatternNode]) -> bool:
        """Two-phase adoption of ``v`` into several layers at once.

        With shared eligible sets every gained layer's membership is
        already visible, so a promotion during layer A's adoption walks
        parent counters that mention layer B — all counters must exist
        before any promotion runs.  Phase 1 wires candt and counters for
        every layer; phase 2 promotes the supported ones (a promotion's
        counter bumps then land on initialized keys).  Returns whether
        anything was promoted; promotions unlocked *across* the adopted
        layers are the caller's trailing sweep's job, exactly as with
        private sets.
        """
        for u in layers:
            self.candt[u].add(v)
            for u2 in self.pattern.children(u):
                c = 0
                for w in self.graph.children(v):
                    if w in self.match[u2]:
                        c += 1
                self._cnt[(u, u2, v)] = c
        promoted = False
        for u in layers:
            if v in self.candt[u] and all(
                self._cnt[(u, u2, v)] >= 1
                for u2 in self.pattern.children(u)
            ):
                self._promote_node(u, v)
                promoted = True
        return promoted

    def update_node_attrs(self, v: Node, **attrs) -> None:
        """Change ``v``'s attributes and repair the match.

        The paper motivates incremental matching with users who "edit
        [their] profile": a predicate can start or stop holding, so ``v``
        may gain or lose eligibility per pattern node.  Lost eligibility
        forces demotions (with the usual cascade); gained eligibility adds
        a candidate and runs a promotion pass.
        """
        if self._eligibility is not None:
            raise RuntimeError(
                "a shared-eligibility SimulationIndex receives attribute "
                "changes as resolved flips (apply_eligibility_flip_batch), "
                "driven by the pool"
            )
        if v not in self.graph:
            self.add_node(v, **attrs)
            return
        self.graph.add_node(v, **attrs)
        self._registered.add(v)
        node_attrs = self.graph.attrs(v)
        gained = []
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for u in self.pattern.nodes():
            ok = self.pattern.predicate(u).satisfied_by(node_attrs)
            if ok and v not in self.eligible[u]:
                gained.append(u)
            elif not ok and v in self.eligible[u]:
                self._withdraw(u, v, queue)
        self._demote_cascade(queue)
        promoted = False
        for u in gained:
            self.eligible[u].add(v)
            if self._adopt_candidate(u, v):
                promoted = True
        if gained and (promoted or self._has_cycles):
            # New candidacy can unlock further promotions (or coinductive
            # SCC promotions); one sweep settles everything.
            self._promote_sweep()

    def apply_eligibility_flip_batch(
        self,
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]],
    ) -> None:
        """Repair after the substrate flipped eligibility for a whole
        flush's node events at once (one ``(node, gained layers, lost
        layers)`` triple per event; sets already final, flips netted per
        (predicate, node) by the pool).

        Counter wiring must complete for **every** gained (layer, node)
        pair across the batch before any promotion or demotion runs: the
        final shared sets may already contain same-batch gains, and both
        :meth:`_promote_node`'s counter bumps and the demote cascade
        index the counter of any eligible parent.  So the batch runs in
        phases — (1) wire candt and support counters for all gains,
        (2) promote the supported gains, (3) withdraw all losses into one
        demote cascade, (4) one closing promotion sweep.

        Gains are adopted *before* the losses cascade because a demotion
        cascade reaching a gained node through a graph cycle reads the
        shared sets to find its support counters, so they must exist by
        then.  The order is otherwise immaterial: demotions never enable
        a promotion, so the closing sweep reaches the same fixpoint a
        lost-then-gained order does.  The flipped predicates arrive
        already resolved to pattern nodes (by
        :meth:`ContinuousQuery.apply_eligibility_flip_batch`), so no
        predicate is evaluated here.
        """
        adoptions: List[Tuple[Node, List[PatternNode]]] = []
        for v, gained, _lost in events:
            self._registered.add(v)
            adopt = [u for u in gained if not self._adopted(u, v)]
            if adopt:
                for u in adopt:
                    self.candt[u].add(v)
                    for u2 in self.pattern.children(u):
                        c = 0
                        for w in self.graph.children(v):
                            if w in self.match[u2]:
                                c += 1
                        self._cnt[(u, u2, v)] = c
                adoptions.append((v, adopt))
        promoted = False
        for v, adopt in adoptions:
            for u in adopt:
                if v in self.candt[u] and all(
                    self._cnt[(u, u2, v)] >= 1
                    for u2 in self.pattern.children(u)
                ):
                    self._promote_node(u, v)
                    promoted = True
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for v, _gained, lost in events:
            for u in lost:
                if self._adopted(u, v):
                    self._withdraw(u, v, queue, mutate_eligible=False)
        self._demote_cascade(queue)
        if adoptions and (promoted or self._has_cycles):
            self._promote_sweep()

    def retire_node(self, v: Node) -> None:
        """Forcibly drop ``v`` from every eligible set (with cascades).

        Used by the bounded-simulation layer to retire pair-graph nodes;
        also handy when a node is being deleted from the data graph.
        Unavailable on shared eligible sets (they mirror predicate truth,
        which retirement would falsify for every other leaseholder).
        """
        if self._eligibility is not None:
            raise RuntimeError(
                "cannot retire nodes from shared eligible sets"
            )
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for u in self.pattern.nodes():
            if v in self.eligible[u]:
                self._withdraw(u, v, queue)
        self._demote_cascade(queue)

    def _withdraw(
        self, u: PatternNode, v: Node, queue, mutate_eligible: bool = True
    ) -> None:
        """Remove ``v`` from ``u``'s candt/match sets (and, unless the
        eligible set is substrate-owned and already updated, from
        eligible), seeding the demote queue with parents that lose
        support."""
        if v in self.match[u]:
            self.match[u].remove(v)
            self.delta.remove((u, v))
            self.stats.demotions += 1
            for u0 in self.pattern.parents(u):
                for p in self.graph.parents(v):
                    if p in self.eligible[u0]:
                        key = (u0, u, p)
                        self._cnt[key] -= 1
                        self.stats.counter_updates += 1
                        if self._cnt[key] == 0 and p in self.match[u0]:
                            queue.append((u0, p))
        self.candt[u].discard(v)
        if mutate_eligible:
            self.eligible[u].remove(v)
        for u2 in self.pattern.children(u):
            self._cnt.pop((u, u2, v), None)

    # ------------------------------------------------------------------
    # IncMatch-: unit deletion
    # ------------------------------------------------------------------
    def delete_edge(self, v: Node, w: Node) -> bool:
        """Delete data edge (v, w) and repair the match (IncMatch-)."""
        if not self.graph.remove_edge(v, w):
            return False
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for u, u2 in self.pattern.edges():
            if v in self.eligible[u] and w in self.match[u2]:
                key = (u, u2, v)
                self._cnt[key] -= 1
                self.stats.counter_updates += 1
                if self._cnt[key] == 0 and v in self.match[u]:
                    queue.append((u, v))
        self._demote_cascade(queue)
        return True

    def _demote_cascade(self, queue: Deque[Tuple[PatternNode, Node]]) -> None:
        while queue:
            u, v = queue.popleft()
            if v not in self.match[u]:
                continue
            if all(
                self._cnt[(u, u2, v)] >= 1 for u2 in self.pattern.children(u)
            ):
                continue  # support restored meanwhile
            self.match[u].remove(v)
            self.candt[u].add(v)
            self.delta.remove((u, v))
            self.stats.demotions += 1
            for u0 in self.pattern.parents(u):
                for p in self.graph.parents(v):
                    if p in self.eligible[u0]:
                        key = (u0, u, p)
                        self._cnt[key] -= 1
                        self.stats.counter_updates += 1
                        if self._cnt[key] == 0 and p in self.match[u0]:
                            queue.append((u0, p))

    # ------------------------------------------------------------------
    # IncMatch+ / IncMatch+dag: unit insertion
    # ------------------------------------------------------------------
    def insert_edge(self, v: Node, w: Node) -> bool:
        """Insert data edge (v, w) and repair the match (IncMatch+)."""
        self.graph.add_node(v)
        self.graph.add_node(w)
        self._register_node(v)
        self._register_node(w)
        if not self.graph.add_edge(v, w):
            return False
        needs_worklist, needs_scc = self._insert_bookkeeping(v, w)
        if needs_scc or (needs_worklist and self._has_cycles):
            # Cyclic patterns: worklist promotions may unlock coinductive
            # SCC promotions, so run the full propCS+propCC sweep.
            self._promote_sweep()
        elif needs_worklist:
            seeds = [
                (u, v)
                for u, u2 in self.pattern.edges()
                if v in self.candt[u] and w in self.match[u2]
            ]
            self._promote_worklist(deque(seeds))
        return True

    def _insert_bookkeeping(self, v: Node, w: Node) -> Tuple[bool, bool]:
        """Counter updates for a fresh edge; returns (cs touched, cc-in-SCC
        touched) — the triggers of Prop. 5.2."""
        cs_touched = False
        cc_scc_touched = False
        for u, u2 in self.pattern.edges():
            if v in self.eligible[u]:
                if w in self.match[u2]:
                    self._cnt[(u, u2, v)] += 1
                    self.stats.counter_updates += 1
                    if v in self.candt[u]:
                        cs_touched = True
                elif (
                    w in self.candt[u2]
                    and v in self.candt[u]
                    and (u, u2) in self._scc_edges
                ):
                    cc_scc_touched = True
        return cs_touched, cc_scc_touched

    def _promote_node(self, u: PatternNode, v: Node) -> None:
        self.candt[u].remove(v)
        self.match[u].add(v)
        self.delta.add((u, v))
        self.stats.promotions += 1
        for u0 in self.pattern.parents(u):
            for p in self.graph.parents(v):
                if p in self.eligible[u0]:
                    self._cnt[(u0, u, p)] += 1
                    self.stats.counter_updates += 1

    def _promote_worklist(self, queue: Deque[Tuple[PatternNode, Node]]) -> None:
        """propCS: promote candidates supported by current matches; complete
        on its own for DAG patterns (IncMatch+dag)."""
        while queue:
            u, v = queue.popleft()
            if v not in self.candt[u]:
                continue
            self.stats.candidates_examined += 1
            if not all(
                self._cnt[(u, u2, v)] >= 1 for u2 in self.pattern.children(u)
            ):
                continue
            self._promote_node(u, v)
            for u0 in self.pattern.parents(u):
                for p in self.graph.parents(v):
                    if p in self.candt[u0]:
                        queue.append((u0, p))

    def _promote_sweep(self) -> None:
        """propCS + propCC: one bottom-up pass over the pattern condensation.

        Trivial components promote supported candidates directly; nontrivial
        SCCs run a coinductive assume-refine over match U candt, checking
        intra-SCC obligations against the assumed sets and extra-SCC
        obligations against the (already settled) support counters.
        """
        for idx, comp in enumerate(self._components):
            if idx not in self._nontrivial:
                u = comp[0]
                for v in list(self.candt[u]):
                    self.stats.candidates_examined += 1
                    if all(
                        self._cnt[(u, u2, v)] >= 1
                        for u2 in self.pattern.children(u)
                    ):
                        self._promote_node(u, v)
                continue
            comp_set = set(comp)
            assumed: Dict[PatternNode, Set[Node]] = {
                u: self.match[u] | self.candt[u] for u in comp
            }
            changed = True
            while changed:
                changed = False
                for u in comp:
                    drop: List[Node] = []
                    for v in assumed[u]:
                        if v in self.match[u]:
                            continue  # existing matches stay valid
                        self.stats.candidates_examined += 1
                        ok = True
                        for u2 in self.pattern.children(u):
                            if u2 in comp_set:
                                target = assumed[u2]
                                if not any(
                                    c in target
                                    for c in self.graph.children(v)
                                ):
                                    ok = False
                                    break
                            elif self._cnt[(u, u2, v)] < 1:
                                ok = False
                                break
                        if not ok:
                            drop.append(v)
                    if drop:
                        assumed[u].difference_update(drop)
                        changed = True
            for u in comp:
                for v in list(assumed[u]):
                    if v not in self.match[u]:
                        self._promote_node(u, v)

    # ------------------------------------------------------------------
    # IncMatch: batch updates with minDelta
    # ------------------------------------------------------------------
    def min_delta(self, updates: Iterable[Update]) -> List[Update]:
        """The minDelta reduction (Section 5.2) *without* applying anything.

        Cancels same-edge insert/delete pairs against the current graph and
        drops updates that cannot affect the match (not ss for deletions,
        not cs / cc-in-SCC for insertions).  Dropped updates still have to
        be applied to the graph — only their propagation is skipped — so
        this returns the *relevant* sublist; callers use
        :meth:`apply_batch`, which performs both steps.
        """
        net = net_updates(self.graph, updates)
        relevant: List[Update] = []
        for upd in net:
            v, w = upd.edge
            if upd.op == "delete":
                keep = any(
                    v in self.match[u] and w in self.match[u2]
                    for u, u2 in self.pattern.edges()
                )
            else:
                keep = False
                for u, u2 in self.pattern.edges():
                    v_cand = v in self.candt[u] or (
                        v not in self.eligible[u]
                        and v in self.graph
                        and self.pattern.predicate(u).satisfied_by(
                            self.graph.attrs(v)
                        )
                    )
                    if not v_cand:
                        continue
                    if w in self.match[u2]:
                        keep = True
                        break
                    if (u, u2) in self._scc_edges and (
                        w in self.candt[u2]
                        or (
                            w in self.graph
                            and w not in self.eligible[u2]
                            and self.pattern.predicate(u2).satisfied_by(
                                self.graph.attrs(w)
                            )
                        )
                    ):
                        keep = True
                        break
            if keep:
                relevant.append(upd)
        return relevant

    def apply_batch(self, updates: Iterable[Update]) -> None:
        """IncMatch: minDelta + one demotion cascade + one promotion pass."""
        updates = list(updates)
        self.stats.original_updates += len(updates)
        net = net_updates(self.graph, updates)
        self.stats.reduced_updates += len(net)
        demote_queue: Deque[Tuple[PatternNode, Node]] = deque()
        needs_worklist = False
        needs_scc = False
        worklist_seeds: List[Tuple[PatternNode, Node]] = []
        for upd in net:
            v, w = upd.edge
            if upd.op == "insert":
                self.graph.add_node(v)
                self.graph.add_node(w)
                self._register_node(v)
                self._register_node(w)
                self.graph.add_edge(v, w)
                cs, cc_scc = self._insert_bookkeeping(v, w)
                if cs:
                    needs_worklist = True
                    for u, u2 in self.pattern.edges():
                        if v in self.candt[u] and w in self.match[u2]:
                            worklist_seeds.append((u, v))
                if cc_scc:
                    needs_scc = True
            else:
                if not self.graph.remove_edge(v, w):
                    self.stats.skipped_updates += 1
                    continue
                for u, u2 in self.pattern.edges():
                    if v in self.eligible[u] and w in self.match[u2]:
                        key = (u, u2, v)
                        self._cnt[key] -= 1
                        self.stats.counter_updates += 1
                        if self._cnt[key] == 0 and v in self.match[u]:
                            demote_queue.append((u, v))
        self._demote_cascade(demote_queue)
        if needs_scc or (needs_worklist and self._has_cycles):
            self._promote_sweep()
        elif needs_worklist:
            self._promote_worklist(deque(worklist_seeds))

    def apply_batch_naive(self, updates: Iterable[Update]) -> None:
        """IncMatch_n: process unit updates one at a time (the baseline)."""
        for upd in updates:
            if upd.op == "insert":
                self.insert_edge(upd.source, upd.target)
            else:
                self.delete_edge(upd.source, upd.target)

    # ------------------------------------------------------------------
    # Shared-graph repair (MatcherPool plumbing)
    # ------------------------------------------------------------------
    # When several indexes share one DiGraph, the pool mutates the graph
    # exactly once per flush and then asks each routed index to repair
    # itself.  These entry points therefore assume the edits are already
    # in (or out of) the graph, unlike insert_edge/delete_edge/apply_batch
    # which perform the edit themselves.

    def repair_deleted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncMatch- for edges already removed from the shared graph."""
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for v, w in edges:
            for u, u2 in self.pattern.edges():
                if v in self.eligible[u] and w in self.match[u2]:
                    key = (u, u2, v)
                    self._cnt[key] -= 1
                    self.stats.counter_updates += 1
                    if self._cnt[key] == 0 and v in self.match[u]:
                        queue.append((u, v))
        self._demote_cascade(queue)

    def repair_inserted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncMatch+ for edges already present in the shared graph.

        Endpoints the index has never evaluated are registered first;
        their counters are computed against the *current* graph (all batch
        edges included), so explicit bookkeeping is only performed for
        edges whose endpoints were both already registered.
        """
        edges = list(edges)
        fresh: Set[Node] = set()
        reg_promoted: List[Tuple[PatternNode, Node]] = []
        for v, w in edges:
            for node in (v, w):
                if self._register_node(node):
                    fresh.add(node)
                    for u in self.pattern.nodes():
                        if node in self.match[u]:
                            reg_promoted.append((u, node))
        needs_worklist = bool(reg_promoted)
        needs_scc = False
        for v, w in edges:
            if v in fresh or w in fresh:
                continue  # registration already counted this edge
            cs, cc_scc = self._insert_bookkeeping(v, w)
            needs_worklist = needs_worklist or cs
            needs_scc = needs_scc or cc_scc
        if fresh and self._has_cycles:
            # A fresh candidate may complete an intra-SCC cycle through
            # pre-existing edges the unit path never sees.
            needs_scc = True
        if needs_scc or (needs_worklist and self._has_cycles):
            self._promote_sweep()
            return
        if not needs_worklist:
            return
        seeds: Deque[Tuple[PatternNode, Node]] = deque()
        for v, w in edges:
            for u, u2 in self.pattern.edges():
                if v in self.candt[u] and w in self.match[u2]:
                    seeds.append((u, v))
        # Nodes promoted during registration may unlock their parents
        # through edges outside this batch.
        for u, z in reg_promoted:
            for u0 in self.pattern.parents(u):
                for p in self.graph.parents(z):
                    if p in self.candt[u0]:
                        seeds.append((u0, p))
        self._promote_worklist(seeds)

    def release(self) -> None:
        """Release shared-eligibility leases (pool unregister); idempotent.

        A released index must not be driven again — its eligible views
        may be dropped by the substrate once the last lease is gone.
        """
        if self._eligibility is None:
            return
        for u in self.pattern.nodes():
            self._eligibility.release(self.pattern.predicate(u))
        self._eligibility = None

    # ------------------------------------------------------------------
    # Invariant check (used by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the counter/match invariants; raises AssertionError."""
        for u, u2 in self.pattern.edges():
            for v in self.eligible[u]:
                expect = sum(
                    1 for w in self.graph.children(v) if w in self.match[u2]
                )
                actual = self._cnt.get((u, u2, v), 0)
                assert actual == expect, (
                    f"counter drift at ({u}, {u2}, {v}): {actual} != {expect}"
                )
        for u in self.pattern.nodes():
            assert not (self.match[u] & self.candt[u])
            assert self.match[u] | self.candt[u] == self.eligible[u]
            for v in self.match[u]:
                for u2 in self.pattern.children(u):
                    assert self._cnt[(u, u2, v)] >= 1, (
                        f"match ({u}, {v}) has zero support towards {u2}"
                    )
