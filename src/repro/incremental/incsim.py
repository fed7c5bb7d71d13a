"""Incremental graph simulation (paper Section 5).

:class:`SimulationIndex` maintains the maximum simulation of a normal
pattern in a data graph under edge updates, together with the auxiliary
structures of the paper — ``match()``, ``candt()``, and per-(pattern-edge,
node) support counters (the "local information": how many children of a
candidate currently match the target pattern node).

Public entry points and the paper's algorithms they run:

- ``apply_batch``  — **IncMatch** (batch updates): the ``minDelta``
  reduction cancels same-edge updates, all edits reach the counters at
  once, then one demotion cascade and one promotion pass run;
- ``delete_edge``  — **IncMatch-**: IncMatch on a one-deletion batch
  (a zeroed support counter demotes; demotions cascade to parents);
- ``insert_edge``  — **IncMatch+**: IncMatch on a one-insertion batch
  (the worklist plays ``propCS``, complete for DAG patterns —
  **IncMatch+dag** — and a bottom-up pass over the pattern condensation
  performs the coinductive ``propCC`` refinement of Fig. 9);
- ``apply_batch_naive`` — **IncMatch_n**, the paper's naive baseline that
  feeds unit updates one at a time;
- ``add_node`` / ``update_node_attrs`` — node events: eligibility gained
  or lost per pattern node, repaired by ``apply_eligibility_flip_batch``.

Every entry point shares one repair core: ``_repair`` for edges (which a
pool calls through ``repair_deleted_edges`` / ``repair_inserted_edges``
on a graph it edited itself) and ``apply_eligibility_flip_batch`` for
node events.

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
from .types import Update, edit_edges, net_edges, net_updates

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

    def aff_size(self) -> int:
        return self.promotions + self.demotions + self.counter_updates


def eligibility_flips(
    index, v: Node
) -> Tuple[List[PatternNode], List[PatternNode]]:
    """The pattern nodes ``v`` must be adopted into and withdrawn from.

    ``index`` is a :class:`SimulationIndex` or a bounded index.  With
    private eligible sets, ``v``'s predicates are evaluated here and the
    sets updated; leased sets are kept current by the pool's substrate.
    """
    attrs = index.graph.attrs(v) if index._eligibility is None else None
    gained: List[PatternNode] = []
    lost: List[PatternNode] = []
    for u in index.pattern.nodes():
        members = index.eligible[u]
        if attrs is not None:
            if index.pattern.predicate(u).satisfied_by(attrs):
                members.add(v)
            else:
                members.discard(v)
        if v in members:
            if not index._adopted(u, v):
                gained.append(u)
        elif index._adopted(u, v):
            lost.append(u)
    return gained, lost


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
        # Nodes whose eligibility has been read; an inserted edge's
        # endpoint outside this set is adopted before repair.
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
    # Node events: IncMatch on a one-node batch
    # ------------------------------------------------------------------
    def add_node(self, v: Node, **attrs) -> None:
        """Add ``v`` (or merge ``attrs`` into it) and repair the match.

        The node's eligibility is re-read — from its predicates on
        private sets, from the leased sets otherwise — and every gained
        or lost pattern node goes through
        :meth:`apply_eligibility_flip_batch`.
        """
        self.graph.add_node(v, **attrs)
        self.apply_eligibility_flip_batch([(v, *eligibility_flips(self, v))])

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
        self.add_node(v, **attrs)

    def _adopted(self, u: PatternNode, v: Node) -> bool:
        """Has this index wired ``v`` into layer ``u``'s bookkeeping?

        With private sets adoption coincides with eligibility membership
        until a node event updates the sets; with shared sets a member
        may predate this index's sight of it.
        """
        return v in self.match[u] or v in self.candt[u]

    def _adopt(
        self, adoptions: List[Tuple[Node, List[PatternNode]]]
    ) -> Tuple[List[Tuple[PatternNode, Node]], bool]:
        """Wire newly eligible ``(node, layers)`` into candt and promote
        the supported ones.

        Counters for **every** adopted pair are computed before any
        promotion runs: a promotion bumps the counter of each eligible
        parent, which may itself be adopted here.  Returns the closing
        promotion pass's input — the candidate parents of promoted nodes,
        and whether an adopted node with neighbours may close a
        coinductive SCC cycle.
        """
        for v, layers in adoptions:
            for u in layers:
                self.candt[u].add(v)
                for u2 in self.pattern.children(u):
                    target = self.match[u2]
                    self._cnt[(u, u2, v)] = sum(
                        1 for w in self.graph.children(v) if w in target
                    )
        seeds: List[Tuple[PatternNode, Node]] = []
        sweep = False
        for v, layers in adoptions:
            for u in layers:
                if v in self.candt[u] and all(
                    self._cnt[(u, u2, v)] >= 1
                    for u2 in self.pattern.children(u)
                ):
                    self._promote_node(u, v)
                    seeds.extend(
                        (u0, p)
                        for u0 in self.pattern.parents(u)
                        for p in self.graph.parents(v)
                        if p in self.candt[u0]
                    )
            if self._has_cycles and (
                self.graph.parents(v) or self.graph.children(v)
            ):
                sweep = True
        return seeds, sweep

    def apply_eligibility_flip_batch(
        self,
        events: List[Tuple[Node, List[PatternNode], List[PatternNode]]],
    ) -> None:
        """Repair after eligibility flipped for a batch of node events
        (one ``(node, gained layers, lost layers)`` triple per event; the
        eligible sets are already final).

        Gains are adopted first (:meth:`_adopt`), because a demotion
        cascade reaching a gained node through a graph cycle reads its
        support counters.  Then all losses are withdrawn into one
        demotion cascade, and one promotion pass closes.  Demotions never
        enable a promotion, so this reaches the same fixpoint as a
        lost-then-gained order.  No predicate is evaluated here.
        """
        adoptions: List[Tuple[Node, List[PatternNode]]] = []
        for v, gained, _lost in events:
            self._registered.add(v)
            adopt = [u for u in gained if not self._adopted(u, v)]
            if adopt:
                adoptions.append((v, adopt))
        seeds, sweep = self._adopt(adoptions)
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for v, _gained, lost in events:
            for u in lost:
                if self._adopted(u, v):
                    self._withdraw(u, v, queue)
        self._demote_cascade(queue)
        self._promote_pass(seeds, sweep)

    def retire_node(self, v: Node) -> None:
        """Forcibly drop ``v`` from every eligible set (with cascades).

        Used by the bounded-simulation layer to retire pair-graph nodes;
        also handy when a node is being deleted from the data graph.  The
        node counts as unregistered until :meth:`add_node` brings it back.
        Unavailable on shared eligible sets (they mirror predicate truth,
        which retirement would falsify for every other leaseholder).
        """
        if self._eligibility is not None:
            raise RuntimeError(
                "cannot retire nodes from shared eligible sets"
            )
        lost = [u for u in self.pattern.nodes() if v in self.eligible[u]]
        for u in lost:
            self.eligible[u].remove(v)
        self.apply_eligibility_flip_batch([(v, [], lost)])
        self._registered.discard(v)

    def _withdraw(self, u: PatternNode, v: Node, queue) -> None:
        """Remove ``v`` from ``u``'s candt/match sets (its eligible set is
        already updated), seeding the demote queue with parents that lose
        support."""
        if v in self.match[u]:
            self._demote(u, v, queue)
        self.candt[u].discard(v)
        for u2 in self.pattern.children(u):
            self._cnt.pop((u, u2, v), None)

    # ------------------------------------------------------------------
    # Edge updates: IncMatch-, IncMatch+, IncMatch, IncMatch_n
    # ------------------------------------------------------------------
    def delete_edge(self, v: Node, w: Node) -> bool:
        """IncMatch-: delete data edge (v, w) and repair the match — the
        repair of a one-deletion batch."""
        if not self.graph.remove_edge(v, w):
            return False
        self._repair([(v, w)], [])
        return True

    def insert_edge(self, v: Node, w: Node) -> bool:
        """IncMatch+: insert data edge (v, w) and repair the match — the
        repair of a one-insertion batch."""
        if not self.graph.add_edge(v, w):
            return False
        self._repair([], [(v, w)])
        return True

    def apply_batch(self, updates: Iterable[Update]) -> int:
        """IncMatch: minDelta, then one repair of the net batch; returns
        the number of net edge changes."""
        updates = list(updates)
        deleted, inserted = net_edges(self.graph, updates)
        self.stats.original_updates += len(updates)
        self.stats.reduced_updates += len(deleted) + len(inserted)
        edit_edges(self.graph, deleted, inserted)
        self._repair(deleted, inserted)
        return len(deleted) + len(inserted)

    def apply_batch_naive(self, updates: Iterable[Update]) -> None:
        """IncMatch_n: process unit updates one at a time (the baseline)."""
        for upd in updates:
            if upd.op == "insert":
                self.insert_edge(upd.source, upd.target)
            else:
                self.delete_edge(upd.source, upd.target)

    def repair_deleted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncMatch- for edges already removed from a shared graph."""
        self._repair(list(edges), [])

    def repair_inserted_edges(self, edges: Iterable[Tuple[Node, Node]]) -> None:
        """IncMatch+ for edges already present in a shared graph."""
        self._repair([], list(edges))

    def _repair(
        self,
        deleted: List[Tuple[Node, Node]],
        inserted: List[Tuple[Node, Node]],
    ) -> None:
        """IncMatch for edges already edited in the graph: every counter
        update first, then one demotion cascade, then one promotion pass.

        Endpoints this index has never registered are adopted with
        counters computed against the current graph (all batch edges
        included), so only edges between registered endpoints take the
        per-edge bookkeeping.  The cs and cc-in-SCC touches of that
        bookkeeping are the promotion triggers of Prop. 5.2.
        """
        queue: Deque[Tuple[PatternNode, Node]] = deque()
        for v, w in deleted:
            for u, u2 in self.pattern.edges():
                if v in self.eligible[u] and w in self.match[u2]:
                    key = (u, u2, v)
                    self._cnt[key] -= 1
                    self.stats.counter_updates += 1
                    if self._cnt[key] == 0 and v in self.match[u]:
                        queue.append((u, v))
        seeds: List[Tuple[PatternNode, Node]] = []
        sweep = False
        fresh = dict.fromkeys(
            [n for e in inserted for n in e if n not in self._registered]
        )
        if fresh:
            self._registered.update(fresh)
            adoptions: List[Tuple[Node, List[PatternNode]]] = []
            for n in fresh:
                gained, _lost = eligibility_flips(self, n)
                if gained:
                    adoptions.append((n, gained))
            seeds, sweep = self._adopt(adoptions)
        for v, w in inserted:
            if v in fresh or w in fresh:
                continue
            for u, u2 in self.pattern.edges():
                if v not in self.eligible[u]:
                    continue
                if w in self.match[u2]:
                    self._cnt[(u, u2, v)] += 1
                    self.stats.counter_updates += 1
                    if v in self.candt[u]:
                        seeds.append((u, v))
                elif (
                    w in self.candt[u2]
                    and v in self.candt[u]
                    and (u, u2) in self._scc_edges
                ):
                    sweep = True
        self._demote_cascade(queue)
        self._promote_pass(seeds, sweep)

    def _demote(self, u: PatternNode, v: Node, queue) -> None:
        """Drop ``v`` from ``match(u)``, queueing parents left unsupported."""
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

    def _demote_cascade(self, queue: Deque[Tuple[PatternNode, Node]]) -> None:
        while queue:
            u, v = queue.popleft()
            if v not in self.match[u]:
                continue
            if all(
                self._cnt[(u, u2, v)] >= 1 for u2 in self.pattern.children(u)
            ):
                continue  # support restored meanwhile
            self._demote(u, v, queue)
            self.candt[u].add(v)

    def _promote_pass(
        self, seeds: List[Tuple[PatternNode, Node]], sweep: bool
    ) -> None:
        """The closing promotion pass: propCS from ``seeds`` (complete on
        its own for DAG patterns, IncMatch+dag), or the full propCS +
        propCC sweep when a coinductive SCC promotion may be due."""
        if sweep or (seeds and self._has_cycles):
            self._promote_sweep()
        elif seeds:
            self._promote_worklist(deque(seeds))

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
        """Assert the eligibility/counter/match invariants; raises
        AssertionError.  Private eligible sets must equal predicate truth
        over the registered nodes (leased sets are the substrate's to
        check)."""
        if self._eligibility is None:
            for u in self.pattern.nodes():
                pred = self.pattern.predicate(u)
                truth = {
                    v
                    for v in self.graph.nodes()
                    if v in self._registered
                    and pred.satisfied_by(self.graph.attrs(v))
                }
                assert self.eligible[u] == truth, (
                    f"eligibility drift at {u}: {self.eligible[u] ^ truth}"
                )
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
