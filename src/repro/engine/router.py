"""Label/predicate-keyed update routing for the continuous-query pool.

With thousands of standing patterns over one shared graph, handing every
update to every pattern is the naive loop the paper's incremental
algorithms were built to avoid at the single-pattern level.  The router
lifts the same idea to the pool level — the "fixed queries under updates"
regime of Berkholz et al. — by indexing each query's *routing signature*:

- one representative equality atom ``(attribute, value)`` per pattern-node
  predicate (a data node can only satisfy the predicate if its attribute
  tuple contains that item), so an update endpoint's attrs select a sound
  candidate superset via dict lookups;
- queries with a predicate lacking equality atoms (``TRUE`` or
  inequality-only) fall into a wildcard-node bucket;
- bounded queries whose bounds exceed 1 (or ``*``) are **distance-routed**:
  an edge between unlabeled nodes can shorten or break a witness path, so
  endpoint attributes alone are unsound.  Each such query hands the router
  its oracle split into per-pattern-edge *legs* over the shared distance
  substrate (:meth:`~repro.engine.query.ContinuousQuery.routing_legs`),
  and the router inverts them (see the distance stage below) instead of
  asking every query's
  :meth:`~repro.engine.query.ContinuousQuery.can_affect_edge`.  The pool
  announces fresh nodes to the shared ball fields before insertion
  routing, so even trivial-(``TRUE``)-predicate queries are soundly
  distance-routed;
- node events route by predicate **flips**: the eligibility substrate
  evaluates each distinct atom once per batch, and :meth:`route_flips`
  selects exactly the queries whose patterns use a flipped predicate,
  splitting the flips by the ``_by_pred`` buckets so each query receives
  only its own.

Edge routing is therefore two-staged: eq-key candidate lookup confirmed
by endpoint member-set lookups (``touches_edge``), and the distance legs
for distance-routed queries.  The distance stage costs what covers the
edge, not the number of registered queries:

- **field legs** (``bfs``/``matrix`` modes, trivial-predicate landmark
  queries) sit in a table ``src field -> {(tgt field, r): queries}``.  The
  substrate's posting index maps a node to the forward ball fields that
  hold it, so an edge ``(v, w)`` walks only the fields covering ``v`` and,
  per leg with ``d(v) <= r``, checks ``w`` with one ``dist`` lookup in the
  reverse field;
- **oracle legs** (landmark minima, interval reach closures) cannot be
  posted cheaply; they are keyed by what decides them —
  ``(pred_u, pred_u2, r)`` and ``(pred_u, pred_u2)`` — and consulted once
  per distinct key per edge, the verdict fanned out to every query
  holding the key.

:class:`RouterStats` counts both costs: ``leg_probes`` (field-leg checks)
and ``oracle_consults`` (oracle-leg consults).  Queries
that fail every stage do **zero** work for the update.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..incremental.ballsummary import BallField, Postings
from ..incremental.incbsim import FieldLeg, RoutingLeg
from ..patterns.predicate import Predicate
from .eligibility import EventFlip, Flip
from .query import ContinuousQuery, EqKey


class RouterStats:
    """Distance-routing work counters: ``leg_probes`` counts field-leg
    checks made through the posting index, ``oracle_consults`` counts
    oracle-leg consults (one per distinct leg key per routed edge)."""

    __slots__ = ("leg_probes", "oracle_consults")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.leg_probes = 0
        self.oracle_consults = 0

    def __repr__(self) -> str:
        return (
            f"RouterStats(leg_probes={self.leg_probes}, "
            f"oracle_consults={self.oracle_consults})"
        )


class UpdateRouter:
    """Maps updates to the registered queries they can possibly affect."""

    def __init__(self, stats: Optional[RouterStats] = None) -> None:
        self.stats = stats if stats is not None else RouterStats()
        self._queries: Dict[int, ContinuousQuery] = {}
        self._order: Dict[int, int] = {}  # registration order for stable output
        self._next_rank = 0
        self._eq: Dict[EqKey, Set[int]] = {}
        self._wild_node: Set[int] = set()
        # Distance legs: src field -> {(tgt field, r): qids}, walked
        # through the substrate's posting index; and oracle legs, key ->
        # [probe, qids].  _legs remembers what each query registered so
        # unregister can undo it.
        self._postings: Optional[Postings] = None
        self._field_legs: Dict[
            BallField, Dict[Tuple[BallField, Optional[int]], Set[int]]
        ] = {}
        self._oracle_legs: Dict[Any, List[Any]] = {}
        self._legs: Dict[int, List[RoutingLeg]] = {}
        # Queries indexed by interned predicate for flip routing.
        self._by_pred: Dict[Predicate, Set[int]] = {}

    def __len__(self) -> int:
        return len(self._queries)

    def register(self, query: ContinuousQuery) -> None:
        qid = id(query)
        self._queries[qid] = query
        self._order[qid] = self._next_rank
        self._next_rank += 1
        for key in query.eq_keys:
            self._eq.setdefault(key, set()).add(qid)
        for pred in query.predicates:
            # Unsatisfiable conjunctions never flip (the substrate keeps
            # them as empty, upkeep-free sets), so they consume no routing
            # bucket either.
            if not pred.is_unsatisfiable():
                self._by_pred.setdefault(pred, set()).add(qid)
        if query.wildcard_node:
            self._wild_node.add(qid)
        if query.distance_routed:
            legs = query.routing_legs()
            self._legs[qid] = legs
            for leg in legs:
                self._add_leg(qid, leg)

    def _add_leg(self, qid: int, leg: RoutingLeg) -> None:
        if isinstance(leg, FieldLeg):
            postings = leg.src.postings
            if self._postings is None:
                self._postings = postings
            elif postings is not self._postings:
                raise ValueError(
                    "field legs from different distance substrates"
                )
            by_tgt = self._field_legs.setdefault(leg.src, {})
            by_tgt.setdefault((leg.tgt, leg.radius), set()).add(qid)
        else:
            entry = self._oracle_legs.get(leg.key)
            if entry is None:
                self._oracle_legs[leg.key] = [leg.probe, {qid}]
            else:
                entry[1].add(qid)

    def _drop_leg(self, qid: int, leg: RoutingLeg) -> None:
        if isinstance(leg, FieldLeg):
            by_tgt = self._field_legs.get(leg.src)
            if by_tgt is None:
                return
            slot = (leg.tgt, leg.radius)
            qids = by_tgt.get(slot)
            if qids is not None:
                qids.discard(qid)
                if not qids:
                    del by_tgt[slot]
                    if not by_tgt:
                        del self._field_legs[leg.src]
        else:
            entry = self._oracle_legs.get(leg.key)
            if entry is not None:
                entry[1].discard(qid)
                if not entry[1]:
                    del self._oracle_legs[leg.key]

    def unregister(self, query: ContinuousQuery) -> None:
        qid = id(query)
        if qid not in self._queries:
            return
        del self._queries[qid]
        del self._order[qid]
        for key in query.eq_keys:
            bucket = self._eq.get(key)
            if bucket is not None:
                bucket.discard(qid)
                if not bucket:
                    del self._eq[key]
        for pred in query.predicates:
            bucket = self._by_pred.get(pred)
            if bucket is not None:
                bucket.discard(qid)
                if not bucket:
                    del self._by_pred[pred]
        self._wild_node.discard(qid)
        for leg in self._legs.pop(qid, ()):
            self._drop_leg(qid, leg)

    # ------------------------------------------------------------------
    # Candidate selection
    # ------------------------------------------------------------------
    def _node_candidates(self, attrs: Mapping[str, Any]) -> Set[int]:
        out = set(self._wild_node)
        for item in attrs.items():
            try:
                bucket = self._eq.get(item)
            except TypeError:  # unhashable attribute value
                continue
            if bucket:
                out.update(bucket)
        return out

    def _sorted(self, qids) -> List[ContinuousQuery]:
        return [
            self._queries[qid]
            for qid in sorted(qids, key=self._order.__getitem__)
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_edge(
        self,
        v: Any,
        w: Any,
        v_attrs: Mapping[str, Any],
        w_attrs: Mapping[str, Any],
    ) -> List[ContinuousQuery]:
        """Queries an edge update between ``v`` and ``w`` can affect.

        Two stages:

        1. eq-key candidate lookup on both endpoints' attrs, confirmed by
           the endpoint member-set pairing (``touches_edge``) — sound and
           complete for simulation/isomorphism semantics and bound-1
           bounded patterns (an edge only enters their bookkeeping when
           its endpoints can play adjacent pattern nodes);
        2. the distance legs: field legs through the posting index of the
           forward fields covering ``v``, and one consult per oracle-leg
           key.

        The selection equals stage 1 plus ``{q : q.can_affect_edge(v,
        w)}`` over the distance-routed queries.  Callers must time the
        call against the distance structures: pre-edit for deletions,
        post-``observe`` for insertions (see :meth:`MatcherPool.flush`).
        """
        cands = self._node_candidates(v_attrs) & self._node_candidates(w_attrs)
        selected = {
            qid for qid in cands if self._queries[qid].touches_edge(v, w)
        }
        stats = self.stats
        if self._field_legs:
            for src in self._postings.get(v, ()):
                by_tgt = self._field_legs.get(src)
                if by_tgt is None:
                    continue
                dv = src.dist[v]
                stats.leg_probes += len(by_tgt)
                for (tgt, r), qids in by_tgt.items():
                    if r is None:
                        if w in tgt.dist:
                            selected |= qids
                    elif dv <= r:
                        dw = tgt.dist.get(w)
                        if dw is not None and dw <= r:
                            selected |= qids
        if self._oracle_legs:
            stats.oracle_consults += len(self._oracle_legs)
            for probe, qids in self._oracle_legs.values():
                if probe(v, w):
                    selected |= qids
        return self._sorted(selected)

    def route_flips(
        self, flips: Iterable[EventFlip]
    ) -> List[Tuple[ContinuousQuery, Dict[Any, List[Flip]]]]:
        """Queries whose patterns use a flipped predicate, each with only
        the flips of its own predicates.

        ``flips`` are the substrate's net ``(predicate, node, gained)``
        verdicts; every selected query gets them grouped by node, in
        flip order, and the queries come back in registration order.  The
        substrate already evaluated each distinct atom once for the
        batch; this stage is one ``_by_pred`` lookup per flip, so its cost
        scales with the flips and their users, not with pool size.
        """
        by_query: Dict[int, Dict[Any, List[Flip]]] = {}
        by_pred = self._by_pred
        for pred, v, gained in flips:
            qids = by_pred.get(pred)
            if qids:
                for qid in qids:
                    by_query.setdefault(qid, {}).setdefault(v, []).append(
                        (pred, gained)
                    )
        return [
            (self._queries[qid], by_query[qid])
            for qid in sorted(by_query, key=self._order.__getitem__)
        ]
