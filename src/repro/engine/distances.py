"""Pool-level shared distance structures for bounded continuous queries.

Before this module existed, every bounded query in a
:class:`~repro.engine.pool.MatcherPool` owned a private distance structure
(landmark vectors, an all-pairs matrix, or an eligible-ball summary) and
the pool fed **every** net edge update to **every** such query — the
upkeep that distance-aware routing saves at the pair level was paid right
back N times over at the structure level.  This is the "one maintained
auxiliary structure, many queries answered from it" shape of answering
queries under updates (Berkholz et al.): the substrate owns

- at most **one** :class:`~repro.landmarks.vector.LandmarkIndex` per pool
  (``distance_mode='landmark'`` queries all read the same vectors);
- at most **one** :class:`~repro.graphs.distance.DistanceMatrix` per pool
  (``'matrix'`` queries share the rows for suspect rechecks);
- a registry of **stratified**
  :class:`~repro.incremental.ballsummary.BallField` ball unions keyed by
  ``(predicate, direction)`` — one exactly-maintained capped multi-source
  BFS per key, capped at the largest radius any lease wants, answering
  every leased radius ``r <= cap`` via :meth:`BallField.within` (a
  per-radius lease multiset re-caps the field as strata come and go);
  member sets are leased from the pool's
  :class:`~repro.engine.eligibility.SharedEligibilityIndex` (one set per
  distinct predicate, shared with the queries' own candidate views) and
  flip notifications delivered through its listener hooks; the forward
  fields keep a shared posting index ``node -> {fields holding it}``
  (:attr:`SharedDistanceSubstrate.postings`) exact, which the pool's
  router walks to find the fields covering an edge;
- at most **one**
  :class:`~repro.graphs.reachability.IntervalReachabilityIndex` per pool
  (``'interval'`` queries share the SCC-interval labelling) plus a
  registry of :class:`~repro.graphs.reachability.ReachClosure` caches
  keyed by ``(predicate, direction)``, each refreshed at most once per
  flush per labelling version so routing consults are O(1);
- one :class:`~repro.landmarks.vector.EligibleLegMinima` cache keyed by
  **interned predicate** (effectively ``(predicate, lm-version)``) so
  same-predicate landmark queries share one minima refresh per flush
  instead of paying O(|eligible|·|lm|) each.

Every structure is leased with a refcount: registering a bounded query
acquires leases, unregistering releases them, and a structure
whose refcount reaches zero is dropped so the pool stops paying its
upkeep.  The pool syncs the substrate **once per flush phase** — node
events flow through the eligibility index (whose listeners update ball
sources and leg minima), ``observe_deleted`` runs after the shared graph
drops a deletion batch, and ``observe_inserted`` after an insertion batch
lands (and *before* insertion routing, which is what makes routing
trivial-``TRUE``-predicate bounded queries through the shared ball sound:
a brand-new attribute-less node is already a pinned distance-0 source when
the routing oracle is consulted).

When the shared landmark index outgrows its
:class:`~repro.landmarks.selection.LandmarkBudget` (``InsLM`` growth is
monotone), the pool triggers a ``BatchLM`` re-selection at the end of the
flush via :meth:`SharedDistanceSubstrate.enforce_lm_budget`.

The differential fuzz harness pits this substrate, flush for flush,
against standalone indexes that own private distance structures.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..graphs.digraph import DiGraph, Node
from ..graphs.distance import DistanceMatrix
from ..graphs.reachability import IntervalReachabilityIndex, ReachClosure
from ..incremental.ballsummary import BallField, Postings
from ..landmarks.selection import LandmarkBudget
from ..landmarks.vector import EligibleLegMinima, LandmarkIndex
from ..patterns.predicate import Predicate
from .eligibility import SharedEligibilityIndex

# One stratified field per (predicate, direction); radii are lease-tracked.
FieldKey = Tuple[Predicate, bool]
ClosureKey = Tuple[Predicate, bool]


def _effective_cap(radii: Dict[Optional[int], int]) -> Optional[int]:
    """The cap a stratified field needs to serve every leased radius:
    unbounded if any lease is, else the largest finite one."""
    if None in radii:
        return None
    return max(radii)


class SubstrateStats:
    """Upkeep counters: how many structure-level update applications the
    pool paid per flush stream (the quantity sharing amortizes)."""

    __slots__ = (
        "lm_builds",
        "lm_rebuilds",
        "matrix_builds",
        "field_builds",
        "reach_builds",
        "edge_batches",
        "structure_batches",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.lm_builds = 0
        self.lm_rebuilds = 0
        self.matrix_builds = 0
        self.field_builds = 0
        self.reach_builds = 0
        self.edge_batches = 0
        self.structure_batches = 0

    def __repr__(self) -> str:
        return (
            f"SubstrateStats(builds={self.lm_builds}+{self.matrix_builds}"
            f"+{self.field_builds}, edge_batches={self.edge_batches}, "
            f"structure_batches={self.structure_batches})"
        )


class SharedDistanceSubstrate:
    """One maintained distance structure per ``(graph, distance_mode)``,
    leased by all bounded queries of one pool."""

    def __init__(
        self,
        graph: DiGraph,
        eligibility: Optional[SharedEligibilityIndex] = None,
        lm_budget: Optional[LandmarkBudget] = None,
    ) -> None:
        self._graph = graph
        # Member sets come from the pool-wide eligibility substrate (one
        # set per distinct predicate, shared with the queries' candidate
        # views); a standalone substrate builds a private one.
        self._eligibility = (
            eligibility
            if eligibility is not None
            else SharedEligibilityIndex(graph)
        )
        self.lm_budget = lm_budget if lm_budget is not None else LandmarkBudget()
        self.stats = SubstrateStats()
        self._lm: Optional[LandmarkIndex] = None
        self._lm_refs = 0
        self._matrix: Optional[DistanceMatrix] = None
        self._matrix_refs = 0
        # (predicate, reverse) -> [BallField, refcount, listener,
        # radius-lease multiset {radius: count}].  The field's cap is the
        # effective max of the leased radii; leases below the cap read
        # their own stratum via BallField.within.
        self._fields: Dict[FieldKey, List[Any]] = {}
        # Inverted index over the live *forward* fields: node -> the
        # fields whose ball holds it.  The fields keep it exact; the
        # router walks it to find the fields covering an edge's source.
        # Reverse fields need no postings: a target check is one
        # ``dist.get``.
        self.postings: Postings = {}
        # Shared SCC-interval reachability oracle ('interval' mode).
        self._reach: Optional[IntervalReachabilityIndex] = None
        self._reach_refs = 0
        # (predicate, reverse) -> [ReachClosure, refcount, listener].
        self._closures: Dict[ClosureKey, List[Any]] = {}
        # Shared leg minima (landmark-mode routing oracle): one cache
        # entry per (predicate, lm-version), member sets leased from the
        # eligibility index.  predicate -> [refcount, listener token].
        self._minima: Optional[EligibleLegMinima] = None
        self._minima_sets: Dict[Predicate, Set[Node]] = {}
        self._minima_refs: Dict[Predicate, List[Any]] = {}

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def lease_landmarks(self, strategy: str = "matching") -> LandmarkIndex:
        """Acquire the pool-wide landmark index (built on first lease).

        The first lease's ``strategy`` wins; later leases share the same
        vectors regardless (one structure per pool is the whole point).
        """
        if self._lm is None:
            self._lm = LandmarkIndex(self._graph, strategy=strategy)
            self._minima = EligibleLegMinima(self._lm, self._minima_sets)
            self.stats.lm_builds += 1
        self._lm_refs += 1
        return self._lm

    def release_landmarks(self) -> None:
        self._lm_refs -= 1
        if self._lm_refs <= 0:
            self._lm = None
            self._minima = None
            self._lm_refs = 0

    def lease_leg_minima(self, predicate: Predicate) -> None:
        """Acquire the shared leg-minima member set for ``predicate``.

        Landmark-mode bounded queries lease one per distinct pattern-node
        predicate; the minima cache entry is keyed by the predicate and
        checked against the landmark version, so however many
        same-predicate queries consult it, one O(|members|·|lm|) refresh
        per flush serves them all.
        """
        entry = self._minima_refs.get(predicate)
        if entry is not None:
            entry[0] += 1
            return
        eset = self._eligibility.lease(predicate)
        self._minima_sets[predicate] = eset.members
        token = self._eligibility.add_listener(
            predicate,
            lambda v, p=predicate: self._minima_note(p, v, gained=True),
            lambda v, p=predicate: self._minima_note(p, v, gained=False),
        )
        self._minima_refs[predicate] = [1, token]

    def release_leg_minima(self, predicate: Predicate) -> None:
        entry = self._minima_refs.get(predicate)
        if entry is None:
            return
        entry[0] -= 1
        if entry[0] <= 0:
            del self._minima_refs[predicate]
            del self._minima_sets[predicate]
            self._eligibility.remove_listener(predicate, entry[1])
            self._eligibility.release(predicate)
            if self._minima is not None:
                self._minima.drop(predicate)

    def _minima_note(self, predicate: Predicate, v: Node, gained: bool) -> None:
        if self._minima is None:
            return
        if gained:
            self._minima.note_gained(predicate, v)
        else:
            self._minima.note_lost(predicate, v)

    def leg_minima(self) -> Optional[EligibleLegMinima]:
        """The shared (predicate, lm-version)-keyed leg-minima cache."""
        return self._minima

    def lease_matrix(self) -> DistanceMatrix:
        """Acquire the pool-wide all-pairs matrix (built on first lease)."""
        if self._matrix is None:
            self._matrix = DistanceMatrix(self._graph)
            self.stats.matrix_builds += 1
        self._matrix_refs += 1
        return self._matrix

    def release_matrix(self) -> None:
        self._matrix_refs -= 1
        if self._matrix_refs <= 0:
            self._matrix = None
            self._matrix_refs = 0

    def lease_field(
        self, predicate: Predicate, radius: Optional[int], reverse: bool
    ) -> BallField:
        """Acquire the shared stratified ball union for ``(predicate,
        direction)`` at stratum ``radius``.

        One field per (predicate, direction) serves **every** leased
        radius: the field is capped at the effective max of the live
        radius leases (``None`` = unbounded dominating), re-capped in
        place as strata come and go, and each lease reads its own stratum
        through :meth:`BallField.within`.

        The field's source set is the eligibility substrate's member set
        for the interned predicate (the same object the queries' own
        candidate views alias), and membership flips reach the field
        through the substrate's listener hooks — each flip updates each
        live field exactly once, however many queries lease it.

        The substrate keeps a zero-ref entry alive (member set mutated in
        place) while our listener remains registered, so the field stays
        exact even if every query lease on the predicate is released and
        re-acquired while the field itself persists; on release we detach
        the listener *before* releasing the lease so the entry can die
        with its last reference.
        """
        key: FieldKey = (predicate, reverse)
        entry = self._fields.get(key)
        if entry is None:
            eset = self._eligibility.lease(predicate)
            field = BallField(
                self._graph,
                eset.members,
                radius,
                reverse,
                postings=None if reverse else self.postings,
            )
            token = self._eligibility.add_listener(
                predicate, field.source_gained, field.source_lost
            )
            entry = [field, 0, token, {radius: 0}]
            self._fields[key] = entry
            self.stats.field_builds += 1
        entry[1] += 1
        radii: Dict[Optional[int], int] = entry[3]
        radii[radius] = radii.get(radius, 0) + 1
        cap = _effective_cap(radii)
        field = entry[0]
        if cap != field.radius:
            field.set_radius(cap)
        return field

    def release_field(
        self, predicate: Predicate, radius: Optional[int], reverse: bool
    ) -> None:
        key: FieldKey = (predicate, reverse)
        entry = self._fields.get(key)
        if entry is None:
            return
        entry[1] -= 1
        radii: Dict[Optional[int], int] = entry[3]
        count = radii.get(radius, 0) - 1
        if count <= 0:
            radii.pop(radius, None)
        else:
            radii[radius] = count
        if entry[1] <= 0:
            del self._fields[key]
            entry[0].detach_postings()
            self._eligibility.remove_listener(predicate, entry[2])
            self._eligibility.release(predicate)
            return
        cap = _effective_cap(radii)
        field = entry[0]
        if cap != field.radius:
            field.set_radius(cap)

    def lease_reachability(self, rebuild_budget: int = 32) -> IntervalReachabilityIndex:
        """Acquire the pool-wide SCC-interval reachability oracle (built on
        first lease; the first lease's budget wins)."""
        if self._reach is None:
            self._reach = IntervalReachabilityIndex(
                self._graph, rebuild_budget=rebuild_budget
            )
            self.stats.reach_builds += 1
        self._reach_refs += 1
        return self._reach

    def release_reachability(self) -> None:
        self._reach_refs -= 1
        if self._reach_refs <= 0:
            self._reach = None
            self._reach_refs = 0

    def lease_reach_closure(
        self, predicate: Predicate, reverse: bool
    ) -> ReachClosure:
        """Acquire the shared source closure for ``(predicate, direction)``.

        The closure caches the condensation components reachable from (or
        reaching) the predicate's eligible members, refreshed at most once
        per labelling version or membership change — however many queries
        lease it, each routing consult is an O(1) membership test.

        Requires a live reachability lease (the caller leases the oracle
        first and releases it last).
        """
        if self._reach is None:
            raise RuntimeError(
                "lease_reach_closure requires a reachability lease"
            )
        key: ClosureKey = (predicate, reverse)
        entry = self._closures.get(key)
        if entry is None:
            eset = self._eligibility.lease(predicate)
            closure = ReachClosure(self._reach, eset.members, reverse)
            token = self._eligibility.add_listener(
                predicate,
                lambda v, c=closure: c.mark_dirty(),
                lambda v, c=closure: c.mark_dirty(),
            )
            entry = [closure, 0, token]
            self._closures[key] = entry
        entry[1] += 1
        return entry[0]

    def release_reach_closure(self, predicate: Predicate, reverse: bool) -> None:
        key: ClosureKey = (predicate, reverse)
        entry = self._closures.get(key)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] <= 0:
            del self._closures[key]
            self._eligibility.remove_listener(predicate, entry[2])
            self._eligibility.release(predicate)

    # ------------------------------------------------------------------
    # Observation (invoked once per flush phase by the pool)
    # ------------------------------------------------------------------
    def observe_deleted(self, edges: List[Tuple[Node, Node]]) -> None:
        """Absorb net deletions (shared graph already edited) — one pass
        over each live structure, however many queries lease it."""
        if not edges:
            return
        self.stats.edge_batches += 1
        if self._lm is not None:
            self._lm.apply_batch(deleted=edges)
            self.stats.structure_batches += 1
        if self._matrix is not None:
            self._matrix.apply_deletions(edges)
            self.stats.structure_batches += 1
        if self._reach is not None:
            # Deletions only destroy reachability: the oracle stays a
            # sound over-approximation and rebuilds lazily per its budget.
            self._reach.notify_edges_deleted(len(edges))
        # A deletion can only change a field whose ball holds the
        # endpoint the edge supported (the target, or the source in a
        # reverse field); one set-disjointness test per field skips the
        # rest without a per-edge Python loop.
        targets = {y for _, y in edges}
        sources = {x for x, _ in edges}
        for entry in self._fields.values():
            field = entry[0]
            if not field.dist.keys().isdisjoint(
                sources if field.reverse else targets
            ):
                field.shrink_edges(edges)
            self.stats.structure_batches += 1

    def observe_inserted(self, edges: List[Tuple[Node, Node]]) -> None:
        """Absorb net insertions (shared graph already edited).

        The pool calls this *before* insertion routing so every leased
        oracle reflects the whole batch.
        """
        if not edges:
            return
        self.stats.edge_batches += 1
        if self._lm is not None:
            self._lm.apply_batch(inserted=edges)
            self.stats.structure_batches += 1
        if self._matrix is not None:
            for x, y in edges:
                self._matrix.apply_insert(x, y)
            self.stats.structure_batches += 1
        if self._reach is not None:
            # Insertions create reachability a stale labelling would miss
            # (unsound for routing): force a rebuild at the next consult —
            # which happens before insertion routing, since the pool calls
            # observe_inserted first.
            self._reach.notify_edges_inserted(len(edges))
        # An insertion can only grow a field from its near endpoint (the
        # source, or the target in a reverse field) when that endpoint is
        # already in the ball.
        sources = {x for x, _ in edges}
        targets = {y for _, y in edges}
        for entry in self._fields.values():
            field = entry[0]
            if not field.dist.keys().isdisjoint(
                targets if field.reverse else sources
            ):
                field.grow_edges(edges)
            self.stats.structure_batches += 1

    # Node events (additions, attribute flips) flow through the pool's
    # SharedEligibilityIndex: its listeners pin/unpin ball-field sources
    # and merge/invalidate leg minima, so the substrate needs no node
    # observation entry points of its own.

    def enforce_lm_budget(self) -> bool:
        """``BatchLM`` re-selection when ``InsLM`` growth exceeds the
        budget (invoked by the pool at the end of a flush).

        The rebuild bumps the landmark version, so every version-keyed
        cache (the shared leg minima) refreshes lazily
        on its next consult; correctness is unaffected either way.
        Returns whether a rebuild happened.
        """
        if self._lm is None or not self.lm_budget.exceeded(self._lm):
            return False
        self._lm.rebuild()
        self.stats.lm_rebuilds += 1
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def landmark_index(self) -> Optional[LandmarkIndex]:
        return self._lm

    def matrix(self) -> Optional[DistanceMatrix]:
        return self._matrix

    def reachability_index(self) -> Optional[IntervalReachabilityIndex]:
        return self._reach

    def num_fields(self) -> int:
        return len(self._fields)

    def rebuild_counters(self) -> Dict[str, int]:
        """Cumulative full-structure rebuild counts for every live shared
        structure: BatchLM re-selections, interval-labelling rebuilds
        (initial build included), and ball-field from-scratch recomputes.

        The temporal suites snapshot this around a bulk-expiry flush:
        expiry must ride the decremental paths (``apply_batch(deleted=)``,
        ``shrink_edges``, budget-tolerated oracle staleness) and leave
        every counter untouched.
        """
        return {
            "lm_rebuilds": self.stats.lm_rebuilds,
            "reach_rebuilds": (
                self._reach.rebuild_count if self._reach is not None else 0
            ),
            "field_rebuilds": sum(
                e[0].rebuilds for e in self._fields.values()
            ),
        }

    def live_structures(self) -> Dict[str, int]:
        """How many shared structures are alive (and their lease counts)."""
        return {
            "landmark": self._lm_refs if self._lm is not None else 0,
            "matrix": self._matrix_refs if self._matrix is not None else 0,
            "reach": self._reach_refs if self._reach is not None else 0,
            "fields": len(self._fields),
            "field_leases": sum(e[1] for e in self._fields.values()),
            "field_radii": sum(len(e[3]) for e in self._fields.values()),
            "closures": len(self._closures),
            "closure_leases": sum(e[1] for e in self._closures.values()),
            "minima_keys": len(self._minima_refs),
        }

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Leased member sets must mirror predicate satisfaction (checked
        by the eligibility substrate); fields must be exact; the postings
        must list exactly each live forward field's ball; the shared
        minima must read live leased sets only."""
        self._eligibility.check_invariants()
        live = {
            entry[0] for (_p, reverse), entry in self._fields.items()
            if not reverse
        }
        expected: Postings = {}
        for field in live:
            for v in field.dist:
                expected.setdefault(v, set()).add(field)
        for v, fields in self.postings.items():
            assert fields, f"empty posting entry left for {v!r}"
            stray = fields - live
            assert not stray, (
                f"posting for {v!r} references released fields {stray}"
            )
        drift = {
            v for v in self.postings.keys() | expected.keys()
            if self.postings.get(v) != expected.get(v)
        }
        assert not drift, f"ball-field postings drift at {drift}"
        for (predicate, _reverse), entry in self._fields.items():
            field = entry[0]
            field.check_exact()
            assert _effective_cap(entry[3]) == field.radius, (
                f"stratified field for {predicate!r} capped at "
                f"{field.radius} but leases want {entry[3]}"
            )
            eset = self._eligibility.entry(predicate)
            assert eset is not None and eset.members is field.sources, (
                f"ball field for {predicate!r} detached from the "
                f"eligibility substrate"
            )
        for (predicate, _reverse), entry in self._closures.items():
            eset = self._eligibility.entry(predicate)
            assert eset is not None and eset.members is entry[0].members, (
                f"reach closure for {predicate!r} detached from the "
                f"eligibility substrate"
            )
        for predicate in self._minima_refs:
            eset = self._eligibility.entry(predicate)
            assert eset is not None and eset.members is self._minima_sets[predicate], (
                f"leg-minima member set for {predicate!r} detached from "
                f"the eligibility substrate"
            )

    def __repr__(self) -> str:
        live = self.live_structures()
        return (
            f"SharedDistanceSubstrate(lm={live['landmark']}, "
            f"matrix={live['matrix']}, fields={live['fields']})"
        )
