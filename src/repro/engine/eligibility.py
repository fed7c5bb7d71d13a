"""Pool-wide predicate-eligibility substrate (two-tier: atoms, conjunctions).

Every incremental index in this codebase starts from per-pattern-node
candidate sets (the paper's ``candt``/``match`` seeds): the nodes whose
attribute tuples satisfy the pattern node's predicate.  Before this module
existed each standing query of a :class:`~repro.engine.pool.MatcherPool`
computed and incrementally maintained its *own* copy — a pool with 64
queries over a handful of distinct predicates re-evaluated the same
predicate on the same churned node up to 64 times per flush.

:class:`SharedEligibilityIndex` is the "one maintained auxiliary structure
per sub-formula" move of answering queries under updates (Berkholz–
Keppeler–Schweikardt) applied to predicates, taken down to the atom level:

- predicates are **interned** into canonical keys
  (:class:`~repro.patterns.predicate.Predicate` canonicalizes conjunct
  order and dedupes atoms at construction, so ``age>25 & job=DB`` and its
  permutation hash equal);
- per distinct **atom** the index owns one version-counted posting set
  (:class:`AtomEntry`), evaluated **once** per node event pool-wide —
  ``job = 'DB'`` and ``job = 'DB' & age > 25`` pay for the shared atom
  once, however many conjunctions use it;
- per interned predicate the index owns **one** version-counted
  :class:`EligibleSet` of currently-satisfying data nodes, maintained as
  an **intersection view** over its atoms' posting sets: an atom flip
  reconciles each dependent conjunction with O(1) membership checks
  against the sibling atoms' sets instead of re-evaluating the
  conjunction;
- consumers hold refcounted **leases**; a set whose last lease is released
  is dropped so the pool stops paying its upkeep — *unless* flip listeners
  remain attached, in which case the entry is kept alive so a later
  re-lease finds every downstream hook still wired.  Unbalanced releases
  (double-release, never-leased release) raise
  :class:`EligibilityLeaseError` instead of silently corrupting refcounts;
- a :meth:`~repro.patterns.predicate.Predicate.is_unsatisfiable`
  conjunction short-circuits to an empty, upkeep-free set: no atom leases,
  no reconciliation, nothing to maintain;
- membership flips notify registered **listeners** (the distance
  substrate's :class:`~repro.incremental.ballsummary.BallField` sources
  and the shared landmark leg-minima cache), in set-already-mutated order,
  so every downstream structure sees each flip exactly once.

A node event costs what it can flip, not what is interned:

- **equality-value atom index.**  The atoms on each attribute are split
  into equality atoms indexed by their constant (:class:`AttrAtoms`) and
  the rest (ordering, ``!=``, and equalities on values whose hash does
  not agree with ``==``).  A merge of attribute ``A`` on ``v`` evaluates
  the non-indexed atoms on ``A`` plus the equality atoms equal to ``v``'s
  pre-batch value and to its final value — no other equality atom's
  verdict can have moved.  The pre-batch value is the first old value
  the batch reports for ``(v, A)``, so duplicate events stay net.  Values
  that are not exact ``str``/``int``/``float``/``bool``/``None`` (or are
  NaN), and events that name attributes without old values, fall back to
  every atom on ``A``;
- **pivot-bucketed reconcile.**  Each conjunction picks one equality
  atom with an indexable constant as its *pivot*.  Every other atom of
  the conjunction files it under ``(pivot attribute, pivot value)``; the
  pivot atom itself (and a pivot-less conjunction's atoms) keep it
  unbucketed.  An atom flip at ``v`` reconciles the unbucketed
  dependents plus the bucket matching ``v``'s *current* value of each
  pivot attribute.  This is sound: a conjunction ``v`` can gain needs its
  pivot true now, and one ``v`` can lose had its pivot true before — if
  the pivot no longer holds, the pivot atom flipped too and reconciles
  the conjunction unbucketed.  Affected entries are walked in interning
  order (a per-entry sequence number), never the whole entry table;
- **flip delivery by predicate** (in the router): each routed query
  receives only the flips of its own predicates.

The pool hands one flush's node events to :meth:`observe_events`, with
the old values of the merged attributes, and routes the returned net
*flips* (gained/lost predicate verdicts) to exactly the queries whose
patterns use a flipped predicate.  The differential fuzz harness pits
this substrate, flush for flush, against standalone indexes that own and
re-evaluate private candidate sets.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..graphs.digraph import DiGraph, Node
from ..graphs.kernels import SAFE_EQ_TYPES
from ..patterns.predicate import Atom, Predicate, note_atom_evaluations

# (on_gain, on_loss) callbacks invoked after the member set was mutated.
Listener = Tuple[Callable[[Node], None], Callable[[Node], None]]
# One membership flip: (predicate, gained?) — False means lost.
Flip = Tuple[Predicate, bool]
# One batched flip: (predicate, node, gained?) — see ``observe_events``.
EventFlip = Tuple[Predicate, Node, bool]
# One node event: (node, changes, is_new?).  ``changes`` maps each merged
# attribute to its value before the merge (``ABSENT`` if the node lacked
# it), or lists merged names whose old values are unknown, or is None for
# "evaluate every atom".
NodeEvent = Tuple[Node, Union[None, Mapping[str, Any], Iterable[str]], bool]


# Old value of a merged attribute the node did not carry.
ABSENT: Any = object()
# Old value of a merged attribute the caller did not report.
_UNKNOWN: Any = object()

_SAFE_TYPES = frozenset(SAFE_EQ_TYPES)


def _indexable(value: Any) -> bool:
    """Can ``value`` be found by hash among equality-atom constants?

    Only exact builtin scalars qualify: their hashes agree with ``==``
    across types, while a subclass or foreign type may define ``==``
    without a matching hash.  NaN equals nothing, so it is not indexed.
    """
    return type(value) in _SAFE_TYPES and value == value


class EligibilityLeaseError(RuntimeError):
    """Unbalanced lease lifecycle: releasing a predicate that was never
    leased, or more times than it was leased."""


class EligibilityStats:
    """Work counters: how many atomic comparisons the pool paid, and how
    they amortize (the quantity the atom tier makes scale with *distinct
    atoms* instead of distinct conjunctions or pool size)."""

    __slots__ = (
        "sets_built",
        "atom_sets_built",
        "atom_evals",
        "node_events",
        "flips",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.sets_built = 0
        self.atom_sets_built = 0
        self.atom_evals = 0
        self.node_events = 0
        self.flips = 0

    def __repr__(self) -> str:
        return (
            f"EligibilityStats(sets={self.sets_built}, "
            f"atom_sets={self.atom_sets_built}, "
            f"atom_evals={self.atom_evals}, events={self.node_events}, "
            f"flips={self.flips})"
        )


class AtomEntry:
    """One distinct atom's posting set — the substrate's bottom tier.

    ``members`` holds the nodes currently satisfying the atom; **only**
    the owning :class:`SharedEligibilityIndex` mutates it.  The
    conjunction :class:`EligibleSet`\\ s whose verdicts read this atom
    sit in ``unpivoted`` or, keyed by their pivot, in ``pivots``
    (pivot attribute -> pivot value -> entries), so an atom flip at a
    node reconciles only the views that node can be in.  Atoms are
    refcounted by the conjunctions leasing them, not by consumers
    directly.
    """

    __slots__ = ("atom", "members", "version", "refs", "unpivoted", "pivots")

    def __init__(self, atom: Atom, members: Set[Node]) -> None:
        self.atom = atom
        self.members = members
        self.version = 0
        self.refs = 0
        self.unpivoted: List["EligibleSet"] = []
        self.pivots: Dict[str, Dict[Any, List["EligibleSet"]]] = {}

    def _bucket(
        self, entry: "EligibleSet", create: bool = False
    ) -> List["EligibleSet"]:
        """The list ``entry`` is filed in here: ``unpivoted`` for a
        pivot-less conjunction and on the pivot atom itself, else the
        bucket of its pivot's ``(attribute, value)``."""
        pivot = entry.pivot
        if pivot is None or pivot is self:
            return self.unpivoted
        name, value = pivot.atom.attribute, pivot.atom.value
        if create:
            return self.pivots.setdefault(name, {}).setdefault(value, [])
        return self.pivots.get(name, {}).get(value, [])

    def attach(self, entry: "EligibleSet") -> None:
        self._bucket(entry, create=True).append(entry)

    def detach(self, entry: "EligibleSet") -> None:
        bucket = self._bucket(entry)
        bucket.remove(entry)
        if not bucket and bucket is not self.unpivoted:
            name, value = entry.pivot.atom.attribute, entry.pivot.atom.value
            del self.pivots[name][value]
            if not self.pivots[name]:
                del self.pivots[name]

    def holds(self, entry: "EligibleSet") -> bool:
        """Is ``entry`` filed in its own bucket here?"""
        return any(dep is entry for dep in self._bucket(entry))

    def dependents(self) -> List["EligibleSet"]:
        """Every conjunction view reading this atom, bucketed or not."""
        out = list(self.unpivoted)
        for by_value in self.pivots.values():
            for entries in by_value.values():
                out.extend(entries)
        return out

    def __repr__(self) -> str:
        return (
            f"AtomEntry({self.atom!r}, |members|={len(self.members)}, "
            f"refs={self.refs}, dependents={len(self.dependents())})"
        )


class AttrAtoms:
    """The interned atoms on one attribute, split for value lookup:
    ``by_value`` maps an indexable equality constant to its atom, and
    ``scan`` holds every other atom (always evaluated on a merge)."""

    __slots__ = ("by_value", "scan")

    def __init__(self) -> None:
        self.by_value: Dict[Any, AtomEntry] = {}
        self.scan: Dict[Atom, AtomEntry] = {}

    @staticmethod
    def _indexed(atom: Atom) -> bool:
        return atom.op == "=" and _indexable(atom.value)

    def add(self, ae: AtomEntry) -> None:
        if self._indexed(ae.atom):
            self.by_value[ae.atom.value] = ae
        else:
            self.scan[ae.atom] = ae

    def remove(self, ae: AtomEntry) -> None:
        if self._indexed(ae.atom):
            del self.by_value[ae.atom.value]
        else:
            del self.scan[ae.atom]

    def __len__(self) -> int:
        return len(self.by_value) + len(self.scan)

    def everything(self) -> List[AtomEntry]:
        return [*self.scan.values(), *self.by_value.values()]

    def candidates(self, old: Any, new: Any) -> List[AtomEntry]:
        """The atoms whose verdict a change ``old -> new`` can move."""
        if (old is not ABSENT and not _indexable(old)) or (
            new is not ABSENT and not _indexable(new)
        ):
            return self.everything()
        out = list(self.scan.values())
        by_value = self.by_value
        if old is not ABSENT:
            ae = by_value.get(old)
            if ae is not None:
                out.append(ae)
        if new is not ABSENT and (old is ABSENT or new != old):
            ae = by_value.get(new)
            if ae is not None:
                out.append(ae)
        return out


class EligibleSet:
    """One interned predicate's eligible-node set — a shared read-view.

    ``members`` is the live set — the intersection of ``atom_entries``
    posting sets, maintained incrementally; **only** the owning
    :class:`SharedEligibilityIndex` mutates it (in place: downstream
    aliases — ball-field source sets, leg-minima caches, the queries'
    edge-routing pairs, leased iso candidate sets — hold the *object*,
    never a copy).  ``version`` bumps on every membership change — an
    introspection/change-detection counter (surfaced via
    ``live_entries``) for consumers that poll rather than subscribe; the
    current downstream caches are push-invalidated through the flip
    ``listeners`` instead.

    ``atom_entries`` is empty for the trivial (TRUE) predicate — every
    node is a member — and for unsatisfiable conjunctions — no node ever
    is, and nothing needs upkeep.  ``pivot`` is the equality atom the
    other atoms bucket this view under (None when the conjunction has no
    indexable equality atom); ``seq`` is the interning sequence number
    that orders flips within a batch.
    """

    __slots__ = (
        "predicate",
        "members",
        "atom_entries",
        "pivot",
        "seq",
        "version",
        "refs",
        "listeners",
    )

    def __init__(
        self,
        predicate: Predicate,
        members: Set[Node],
        atom_entries: Tuple[AtomEntry, ...] = (),
        seq: int = 0,
    ) -> None:
        self.predicate = predicate
        self.members = members
        self.atom_entries = atom_entries
        self.pivot: Optional[AtomEntry] = next(
            (
                ae for ae in atom_entries
                if ae.atom.op == "=" and _indexable(ae.atom.value)
            ),
            None,
        )
        self.seq = seq
        self.version = 0
        self.refs = 0
        self.listeners: List[Listener] = []

    def __contains__(self, v: Node) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return (
            f"EligibleSet({self.predicate!r}, |members|={len(self.members)}, "
            f"version={self.version}, refs={self.refs})"
        )


class SharedEligibilityIndex:
    """One eligible-node set per distinct predicate per pool, composed
    from one posting set per distinct atom."""

    def __init__(self, graph: DiGraph) -> None:
        self._graph = graph
        self._entries: Dict[Predicate, EligibleSet] = {}
        self._atoms: Dict[Atom, AtomEntry] = {}
        # attribute name -> its atoms, split for equality-value lookup.
        self._by_attr: Dict[str, AttrAtoms] = {}
        # Trivial (TRUE) entries: no atoms to flip them, but a fresh node
        # always gains them, so node-added must reconcile them explicitly.
        self._trivial: List[EligibleSet] = []
        self._next_seq = 0
        self.stats = EligibilityStats()

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def lease(self, predicate: Predicate) -> EligibleSet:
        """Acquire the shared set for ``predicate`` (built on first lease).

        Structurally-equal predicates — whatever their spelling — intern
        to the same entry; the caller must treat ``entry.members`` as
        read-only and :meth:`release` with an equal predicate later.
        Building a conjunction leases its atoms, so atoms already posted
        for other conjunctions cost nothing; a brand-new atom is evaluated
        once over the graph.
        """
        entry = self._entries.get(predicate)
        if entry is None:
            entry = self._build(predicate)
            self._entries[predicate] = entry
        entry.refs += 1
        return entry

    def _build(self, predicate: Predicate) -> EligibleSet:
        self.stats.sets_built += 1
        seq = self._next_seq
        self._next_seq += 1
        if predicate.is_unsatisfiable():
            # Contradictory conjunction: empty forever, zero upkeep — no
            # atom leases, nothing for observation to reconcile.
            return EligibleSet(predicate, set(), seq=seq)
        if predicate.is_trivial():
            entry = EligibleSet(predicate, set(self._graph.nodes()), seq=seq)
            self._trivial.append(entry)
            return entry
        atom_entries = tuple(
            self._lease_atom(atom) for atom in predicate.atoms
        )
        members = set.intersection(*(ae.members for ae in atom_entries))
        entry = EligibleSet(predicate, members, atom_entries, seq)
        for ae in atom_entries:
            ae.attach(entry)
        return entry

    def _lease_atom(self, atom: Atom) -> AtomEntry:
        ae = self._atoms.get(atom)
        if ae is None:
            members = self._initial_members(atom)
            self.stats.atom_evals += self._graph.num_nodes()
            self.stats.atom_sets_built += 1
            ae = AtomEntry(atom, members)
            self._atoms[atom] = ae
            self._by_attr.setdefault(atom.attribute, AttrAtoms()).add(ae)
        ae.refs += 1
        return ae

    def _initial_members(self, atom: Atom) -> Set[Node]:
        """First-lease full-graph sweep for one atom.

        Columnar graphs expose a vectorized sweep over the attr column
        (``_atom_sweep_members``); it declines with ``None`` when the
        numpy kernels are off or cannot represent this atom exactly, and
        other backends lack the hook — both run the per-node twin.
        """
        sweep = getattr(self._graph, "_atom_sweep_members", None)
        if sweep is not None:
            members = sweep(atom.attribute, atom.op, atom.value)
            if members is not None:
                note_atom_evaluations(self._graph.num_nodes())
                return members
        return {
            v
            for v in self._graph.nodes()
            if atom.satisfied_by(self._graph.attrs(v))
        }

    def release(self, predicate: Predicate) -> None:
        """Release one lease; the entry dies with its last lease *unless*
        flip listeners remain attached (they keep it alive so a later
        re-lease finds them still wired).

        Raises :class:`EligibilityLeaseError` on a never-leased predicate
        or on more releases than leases — both indicate a consumer
        lifecycle bug that would otherwise drop sets other holders still
        read.
        """
        entry = self._entries.get(predicate)
        if entry is None:
            raise EligibilityLeaseError(
                f"release of never-leased predicate {predicate!r}"
            )
        if entry.refs <= 0:
            raise EligibilityLeaseError(
                f"unbalanced release of {predicate!r}: "
                "already at zero leases (kept alive by listeners)"
            )
        entry.refs -= 1
        if entry.refs == 0 and not entry.listeners:
            self._drop(entry)

    def _drop(self, entry: EligibleSet) -> None:
        del self._entries[entry.predicate]
        for ae in entry.atom_entries:
            ae.detach(entry)
            ae.refs -= 1
            if ae.refs == 0:
                del self._atoms[ae.atom]
                attr_atoms = self._by_attr[ae.atom.attribute]
                attr_atoms.remove(ae)
                if not attr_atoms:
                    del self._by_attr[ae.atom.attribute]
        if not entry.atom_entries and entry.predicate.is_trivial():
            self._trivial.remove(entry)

    # ------------------------------------------------------------------
    # Flip listeners
    # ------------------------------------------------------------------
    def add_listener(
        self,
        predicate: Predicate,
        on_gain: Callable[[Node], None],
        on_loss: Callable[[Node], None],
    ) -> Listener:
        """Register membership-flip callbacks on a *leased* predicate.

        Callbacks run after the member set is mutated (the contract of
        :meth:`BallField.source_gained` / ``source_lost``).  Returns the
        token to pass to :meth:`remove_listener`.  Listeners keep the
        entry alive across a refcount zero, so release/re-lease cycles
        cannot silently unhook downstream structures.
        """
        entry = self._entries[predicate]
        token: Listener = (on_gain, on_loss)
        entry.listeners.append(token)
        return token

    def remove_listener(self, predicate: Predicate, token: Listener) -> None:
        entry = self._entries.get(predicate)
        if entry is not None:
            try:
                entry.listeners.remove(token)
            except ValueError:
                return
            if entry.refs <= 0 and not entry.listeners:
                # The last listener was the only thing keeping a
                # zero-lease entry alive.
                self._drop(entry)

    # ------------------------------------------------------------------
    # Observation (invoked by the pool during flush phase A, post-edit)
    # ------------------------------------------------------------------
    def observe_node_added(self, v: Node) -> List[Flip]:
        """A node appeared in the shared graph (attrs already applied).

        Evaluates every interned **atom** once (not every conjunction),
        posts the satisfied ones, and reconciles only the dependent
        conjunction views.  Returns the gains; a fresh attribute-less node
        gains exactly the trivial (TRUE) predicates, which is what makes
        routing such nodes' edges through shared ball fields sound (the
        pool announces them before insertion routing).
        """
        return [
            (p, gained)
            for p, _v, gained in self.observe_events([(v, None, True)])
        ]

    def observe_attr_change(self, v: Node, changed=None) -> List[Flip]:
        """Node ``v``'s attributes changed (already merged into the graph).

        Membership before the change is read off the posting sets
        themselves, so no pre-edit attribute snapshot is needed.
        ``changed`` prunes the scan: the merged attribute names (every
        atom on them is evaluated), or a mapping of those names to their
        pre-merge values (only the non-equality atoms and the equality
        atoms matching the old or new value are).  ``None`` evaluates
        every atom.
        """
        return [
            (p, gained)
            for p, _v, gained in self.observe_events([(v, changed, False)])
        ]

    def observe_events(self, events: Iterable[NodeEvent]) -> List[EventFlip]:
        """Observe a whole batch of node events in one pass.

        ``events`` holds ``(node, changes, is_new)`` triples in flush
        order, post-edit: the graph already reflects every event.
        ``changes`` maps each merged attribute to its value before that
        event (``ABSENT`` when the node lacked it), or lists merged names
        whose old values are unknown; ``None`` or ``is_new`` widens the
        node to "evaluate every atom".  Duplicate nodes are fine: the
        first old value reported for a ``(node, attribute)`` is its
        pre-batch value.  Per attribute, only the atoms whose verdict the
        pre-batch -> final change can move are evaluated (see
        :meth:`AttrAtoms.candidates`), **column-major**: one bulk call per
        distinct atom over all its touched nodes, dispatched to the
        columnar backend's vectorized kernel when available (per-node
        ``satisfied_by`` twin otherwise).  Membership *before* the batch
        is read off the posting sets, so the returned
        ``(predicate, node, gained)`` triples are the **net** verdict
        flips across the batch — at most one per (predicate, node), with
        transient gain/loss pairs inside the batch never materializing.
        Listeners fire once per net flip, after the member set mutated.
        """
        # Fold duplicate events into one {attribute: pre-batch value} map
        # per node (None = evaluate all atoms); fresh nodes also gain the
        # trivial (TRUE) entries, which no atom flip would ever reconcile.
        touched: Dict[Node, Optional[Dict[str, Any]]] = {}
        fresh: List[Node] = []
        n_events = 0
        for v, changes, is_new in events:
            n_events += 1
            if is_new and v not in touched:
                fresh.append(v)
            if changes is None or is_new:
                touched[v] = None
                continue
            if not isinstance(changes, Mapping):
                changes = dict.fromkeys(changes, _UNKNOWN)
            if v not in touched:
                touched[v] = dict(changes)
            else:
                olds = touched[v]
                if olds is not None:
                    for name, old in changes.items():
                        olds.setdefault(name, old)
        self.stats.node_events += n_events
        if not touched:
            return []
        graph = self._graph
        # Column-major candidate lists: each atom owns one attribute, so
        # a node lands in an atom's list at most once.
        per_atom: Dict[AtomEntry, List[Node]] = {}
        by_attr = self._by_attr
        for v, olds in touched.items():
            if olds is None:
                for ae in self._atoms.values():
                    per_atom.setdefault(ae, []).append(v)
                continue
            row = graph.attrs(v)
            for name, old in olds.items():
                attr_atoms = by_attr.get(name)
                if attr_atoms is None:
                    continue
                for ae in attr_atoms.candidates(old, row.get(name, ABSENT)):
                    per_atom.setdefault(ae, []).append(v)
        bulk = getattr(graph, "_bulk_atom_verdicts", None)
        # entry -> nodes to reconcile, insertion-ordered for deterministic
        # flip order within each entry.
        affected: Dict[EligibleSet, Dict[Node, None]] = {}
        if fresh:
            for entry in self._trivial:
                bucket = affected.setdefault(entry, {})
                for v in fresh:
                    bucket[v] = None
        for ae, nodes in per_atom.items():
            atom = ae.atom
            self.stats.atom_evals += len(nodes)
            verdicts = None
            if bulk is not None:
                verdicts = bulk(atom.attribute, atom.op, atom.value, nodes)
                if verdicts is not None:
                    note_atom_evaluations(len(nodes))
            if verdicts is None:
                verdicts = [
                    atom.satisfied_by(graph.attrs(v)) for v in nodes
                ]
            members = ae.members
            for v, now in zip(nodes, verdicts):
                if now is (v in members):
                    continue
                (members.add if now else members.discard)(v)
                ae.version += 1
                for dep in ae.unpivoted:
                    affected.setdefault(dep, {})[v] = None
                if ae.pivots:
                    self._pivot_dependents(ae, v, affected)
        return self._reconcile_batch(affected)

    def _pivot_dependents(
        self,
        ae: AtomEntry,
        v: Node,
        affected: Dict[EligibleSet, Dict[Node, None]],
    ) -> None:
        """Mark the bucketed dependents of ``ae`` that ``v`` can be in:
        per pivot attribute, the bucket of ``v``'s current value (every
        bucket when that value is not indexable, none when absent)."""
        row = self._graph.attrs(v)
        for name, by_value in ae.pivots.items():
            value = row.get(name, ABSENT)
            if value is ABSENT:
                continue
            if _indexable(value):
                buckets = (by_value.get(value, ()),)
            else:
                buckets = by_value.values()
            for entries in buckets:
                for dep in entries:
                    affected.setdefault(dep, {})[v] = None

    def _reconcile_batch(
        self, affected: Dict[EligibleSet, Dict[Node, None]]
    ) -> List[EventFlip]:
        """Re-derive membership of each affected (entry, node) pair from
        the atoms' (already updated) posting sets, fire listeners in
        set-already-mutated order, and return the flips.

        Walks only the affected entries, in interning (``seq``) order so
        flip order is deterministic per batch.  Unsatisfiable entries are
        never wired to atoms or ``_trivial``, so they can never appear
        here; trivial entries have no atoms, so ``all()`` holds and fresh
        nodes gain them.
        """
        flips: List[EventFlip] = []
        for entry in sorted(affected, key=lambda e: e.seq):
            predicate = entry.predicate
            for v in affected[entry]:
                now = all(v in ae.members for ae in entry.atom_entries)
                was = v in entry.members
                if now and not was:
                    entry.members.add(v)
                    entry.version += 1
                    flips.append((predicate, v, True))
                    for on_gain, _ in entry.listeners:
                        on_gain(v)
                elif was and not now:
                    entry.members.remove(v)
                    entry.version += 1
                    flips.append((predicate, v, False))
                    for _, on_loss in entry.listeners:
                        on_loss(v)
        self.stats.flips += len(flips)
        return flips

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry(self, predicate: Predicate) -> Optional[EligibleSet]:
        return self._entries.get(predicate)

    def num_entries(self) -> int:
        return len(self._entries)

    def num_atoms(self) -> int:
        return len(self._atoms)

    def live_entries(self) -> Dict[str, Dict[str, int]]:
        """Per interned predicate: lease count, member count, listeners."""
        return {
            repr(predicate): {
                "refs": entry.refs,
                "members": len(entry.members),
                "listeners": len(entry.listeners),
                "version": entry.version,
            }
            for predicate, entry in self._entries.items()
        }

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Posting sets must mirror atom truth, conjunction views must
        mirror predicate truth *and* equal their atoms' intersection, and
        every view must sit in exactly its pivot's bucket of each of its
        atoms."""
        for atom, ae in self._atoms.items():
            true_members = {
                v
                for v in self._graph.nodes()
                if atom.satisfied_by(self._graph.attrs(v))
            }
            assert ae.members == true_members, (
                f"atom posting drift for {atom!r}: "
                f"{ae.members ^ true_members}"
            )
            assert ae.refs > 0, f"zombie atom entry for {atom!r}"
            assert ae in self._by_attr[atom.attribute].everything()
            deps = ae.dependents()
            assert len(deps) == ae.refs, (
                f"dependent count drift for {atom!r}"
            )
            for dep in deps:
                assert self._entries.get(dep.predicate) is dep, (
                    f"stale dependent {dep.predicate!r} of {atom!r}"
                )
        assert sum(len(a) for a in self._by_attr.values()) == len(self._atoms)
        for predicate, entry in self._entries.items():
            true_members = {
                v
                for v in self._graph.nodes()
                if predicate.satisfied_by(self._graph.attrs(v))
            }
            assert entry.members == true_members, (
                f"eligibility drift for {predicate!r}: "
                f"{entry.members ^ true_members}"
            )
            assert entry.refs > 0 or entry.listeners, (
                f"zombie entry for {predicate!r}"
            )
            if entry.atom_entries:
                view = set.intersection(
                    *(ae.members for ae in entry.atom_entries)
                )
                assert entry.members == view, (
                    f"intersection-view drift for {predicate!r}"
                )
                for ae in entry.atom_entries:
                    assert ae.holds(entry), (
                        f"{predicate!r} missing from its pivot bucket of "
                        f"{ae.atom!r}"
                    )
            elif predicate.is_trivial():
                assert any(e is entry for e in self._trivial)
            else:
                assert predicate.is_unsatisfiable() and not entry.members

    def __repr__(self) -> str:
        return (
            f"SharedEligibilityIndex(entries={len(self._entries)}, "
            f"atoms={len(self._atoms)}, {self.stats!r})"
        )
