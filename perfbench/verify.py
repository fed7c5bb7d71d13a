"""Correctness checks run at checkpoints, outside the timed region.

Two independent checks per user query:

1. **Reference:** the query's current answer equals a from-scratch
   ``repro.matching`` recompute (``maximum_simulation`` / ``bounded_match``
   / ``isomorphic_embeddings``) on a dict-backed copy of the pool's graph,
   so the reference shares no incremental, routing or columnar code.
2. **Delta replay:** the query's answer when the run started, with every
   delta the query published since applied in order, equals its current
   answer; and every delta applies cleanly (what it removes is present,
   what it adds is absent), so a lost delta is caught even when a later
   one happens to undo its effect.

Temporal pools additionally pass ``check_temporal_invariants()``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from repro import (
    DiGraph,
    MatcherPool,
    bounded_match,
    isomorphic_embeddings,
    maximum_simulation,
    totalize,
)
from repro.graphs.columnar import as_backend
from repro.matching.oracles import make_oracle
from repro.matching.relation import as_pairs


def _emb_key(emb) -> FrozenSet:
    return frozenset(emb.items())


def answer(q):
    """A query's user-facing answer: embedding keys for isomorphism,
    match pairs otherwise."""
    if q.semantics == "isomorphism":
        return {_emb_key(e) for e in q.embeddings()}
    return set(as_pairs(q.matches()))


class DeltaReplay:
    """Per-query answers rebuilt from published deltas alone."""

    def __init__(self, pool: MatcherPool) -> None:
        self.feeds = {q.name: q.subscribe() for q in pool.queries()}
        self.state: Dict[str, Set] = {
            q.name: answer(q) for q in pool.queries()
        }
        # Largest embedding count any isomorphism answer reached: once a
        # capped query has been full, it keeps a sound subset only.
        self.peak: Dict[str, int] = {
            name: len(s) for name, s in self.state.items()
        }
        self.conflicts: List[str] = []

    def drain(self, drop_one: bool = False) -> bool:
        """Apply every pending delta; ``drop_one`` discards the first
        nonempty one (the fault the self-tests inject).  Returns whether
        a requested drop is still pending (no nonempty delta came)."""
        for name, feed in self.feeds.items():
            s = self.state[name]
            for d in feed.drain():
                if drop_one and d:
                    drop_one = False
                    continue
                if d.added_embeddings or d.removed_embeddings:
                    removed = {_emb_key(e) for e in d.removed_embeddings}
                    added = {_emb_key(e) for e in d.added_embeddings}
                else:
                    removed, added = d.removed, d.added
                if not removed <= s or added & s:
                    self.conflicts.append(
                        f"{name}: delta {d.seq} does not apply to the "
                        f"replayed answer"
                    )
                s.difference_update(removed)
                s.update(added)
                self.peak[name] = max(self.peak[name], len(s))
        return drop_one


def reference_graph(pool: MatcherPool) -> DiGraph:
    g = as_backend(pool.graph, "dict")
    return g.copy() if g is pool.graph else g


def check(pool: MatcherPool, replay: DeltaReplay) -> List[str]:
    """Every disagreement found, as readable strings (empty = correct)."""
    replay.drain()
    problems, replay.conflicts = replay.conflicts, []
    g = reference_graph(pool)
    oracle = None
    for q in pool.queries():
        got = answer(q)
        if replay.state.get(q.name) != got:
            problems.append(f"{q.name}: published deltas do not replay "
                            f"to the current answer")
        if q.semantics == "isomorphism":
            cap = q.index.max_embeddings
            ref = {_emb_key(e) for e in isomorphic_embeddings(q.pattern, g)}
            if cap is not None and replay.peak[q.name] >= cap:
                ok = got <= ref and len(got) <= cap
            else:
                ok = got == ref
        else:
            if q.semantics == "bounded":
                if oracle is None:
                    oracle = make_oracle(g, "bfs")
                ref_rel = bounded_match(q.pattern, g, oracle=oracle)
            else:
                ref_rel = maximum_simulation(q.pattern, g)
            ok = got == set(as_pairs(totalize(ref_rel)))
        if not ok:
            problems.append(f"{q.name}: answer differs from the "
                            f"from-scratch reference")
    if pool.temporal:
        try:
            pool.check_temporal_invariants()
        except AssertionError as exc:
            problems.append(f"temporal invariant: {exc}")
    return problems
