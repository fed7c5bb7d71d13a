"""Seeded input generators for the three benchmark workloads.

Every workload is a pure function of ``(seed, size)``: a base graph, the
standing queries, the pool settings (backend pinned explicitly, so the
``REPRO_GRAPH_BACKEND`` environment variable cannot change what is
measured) and a stream of flush batches.  The whole stream is generated
before anything is timed and stored compactly as integer codes; the
driver turns one batch into update objects just before timing it.

Batch op codes (three ints per op):

- ``(INS, v, w)`` / ``(DEL, v, w)``: edge update between node indices;
- ``(SCORE, v, s)``: merge ``score = s`` into node ``v``;
- ``(LABEL, v, k)``: merge ``label = <k-th label of v's community>``.

Why each workload exists is recorded in ``METRICS.md``.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro import DiGraph, Pattern
from repro.workloads import Trace, TraceEvent

INS, DEL, SCORE, LABEL = 0, 1, 2, 3

# Sizes per workload: "full" is what the benchmark measures, "tiny" keeps
# the self-tests fast.  ``stream`` is the number of generated batches; the
# driver stops at ``--seconds`` of timed work or at the end of the stream.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "bounded-fanout": {
        "full": dict(communities=64, size=30, queries=64, batch=16, stream=48000),
        "tiny": dict(communities=8, size=12, queries=8, batch=8, stream=60),
    },
    "attr-churn": {
        "full": dict(communities=16, size=60, queries=64, batch=32, stream=20000),
        "tiny": dict(communities=4, size=15, queries=8, batch=12, stream=60),
    },
    "window-replay": {
        "full": dict(communities=16, size=40, queries=32, batch=16, stream=40000,
                     window=20, vocab=8),
        "tiny": dict(communities=4, size=12, queries=8, batch=6, stream=60,
                     window=5, vocab=2),
    },
}


class QuerySpec(NamedTuple):
    name: str
    pattern: Pattern
    semantics: str
    options: Dict[str, Any]


class Workload(NamedTuple):
    name: str
    seed: int
    backend: str  # pinned graph backend
    pool_options: Dict[str, Any]  # MatcherPool keyword arguments
    base: DiGraph  # dict-backed; the driver copies it per set-up
    queries: List[QuerySpec]
    nodes: List[str]  # node index -> node name
    labels: List[Tuple[str, str, str]]  # node index -> community labels
    batches: List[array]  # flattened (code, a, b) triples
    warmup: int  # leading batches applied untimed

    def fingerprint(self) -> str:
        """sha256 over everything the program is fed."""
        h = hashlib.sha256()
        h.update(repr((self.name, self.seed, self.backend,
                       sorted(self.pool_options.items()))).encode())
        for v in self.base.nodes():
            h.update(repr((v, sorted(self.base.attrs(v).items()))).encode())
        h.update(repr(sorted(self.base.edges())).encode())
        for q in self.queries:
            h.update(repr((q.name, q.pattern, q.semantics,
                           sorted(q.options.items()))).encode())
            for u in q.pattern.nodes():
                h.update(repr((u, q.pattern.predicate(u))).encode())
            for e in q.pattern.edges():
                h.update(repr((e, q.pattern.bound(*e))).encode())
        for b in self.batches:
            h.update(b.tobytes())
        return h.hexdigest()


def community_labels(i: int) -> Tuple[str, str, str]:
    return (f"A{i}", f"B{i}", f"C{i}")


def _communities(rng, communities, size, degree, score=False):
    """Disjoint labelled communities; returns (graph, names, labels,
    members-by-community, edge set)."""
    g = DiGraph()
    names: List[str] = []
    labels: List[Tuple[str, str, str]] = []
    members: List[List[int]] = []
    edges = set()
    for c in range(communities):
        labs = community_labels(c)
        ids = []
        for j in range(size):
            idx = len(names)
            names.append(f"c{c}n{j}")
            labels.append(labs)
            attrs = {"label": labs[j % 3]}
            if score:
                attrs["score"] = rng.randrange(4)
            g.add_node(names[-1], **attrs)
            ids.append(idx)
        members.append(ids)
        want = degree * size
        while len(edges) < want * (c + 1):
            v, w = rng.choice(ids), rng.choice(ids)
            if v != w and (v, w) not in edges:
                edges.add((v, w))
                g.add_edge(names[v], names[w])
    return g, names, labels, members, edges


class _EdgeShadow:
    """The generator's own copy of the live edge set, with O(1) uniform
    sampling; the graph itself is never consulted."""

    def __init__(self, edges) -> None:
        self.items = sorted(edges)
        self.pos = {e: i for i, e in enumerate(self.items)}

    def __contains__(self, e) -> bool:
        return e in self.pos

    def add(self, e) -> None:
        self.pos[e] = len(self.items)
        self.items.append(e)

    def remove(self, e) -> None:
        i = self.pos.pop(e)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.pos[last] = i


def _edge_churn(rng, members, live: _EdgeShadow, out: array,
                count: int) -> None:
    """Append ``count`` in-community edge updates to ``out``: inserts of an
    absent edge in a uniformly chosen community alternate with deletes of
    a uniformly chosen present edge, so |E| stays flat and every
    community's edge count reverts to its mean.  No edge is touched twice
    within one batch."""
    seen = set()
    for k in range(count):
        while True:
            if k % 2:
                e = live.items[rng.randrange(len(live.items))]
            else:
                ids = members[rng.randrange(len(members))]
                e = (rng.choice(ids), rng.choice(ids))
                if e[0] == e[1] or e in live:
                    continue
            if e not in seen:
                break
        seen.add(e)
        if k % 2:
            live.remove(e)
            out.extend((DEL, e[0], e[1]))
        else:
            live.add(e)
            out.extend((INS, e[0], e[1]))


def bounded_fanout(seed: int, size: str = "full") -> Workload:
    """Bound-2 reachability queries, one per community, all distance-routed
    through the router's ``can_affect_edge`` oracle, under edge churn."""
    s = SIZES["bounded-fanout"][size]
    rng = random.Random(f"bounded-fanout:{seed}")
    g, names, labels, members, edges = _communities(
        rng, s["communities"], s["size"], degree=3
    )
    live = _EdgeShadow(edges)
    queries = []
    for i in range(s["queries"]):
        a, _, c = community_labels(i % s["communities"])
        queries.append(QuerySpec(
            f"q{i}",
            Pattern.from_spec(
                {"x": f"label = {a}", "z": f"label = {c}"}, [("x", "z", 2)]
            ),
            "bounded",
            {"distance_mode": "bfs"},
        ))
    batches = []
    for _ in range(s["stream"]):
        out = array("i")
        _edge_churn(rng, members, live, out, s["batch"])
        batches.append(out)
    return Workload("bounded-fanout", seed, "dict", {}, g, queries, names,
                    labels, batches, 0)


# Score atoms conjoined with a community label; variants reuse the same
# small atom vocabulary, so the shared eligibility index sees atoms many
# queries have in common.
_SCORE_ATOMS = ("score > 0", "score > 1", "score <= 2", "score >= 1")


def _attr_pattern(c: int, variant: int) -> Pattern:
    a, b, cc = community_labels(c)
    sx = _SCORE_ATOMS[variant % len(_SCORE_ATOMS)]
    sz = _SCORE_ATOMS[(variant + 2) % len(_SCORE_ATOMS)]
    return Pattern.from_spec(
        {"x": f"label = {a} & {sx}", "y": f"label = {b}",
         "z": f"label = {cc} & {sz}"},
        [("x", "y", 1), ("y", "z", 1)],
    )


def attr_churn(seed: int, size: str = "full") -> Workload:
    """Simulation queries over label+score predicates plus one capped
    isomorphism query; most events are node attribute merges."""
    s = SIZES["attr-churn"][size]
    rng = random.Random(f"attr-churn:{seed}")
    g, names, labels, members, edges = _communities(
        rng, s["communities"], s["size"], degree=2, score=True
    )
    live = _EdgeShadow(edges)
    queries = [
        QuerySpec(f"q{i}", _attr_pattern(i % s["communities"],
                                         i // s["communities"]),
                  "simulation", {})
        for i in range(s["queries"])
    ]
    a, b, _ = community_labels(0)
    queries.append(QuerySpec(
        "iso0",
        Pattern.from_spec(
            {"x": f"label = {a} & score > 1", "y": f"label = {b}"},
            [("x", "y", 1)],
        ),
        "isomorphism",
        {"max_embeddings": 4096},
    ))
    n_edges = round(s["batch"] * 0.3)
    batches = []
    for _ in range(s["stream"]):
        out = array("i")
        for _ in range(s["batch"] - n_edges):
            v = rng.randrange(len(names))
            if rng.random() < 0.2:
                out.extend((LABEL, v, rng.randrange(3)))
            else:
                out.extend((SCORE, v, rng.randrange(4)))
        _edge_churn(rng, members, live, out, n_edges)
        batches.append(out)
    return Workload("attr-churn", seed, "columnar", {}, g, queries, names,
                    labels, batches, 0)


def _plan_pattern(i: int, vocab: int, communities: int) -> Pattern:
    """Two-leg bound-2 pattern over leg vocabulary ``i % vocab``, spelled
    with node names private to query ``i``, so the shared plan must intern
    legs by canonical fingerprint rather than by node name."""
    a, b, c = community_labels((i % vocab) % communities)
    p = Pattern()
    x, y, z = f"x{i}", f"y{i}", f"z{i}"
    p.add_node(x, f"label = {a}")
    p.add_node(y, f"label = {b}")
    p.add_node(z, f"label = {c}")
    p.add_edge(x, y, 2)
    p.add_edge(y, z, 2)
    return p


def window_replay(seed: int, size: str = "full") -> Workload:
    """Temporal pool, shared plan, insert-only trace with bulk expiry.

    Event ``j`` of tick ``t`` carries ``ts = t + j / batch``; bucketing by
    ``floor(ts / 1.0)``, as :class:`repro.workloads.Replayer` does with
    ``flush_every=1``, gives one batch per tick.  :func:`as_trace` turns the
    stream back into a :class:`repro.workloads.Trace`.
    """
    s = SIZES["window-replay"][size]
    rng = random.Random(f"window-replay:{seed}")
    g, names, labels, members, base_edges = _communities(
        rng, s["communities"], s["size"], degree=1
    )
    queries = [
        QuerySpec(f"q{i}", _plan_pattern(i, s["vocab"], s["communities"]),
                  "bounded", {})
        for i in range(s["queries"])
    ]
    batches = []
    for _ in range(s["stream"]):
        out = array("i")
        seen = set()
        while len(seen) < s["batch"]:
            ids = members[rng.randrange(len(members))]
            v, w = rng.choice(ids), rng.choice(ids)
            # Base edges carry no stamp and never expire; the stream never
            # re-inserts them, or the insert would stamp them.
            if v == w or (v, w) in base_edges or (v, w) in seen:
                continue
            seen.add((v, w))
            out.extend((INS, v, w))
        batches.append(out)
    return Workload(
        "window-replay", seed, "dict",
        {"window": float(s["window"]), "plan_scope": "shared"},
        g, queries, names, labels, batches, s["window"],
    )


def event_ts(tick: int, j: int, batch_len: int) -> float:
    """Timestamp of the ``j``-th of ``batch_len`` events in ``tick``."""
    return tick + j / batch_len


def as_trace(work: Workload, upto: Optional[int] = None) -> Trace:
    """The first ``upto`` batches of a temporal workload as a ``Trace``."""
    trace = Trace()
    for tick, b in enumerate(work.batches[:upto]):
        n = len(b) // 3
        for j in range(n):
            _, v, w = b[3 * j: 3 * j + 3]
            trace.append(TraceEvent(event_ts(tick, j, n), "insert",
                                    work.nodes[v], w=work.nodes[w]))
    return trace


WORKLOADS = {
    "bounded-fanout": bounded_fanout,
    "attr-churn": attr_churn,
    "window-replay": window_replay,
}


def make(name: str, seed: int, size: str = "full") -> Workload:
    return WORKLOADS[name](seed, size)
