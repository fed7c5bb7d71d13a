"""Differential suite: inverted distance routing ≡ brute-force consults.

The pool's :class:`~repro.engine.router.UpdateRouter` no longer asks
every distance-routed query's ``can_affect_edge`` oracle per edge: field
legs are found through the substrate's node -> forward-field postings,
and oracle legs (landmark minima, interval closures) are consulted once
per distinct leg key.  That is only a cost change — this suite pins it.
On **every edge of every flush**, at the exact moment the pool routes it
(pre-edit for deletions, post-observe for insertions), the router's
selection must equal the brute force over the whole routed population::

    {q : q.touches_edge(v, w)
         or (q.distance_routed and q.can_affect_edge(v, w))}

The op streams mix register/unregister churn (so fields lose their last
lease and are re-acquired as new objects), bounds drawn from
``{1, 2, 3, *}`` on shared predicates (so stratified fields re-cap up,
down and to unbounded), label flips (eligibility gained and lost),
``TRUE``-predicate queries with fresh attribute-less endpoints, every
distance mode, and ``plan_scope='shared'`` registrations whose leg views
are router-registered.  Each stream runs on both graph backends,
and after every flush the substrate's invariants — posting exactness
included — must hold.

Mutation-tested: deleting the posting add in ``BallField._grow`` and,
separately, the posting delete at the end of ``BallField._shrink`` each
make this suite fail.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.types import delete, insert
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate

LABELS = ["A", "B", "C"]
MODES = ["bfs", "matrix", "landmark", "interval"]
BOUNDS = [1, 2, 3, None]
BACKENDS = ["dict", "columnar"]


def _predicate(label):
    return Predicate.true() if label is None else Predicate.label(label)


@st.composite
def _pattern(draw):
    """A one- or two-edge b-pattern over label / TRUE predicates."""
    n = draw(st.integers(2, 3))
    p = Pattern()
    for u in range(n):
        p.add_node(u, _predicate(draw(st.sampled_from(LABELS + [None]))))
    edges = [(0, 1)] + ([(1, 2)] if n == 3 else [])
    for u, w in edges:
        p.add_edge(u, w, draw(st.sampled_from(BOUNDS)))
    return p


@st.composite
def _registration(draw):
    return {
        "pattern": draw(_pattern()),
        "distance_mode": draw(st.sampled_from(MODES)),
        "plan_scope": draw(st.sampled_from(["per-query", "per-query", "shared"])),
    }


def _brute_force(population, v, w):
    return {
        id(q)
        for q in population
        if q.touches_edge(v, w)
        or (q.distance_routed and q.can_affect_edge(v, w))
    }


def _install_check(pool, log):
    """Wrap the pool router's route_edge with the brute-force comparison."""
    router = pool._router
    route = router.route_edge

    def checked(v, w, v_attrs, w_attrs):
        population = [
            q for q in pool.queries() if not q.planned
        ] + pool.plan.views()
        expect = _brute_force(population, v, w)
        got = route(v, w, v_attrs, w_attrs)
        assert len({id(q) for q in got}) == len(got), "duplicate routing"
        assert {id(q) for q in got} == expect, (
            f"routing drift on ({v!r}, {w!r}): "
            f"extra={[q.name for q in got if id(q) not in expect]} "
            f"missing={[q.name for q in population if id(q) in expect and q not in got]}"
        )
        log.append((v, w))
        return got

    router.route_edge = checked


def _graph(draw):
    n = draw(st.integers(3, 6))
    g = DiGraph()
    for v in range(n):
        g.add_node(v, label=draw(st.sampled_from(LABELS)))
    for _ in range(draw(st.integers(1, 2 * n))):
        g.add_edge(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
    return g


@pytest.mark.parametrize("backend", BACKENDS)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_posting_routing_equals_brute_force(backend, data):
    pool = MatcherPool(_graph(data.draw), graph_backend=backend)
    routed_edges = []
    _install_check(pool, routed_edges)
    live = []
    next_node = 100
    count = 0
    for _ in range(data.draw(st.integers(1, 3))):
        live.append(pool.register(name=f"q{count}", **data.draw(_registration())))
        count += 1
    for _ in range(data.draw(st.integers(2, 6))):
        nodes = sorted(pool.graph.nodes(), key=repr)
        for _ in range(data.draw(st.integers(1, 5))):
            op = data.draw(st.sampled_from(
                ["insert", "insert", "delete", "fresh", "flip", "churn"]
            ))
            if op == "insert":
                pool.queue(insert(
                    data.draw(st.sampled_from(nodes)),
                    data.draw(st.sampled_from(nodes)),
                ))
            elif op == "delete":
                edges = sorted(pool.graph.edges(), key=repr)
                if edges:
                    pool.queue(delete(*data.draw(st.sampled_from(edges))))
            elif op == "fresh":
                # A brand-new attribute-less endpoint: only TRUE
                # predicates admit it, through the fresh-node
                # announcement that precedes insertion routing.
                v, w = data.draw(st.sampled_from(nodes)), next_node
                next_node += 1
                if data.draw(st.booleans()):
                    v, w = w, v
                pool.queue(insert(v, w))
            elif op == "flip":
                pool.queue_node(
                    data.draw(st.sampled_from(nodes)),
                    label=data.draw(st.sampled_from(LABELS)),
                )
            elif live and data.draw(st.booleans()):
                # Unregister flushes nothing; the next register flushes
                # the queued ops first, so both orders are exercised.
                q = live.pop(data.draw(st.integers(0, len(live) - 1)))
                pool.unregister(q)
            else:
                live.append(
                    pool.register(name=f"q{count}", **data.draw(_registration()))
                )
                count += 1
        pool.flush()
        pool.substrate.check_invariants()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["bfs", "landmark"])
def test_last_lease_release_and_reacquire_reposts(backend, mode):
    """A field whose last lease goes away takes its postings with it; a
    re-registered query gets a new field object whose postings are
    routed from scratch, through radius re-caps up to ``*`` and back."""
    g = DiGraph()
    for v, label in enumerate("ABCAB"):
        g.add_node(v, label=label)
    for x, y in [(0, 1), (1, 2), (2, 3), (3, 4)]:
        g.add_edge(x, y)
    pool = MatcherPool(g, graph_backend=backend)
    routed = []
    _install_check(pool, routed)

    def pattern(bound, src):
        return Pattern.from_spec(
            {"x": src, "y": "label = C"}, [("x", "y", bound)]
        )

    # A TRUE source makes landmark queries route through the fields too.
    src = "label = A" if mode == "bfs" else None
    q2 = pool.register(pattern(2, src), distance_mode=mode, name="two")
    assert pool.substrate.postings
    pool.unregister(q2)
    assert pool.substrate.postings == {}
    pool.substrate.check_invariants()
    q2 = pool.register(pattern(2, src), distance_mode=mode, name="two")
    q3 = pool.register(pattern(3, src), distance_mode=mode, name="three")
    qs = pool.register(pattern(None, src), distance_mode=mode, name="star")
    for ops in (
        [insert(4, 0), delete(1, 2)],
        [insert(1, 2), insert(2, 5)],
        [delete(3, 4), insert(0, 3)],
    ):
        pool.apply(ops)
        pool.substrate.check_invariants()
    pool.unregister(qs)  # re-cap from unbounded down to 2
    pool.apply([insert(3, 4), delete(0, 3)])
    pool.substrate.check_invariants()
    pool.unregister(q3)
    pool.unregister(q2)
    assert pool.substrate.postings == {}
    assert routed


def test_router_stats_count_leg_probes_and_consults():
    """Field legs are probed through the postings; oracle legs pay one
    consult per leg key per edge, however many queries hold the key."""
    g = DiGraph()
    for v, label in enumerate("ABC"):
        g.add_node(v, label=label)
    g.add_edge(0, 1)
    pattern = Pattern.from_spec(
        {"x": "label = A", "y": "label = C"}, [("x", "y", 2)]
    )
    pool = MatcherPool(g)
    for i in range(3):
        pool.register(pattern, name=f"f{i}")
    pool.apply([insert(1, 2)])
    stats = pool.stats.router
    # Node 1 sits in one forward field; the three queries share one leg.
    assert (stats.leg_probes, stats.oracle_consults) == (1, 0)
    for i in range(3):
        pool.register(pattern, name=f"lm{i}", distance_mode="landmark")
    stats.reset()
    pool.apply([delete(1, 2)])
    assert (stats.leg_probes, stats.oracle_consults) == (1, 1)
    stats.reset()
    pool.apply([insert(1, 2)])
    assert (stats.leg_probes, stats.oracle_consults) == (1, 1)
    assert {q.name for q in pool.queries()} == {
        "f0", "f1", "f2", "lm0", "lm1", "lm2"
    }
    assert all(q.matches()["x"] == {0} for q in pool.queries())
