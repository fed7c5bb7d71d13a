"""Unit tests for the label/predicate-keyed UpdateRouter."""

from repro.engine import MatcherPool, UpdateRouter
from repro.engine.eligibility import ABSENT, SharedEligibilityIndex
from repro.engine.query import ContinuousQuery
from repro.graphs.digraph import DiGraph
from repro.incremental.types import insert
from repro.patterns.pattern import Pattern


def _graph(**nodes):
    """A graph whose nodes carry the given attribute dicts."""
    g = DiGraph()
    for v, attrs in nodes.items():
        g.add_node(v, **attrs)
    return g


def make_query(name, pattern, graph, eligibility, semantics="simulation"):
    return ContinuousQuery(
        name, pattern, graph, semantics, eligibility=eligibility
    )


def label_query(name, nodes, edges, graph, eligibility):
    pattern = Pattern.normal_from_labels(nodes, edges)
    return make_query(name, pattern, graph, eligibility)


def route(router, graph, v, w):
    return router.route_edge(v, w, graph.attrs(v), graph.attrs(w))


def test_eq_keys_and_predicates():
    g = DiGraph()
    q = label_query(
        "q", {"x": "A", "y": "B"}, [("x", "y")], g, SharedEligibilityIndex(g)
    )
    assert ("label", "A") in q.eq_keys
    assert ("label", "B") in q.eq_keys
    assert q.predicates == {
        q.pattern.predicate("x"), q.pattern.predicate("y")
    }
    assert not q.wildcard_node
    assert not q.distance_routed


def test_wildcard_for_true_predicate():
    p = Pattern.from_spec({"any": None}, [])
    g = DiGraph()
    q = make_query("q", p, g, SharedEligibilityIndex(g))
    assert q.wildcard_node
    assert q.eq_keys == frozenset()


def test_route_edge_requires_pattern_edge_pairing():
    g = _graph(a={"label": "A"}, b={"label": "B"}, z={"label": "Z"}, n={})
    router = UpdateRouter()
    q = label_query(
        "q", {"x": "A", "y": "B"}, [("x", "y")], g, SharedEligibilityIndex(g)
    )
    router.register(q)
    assert route(router, g, "a", "b") == [q]
    # Right labels, wrong direction: no pattern edge B -> A.
    assert route(router, g, "b", "a") == []
    assert route(router, g, "a", "z") == []
    assert route(router, g, "n", "b") == []


def test_route_node_and_attr_change():
    """Node additions and attribute changes route as the eligibility
    substrate's flips, each query receiving only its own predicates'."""
    g = _graph(a={"label": "A"}, b={"label": "B"})
    elig = SharedEligibilityIndex(g)
    router = UpdateRouter()
    q = label_query("q", {"x": "A", "y": "B"}, [("x", "y")], g, elig)
    other = label_query("o", {"x": "C"}, [], g, elig)
    router.register(q)
    router.register(other)
    # A fresh node satisfying x's predicate flips it for q alone.
    g.add_node("n", label="A")
    flips = elig.observe_events([("n", None, True)])
    routed = router.route_flips(flips)
    assert [r for r, _ in routed] == [q]
    assert routed[0][1] == {"n": [(q.pattern.predicate("x"), True)]}
    # A label rewrite A -> C loses x for q and gains x for the other.
    g.add_node("a", label="C")
    flips = elig.observe_events([("a", {"label": "A"}, False)])
    assert {r.name: by_node for r, by_node in router.route_flips(flips)} == {
        "q": {"a": [(q.pattern.predicate("x"), False)]},
        "o": {"a": [(other.pattern.predicate("x"), True)]},
    }
    # An attribute no predicate mentions flips nothing: nobody routed.
    g.add_node("b", hobby="golf")
    flips = elig.observe_events([("b", {"hobby": ABSENT}, False)])
    assert router.route_flips(flips) == []


def test_inequality_predicates_fall_into_wildcard_bucket():
    g = _graph(hot={"rating": 5}, cold={"rating": 1})
    p = Pattern.from_spec({"x": "rating > 3"}, [("x", "x", 1)])
    q = make_query("q", p, g, SharedEligibilityIndex(g))
    router = UpdateRouter()
    router.register(q)
    assert q.wildcard_node
    # No equality atom to key on: the candidate comes from the wildcard
    # bucket, and the member-set confirm decides.
    assert route(router, g, "hot", "hot") == [q]
    assert route(router, g, "hot", "cold") == []


def test_unregister_cleans_every_bucket():
    g = _graph(a={"label": "A"})
    elig = SharedEligibilityIndex(g)
    router = UpdateRouter()
    q = make_query(
        "q", Pattern.from_spec({"x": "label = A"}, [("x", "x", 1)]), g, elig
    )
    router.register(q)
    assert len(router) == 1
    assert route(router, g, "a", "a") == [q]
    router.unregister(q)
    assert len(router) == 0
    assert route(router, g, "a", "a") == []
    g.add_node("n", label="A")
    assert router.route_flips(elig.observe_events([("n", None, True)])) == []


def test_routing_order_is_registration_order():
    g = _graph(a={"label": "A"}, b={"label": "B"})
    elig = SharedEligibilityIndex(g)
    router = UpdateRouter()
    qs = [
        label_query(f"q{i}", {"x": "A", "y": "B"}, [("x", "y")], g, elig)
        for i in range(4)
    ]
    for q in qs:
        router.register(q)
    assert route(router, g, "a", "b") == qs


def test_eq_key_representative_is_atom_order_invariant():
    """Routing must not depend on the order predicate atoms were written."""
    g = _graph(
        ak={"label": "A", "kind": "K"},
        a={"label": "A"},
        k={"kind": "K"},
        zk={"label": "Z", "kind": "K"},
    )
    elig = SharedEligibilityIndex(g)
    p1 = Pattern.from_spec({"x": "label = A & kind = K"}, [("x", "x", 1)])
    p2 = Pattern.from_spec({"x": "kind = K & label = A"}, [("x", "x", 1)])
    q1 = make_query("q1", p1, g, elig)
    q2 = make_query("q2", p2, g, elig)
    assert q1.eq_keys == q2.eq_keys
    router = UpdateRouter()
    router.register(q1)
    router.register(q2)
    for v in ("ak", "a", "k", "zk"):
        routed = set(route(router, g, v, v))
        # Identical predicates -> identical routing, whatever the order.
        assert routed in (set(), {q1, q2})
    assert set(route(router, g, "ak", "ak")) == {q1, q2}


def test_conjunction_uses_one_representative_eq_atom():
    g = _graph(
        good={"label": "A", "rating": 5},
        low={"label": "A", "rating": 1},
        unlabelled={"rating": 5},
    )
    p = Pattern.from_spec({"x": "label = A & rating > 2"}, [("x", "x", 1)])
    q = make_query("q", p, g, SharedEligibilityIndex(g))
    router = UpdateRouter()
    router.register(q)
    assert q.eq_keys == {("label", "A")}
    # Candidate via (label, A), confirmed only when the conjunction holds.
    assert route(router, g, "good", "good") == [q]
    assert route(router, g, "low", "low") == []
    assert route(router, g, "unlabelled", "unlabelled") == []


def test_pool_router_integration_zero_work(friendfeed_graph):
    pool = MatcherPool(friendfeed_graph)
    med = pool.register(
        Pattern.normal_from_labels({"m": "Med"}, [], attribute="job"),
        semantics="simulation",
        name="med",
    )
    report = pool.apply([insert("Ann", "Bill")])
    assert "med" not in report.deltas
    assert med.matches()["m"] == {"Ross"}
