"""Unit tests for MatcherPool: registration, routing, coalescing, repair."""

import pytest

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.types import delete, insert
from repro.matching.relation import as_pairs
from repro.matching.simulation import maximum_simulation
from repro.patterns.pattern import Pattern, PatternError


def two_cluster_graph():
    g = DiGraph()
    for n, lab in [
        ("a1", "A1"), ("b1", "B1"), ("a2", "A2"), ("b2", "B2"),
    ]:
        g.add_node(n, label=lab)
    g.add_edge("a1", "b1")
    g.add_edge("a2", "b2")
    return g


def chain_pattern(i):
    return Pattern.normal_from_labels(
        {"x": f"A{i}", "y": f"B{i}"}, [("x", "y")]
    )


class TestRegistration:
    def test_names_default_and_unique(self):
        pool = MatcherPool(two_cluster_graph())
        q0 = pool.register(chain_pattern(1), semantics="simulation")
        q1 = pool.register(chain_pattern(2), semantics="simulation")
        assert q0.name != q1.name
        assert pool.query(q0.name) is q0
        assert len(pool) == 2

    def test_duplicate_name_rejected(self):
        pool = MatcherPool(two_cluster_graph())
        pool.register(chain_pattern(1), semantics="simulation", name="q")
        with pytest.raises(ValueError):
            pool.register(chain_pattern(2), semantics="simulation", name="q")

    def test_invalid_semantics_rejected(self):
        pool = MatcherPool(two_cluster_graph())
        with pytest.raises(ValueError):
            pool.register(chain_pattern(1), semantics="telepathy")

    def test_b_pattern_rejected_for_simulation(self):
        pool = MatcherPool(two_cluster_graph())
        p = Pattern.from_spec({"x": "label = A1"}, [])
        p.add_edge("x", "x", 2)
        with pytest.raises(PatternError):
            pool.register(p, semantics="simulation")

    def test_register_flushes_pending(self):
        pool = MatcherPool(two_cluster_graph())
        q1 = pool.register(chain_pattern(1), semantics="simulation")
        pool.queue(delete("a1", "b1"))
        # Registering flushes first, so q2's index is built on the
        # post-update graph and q1 has been repaired.
        q2 = pool.register(chain_pattern(2), semantics="simulation")
        assert not pool.graph.has_edge("a1", "b1")
        assert q1.matches()["x"] == set()
        assert q2.matches()["x"] == {"a2"}

    def test_unregister_stops_routing(self):
        pool = MatcherPool(two_cluster_graph())
        q1 = pool.register(chain_pattern(1), semantics="simulation")
        feed = q1.subscribe()
        pool.unregister(q1)
        report = pool.apply([delete("a1", "b1")])
        assert report.deltas == {}
        assert not feed.drain()


class TestRouting:
    def test_updates_route_only_to_affected_pattern(self):
        pool = MatcherPool(two_cluster_graph())
        q1 = pool.register(chain_pattern(1), semantics="simulation", name="p1")
        q2 = pool.register(chain_pattern(2), semantics="simulation", name="p2")
        report = pool.apply([delete("a1", "b1")])
        assert set(report.deltas) == {"p1"}
        assert report.routed == 1
        assert report.skipped == 1
        # The skipped query's work counters did not move at all.
        assert q2.stats.aff_size() == 0
        assert q1.matches()["x"] == set()
        assert q2.matches()["x"] == {"a2"}

    def test_label_mismatch_routes_nowhere(self):
        pool = MatcherPool(two_cluster_graph())
        pool.register(chain_pattern(1), semantics="simulation")
        # B1 -> A2: no pattern edge pairs those labels in either query.
        report = pool.apply([insert("b1", "a2")])
        assert report.routed == 0
        assert report.deltas == {}

    def test_bounded_with_bounds_is_distance_routed(self):
        g = two_cluster_graph()
        g.add_node("m", label="MID")
        pool = MatcherPool(g)
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 2)]
        )
        q = pool.register(p, semantics="bounded", name="b")
        assert isinstance(q.index, BoundedSimulationIndex)
        assert q.distance_routed
        # The pool substrate absorbs edge batches once for every leasing
        # query: the index leases its structures instead of owning them.
        assert q.index.substrate is pool.substrate
        # A 2-hop path through an unlabeled midpoint must be observed
        # even though neither endpoint satisfies any predicate.
        pool.apply([delete("a1", "b1")])
        assert q.matches()["x"] == set()
        report = pool.apply([insert("a1", "m"), insert("m", "b1")])
        assert report.routed >= 2
        assert q.matches()["x"] == {"a1"}

    def test_distance_routing_declines_foreign_partition_edges(self):
        g = two_cluster_graph()
        pool = MatcherPool(g)
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 2)]
        )
        q = pool.register(p, semantics="bounded", name="b")
        assert q.distance_routed
        # Partition-2 churn can never touch a pair of the partition-1
        # query: the distance oracle declines it, repair work stays zero.
        report = pool.apply([insert("b2", "a2")])
        assert report.routed == 0
        assert report.skipped == 1
        assert q.stats.aff_size() == 0
        report = pool.apply([delete("b2", "a2")])
        assert report.routed == 0
        assert q.stats.aff_size() == 0
        assert q.matches()["x"] == {"a1"}

    def test_distance_routing_observes_multi_hop_batch_interaction(self):
        # A witness path threading several same-flush insertions must be
        # caught even when the middle edge has no eligible endpoint.
        g = DiGraph()
        g.add_node("a", label="A1")
        g.add_node("b", label="B1")
        for n in ("m1", "m2"):
            g.add_node(n, label="MID")
        pool = MatcherPool(g)
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 3)]
        )
        q = pool.register(p, semantics="bounded", name="b")
        assert q.matches()["x"] == set()
        report = pool.apply([
            insert("m1", "m2"),          # neither endpoint near eligible yet
            insert("m2", "b"),
            insert("a", "m1"),
        ])
        assert q.matches()["x"] == {"a"}
        assert "b" in report.deltas

    def test_bound_one_bounded_is_endpoint_routable(self):
        pool = MatcherPool(two_cluster_graph())
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 1)]
        )
        q = pool.register(p, semantics="bounded")
        assert not q.distance_routed
        report = pool.apply([insert("a2", "b2"), delete("a2", "b2")])
        assert report.routed == 0
        assert q.matches()["x"] == {"a1"}

    def test_attr_update_routes_by_attribute_name(self):
        pool = MatcherPool(two_cluster_graph())
        q1 = pool.register(chain_pattern(1), semantics="simulation", name="p1")
        # An attribute no predicate mentions routes nowhere.
        pool.update_node_attrs("a1", hobby="golf")
        assert q1.last_delta is None
        # A label flip routes to (only) the affected query.
        pool.update_node_attrs("a1", label="Z")
        assert q1.last_delta is not None
        assert ("x", "a1") in q1.last_delta.removed

    def test_routed_skipped_totals_count_fresh_announce_once(self):
        """The fresh-node announcement is ONE routing decision per flush;
        counting it once per fresh node inflated the routed/skipped
        ratios the pool benchmark reports."""
        g = DiGraph()
        g.add_node("seed", label="A1")
        pool = MatcherPool(g)
        pool.register(
            Pattern.from_spec({"any": None}, []),
            semantics="simulation",
            name="wild",
        )
        pool.register(chain_pattern(1), semantics="simulation", name="p1")
        # Two insertions introduce two fresh nodes -> 2 edge decisions
        # plus exactly 1 announcement decision, over 2 queries.
        report = pool.apply([insert("seed", "n1"), insert("n1", "n2")])
        decisions = 2 + 1
        assert report.routed + report.skipped == decisions * len(pool)
        assert report.routed == 1  # only the wildcard query is announced
        assert pool.query("wild").matches()["any"] == {"seed", "n1", "n2"}

    def test_fresh_wildcard_node_matches_true_predicate(self):
        g = DiGraph()
        g.add_node("seed", label="A1")
        pool = MatcherPool(g)
        q = pool.register(Pattern.from_spec({"any": None}, []), name="wild",
                          semantics="simulation")
        assert q.matches()["any"] == {"seed"}
        # A brand-new, attribute-less endpoint still matches TRUE.
        pool.apply([insert("seed", "novel")])
        assert q.matches()["any"] == {"seed", "novel"}


class TestCoalescing:
    def test_insert_delete_pair_cancels(self):
        pool = MatcherPool(two_cluster_graph())
        q = pool.register(chain_pattern(1), semantics="simulation")
        promos_before = q.stats.promotions
        demos_before = q.stats.demotions
        report = pool.apply([delete("a1", "b1"), insert("a1", "b1")])
        assert report.net == []
        assert q.stats.promotions == promos_before
        assert q.stats.demotions == demos_before
        assert q.matches()["x"] == {"a1"}

    def test_unit_helpers_report_graph_change(self):
        pool = MatcherPool(two_cluster_graph())
        pool.register(chain_pattern(1), semantics="simulation")
        assert pool.insert_edge("b1", "b2")
        assert not pool.insert_edge("b1", "b2")
        assert pool.delete_edge("b1", "b2")
        assert not pool.delete_edge("b1", "b2")

    def test_unit_helper_flags_follow_net_effect(self):
        """The changed-flag must reflect the flush's *net* updates, not a
        pre-flush ``has_edge`` snapshot that pending updates invalidate."""
        pool = MatcherPool(two_cluster_graph())
        pool.register(chain_pattern(1), semantics="simulation")
        # A pending delete of an existing edge is reverted by the insert:
        # net effect is empty, the graph did not change.
        pool.queue(delete("a1", "b1"))
        assert not pool.insert_edge("a1", "b1")
        assert pool.graph.has_edge("a1", "b1")
        # A pending insert of a missing edge is swallowed by the delete.
        pool.queue(insert("b1", "b2"))
        assert not pool.delete_edge("b1", "b2")
        assert not pool.graph.has_edge("b1", "b2")
        # A pending duplicate does not mask a real change.
        pool.queue(insert("b1", "b2"))
        assert pool.insert_edge("b1", "b2")
        assert pool.graph.has_edge("b1", "b2")
        # And a pending no-op update leaves the flag truthful.
        pool.queue(insert("b1", "b2"))
        assert pool.delete_edge("b1", "b2")
        assert not pool.graph.has_edge("b1", "b2")

    def test_pending_counts_and_flush(self):
        pool = MatcherPool(two_cluster_graph())
        q = pool.register(chain_pattern(1), semantics="simulation")
        pool.queue(delete("a1", "b1"))
        pool.queue_node("a1", label="A1")
        assert pool.pending == 2
        assert q.matches()["x"] == {"a1"}  # not yet applied
        pool.flush()
        assert pool.pending == 0
        assert q.matches()["x"] == set()


class TestIntake:
    def test_unhashable_node_rejected_before_it_is_queued(self):
        """An unhashable node id used to surface inside flush(), after the
        pending lists were cleared, silently dropping every valid op
        queued alongside it."""
        pool = MatcherPool(DiGraph())
        pool.queue(insert("a", "b"))
        with pytest.raises(TypeError):
            pool.queue_node(["bad"], label="A")
        with pytest.raises(TypeError):
            pool.queue(insert("a", ["bad"]))
        with pytest.raises(TypeError):
            pool.queue_updates([insert("c", "d"), delete({"bad"}, "a")])
        assert pool.pending == 1
        report = pool.flush()
        assert [u.edge for u in report.net] == [("a", "b")]
        assert pool.graph.has_edge("a", "b")
        assert not pool.graph.has_edge("c", "d")

    def test_unhashable_node_rejected_in_temporal_pool(self):
        pool = MatcherPool(DiGraph(), window=5.0)
        with pytest.raises(TypeError):
            pool.queue_updates([insert("a", "b"), insert(["bad"], "b")])
        assert pool.pending == 0

    @pytest.mark.parametrize("option", ["distance_scope", "eligibility_scope"])
    def test_removed_scope_options_raise_type_error(self, option):
        with pytest.raises(TypeError):
            MatcherPool(two_cluster_graph(), **{option: "shared"})
        pool = MatcherPool(two_cluster_graph())
        with pytest.raises(TypeError):
            pool.register(chain_pattern(1), **{option: "shared"})


class TestDistanceModes:
    @pytest.mark.parametrize("mode", ["landmark", "matrix"])
    @pytest.mark.parametrize("scope", ["shared", "per-query"])
    def test_bounded_distance_structures_track_pool_flushes(
        self, mode, scope, friendfeed_pattern, friendfeed_graph
    ):
        """``scope`` is the pool's plan_scope: a per-query index and the
        shared plan's leg views both lease the pool substrate, which
        absorbs each batch once."""
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import totalize

        pool = MatcherPool(friendfeed_graph, plan_scope=scope)
        q = pool.register(
            friendfeed_pattern, semantics="bounded", distance_mode=mode
        )
        routed = pool.plan.views() if scope == "shared" else [q]
        assert q.planned == (scope == "shared")
        for r in routed:
            assert r.index.substrate is pool.substrate
        # Pair repair of the bound>1 legs is gated by the oracle.
        assert any(r.distance_routed for r in routed)
        pool.apply([insert("Don", "Pat"), insert("Pat", "Don")])
        pool.apply([delete("Ann", "Pat"), insert("Don", "Tom")])
        assert as_pairs(q.matches()) == as_pairs(
            totalize(bounded_match(friendfeed_pattern, pool.graph))
        )
        for r in routed + [q]:
            r.index.check_invariants()
        pool.substrate.check_invariants()


class TestSharedSubstrate:
    """The pool-level shared distance substrate: one structure per
    (graph, distance_mode), leased by every bounded query."""

    def trivial_pattern(self):
        # x must reach SOME node (any attrs) within 2 hops.
        return Pattern.from_spec({"x": "label = A1", "y": None}, [("x", "y", 2)])

    def test_trivial_predicate_query_is_distance_routed_in_shared_scope(self):
        g = DiGraph()
        g.add_node("a1", label="A1")
        for n in ("z1", "z2", "z3"):
            g.add_node(n, label="Z")
        g.add_edge("z1", "z2")
        pool = MatcherPool(g)
        q = pool.register(self.trivial_pattern(), semantics="bounded", name="t")
        assert q.distance_routed
        # Far-away churn is declined by the shared ball (z2/z3 are more
        # than 1 hop from any eligible source of x).
        report = pool.apply([insert("z2", "z3")])
        assert report.routed == 0
        assert report.skipped == 1
        report = pool.apply([delete("z2", "z3")])
        assert report.routed == 0

    def test_trivial_predicate_fresh_node_wiring_is_caught_in_shared_scope(self):
        """The soundness half: a brand-new attribute-less endpoint becomes
        a pinned source of the TRUE field before insertion routing, so
        same-flush wiring through it must be routed and matched."""
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import totalize

        g = DiGraph()
        g.add_node("a1", label="A1")
        pool = MatcherPool(g)
        q = pool.register(self.trivial_pattern(), semantics="bounded", name="t")
        pattern = q.pattern
        report = pool.apply([insert("a1", "n1"), insert("n1", "n2")])
        assert "t" in report.deltas
        assert q.matches()["x"] == {"a1"}
        assert {"n1", "n2"} <= q.matches()["y"]
        assert as_pairs(q.matches()) == as_pairs(
            totalize(bounded_match(pattern, pool.graph))
        )
        q.index.check_invariants()
        pool.substrate.check_invariants()

    def test_landmark_structure_is_shared_across_queries(self):
        pool = MatcherPool(two_cluster_graph())
        p1 = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 2)]
        )
        p2 = Pattern.from_spec(
            {"x": "label = A2", "y": "label = B2"}, [("x", "y", 2)]
        )
        q1 = pool.register(p1, semantics="bounded", name="q1",
                           distance_mode="landmark")
        q2 = pool.register(p2, semantics="bounded", name="q2",
                           distance_mode="landmark")
        assert q1.index.landmark_index() is q2.index.landmark_index()
        assert q1.index.landmark_index() is pool.substrate.landmark_index()
        assert pool.substrate.live_structures()["landmark"] == 2
        pool.unregister(q1)
        assert pool.substrate.live_structures()["landmark"] == 1
        pool.unregister(q2)
        assert pool.substrate.live_structures()["landmark"] == 0
        assert pool.substrate.landmark_index() is None

    def test_identical_pattern_edges_share_one_ball_field_pair(self):
        pool = MatcherPool(two_cluster_graph())
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 2)]
        )
        qa = pool.register(p, semantics="bounded", name="qa")
        qb = pool.register(p, semantics="bounded", name="qb")
        # Fields are leased eagerly at registration; churn that only the
        # oracle can decline keeps them exercised.
        pool.apply([insert("b2", "a2")])
        live = pool.substrate.live_structures()
        assert live["fields"] == 2       # one src + one tgt field ...
        assert live["field_leases"] == 4  # ... leased by both queries
        assert qa.matches() == qb.matches()

    def test_mixed_scopes_coexist_in_one_pool(self):
        """A planned query and a per-query-plan query over the same
        pattern lease one substrate and stay equal to the batch answer."""
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import totalize

        pool = MatcherPool(two_cluster_graph())
        p = Pattern.from_spec(
            {"x": "label = A1", "y": "label = B1"}, [("x", "y", 2)]
        )
        own_q = pool.register(p, semantics="bounded", name="s")
        planned_q = pool.register(
            p, semantics="bounded", name="p", plan_scope="shared"
        )
        assert own_q.index.substrate is pool.substrate
        assert planned_q.planned
        (view,) = pool.plan.views()
        assert view.index.substrate is pool.substrate
        pool.apply([delete("a1", "b1"), insert("a2", "b1")])
        truth = as_pairs(totalize(bounded_match(p, pool.graph)))
        assert as_pairs(own_q.matches()) == truth
        assert as_pairs(planned_q.matches()) == truth


class TestSharedGraphConsistency:
    def test_many_queries_one_graph_stay_correct(self):
        pool = MatcherPool(two_cluster_graph())
        queries = [
            pool.register(chain_pattern(i), semantics="simulation", name=f"p{i}")
            for i in (1, 2)
        ]
        pool.apply([
            insert("b1", "a1"),
            delete("a2", "b2"),
            insert("a2", "b1"),
        ])
        for q in queries:
            assert as_pairs(q.matches()) == as_pairs(
                maximum_simulation(q.pattern, pool.graph)
            ) or q.matches() == {u: set() for u in q.matches()}
            q.index.check_invariants()

    def test_mixed_semantics_share_one_graph(self, friendfeed_graph):
        pool = MatcherPool(friendfeed_graph)
        sim = pool.register(
            Pattern.normal_from_labels(
                {"c": "CTO", "d": "DB"}, [("c", "d")], attribute="job"
            ),
            semantics="simulation",
            name="sim",
        )
        iso = pool.register(
            Pattern.normal_from_labels(
                {"c": "CTO", "d": "DB"}, [("c", "d")], attribute="job"
            ),
            semantics="isomorphism",
            name="iso",
        )
        report = pool.apply([insert("Don", "Pat")])
        assert set(report.deltas) == {"sim", "iso"}
        assert ("c", "Don") in report.deltas["sim"].added
        assert any(e.get("c") == "Don" for e in report.deltas["iso"].added_embeddings)
        # One shared graph object: both saw the same edit exactly once.
        assert pool.graph.has_edge("Don", "Pat")
        assert sim.index.graph is iso.index.graph is pool.graph


class TestGraphBackend:
    def test_default_keeps_input_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_GRAPH_BACKEND", raising=False)
        g = DiGraph([("a", "b")])
        pool = MatcherPool(g)
        assert pool.graph is g
        assert pool.graph_backend == "dict"

    def test_env_var_sets_default_backend(self, monkeypatch):
        from repro.graphs.columnar import ColumnarDiGraph

        monkeypatch.setenv("REPRO_GRAPH_BACKEND", "columnar")
        pool = MatcherPool(DiGraph([("a", "b")]))
        assert isinstance(pool.graph, ColumnarDiGraph)
        # An explicit argument wins over the environment.
        pool2 = MatcherPool(DiGraph([("a", "b")]), graph_backend="dict")
        assert type(pool2.graph) is DiGraph

    def test_columnar_backend_converts_and_is_shared(self):
        from repro.graphs.columnar import ColumnarDiGraph

        g = DiGraph([("a", "b")], {"a": {"label": "A"}})
        pool = MatcherPool(g, graph_backend="columnar")
        assert isinstance(pool.graph, ColumnarDiGraph)
        assert pool.graph_backend == "columnar"
        assert pool.graph == g
        q = pool.register(
            Pattern.from_spec({"x": "label = A"}, []), semantics="bounded"
        )
        # Every consumer sees the one converted graph, not the input.
        assert q.index.graph is pool.graph
        assert pool.eligibility._graph is pool.graph

    def test_columnar_input_passes_through(self):
        from repro.graphs.columnar import ColumnarDiGraph

        g = ColumnarDiGraph([("a", "b")])
        pool = MatcherPool(g, graph_backend="columnar")
        assert pool.graph is g

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            MatcherPool(DiGraph(), graph_backend="sparse")
