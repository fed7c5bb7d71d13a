"""Tests for the pool-level multi-query plan (engine/plan.py)."""

import pytest

from repro.engine.plan import PlannedQuery
from repro.engine.pool import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.types import delete, insert
from repro.matching.bounded import bounded_match
from repro.matching.relation import totalize
from repro.patterns.pattern import Pattern, PatternError


def chain_graph() -> DiGraph:
    g = DiGraph()
    for i, lab in enumerate("ABCABC"):
        g.add_node(f"n{i}", label=lab)
    g.add_edge("n0", "n1")  # A -> B
    g.add_edge("n1", "n2")  # B -> C
    g.add_edge("n3", "n4")  # A -> B
    g.add_edge("n4", "n5")  # B -> C
    g.add_edge("n0", "n4")  # A -> B (cross)
    return g


def two_leg_pattern(bound=2, names=("x", "y", "z")) -> Pattern:
    x, y, z = names
    p = Pattern()
    p.add_node(x, "label = A")
    p.add_node(y, "label = B")
    p.add_node(z, "label = C")
    p.add_edge(x, y, bound)
    p.add_edge(y, z, bound)
    return p


def shared_pool(**kwargs) -> MatcherPool:
    return MatcherPool(chain_graph(), plan_scope="shared", **kwargs)


class TestInterning:
    def test_identical_patterns_share_one_join(self):
        pool = shared_pool()
        pool.register(two_leg_pattern(), name="q0")
        pool.register(two_leg_pattern(names=("u", "v", "w")), name="q1")
        assert pool.plan.num_joins() == 1
        assert pool.plan.num_leases() == 2
        # Two distinct legs: A-2->B and B-2->C.
        assert pool.plan.num_views() == 2

    def test_shared_legs_across_different_patterns(self):
        pool = shared_pool()
        pool.register(two_leg_pattern(), name="q0")
        # Different whole pattern, but its only leg is q0's first leg.
        leg = Pattern.from_spec(
            {"s": "label = A", "t": "label = B"}, [("s", "t", 2)]
        )
        pool.register(leg, name="q1")
        assert pool.plan.num_joins() == 2
        assert pool.plan.num_views() == 2  # A-2->B interned once

    def test_duplicate_legs_inside_one_pattern(self):
        p = Pattern.from_spec(
            {"x": "label = A", "y": "label = B", "z": "label = B"},
            [("x", "y", 2), ("x", "z", 2)],
        )
        pool = shared_pool()
        q = pool.register(p, name="q0")
        # Both edges intern to the same A-2->B view.
        assert pool.plan.num_views() == 1
        truth = totalize(bounded_match(p, pool.graph))
        assert q.matches() == truth

    def test_bounds_separate_views(self):
        pool = shared_pool()
        pool.register(two_leg_pattern(bound=2), name="q0")
        pool.register(two_leg_pattern(bound=3), name="q1")
        assert pool.plan.num_joins() == 2
        assert pool.plan.num_views() == 4


class TestLifecycle:
    def test_unregister_releases_views_and_leases(self):
        pool = shared_pool()
        q0 = pool.register(two_leg_pattern(), name="q0")
        q1 = pool.register(two_leg_pattern(names=("u", "v", "w")), name="q1")
        pool.unregister(q0)
        # Join survives while q1 still leases it.
        assert pool.plan.num_joins() == 1
        assert pool.plan.num_views() == 2
        pool.unregister(q1)
        assert pool.plan.num_joins() == 0
        assert pool.plan.num_views() == 0
        # Every eligibility lease was returned.
        assert pool.eligibility.num_entries() == 0

    def test_planned_query_type_and_flags(self):
        pool = shared_pool()
        q = pool.register(two_leg_pattern(), name="q0")
        assert isinstance(q, PlannedQuery)
        assert q.planned and not q.internal
        assert not q.distance_routed

    def test_iso_falls_back_to_per_query(self):
        pool = shared_pool()
        p = Pattern.from_spec(
            {"x": "label = A", "y": "label = B"}, [("x", "y", 1)]
        )
        q = pool.register(p, semantics="isomorphism", name="iso")
        assert not q.planned
        assert pool.plan.num_joins() == 0

    def test_simulation_requires_normal_pattern(self):
        pool = shared_pool()
        with pytest.raises(PatternError):
            pool.register(two_leg_pattern(bound=2), semantics="simulation")

    def test_per_register_override(self):
        pool = MatcherPool(chain_graph())  # pool default per-query
        q = pool.register(two_leg_pattern(), name="q0", plan_scope="shared")
        assert q.planned
        q2 = pool.register(
            two_leg_pattern(names=("u", "v", "w")),
            name="q1",
            plan_scope="per-query",
        )
        assert not q2.planned

    def test_bad_plan_scope_rejected(self):
        with pytest.raises(ValueError):
            MatcherPool(chain_graph(), plan_scope="bogus")
        pool = shared_pool()
        with pytest.raises(ValueError):
            pool.register(two_leg_pattern(), plan_scope="bogus")


class TestCorrectness:
    def test_matches_track_updates(self):
        pool = shared_pool()
        p = two_leg_pattern()
        q = pool.register(p, name="q0")
        assert q.matches() == totalize(bounded_match(p, pool.graph))
        pool.apply([delete("n1", "n2"), insert("n2", "n0")])
        assert q.matches() == totalize(bounded_match(p, pool.graph))
        pool.apply([insert("n1", "n2")])
        assert q.matches() == totalize(bounded_match(p, pool.graph))

    def test_attr_flips_track(self):
        pool = shared_pool()
        p = two_leg_pattern()
        q = pool.register(p, name="q0")
        pool.add_node("n1", label="X")  # breaks the B in the chain
        assert q.matches() == totalize(bounded_match(p, pool.graph))
        pool.add_node("n1", label="B")
        assert q.matches() == totalize(bounded_match(p, pool.graph))

    def test_fresh_wildcard_nodes(self):
        pool = shared_pool()
        p = Pattern.from_spec({"x": None, "y": "label = B"}, [("x", "y", 2)])
        q = pool.register(p, name="q0")
        pool.apply([insert("fresh1", "n1")])  # attribute-less endpoint
        assert q.matches() == totalize(bounded_match(p, pool.graph))

    def test_deltas_match_per_query_pool(self):
        shared = shared_pool()
        per = MatcherPool(chain_graph(), plan_scope="per-query")
        p = two_leg_pattern()
        qs = shared.register(p, name="q0")
        qp = per.register(two_leg_pattern(), name="q0")
        fs, fp = qs.subscribe(), qp.subscribe()
        for ops in ([delete("n1", "n2")], [insert("n1", "n2"), insert("n5", "n0")]):
            shared.apply(list(ops))
            per.apply(list(ops))
        assert [
            (d.added, d.removed) for d in fs.drain()
        ] == [(d.added, d.removed) for d in fp.drain()]

    def test_result_graph_matches_per_query(self):
        shared = shared_pool()
        per = MatcherPool(chain_graph(), plan_scope="per-query")
        p = two_leg_pattern()
        qs = shared.register(p, name="q0")
        qp = per.register(two_leg_pattern(), name="q0")
        gs, gp = qs.result_graph(), qp.result_graph()
        assert sorted(gs.nodes()) == sorted(gp.nodes())
        assert sorted(gs.edges()) == sorted(gp.edges())

    def test_multi_consumer_cursors(self):
        """Consumers registered at different times read only their own
        slice of the join's delta history."""
        pool = shared_pool()
        p = two_leg_pattern()
        q0 = pool.register(p, name="q0")
        pool.apply([delete("n1", "n2")])
        q0.matches()
        q1 = pool.register(two_leg_pattern(names=("u", "v", "w")), name="q1")
        f0, f1 = q0.subscribe(), q1.subscribe()
        pool.apply([insert("n1", "n2")])
        d0, d1 = f0.drain(), f1.drain()
        assert len(d0) == 1 and len(d1) == 1
        # Same structural change; q1's pairs are named by its own nodes.
        assert {v for _, v in d0[0].added} == {v for _, v in d1[0].added}

    def test_invariants_after_stream(self):
        pool = shared_pool()
        pool.register(two_leg_pattern(), name="q0")
        pool.register(two_leg_pattern(bound=1), name="q1")
        pool.apply([delete("n0", "n1"), insert("n2", "n3"), insert("n5", "n5")])
        pool.add_node("n2", label="B")
        for join in pool.plan._joins.values():
            join.check_invariants()


class TestStats:
    def test_view_repairs_flat_in_query_count(self):
        """The headline perf property: per-flush view repair work scales
        with distinct legs, not registered queries."""
        counts = {}
        for n in (2, 8):
            pool = shared_pool()
            for i in range(n):
                pool.register(
                    two_leg_pattern(names=(f"x{i}", f"y{i}", f"z{i}")),
                    name=f"q{i}",
                )
            pool.stats.reset()
            pool.apply([delete("n1", "n2"), insert("n2", "n3")])
            counts[n] = pool.stats.view_repairs
        assert counts[2] == counts[8] > 0

    def test_gauges(self):
        pool = shared_pool()
        pool.register(two_leg_pattern(), name="q0")
        pool.register(two_leg_pattern(names=("u", "v", "w")), name="q1")
        pool.flush()
        assert pool.stats.plan_views == 2
        assert pool.stats.plan_leases == 2
