"""Unit tests for the eligible-ball fields and the pool's
``can_affect_edge`` oracle behind distance-aware routing."""

import random

import pytest

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.graphs.traversal import bfs_distances
from repro.incremental.ballsummary import BallField
from repro.patterns.pattern import Pattern


def chain_graph():
    """a -> m1 -> m2 -> b, with predicates only matching the ends."""
    g = DiGraph()
    g.add_node("a", label="A")
    g.add_node("b", label="B")
    g.add_node("m1", label="M")
    g.add_node("m2", label="M")
    g.add_edge("a", "m1")
    g.add_edge("m1", "m2")
    g.add_edge("m2", "b")
    return g


class _EdgeOracle:
    """One pattern edge ``x -(bound)-> y`` routed through a forward field
    over the x sources and a reverse field over the y sources — the pair
    the shared substrate leases per pattern edge."""

    def __init__(self, g, bound, xs, ys):
        self.r = None if bound is None else bound - 1
        self.xs, self.ys = set(xs), set(ys)
        self.src = BallField(g, self.xs, self.r)
        self.tgt = BallField(g, self.ys, self.r, reverse=True)
        self.fields = (self.src, self.tgt)

    def can_affect(self, x, y):
        return self.src.within(x, self.r) and self.tgt.within(y, self.r)

    def note_inserted(self, edges):
        for f in self.fields:
            f.grow_edges(edges)

    def note_deleted(self, edges):
        for f in self.fields:
            f.shrink_edges(edges)

    def rebuilds(self):
        return sum(f.rebuilds for f in self.fields)

    def check_exact(self):
        for f in self.fields:
            f.check_exact()


class TestSummary:
    def test_membership_matches_true_balls(self):
        g = chain_graph()
        s = _EdgeOracle(g, 3, {"a"}, {"b"})
        # Every edge of the a ->(3) b witness path is relevant...
        assert s.can_affect("a", "m1")
        assert s.can_affect("m1", "m2")
        assert s.can_affect("m2", "b")
        # ... but an edge whose source is out of the radius-2 source ball
        # (d(a, b) = 3 > 2) is not.
        assert not s.can_affect("b", "a")
        s.check_exact()

    def test_grows_on_insert(self):
        g = DiGraph()
        for n, lab in [("a", "A"), ("b", "B"), ("c", "M")]:
            g.add_node(n, label=lab)
        s = _EdgeOracle(g, 2, {"a"}, {"b"})
        assert not s.can_affect("c", "b")
        g.add_edge("a", "c")
        s.note_inserted([("a", "c")])
        assert s.can_affect("c", "b")
        s.check_exact()

    def test_grows_on_eligibility_gain(self):
        g = chain_graph()
        s = _EdgeOracle(g, 2, {"a"}, {"b"})
        # b is 3 hops from a: nothing near b is source-relevant yet.
        assert not s.can_affect("m2", "b")
        s.xs.add("m1")
        s.src.source_gained("m1")
        assert s.can_affect("m2", "b")
        s.check_exact()

    def test_tightens_immediately_on_deletion(self):
        """Decremental repair replaces threshold rebuilds: pruning power
        is restored by the deletion itself, with no rebuild at all."""
        g = chain_graph()
        s = _EdgeOracle(g, 3, {"a"}, {"b"})
        g.remove_edge("a", "m1")
        s.note_deleted([("a", "m1")])
        assert not s.can_affect("m1", "m2")
        assert s.rebuilds() == 2  # only the constructors' builds
        s.check_exact()

    def test_deletion_burst_repairs_without_rebuilds(self):
        g = DiGraph()
        g.add_node("a", label="A")
        g.add_node("b", label="B")
        xs = [f"x{i}" for i in range(20)]
        for x in xs:
            g.add_node(x, label="M")
            g.add_edge("a", x)
            g.add_edge(x, "b")
        s = _EdgeOracle(g, 2, {"a"}, {"b"})
        assert s.rebuilds() == 2
        for x in xs:
            g.remove_edge("a", x)
            s.note_deleted([("a", x)])
            assert not s.can_affect(x, "b")  # tight after every deletion
        assert s.rebuilds() == 2  # never rebuilt
        s.check_exact()

    def test_eligibility_loss_repairs_decrementally(self):
        g = chain_graph()
        s = _EdgeOracle(g, 2, {"a", "m1"}, {"b"})
        assert s.can_affect("m2", "b")  # via the m1 source
        s.xs.remove("m1")
        s.src.source_lost("m1")
        assert not s.can_affect("m2", "b")
        s.check_exact()

    def test_irrelevant_updates_cost_nothing(self):
        g = chain_graph()
        for n in ("p", "q"):
            g.add_node(n, label="Z")
        g.add_edge("p", "q")
        s = _EdgeOracle(g, 2, {"a"}, {"b"})
        before = {f: dict(f.dist) for f in s.fields}
        # Foreign-component churn neither routes nor perturbs the fields.
        assert not s.can_affect("p", "q")
        g.remove_edge("p", "q")
        s.note_deleted([("p", "q")])
        g.add_edge("p", "q")
        s.note_inserted([("p", "q")])
        assert not s.can_affect("p", "q")
        assert {f: f.dist for f in s.fields} == before
        s.check_exact()


@pytest.mark.parametrize("mode", ["bfs", "landmark", "matrix"])
def test_oracle_agrees_with_ground_truth(mode):
    """On a freshly registered one-query pool the oracle must equal the
    textbook check: some eligible source within k-1 (possibly-empty) hops
    of x AND y within k-1 hops of some eligible target, for some pattern
    edge — and the pool's router must select the query exactly then."""
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(3, 7)
        g = DiGraph()
        for v in range(n):
            g.add_node(v, label=rng.choice(["A", "B", "M"]))
        for _ in range(rng.randint(2, 2 * n)):
            g.add_edge(rng.randrange(n), rng.randrange(n))
        k = rng.choice([2, 3, None])
        pattern = Pattern.from_spec(
            {"x": "label = A", "y": "label = B"},
            [("x", "y", k)],
        )
        pool = MatcherPool(g)
        q = pool.register(pattern, semantics="bounded", distance_mode=mode)
        assert q.distance_routed
        idx = q.index
        r = None if k is None else k - 1

        def leg_ok(src, dst, rad):
            d = bfs_distances(g, src).get(dst)
            return d is not None and (rad is None or d <= rad)

        for x in g.nodes():
            for y in g.nodes():
                truth = any(
                    leg_ok(a, x, r) for a in idx.eligible["x"]
                ) and any(leg_ok(y, c, r) for c in idx.eligible["y"])
                assert q.can_affect_edge(x, y) == truth, (mode, k, x, y)
                routed = pool._router.route_edge(
                    x, y, g.attrs(x), g.attrs(y)
                )
                assert (q in routed) == truth, (mode, k, x, y)


class TestStratifiedField:
    """One BallField per (sources, direction) answers *every* radius up
    to its cap: entries at d <= cap are cap-independent, so `within(v, r)`
    with r <= cap needs no per-radius field."""

    def _field(self, radius):
        g = DiGraph([("s", "a"), ("a", "b"), ("b", "c"), ("c", "d")])
        return g, BallField(g, {"s"}, radius)

    def test_within_answers_every_stratum(self):
        g, f = self._field(3)
        assert f.within("s", 0)
        assert f.within("a", 1) and not f.within("b", 1)
        assert f.within("b", 2) and f.within("c", 3)
        assert not f.within("d", 3)  # beyond the cap and beyond d=3

    def test_within_beyond_cap_rejected(self):
        _, f = self._field(2)
        with pytest.raises(ValueError):
            f.within("a", 3)

    def test_uncapped_field_serves_finite_radii(self):
        _, f = self._field(None)
        assert f.within("d", 4) and not f.within("d", 3)
        assert f.within("d")  # reachability stratum

    def test_finite_field_rejects_unbounded_query(self):
        _, f = self._field(2)
        with pytest.raises(ValueError):
            f.within("a")

    def test_shrink_then_regrow_is_exact(self):
        g, f = self._field(4)
        full = dict(f.dist)
        f.set_radius(2)
        assert f.dist == {v: d for v, d in full.items() if d <= 2}
        f.set_radius(4)  # regrow from the d == 2 frontier
        assert f.dist == full

    def test_grow_to_unbounded(self):
        g, f = self._field(1)
        f.set_radius(None)
        assert f.within("d")
        assert f.dist["d"] == 4

    def test_grow_sees_post_shrink_mutations(self):
        g, f = self._field(1)
        g.add_edge("a", "z")
        f.grow_edges([("a", "z")])
        f.set_radius(3)
        assert f.within("z", 2)
        assert f.within("c", 3)
