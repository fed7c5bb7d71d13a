"""Tests for the Ramalingam-Reps dynamic SSSP substrate."""

from hypothesis import given, settings

from repro.graphs.digraph import DiGraph
from repro.graphs.generators import chain, cycle_graph, synthetic_graph
from repro.graphs.traversal import INF, bfs_distances
from repro.shortestpaths.dynamic_sssp import DynamicSSSP
from repro.workloads.updates import mixed_updates
from tests.strategies import small_graphs


def assert_exact(sssp: DynamicSSSP, g: DiGraph) -> None:
    truth = bfs_distances(g, sssp.source, reverse=sssp.reverse)
    assert sssp.distances() == truth


class TestInit:
    def test_forward_chain(self):
        g = chain(5)
        sssp = DynamicSSSP(g, 0)
        assert sssp.dist(4) == 4
        assert sssp.dist(0) == 0

    def test_reverse_chain(self):
        g = chain(5)
        sssp = DynamicSSSP(g, 4, reverse=True)
        assert sssp.dist(0) == 4

    def test_unreachable_inf(self):
        g = chain(3)
        g.add_node("island")
        sssp = DynamicSSSP(g, 0)
        assert sssp.dist("island") == INF

    def test_missing_source(self):
        g = DiGraph()
        sssp = DynamicSSSP(g, "ghost")
        assert sssp.dist("anything") == INF


class TestInsert:
    def test_shortcut_decreases(self):
        g = chain(6)
        sssp = DynamicSSSP(g, 0)
        g.add_edge(0, 5)
        sssp.on_insert(0, 5)
        assert sssp.dist(5) == 1
        assert_exact(sssp, g)

    def test_insert_into_unreachable_region(self):
        g = chain(3)
        g.add_edge(10, 11)
        sssp = DynamicSSSP(g, 0)
        assert sssp.dist(10) == INF
        g.add_edge(2, 10)
        sssp.on_insert(2, 10)
        assert sssp.dist(11) == 4
        assert_exact(sssp, g)

    def test_insert_from_unreachable_tail_noop(self):
        g = chain(3)
        g.add_node("x")
        g.add_edge("x", 1)
        sssp = DynamicSSSP(g, 0)
        sssp.on_insert("x", 1)
        assert_exact(sssp, g)

    def test_reverse_insert(self):
        g = chain(4)
        sssp = DynamicSSSP(g, 3, reverse=True)
        g.add_edge(0, 3)
        sssp.on_insert(0, 3)
        assert sssp.dist(0) == 1
        assert_exact(sssp, g)


class TestDelete:
    def test_delete_breaks_reachability(self):
        g = chain(4)
        sssp = DynamicSSSP(g, 0)
        g.remove_edge(1, 2)
        sssp.on_delete(1, 2)
        assert sssp.dist(2) == INF
        assert sssp.dist(3) == INF
        assert_exact(sssp, g)

    def test_delete_with_alternate_path(self):
        g = chain(4)
        g.add_edge(0, 2)
        sssp = DynamicSSSP(g, 0)
        g.remove_edge(1, 2)
        sssp.on_delete(1, 2)
        assert sssp.dist(2) == 1
        assert sssp.dist(3) == 2
        assert_exact(sssp, g)

    def test_delete_non_tight_edge_noop(self):
        g = chain(4)
        g.add_edge(0, 2)  # makes (1, 2) non-tight
        sssp = DynamicSSSP(g, 0)
        g.remove_edge(0, 2)
        sssp.on_delete(0, 2)
        assert_exact(sssp, g)

    def test_delete_in_cycle(self):
        g = cycle_graph(5)
        sssp = DynamicSSSP(g, 0)
        g.remove_edge(2, 3)
        sssp.on_delete(2, 3)
        assert sssp.dist(3) == INF
        assert_exact(sssp, g)

    def test_reverse_delete(self):
        g = chain(4)
        sssp = DynamicSSSP(g, 3, reverse=True)
        g.remove_edge(1, 2)
        sssp.on_delete(1, 2)
        assert sssp.dist(0) == INF
        assert_exact(sssp, g)


class TestBatch:
    def test_mixed_batch(self):
        g = synthetic_graph(40, 100, seed=2)
        sssp = DynamicSSSP(g, 0)
        ups = mixed_updates(g, 10, 10, seed=3)
        ins, dels = [], []
        for u in ups:
            if u.op == "insert" and g.add_edge(u.source, u.target):
                ins.append(u.edge)
            elif u.op == "delete" and g.remove_edge(u.source, u.target):
                dels.append(u.edge)
        sssp.on_batch(ins, dels)
        assert_exact(sssp, g)

    def test_delete_then_reinsert_same_edge_via_batch(self):
        g = chain(4)
        sssp = DynamicSSSP(g, 0)
        # Net effect: nothing (edge removed and re-added before repair).
        g.remove_edge(1, 2)
        g.add_edge(1, 2)
        sssp.on_batch([(1, 2)], [(1, 2)])
        assert_exact(sssp, g)

    def test_insert_lowers_deletion_affected_node_then_its_children(self):
        """A mixed batch whose insertion settles a deletion-affected node
        below its old distance must relax that node's unaffected
        children too.  Node 4 (old distance 5) loses its only parent edge
        (1, 4) and regains distance 2 through the inserted (2, 4); its
        child 1 must then drop from 4 to 3."""
        g = DiGraph()
        for x, y in [(0, 2), (1, 4), (2, 3), (3, 5), (4, 1), (4, 5), (5, 1)]:
            g.add_edge(x, y)
        sssp = DynamicSSSP(g, 0)
        assert sssp.dist(1) == 4 and sssp.dist(4) == 5
        g.remove_edge(1, 4)
        g.add_edge(2, 4)
        sssp.on_batch([(2, 4)], [(1, 4)])
        assert sssp.dist(4) == 2
        assert sssp.dist(1) == 3
        assert_exact(sssp, g)

    def test_reverse_mixed_batch_lowers_affected_children(self):
        """The same repair in the reverse orientation (distances *to* the
        source), on the mirrored reproducer."""
        g = DiGraph()
        for x, y in [(0, 2), (1, 4), (2, 3), (3, 5), (4, 1), (4, 5), (5, 1)]:
            g.add_edge(y, x)
        sssp = DynamicSSSP(g, 0, reverse=True)
        g.remove_edge(4, 1)
        g.add_edge(4, 2)
        sssp.on_batch([(4, 2)], [(4, 1)])
        assert sssp.dist(1) == 3
        assert_exact(sssp, g)

    def test_recompute_matches_incremental(self):
        g = synthetic_graph(30, 70, seed=5)
        sssp = DynamicSSSP(g, 3)
        g.add_edge(3, 17)
        sssp.on_insert(3, 17)
        fresh = DynamicSSSP(g, 3)
        assert sssp.distances() == fresh.distances()

    def test_stats_count_work(self):
        g = chain(6)
        sssp = DynamicSSSP(g, 0)
        g.add_edge(0, 3)
        sssp.on_insert(0, 3)
        assert sssp.stats.nodes_touched >= 1
        sssp.stats.reset()
        assert sssp.stats.nodes_touched == 0


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_random_unit_updates_stay_exact(g):
    nodes = sorted(g.nodes(), key=repr)
    source = nodes[0]
    fwd = DynamicSSSP(g, source)
    bwd = DynamicSSSP(g, source, reverse=True)
    ups = mixed_updates(g, 4, 4, seed=7)
    for u in ups:
        if u.op == "insert":
            if g.add_edge(u.source, u.target):
                fwd.on_insert(u.source, u.target)
                bwd.on_insert(u.source, u.target)
        else:
            if g.remove_edge(u.source, u.target):
                fwd.on_delete(u.source, u.target)
                bwd.on_delete(u.source, u.target)
        assert_exact(fwd, g)
        assert_exact(bwd, g)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_random_batches_stay_exact(g):
    nodes = sorted(g.nodes(), key=repr)
    source = nodes[len(nodes) // 2]
    fwd = DynamicSSSP(g, source)
    bwd = DynamicSSSP(g, source, reverse=True)
    ups = mixed_updates(g, 5, 5, seed=11)
    ins, dels = [], []
    for u in ups:
        if u.op == "insert" and g.add_edge(u.source, u.target):
            ins.append(u.edge)
        elif u.op == "delete" and g.remove_edge(u.source, u.target):
            dels.append(u.edge)
    fwd.on_batch(ins, dels)
    bwd.on_batch(ins, dels)
    assert_exact(fwd, g)
    assert_exact(bwd, g)
