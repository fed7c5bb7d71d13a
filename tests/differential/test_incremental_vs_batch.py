"""Differential sweep: incremental maintenance vs from-scratch recomputation.

The docstrings of all three incremental indexes promise the same central
invariant — after any update stream, the maintained result equals a batch
recomputation on the current graph.  Unit tests pin single scenarios; this
module sweeps the invariant across random multi-flush update streams for
every semantics, both through the raw indexes (``apply_batch``, unit
``insert_edge`` / ``delete_edge`` and ``apply_batch_naive``, with node
refreshes between flushes) and through the shared-graph
:class:`~repro.engine.pool.MatcherPool` plumbing (routing + phased
repair), which must agree with them pair for pair.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MatcherPool
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.inciso import IsoIndex
from repro.incremental.incsim import SimulationIndex
from repro.incremental.types import insert
from repro.matching.bounded import bounded_match
from repro.matching.isomorphism import iter_embeddings
from repro.matching.relation import as_pairs, totalize
from repro.matching.simulation import maximum_simulation

from tests.strategies import LABELS, small_graphs, small_patterns, update_batches

FLUSHES = 3


def emb_set(embeddings):
    return {frozenset(e.items()) for e in embeddings}


def assert_simulation_consistent(pattern, graph, relation):
    assert as_pairs(relation) == as_pairs(
        totalize(maximum_simulation(pattern, graph))
    )


def assert_bounded_consistent(pattern, graph, relation):
    assert as_pairs(relation) == as_pairs(
        totalize(bounded_match(pattern, graph))
    )


def assert_iso_consistent(pattern, graph, embeddings):
    assert emb_set(embeddings) == emb_set(iter_embeddings(pattern, graph))


# ----------------------------------------------------------------------
# Raw indexes: every standalone path, with node refreshes between flushes
# ----------------------------------------------------------------------
# The standalone entry points share one repair core with the pool, so the
# from-scratch recomputation is the independent oracle here.
PATHS = ("apply_batch", "unit", "apply_batch_naive")


def feed(idx, path, updates):
    """Apply one flush's updates to ``idx`` through ``path``."""
    if path == "apply_batch":
        idx.apply_batch(updates)
    elif path == "apply_batch_naive":
        idx.apply_batch_naive(updates)
    else:
        for upd in updates:
            if upd.op == "insert":
                idx.insert_edge(upd.source, upd.target)
            else:
                idx.delete_edge(upd.source, upd.target)


def check_paths(data, make_index, graph, max_updates, consistent,
                paths=PATHS):
    """Drive one index per path, each on its own copy of ``graph``, with
    the same drawn flushes, and check each after every flush.

    A flush may refresh existing nodes (``update_node_attrs``, or
    ``add_node`` where the index has it) and may wire in a fresh node —
    labelled by ``add_node`` first, or attribute-less.
    """
    idxs = [(path, make_index(graph.copy())) for path in paths]
    node_events = ["update_node_attrs"]
    if hasattr(idxs[0][1], "add_node"):
        node_events.append("add_node")
    for flush in range(FLUSHES):
        graph = idxs[0][1].graph
        nodes = sorted(graph.nodes())
        events = data.draw(st.lists(st.tuples(
            st.sampled_from(node_events),
            st.sampled_from(nodes),
            st.sampled_from(LABELS),
        ), max_size=2))
        updates = data.draw(update_batches(graph, max_updates=max_updates))
        if data.draw(st.booleans()):
            fresh = 100 + flush
            if "add_node" in node_events and data.draw(st.booleans()):
                events.append(
                    ("add_node", fresh, data.draw(st.sampled_from(LABELS)))
                )
            v = data.draw(st.sampled_from(nodes))
            updates.append(
                insert(v, fresh) if data.draw(st.booleans())
                else insert(fresh, v)
            )
        for path, idx in idxs:
            for method, v, label in events:
                getattr(idx, method)(v, label=label)
            feed(idx, path, updates)
            consistent(idx)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_simulation_stream_matches_batch(data):
    pattern = data.draw(small_patterns(max_bound=1, allow_star=False))

    def consistent(idx):
        assert_simulation_consistent(pattern, idx.graph, idx.matches())
        idx.check_invariants()

    check_paths(data, lambda g: SimulationIndex(pattern, g),
                data.draw(small_graphs()), 10, consistent)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_bounded_stream_matches_batch(data):
    pattern = data.draw(small_patterns(max_nodes=3))

    def consistent(idx):
        assert_bounded_consistent(pattern, idx.graph, idx.matches())
        idx.check_invariants()

    check_paths(data, lambda g: BoundedSimulationIndex(pattern, g),
                data.draw(small_graphs(max_nodes=6)), 6, consistent)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_bounded_landmark_stream_matches_batch(data):
    pattern = data.draw(small_patterns(max_nodes=3))

    def consistent(idx):
        assert_bounded_consistent(pattern, idx.graph, idx.matches())
        idx.check_invariants()

    check_paths(
        data,
        lambda g: BoundedSimulationIndex(pattern, g, distance_mode="landmark"),
        data.draw(small_graphs(max_nodes=6)), 6, consistent,
    )


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_iso_stream_matches_batch(data):
    pattern = data.draw(
        small_patterns(max_nodes=3, max_bound=1, allow_star=False)
    )

    def consistent(idx):
        assert_iso_consistent(pattern, idx.graph, idx.embeddings())

    # IsoIndex has no naive path.
    check_paths(data, lambda g: IsoIndex(pattern, g),
                data.draw(small_graphs(max_nodes=6)), 6, consistent,
                paths=PATHS[:2])


# ----------------------------------------------------------------------
# Pool plumbing: all three semantics side by side on one shared graph,
# with routed/phased repair and interleaved attribute updates
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_pool_stream_matches_batch_all_semantics(data):
    graph = data.draw(small_graphs(max_nodes=6))
    sim_pattern = data.draw(
        small_patterns(max_nodes=3, max_bound=1, allow_star=False)
    )
    b_pattern = data.draw(small_patterns(max_nodes=3))
    iso_pattern = data.draw(
        small_patterns(max_nodes=3, max_bound=1, allow_star=False)
    )
    pool = MatcherPool(graph)
    graph = pool.graph  # the pool may convert the backend; track its copy
    sim_q = pool.register(sim_pattern, semantics="simulation", name="sim")
    b_q = pool.register(b_pattern, semantics="bounded", name="bsim")
    iso_q = pool.register(iso_pattern, semantics="isomorphism", name="iso")
    nodes = sorted(graph.nodes())
    for _ in range(FLUSHES):
        pool.queue_updates(data.draw(update_batches(graph, max_updates=6)))
        if nodes and data.draw(st.booleans()):
            v = data.draw(st.sampled_from(nodes))
            pool.queue_node(v, label=data.draw(st.sampled_from(LABELS)))
        pool.flush()
        assert_simulation_consistent(sim_pattern, graph, sim_q.matches())
        assert_bounded_consistent(b_pattern, graph, b_q.matches())
        assert_iso_consistent(iso_pattern, graph, iso_q.embeddings())
        sim_q.index.check_invariants()
        b_q.index.check_invariants()


@pytest.mark.parametrize("mode", ["bfs", "landmark", "matrix"])
@settings(max_examples=12, deadline=None)
@given(st.data())
def test_pool_bounded_distance_modes_with_node_churn(mode, data):
    """The safety net for distance-aware routing: bounded queries in every
    ``distance_mode``, with node additions, attribute flips (eligibility
    gained AND lost), and fresh nodes wired mid-flush interleaved with the
    edge batches — recomputed from scratch after every flush."""
    from repro.incremental.types import insert as ins

    graph = data.draw(small_graphs(max_nodes=5))
    pattern = data.draw(small_patterns(max_nodes=3))
    pool = MatcherPool(graph)
    graph = pool.graph  # the pool may convert the backend; track its copy
    q = pool.register(
        pattern, semantics="bounded", distance_mode=mode, name="b"
    )
    next_node = 100
    for _ in range(FLUSHES):
        nodes = sorted(graph.nodes())
        # A brand-new labelled node, sometimes wired in the same flush.
        if data.draw(st.booleans()):
            pool.queue_node(
                next_node, label=data.draw(st.sampled_from(LABELS))
            )
            if nodes and data.draw(st.booleans()):
                pool.queue(
                    ins(data.draw(st.sampled_from(nodes)), next_node)
                )
            next_node += 1
        # An attribute flip on an existing node (may gain/lose layers).
        if nodes and data.draw(st.booleans()):
            pool.queue_node(
                data.draw(st.sampled_from(nodes)),
                label=data.draw(st.sampled_from(LABELS)),
            )
        pool.queue_updates(data.draw(update_batches(graph, max_updates=6)))
        pool.flush()
        assert_bounded_consistent(pattern, graph, q.matches())
        q.index.check_invariants()


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_pool_with_fresh_nodes_and_attr_flips(data):
    """Streams that grow the node set and flip eligibility mid-stream."""
    graph = data.draw(small_graphs(max_nodes=5))
    pattern = data.draw(
        small_patterns(max_nodes=3, max_bound=1, allow_star=False)
    )
    pool = MatcherPool(graph)
    graph = pool.graph  # the pool may convert the backend; track its copy
    q = pool.register(pattern, semantics="simulation", name="sim")
    next_node = 100
    for _ in range(FLUSHES):
        nodes = sorted(graph.nodes())
        # A brand-new labelled node, sometimes wired in the same flush.
        pool.queue_node(next_node, label=data.draw(st.sampled_from(LABELS)))
        if nodes and data.draw(st.booleans()):
            from repro.incremental.types import insert

            pool.queue(insert(data.draw(st.sampled_from(nodes)), next_node))
        pool.queue_updates(data.draw(update_batches(graph, max_updates=4)))
        pool.flush()
        next_node += 1
        assert_simulation_consistent(pattern, graph, q.matches())
        q.index.check_invariants()
