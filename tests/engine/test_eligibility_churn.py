"""The eligibility substrate under attribute churn.

Two kinds of test:

- a Hypothesis differential suite: random batches of attribute writes
  and deletes, fresh nodes and repeated events on one node, over values
  of mixed types (``1`` / ``1.0`` / ``True``, ints beyond 2^53, strings,
  ``None``, NaN, unhashable lists, a value whose ``==`` disagrees with
  its hash), on both graph backends and both kernel modes.  The flips
  :meth:`SharedEligibilityIndex.observe_events` returns must equal a
  brute-force diff of every leased predicate's verdicts before and after
  the batch, and ``check_invariants()`` must hold after each batch;
- counting tests that pin the cost shape: a ``label`` merge evaluates
  only the equality atoms equal to the old and new label, a score flip
  reconciles only the conjunctions whose pivot the node satisfies, and a
  leased isomorphism index never scans the graph for candidates.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MatcherPool, SharedEligibilityIndex
from repro.engine.eligibility import ABSENT
from repro.graphs import kernels
from repro.graphs.columnar import as_backend
from repro.graphs.digraph import DiGraph
from repro.incremental.types import insert
from repro.matching import isomorphism
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Atom, Predicate, parse_predicate


class Chameleon:
    """Equal to ``1`` (and to other chameleons) with a hash that
    disagrees with ``hash(1)``: a value that must never be looked up by
    hash."""

    def __eq__(self, other):
        return isinstance(other, Chameleon) or other == 1

    def __hash__(self):
        return 7

    def __repr__(self):
        return "Chameleon()"


NAN = float("nan")
BIG = 2**53 + 1
# Hashable values usable as atom constants.
CONSTANTS = [0, 1, 1.0, True, False, 2, BIG, float(2**53), "a", "b", "1",
             None, NAN, (1,)]
# Node attribute values: the constants plus unhashable and foreign ones.
VALUES = CONSTANTS + [[1], [1, 2], Chameleon()]
ATTRS = ("a", "b")
OPS = ("=", "!=", "<", ">=")

# Conjunctions that always take part: equality pivots across
# attributes (each atom of ``a = 1 & b = 'a'`` pivots on the other's
# attribute, so both must be able to reconcile it), and range atoms
# bucketed under an equality pivot.
FIXED = [
    Predicate((Atom("a", "=", 1), Atom("b", "=", "a"))),
    Predicate((Atom("a", "=", "a"), Atom("b", ">=", 1))),
    Predicate((Atom("b", "=", None), Atom("a", "<", 2))),
    Predicate((Atom("a", "=", True),)),
    Predicate((Atom("a", "!=", "b"),)),
    Predicate.true(),
]

atoms = st.builds(
    Atom, st.sampled_from(ATTRS), st.sampled_from(OPS),
    st.sampled_from(CONSTANTS),
)
predicates = st.lists(atoms, min_size=1, max_size=3).map(Predicate)
attr_maps = st.dictionaries(st.sampled_from(ATTRS), st.sampled_from(VALUES))
# One op: ("set", node, attr, value, report_old_values?) /
# ("del", node, attr, report_old_values?) / ("add", node, attrs).
ops = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 6), st.sampled_from(ATTRS),
              st.sampled_from(VALUES), st.booleans()),
    st.tuples(st.just("del"), st.integers(0, 6), st.sampled_from(ATTRS),
              st.booleans()),
    st.tuples(st.just("add"), st.integers(0, 8), attr_maps),
)

MODES = [
    pytest.param("numpy", marks=pytest.mark.skipif(
        not kernels.numpy_available(), reason="numpy not installed")),
    "python",
]


def _verdicts(graph, preds):
    return {
        p: {v for v in graph.nodes() if p.satisfied_by(graph.attrs(v))}
        for p in preds
    }


def _apply(graph, op):
    """Apply one op to the graph; return its node event, or None when
    the op does not apply (missing node / attribute)."""
    kind, v = op[0], op[1]
    if kind == "add":
        attrs = op[2]
        if not graph.has_node(v):
            graph.add_node(v, **attrs)
            return (v, None, True)
        row = graph.attrs(v)
        old = {name: row.get(name, ABSENT) for name in attrs}
        graph.add_node(v, **attrs)
        return (v, old, False)
    if not graph.has_node(v):
        return None
    row = graph.attrs(v)
    if kind == "set":
        _, _, name, value, report = op
        old = row.get(name, ABSENT)
        graph.set_attr(v, name, value)
    else:
        _, _, name, report = op
        if name not in row:
            return None
        old = row[name]
        del graph.attrs(v)[name]
    return (v, {name: old} if report else [name], False)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", ["dict", "columnar"])
@settings(max_examples=60, deadline=None)
@given(
    base=st.lists(attr_maps, min_size=1, max_size=6),
    drawn=st.lists(predicates, max_size=5),
    batches=st.lists(st.lists(ops, min_size=1, max_size=6), max_size=6),
    swaps=st.lists(st.booleans(), min_size=6, max_size=6),
)
def test_observe_events_matches_brute_force(
    backend, mode, base, drawn, batches, swaps
):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_KERNELS", mode)
        g = DiGraph()
        for v, attrs in enumerate(base):
            g.add_node(v, **attrs)
        g = as_backend(g, backend)
        idx = SharedEligibilityIndex(g)
        leased = list(dict.fromkeys(FIXED + drawn))
        for p in leased:
            idx.lease(p)
        idx.check_invariants()
        for batch, swap in zip(batches, swaps):
            if swap and drawn:
                # Drop one predicate and re-lease it, rewiring its pivot
                # buckets mid-run.
                p = drawn[0]
                idx.release(p)
                idx.check_invariants()
                idx.lease(p)
            before = _verdicts(g, leased)
            events = [e for e in (_apply(g, op) for op in batch) if e]
            flips = idx.observe_events(events)
            after = _verdicts(g, leased)
            expected = {
                (p, v, v in after[p])
                for p in leased
                for v in before[p] ^ after[p]
            }
            assert len(flips) == len(set(flips)), flips
            assert set(flips) == expected
            idx.check_invariants()


def _label_pool(communities=16):
    """The benchmark's attr-churn shape: one label atom per community
    label (48 in all), conjoined with score atoms."""
    g = DiGraph()
    for c in range(communities):
        for j in range(3):
            g.add_node(f"c{c}n{j}", label=f"{'ABC'[j]}{c}", score=j)
        g.add_edge(f"c{c}n0", f"c{c}n1")
        g.add_edge(f"c{c}n1", f"c{c}n2")
    pool = MatcherPool(g)
    for c in range(communities):
        pool.register(
            Pattern.from_spec(
                {"x": f"label = A{c} & score > 0", "y": f"label = B{c}",
                 "z": f"label = C{c} & score >= 1"},
                [("x", "y", 1), ("y", "z", 1)],
            ),
            semantics="simulation", name=f"q{c}",
        )
    return pool


class TestCostShape:
    def test_label_merge_evaluates_old_and_new_label_atoms_only(self):
        pool = _label_pool()
        label_atoms = [
            a for a in pool.eligibility._atoms if a.attribute == "label"
        ]
        assert len(label_atoms) == 48
        stats = pool.eligibility.stats
        before = stats.atom_evals
        pool.update_node_attrs("c3n0", label="B3")
        assert stats.atom_evals - before <= 2
        before = stats.atom_evals
        pool.update_node_attrs("c3n0", label="B3")  # no change: one lookup
        assert stats.atom_evals - before <= 1
        pool.eligibility.check_invariants()

    def test_score_flip_reconciles_pivot_holders_only(self):
        pool = _label_pool()
        idx = pool.eligibility
        seen = []
        reconcile = idx._reconcile_batch

        def spy(affected):
            seen.append({e.predicate for e in affected})
            return reconcile(affected)

        idx._reconcile_batch = spy
        # c5n0 (label A5, score 0) crosses ``score > 0`` and
        # ``score >= 1``: 32 conjunctions read those atoms, but only the
        # one pivoted on ``label = A5`` can hold the node.
        score_deps = sum(
            len(ae.dependents())
            for atom, ae in idx._atoms.items()
            if atom.attribute == "score"
        )
        assert score_deps == 32
        pool.update_node_attrs("c5n0", score=3)
        assert seen == [{parse_predicate("label = A5 & score > 0")}]
        idx.check_invariants()

    def test_leased_iso_search_never_scans_for_candidates(self, monkeypatch):
        g = DiGraph()
        g.add_node(1, label="A", score=0)
        g.add_node(2, label="B")
        g.add_node(3, label="A", score=5)
        g.add_edge(1, 2)
        pool = MatcherPool(g)
        q = pool.register(
            Pattern.from_spec(
                {"x": "label = A & score > 1", "y": "label = B"},
                [("x", "y", 1)],
            ),
            semantics="isomorphism", name="iso",
        )
        assert q.embeddings() == []

        def scan(*_args, **_kwargs):
            raise AssertionError("leased IsoIndex scanned the graph")

        monkeypatch.setattr(isomorphism, "candidate_sets", scan)
        pool.update_node_attrs(1, score=4)  # flip gain
        assert q.embeddings() == [{"x": 1, "y": 2}]
        pool.apply([insert(3, 2)])  # edge insert
        assert len(q.embeddings()) == 2
        pool.apply([insert(3, "fresh")])  # insert with a fresh endpoint
        assert len(q.embeddings()) == 2
