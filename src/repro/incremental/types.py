"""The update model: unit and batch edge updates (paper Section 4).

"For changes to graphs, we consider unit update, i.e., a single-edge
deletion or insertion, and batch update, i.e., a list of edge deletions and
insertions mixed together."
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Tuple

from ..graphs.digraph import DiGraph, Node


class Update(NamedTuple):
    """One edge update.  ``op`` is 'insert' or 'delete'."""

    op: str
    source: Node
    target: Node

    @property
    def edge(self) -> Tuple[Node, Node]:
        return (self.source, self.target)

    def inverse(self) -> "Update":
        return Update(
            "delete" if self.op == "insert" else "insert",
            self.source,
            self.target,
        )


def insert(source: Node, target: Node) -> Update:
    return Update("insert", source, target)


def delete(source: Node, target: Node) -> Update:
    return Update("delete", source, target)


def validate_update(update: Update) -> None:
    if update.op not in ("insert", "delete"):
        raise ValueError(f"unknown update op {update.op!r}")


def apply_update(graph: DiGraph, update: Update) -> bool:
    """Apply one update; returns True iff the graph changed."""
    validate_update(update)
    if update.op == "insert":
        return graph.add_edge(update.source, update.target)
    return graph.remove_edge(update.source, update.target)


def apply_batch(graph: DiGraph, updates: Iterable[Update]) -> int:
    """Apply updates in order; returns the number of effective changes."""
    return sum(1 for u in updates if apply_update(graph, u))


def net_updates(graph: DiGraph, updates: Iterable[Update]) -> List[Update]:
    """Collapse a batch to its *net effect* against ``graph``.

    This is the cancellation step of ``minDelta`` (Section 5.2): an
    insertion and deletion of the same edge cancel; repeated updates
    collapse; updates that leave an edge in its original state vanish.
    The result applies in any order and reaches the same final graph.
    """
    state = {}
    order: List[Tuple[Node, Node]] = []
    for u in updates:
        validate_update(u)
        if u.edge not in state:
            order.append(u.edge)
        state[u.edge] = u.op == "insert"
    net: List[Update] = []
    for edge in order:
        final_present = state[edge]
        initially_present = graph.has_edge(*edge)
        if final_present and not initially_present:
            net.append(insert(*edge))
        elif not final_present and initially_present:
            net.append(delete(*edge))
    return net


def net_edges(
    graph: DiGraph, updates: Iterable[Update]
) -> Tuple[List[Tuple[Node, Node]], List[Tuple[Node, Node]]]:
    """:func:`net_updates` split into ``(deleted, inserted)`` edge lists."""
    net = net_updates(graph, updates)
    return (
        [u.edge for u in net if u.op == "delete"],
        [u.edge for u in net if u.op == "insert"],
    )


def edit_edges(graph: DiGraph, deleted, inserted) -> None:
    """Apply a netted batch to ``graph`` (inserted endpoints are created)."""
    for v, w in deleted:
        graph.remove_edge(v, w)
    for v, w in inserted:
        graph.add_edge(v, w)
