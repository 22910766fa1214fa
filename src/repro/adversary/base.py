"""Adversary interface and event types.

The adversary observes the *healed* graph ``G_t`` (it is omniscient about the
topology) and the ghost graph, and produces one event per timestep: either an
insertion (a fresh node id plus the existing nodes it attaches to) or a
deletion (an existing node id).  It never observes the healer's random bits —
the model's "oblivious to the random choices" assumption — which is enforced
structurally: adversaries receive only the graphs, never the healer object.
"""

from __future__ import annotations

import enum
from abc import ABC
from dataclasses import dataclass, field
from typing import Iterable

import networkx as nx

from repro.core.edgestore import EdgeStore
from repro.util.ids import IdAllocator, NodeId
from repro.util.rng import SeededRng


def _sorted_nodes(graph: nx.Graph | EdgeStore) -> list[NodeId]:
    """Return every node in ascending order (read-only: may be the store's index)."""
    if isinstance(graph, EdgeStore):
        return graph.sorted_nodes
    return sorted(graph.nodes())


class EventType(enum.Enum):
    """The two adversarial moves allowed by the model."""

    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class AdversaryEvent:
    """A single adversarial move.

    ``node`` is the inserted or deleted node; ``neighbors`` is only meaningful
    for insertions (the existing nodes the new node connects to).
    """

    type: EventType
    node: NodeId
    neighbors: tuple[NodeId, ...] = field(default_factory=tuple)

    @property
    def is_insertion(self) -> bool:
        """Return whether this event inserts a node."""
        return self.type is EventType.INSERT

    @property
    def is_deletion(self) -> bool:
        """Return whether this event deletes a node."""
        return self.type is EventType.DELETE


class Adversary(ABC):
    """Base class for adversary strategies.

    Subclasses implement :meth:`next_event` (one move per timestep) or, for
    correlated failures, :meth:`next_events` (a batch applied atomically
    within one timestep); the shared machinery provides a seeded random
    stream and an :class:`~repro.util.ids.IdAllocator` so that inserted node
    ids never collide with existing ones.
    """

    name: str = "abstract"

    def __init__(self, seed: int = 0):
        self._rng = SeededRng(seed).child("adversary", type(self).__name__)
        self._allocator: IdAllocator | None = None

    def bind(self, initial_graph: nx.Graph) -> None:
        """Attach the adversary to the initial graph (reserves existing node ids)."""
        self._allocator = IdAllocator.from_existing(initial_graph.nodes())

    def _fresh_node(self) -> NodeId:
        if self._allocator is None:
            raise RuntimeError("adversary used before bind() was called")
        return self._allocator.allocate()

    def next_event(self, graph: nx.Graph, timestep: int) -> AdversaryEvent | None:
        """Return the adversary's move given the current healed graph ``G_t``.

        Returning ``None`` means the adversary has nothing left to do (for
        example, a deletion-only adversary facing a too-small graph); the
        experiment harness stops the run early in that case.

        Single-move adversaries override this; batched adversaries override
        :meth:`next_events` instead, in which case this method is unused.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither next_event nor next_events"
        )

    def next_events(self, graph: nx.Graph, timestep: int) -> tuple[AdversaryEvent, ...] | None:
        """Return the adversary's moves for one timestep, as an atomic batch.

        The harness applies the whole batch within a single timestep (one
        metric observation cadence), or none of it: a batch that fails
        validation aborts the run before any member event is applied.  The
        default wraps :meth:`next_event`, so single-move adversaries get
        batches of one for free.  Returning ``None`` — or an empty batch —
        stops the run early.
        """
        event = self.next_event(graph, timestep)
        if event is None:
            return None
        return (event,)

    # -- helpers shared by concrete strategies --------------------------------

    def _random_insertion(self, graph: nx.Graph, max_attachments: int) -> AdversaryEvent | None:
        """Insert a fresh node attached to a random non-empty subset of nodes."""
        nodes = _sorted_nodes(graph)
        if not nodes:
            return None
        count = self._rng.randint(1, min(max_attachments, len(nodes)))
        neighbors = tuple(self._rng.sample(nodes, count))
        return AdversaryEvent(EventType.INSERT, self._fresh_node(), neighbors)

    @staticmethod
    def _deletable_nodes(graph: nx.Graph, minimum_remaining: int) -> list[NodeId]:
        """Return nodes that may be deleted while keeping ``minimum_remaining`` nodes.

        Either every node, in ascending order, or none.  The list may be the
        store's own index: read it, never mutate it.
        """
        if graph.number_of_nodes() <= minimum_remaining:
            return []
        return _sorted_nodes(graph)

    @staticmethod
    def _batched_deletions(
        graph: nx.Graph, targets: Iterable[NodeId], minimum_remaining: int
    ) -> tuple[AdversaryEvent, ...]:
        """Turn ``targets`` into an atomically-guarded batch of deletions.

        A correlated kill must never half-apply: if deleting every target
        would shrink the graph below ``minimum_remaining`` nodes, the batch is
        truncated *up front* — the first ``n - minimum_remaining`` targets in
        order — so the harness either applies the whole (possibly shortened)
        batch or, when no deletion is affordable, receives an empty tuple.
        Targets not currently in the graph are skipped.
        """
        allowance = graph.number_of_nodes() - minimum_remaining
        if allowance <= 0:
            return ()
        events: list[AdversaryEvent] = []
        for node in targets:
            if len(events) >= allowance:
                break
            if node in graph:
                events.append(AdversaryEvent(EventType.DELETE, node))
        return tuple(events)
