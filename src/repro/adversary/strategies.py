"""Concrete adversary strategies."""

from __future__ import annotations

from typing import Iterable, Sequence

import networkx as nx

from repro.adversary.base import Adversary, AdversaryEvent, EventType
from repro.scenarios.registry import register_adversary
from repro.util.ids import NodeId
from repro.util.validation import require, require_probability

#: Experiments never shrink the network below this many nodes by default; the
#: healing guarantees are asymptotic and tiny graphs are all corner cases.
DEFAULT_MIN_NODES = 4


@register_adversary("random", aliases=("churn",))
class RandomAdversary(Adversary):
    """Churn: with probability ``delete_probability`` delete a random node, else insert one."""

    name = "random"

    def __init__(
        self,
        delete_probability: float = 0.5,
        max_attachments: int = 5,
        min_nodes: int = DEFAULT_MIN_NODES,
        seed: int = 0,
    ):
        require_probability(delete_probability, "delete_probability")
        require(max_attachments >= 1, "max_attachments must be at least 1")
        super().__init__(seed=seed)
        self.delete_probability = delete_probability
        self.max_attachments = max_attachments
        self.min_nodes = min_nodes

    def next_event(self, graph: nx.Graph, timestep: int) -> AdversaryEvent | None:
        deletable = self._deletable_nodes(graph, self.min_nodes)
        if deletable and self._rng.coin(self.delete_probability):
            return AdversaryEvent(EventType.DELETE, self._rng.choice(deletable))
        return self._random_insertion(graph, self.max_attachments)


@register_adversary("deletion-only")
class DeletionOnlyAdversary(Adversary):
    """Delete a uniformly random node every timestep (no insertions)."""

    name = "deletion-only"

    def __init__(self, min_nodes: int = DEFAULT_MIN_NODES, seed: int = 0):
        super().__init__(seed=seed)
        self.min_nodes = min_nodes

    def next_event(self, graph: nx.Graph, timestep: int) -> AdversaryEvent | None:
        deletable = self._deletable_nodes(graph, self.min_nodes)
        if not deletable:
            return None
        return AdversaryEvent(EventType.DELETE, self._rng.choice(deletable))


@register_adversary("insertion-only")
class InsertionOnlyAdversary(Adversary):
    """Insert a node with random attachments every timestep (no deletions)."""

    name = "insertion-only"

    def __init__(self, max_attachments: int = 5, seed: int = 0):
        require(max_attachments >= 1, "max_attachments must be at least 1")
        super().__init__(seed=seed)
        self.max_attachments = max_attachments

    def next_event(self, graph: nx.Graph, timestep: int) -> AdversaryEvent | None:
        return self._random_insertion(graph, self.max_attachments)


@register_adversary("max-degree", aliases=("hub-attack",))
class MaxDegreeAdversary(Adversary):
    """Always delete the highest-degree node (hub attack).

    This is the omniscient adversary's natural strategy against expansion: it
    generalises the star-centre deletion from the paper's introduction and is
    the attack under which tree-based healers lose their spectral properties
    fastest.
    """

    name = "max-degree"

    def __init__(self, min_nodes: int = DEFAULT_MIN_NODES, seed: int = 0):
        super().__init__(seed=seed)
        self.min_nodes = min_nodes

    def next_event(self, graph: nx.Graph, timestep: int) -> AdversaryEvent | None:
        deletable = self._deletable_nodes(graph, self.min_nodes)
        if not deletable:
            return None
        target = max(deletable, key=lambda node: (graph.degree(node), -node))
        return AdversaryEvent(EventType.DELETE, target)


@register_adversary("min-degree")
class MinDegreeAdversary(Adversary):
    """Always delete the lowest-degree node (periphery attack)."""

    name = "min-degree"

    def __init__(self, min_nodes: int = DEFAULT_MIN_NODES, seed: int = 0):
        super().__init__(seed=seed)
        self.min_nodes = min_nodes

    def next_event(self, graph: nx.Graph, timestep: int) -> AdversaryEvent | None:
        deletable = self._deletable_nodes(graph, self.min_nodes)
        if not deletable:
            return None
        target = min(deletable, key=lambda node: (graph.degree(node), node))
        return AdversaryEvent(EventType.DELETE, target)


@register_adversary("star-center")
class StarCenterAdversary(Adversary):
    """Delete the node whose removal creates the largest "orphaned" neighbourhood.

    The target is the node maximising ``degree(v) - edges among N(v)`` — the
    number of neighbour pairs left without a direct connection.  On a star
    this is exactly the centre; on general graphs it picks the most
    articulation-like hub, which is the worst case for tree-based healing.
    """

    name = "star-center"

    def __init__(self, min_nodes: int = DEFAULT_MIN_NODES, seed: int = 0):
        super().__init__(seed=seed)
        self.min_nodes = min_nodes

    def next_event(self, graph: nx.Graph, timestep: int) -> AdversaryEvent | None:
        deletable = self._deletable_nodes(graph, self.min_nodes)
        if not deletable:
            return None

        def orphan_score(node: NodeId) -> int:
            neighbors = set(graph.neighbors(node))
            internal = sum(1 for u, v in graph.edges(neighbors) if u in neighbors and v in neighbors)
            return len(neighbors) - internal

        target = max(deletable, key=lambda node: (orphan_score(node), graph.degree(node), -node))
        return AdversaryEvent(EventType.DELETE, target)


@register_adversary("cascade")
class CascadeAdversary(Adversary):
    """Delete a neighbour of the previously deleted node (a spreading failure).

    Starts from the highest-degree node and then follows the failure locally,
    so successive deletions keep hitting the clouds created by earlier repairs
    — exercising Cases 2.1 and 2.2 of the algorithm heavily.
    """

    name = "cascade"

    def __init__(self, min_nodes: int = DEFAULT_MIN_NODES, seed: int = 0):
        super().__init__(seed=seed)
        self.min_nodes = min_nodes
        self._last_neighbors: list[NodeId] = []

    def next_event(self, graph: nx.Graph, timestep: int) -> AdversaryEvent | None:
        deletable = self._deletable_nodes(graph, self.min_nodes)
        if not deletable:
            return None
        # ``deletable`` is every live node or none, so membership is ``in graph``.
        candidates = [node for node in self._last_neighbors if node in graph]
        if candidates:
            target = self._rng.choice(sorted(candidates))
        else:
            target = max(deletable, key=lambda node: graph.degree(node))
        self._last_neighbors = sorted(graph.neighbors(target))
        return AdversaryEvent(EventType.DELETE, target)


class ScriptedAdversary(Adversary):
    """Replay an explicit sequence of events (used by tests and figure traces)."""

    name = "scripted"

    def __init__(self, events: Sequence[AdversaryEvent] | Iterable[AdversaryEvent], seed: int = 0):
        super().__init__(seed=seed)
        self._events = list(events)
        self._cursor = 0

    @classmethod
    def deleting(cls, nodes: Iterable[NodeId]) -> "ScriptedAdversary":
        """Build a scripted adversary that deletes the given nodes in order."""
        return cls([AdversaryEvent(EventType.DELETE, node) for node in nodes])

    def next_event(self, graph: nx.Graph, timestep: int) -> AdversaryEvent | None:
        if self._cursor >= len(self._events):
            return None
        event = self._events[self._cursor]
        self._cursor += 1
        return event

    def remaining(self) -> int:
        """Return how many scripted events have not been played yet."""
        return len(self._events) - self._cursor
