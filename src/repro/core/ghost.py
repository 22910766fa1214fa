"""The ghost graph ``G'_t`` (Section 2, "Success metrics").

``G'_t`` is "the graph, at timestep t, consisting solely of the original
nodes (from G_0) and insertions without regard to deletions and healings".
All of Theorem 2's guarantees are stated relative to this graph:

* degree increase is ``degree(v, G_t) / degree(v, G'_t)``,
* stretch is ``dist(x, y, G_t) / dist(x, y, G'_t)``,
* the expansion and spectral guarantees compare ``h(G_t)`` / ``lambda(G_t)``
  with ``h(G'_t)`` / ``lambda(G'_t)``.

The ghost graph only ever grows; deleted nodes remain in it (with their
edges), which is why comparisons against the healed graph restrict to nodes
alive in both.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from repro.util.ids import NodeId
from repro.util.validation import require


class GhostGraph:
    """Monotonically growing record of original + adversarially inserted structure.

    The record is ``G_0`` plus the insertions since, with every node's ghost
    degree kept in a dict, so an event costs time in proportion to its own
    size.  The ``nx.Graph`` of ``G'_t`` is built on the first read of
    :attr:`graph` (``G_0``'s nodes, then its edges, then each insertion in
    order) and every later insertion is applied to it, so a run that takes
    no snapshot never builds it.
    """

    def __init__(self, initial_graph: nx.Graph | None = None):
        """Start ``G'_0`` from ``initial_graph``, a simple undirected graph.

        ``initial_graph`` is held by reference and never mutated; only its
        degrees are read here.  One graph may seed many ghosts (every healer
        of a comparison, every pass over a compiled config), and the caller
        must not mutate it while they are in use.
        """
        self._initial = initial_graph if initial_graph is not None else nx.Graph()
        self._graph: nx.Graph | None = None
        self._insertions: list[tuple[NodeId, tuple[NodeId, ...]]] = []
        self._deleted: set[NodeId] = set()
        self._version = 0
        self._graph_version = 0
        self._degree: dict[NodeId, int] = dict(self._initial.degree())

    # -- adversarial events ---------------------------------------------------

    def record_insertion(self, node: NodeId, neighbors: Iterable[NodeId]) -> None:
        """Record an adversarial insertion of ``node`` attached to ``neighbors``.

        The neighbours must already exist in the ghost graph (the adversary
        can only connect a new node to nodes currently in the system); they
        may however be nodes that were deleted later — insertion order is
        what matters, and the caller (the experiment harness) guarantees the
        adversary only names currently-alive nodes.
        """
        require(node not in self._degree, f"node {node} was already inserted")
        neighbor_list = tuple(neighbors)
        for neighbor in neighbor_list:
            require(neighbor in self._degree, f"insertion neighbor {neighbor} unknown to G'")
        self._version += 1
        self._graph_version += 1
        if self._graph is None:
            self._insertions.append((node, neighbor_list))
        else:
            _insert(self._graph, node, neighbor_list)
        anchors = set(neighbor_list)
        self._degree[node] = len(anchors)
        for neighbor in anchors:
            self._degree[neighbor] += 1

    def record_deletion(self, node: NodeId) -> None:
        """Record that ``node`` was deleted (the ghost graph itself is unchanged).

        The version counter still advances: the *alive subgraph* view changes
        even though the full ghost graph does not.
        """
        require(node in self._degree, f"cannot delete unknown node {node}")
        self._version += 1
        self._deleted.add(node)

    # -- views -----------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every recorded event.

        Plays the same cache-keying role as
        :attr:`repro.core.healer.SelfHealer.graph_version`: equal versions
        guarantee both the full ghost graph and its alive subgraph are
        unchanged.  Metrics of the *full* ghost graph should key on
        :attr:`graph_version` instead, which deletions do not touch.
        """
        return self._version

    @property
    def graph_version(self) -> int:
        """Counter bumped only when the full ghost graph ``G'_t`` changes.

        Deletions alter the alive view but never ``G'_t`` itself, so
        full-ghost metrics (Theorem 2's expansion/lambda reference values)
        keyed on this counter stay cached through deletion-heavy runs.
        """
        return self._graph_version

    @property
    def graph(self) -> nx.Graph:
        """The full ghost graph ``G'_t`` (including deleted nodes); do not mutate.

        Built on the first read and kept current by later insertions.
        """
        if self._graph is None:
            graph = nx.Graph()
            graph.add_nodes_from(self._initial.nodes())
            graph.add_edges_from(self._initial.edges())
            for node, neighbors in self._insertions:
                _insert(graph, node, neighbors)
            self._graph, self._insertions = graph, []
        return self._graph

    def degree(self, node: NodeId) -> int:
        """Return ``degree(node, G'_t)``; 0 if the node was never inserted."""
        return self._degree.get(node, 0)

    def deleted_nodes(self) -> set[NodeId]:
        """Return the set of nodes the adversary has deleted so far."""
        return set(self._deleted)

    def alive_nodes(self) -> set[NodeId]:
        """Return the nodes of ``G'_t`` that have not been deleted."""
        return set(self.graph.nodes()) - self._deleted

    def alive_subgraph(self) -> nx.Graph:
        """Return the subgraph of ``G'_t`` induced on the alive nodes.

        This is the natural comparison graph for pairwise-distance metrics
        (deleted nodes cannot be endpoints of a stretch measurement).
        """
        return self.graph.subgraph(self.alive_nodes()).copy()

    def number_of_nodes(self) -> int:
        """Return ``n``, the number of nodes of ``G'_t`` (deleted ones included)."""
        return len(self._degree)

    def copy(self) -> "GhostGraph":
        """Return an independent copy (used by what-if analyses)."""
        clone = GhostGraph()
        clone._initial = self._initial
        clone._graph = None if self._graph is None else self._graph.copy()
        clone._insertions = list(self._insertions)
        clone._deleted = set(self._deleted)
        clone._version = self._version
        clone._graph_version = self._graph_version
        clone._degree = dict(self._degree)
        return clone


def _insert(graph: nx.Graph, node: NodeId, neighbors: tuple[NodeId, ...]) -> None:
    """Add an inserted node and its edges to a built ``G'_t``, in event order."""
    graph.add_node(node)
    graph.add_edges_from((node, neighbor) for neighbor in neighbors)
