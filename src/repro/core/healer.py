"""The self-healer interface shared by Xheal and all baselines.

The interface mirrors the model of Section 2 (Figure 1): the healer owns the
live graph ``G_t``; the experiment harness plays the adversary, calling
:meth:`SelfHealer.handle_insertion` and :meth:`SelfHealer.handle_deletion`
once per timestep; the healer responds by adding (and possibly dropping)
edges and returns a :class:`~repro.core.events.RepairReport` describing what
it did.

Insertions require no healing work in the paper's model ("Addition is
straightforward, the algorithm takes no action. The added edges are colored
black."), so the base class implements insertion fully and subclasses only
implement the post-deletion healing hook.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

import networkx as nx

from repro.core.colors import BLACK, EdgeColor
from repro.core.edgestore import EdgeStore
from repro.core.events import RepairAction, RepairReport
from repro.util.ids import NodeId
from repro.util.rng import SeededRng
from repro.util.validation import require


class SelfHealer(ABC):
    """Abstract base class for self-healing algorithms.

    Subclasses implement :meth:`_heal_after_deletion`; everything else
    (graph ownership, insertion handling, bookkeeping) is provided here so
    that Xheal and the baselines are driven identically by the experiment
    harness.  The :class:`~repro.core.events.RepairReport` each event
    returns is the only record of what the healer did.
    """

    #: Human-readable algorithm name (overridden by subclasses).
    name: str = "abstract"

    def __init__(self, seed: int = 0):
        self._rng = SeededRng(seed)
        self._graph = EdgeStore()
        self._timestep = 0
        self._graph_version = 0
        self._materialized: nx.Graph | None = None
        self._materialized_version = -1

    # -- lifecycle ---------------------------------------------------------------

    def initialize(self, graph: nx.Graph) -> None:
        """Adopt ``graph`` as the initial network ``G_0``.

        All initial edges are coloured black.  The input graph is copied; the
        healer never mutates the caller's graph.  Node attributes (e.g. the
        failure-domain labels of :mod:`repro.core.domains`) are copied into
        the store so they survive the EdgeStore round-trip.  A graph with
        self-loops raises :class:`ValueError`.
        """
        self._graph = EdgeStore.from_networkx(graph)
        self._materialized = None
        self._materialized_version = -1
        self._timestep = 0
        self._bump_graph_version()
        self._after_initialize()

    def _after_initialize(self) -> None:
        """Hook for subclasses that need pre-processing (Figure 1's pre-processing phase)."""

    # -- adversarial events --------------------------------------------------------

    def handle_insertion(self, node: NodeId, neighbors: Iterable[NodeId]) -> RepairReport:
        """Process the adversarial insertion of ``node`` attached to ``neighbors``."""
        self._timestep += 1
        self._bump_graph_version()
        require(node not in self._graph, f"node {node} already exists")
        neighbor_list = sorted(set(neighbors))
        for neighbor in neighbor_list:
            require(neighbor in self._graph, f"insertion neighbor {neighbor} not in the network")
            require(neighbor != node, "a node cannot be inserted adjacent to itself")
        self._graph.add_node(node)
        for neighbor in neighbor_list:
            self._add_black_edge(node, neighbor)
        report = RepairReport(
            timestep=self._timestep, inserted_node=node, action=RepairAction.INSERTION
        )
        self._after_insertion(node, neighbor_list, report)
        return report

    def handle_deletion(self, node: NodeId) -> RepairReport:
        """Process the adversarial deletion of ``node`` and heal afterwards."""
        self._timestep += 1
        self._bump_graph_version()
        require(node in self._graph, f"cannot delete unknown node {node}")
        neighbors = sorted(self._graph.neighbors(node))
        incident_colors: dict[NodeId, EdgeColor] = {
            neighbor: self._graph.color(node, neighbor) for neighbor in neighbors
        }
        self._graph.remove_node(node)
        report = RepairReport(timestep=self._timestep, deleted_node=node)
        self._heal_after_deletion(node, neighbors, incident_colors, report)
        return report

    # -- subclass hooks --------------------------------------------------------------

    def _after_insertion(
        self, node: NodeId, neighbors: list[NodeId], report: RepairReport
    ) -> None:
        """Hook called after an insertion was applied (most healers do nothing)."""

    @abstractmethod
    def _heal_after_deletion(
        self,
        deleted: NodeId,
        neighbors: list[NodeId],
        incident_colors: dict[NodeId, EdgeColor],
        report: RepairReport,
    ) -> None:
        """Repair the network after ``deleted`` (with the given ex-neighbours) was removed."""

    # -- graph access ------------------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        """An ``nx.Graph`` view of the healed graph ``G_t`` (do not mutate).

        The healer stores the live graph in a struct-of-arrays
        :class:`~repro.core.edgestore.EdgeStore`; this property lazily
        materializes a NetworkX snapshot for the metric/snapshot/report code
        and caches it on :attr:`graph_version`, so repeated reads of an
        unchanged graph are free.
        """
        if self._materialized is None or self._materialized_version != self._graph_version:
            self._materialized = self._graph.to_networkx()
            self._materialized_version = self._graph_version
        return self._materialized

    @property
    def graph_store(self) -> EdgeStore:
        """The live struct-of-arrays store backing :attr:`graph`.

        Both harness run loops (adversary probes, degree tracking, replay
        membership checks) read this directly, and their result keeps it as
        ``final_store``; treat it as read-only from outside the healer.
        """
        return self._graph

    @property
    def timestep(self) -> int:
        """The number of adversarial events processed so far."""
        return self._timestep

    def extra_summary(self) -> dict:
        """Extra healer-specific summary columns merged into the run's summary row.

        The base healer contributes nothing; wrappers such as
        :class:`repro.core.budget.BudgetedHealer` override this to surface
        metrics (deferred repairs, budget stalls, recovery time) that only
        the healer itself can observe.  Keys must not collide with the
        harness's own summary columns, and values must be JSON-serializable.
        """
        return {}

    @property
    def graph_version(self) -> int:
        """Monotonic counter bumped on every mutation of the healed graph.

        The :class:`repro.perf.engine.MetricsEngine` keys its metric cache on
        this value: two snapshots taken at the same version are guaranteed to
        see an identical graph, so the second one is free.  The counter may
        advance several times within one adversarial event (once per edge
        claimed/released); only *equality* between observations is meaningful.
        """
        return self._graph_version

    def _bump_graph_version(self) -> None:
        """Invalidate cached metrics: the healed graph is about to change."""
        self._graph_version += 1

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node`` in the healed graph (0 if absent)."""
        if node not in self._graph:
            return 0
        return self._graph.degree(node)

    def has_node(self, node: NodeId) -> bool:
        """Return whether ``node`` is currently in the healed graph (O(1))."""
        return node in self._graph

    def nodes(self) -> set[NodeId]:
        """Return the current node set of the healed graph."""
        return set(self._graph.nodes())

    # -- edge helpers shared with subclasses -----------------------------------------------

    def _add_black_edge(self, u: NodeId, v: NodeId) -> bool:
        """Add a black (adversarial/original) edge; returns whether the edge is new."""
        if u == v:
            return False
        slot = self._graph.edge_slot(u, v)
        if slot is not None:
            # An adversarial edge between nodes already connected by a healing
            # edge: remember that the pair is also black so the edge survives
            # any later retirement of the healing cloud.  Attribute-only
            # changes never bumped the version counter, so drop the cached
            # materialization by hand.
            self._graph.set_slot_was_black(slot, True)
            self._materialized = None
            return False
        self._bump_graph_version()
        self._graph.add_edge(u, v, color=BLACK, was_black=True)
        return True

    def _add_plain_edge(self, u: NodeId, v: NodeId, report: RepairReport) -> bool:
        """Add an (uncoloured) healing edge; used by baselines that ignore colours."""
        if u == v or self._graph.has_edge(u, v):
            return False
        self._bump_graph_version()
        self._graph.add_edge(u, v, color=BLACK, was_black=False)
        report.edges_added.append((u, v))
        return True
