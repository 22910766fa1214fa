"""Cheap per-timestep trackers used during long experiment runs.

Spectral quantities are expensive to recompute after every adversarial event,
so the harness records them on a cadence through :class:`MetricTimeline`
(which measures through a :class:`~repro.perf.engine.MetricsEngine`), while
:class:`DegreeRatioTracker` keeps the (cheap) degree-ratio invariant up to
date after every single event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

import networkx as nx

from repro.core.ghost import GhostGraph
from repro.spectral.metrics import GraphMetrics
from repro.util.ids import NodeId

if TYPE_CHECKING:
    from repro.core.edgestore import EdgeStore
    from repro.perf.engine import MetricsEngine


class DegreeRatioTracker:
    """Tracks the per-node degree ratio ``degree(G_t) / degree(G'_t)`` incrementally.

    Two observation paths with identical results:

    * :meth:`observe` — the reference scan over every node of the healed
      graph (an ``nx.Graph`` or an :class:`~repro.core.edgestore.EdgeStore`);
      it also returns the current worst ratio.
    * :meth:`observe_store` — the per-event path, which re-scores only the
      nodes the event touched.  Ghost degrees never fall, so a node's ratio
      or additive excess can rise only when its healed degree rose or its
      ghost degree changed; every other node is still bounded by the maxima
      already seen.  Touched nodes are scored in store slot order with a
      strict ``>``, so :attr:`worst_node` keeps the full scan's
      first-improvement tie-break.
    """

    def __init__(self, kappa: int):
        self.kappa = kappa
        self.max_ratio_seen = 0.0
        self.max_additive_violation = 0.0
        self.worst_node: NodeId | None = None
        self._observed = False

    def observe(self, healed: nx.Graph, ghost: GhostGraph) -> float:
        """Record the current worst degree ratio; return it."""
        return self._score(healed.nodes(), healed.degree, ghost)

    def observe_store(
        self, store: "EdgeStore", ghost: GhostGraph, touched: Iterable[NodeId]
    ) -> None:
        """Fold one event into the maxima by re-scoring the nodes it touched.

        ``touched`` must name every live node whose healed degree rose or
        whose ghost degree changed in the event: an inserted node, its
        anchors and both endpoints of every edge the healer added (nodes no
        longer in ``store`` are skipped).  The first call scans every node,
        because nothing before it was observed.
        """
        if not self._observed:
            self._observed = True
            self.observe(store, ghost)
            return
        nodes = sorted({node for node in touched if node in store}, key=store.slot_of)
        self._score(nodes, store.degree, ghost)

    def _score(
        self, nodes: Iterable[NodeId], degree: Callable[[NodeId], int], ghost: GhostGraph
    ) -> float:
        """Fold ``nodes`` (in scan order) into the maxima; return their worst ratio."""
        worst = 0.0
        kappa = self.kappa
        for node in nodes:
            healed_degree = degree(node)
            ghost_degree = ghost.degree(node)
            ratio = healed_degree / max(1, ghost_degree)
            excess = healed_degree - (kappa * ghost_degree + 2 * kappa)
            if ratio > worst:
                worst = ratio
            if ratio > self.max_ratio_seen:
                self.max_ratio_seen = ratio
                self.worst_node = node
            if excess > self.max_additive_violation:
                self.max_additive_violation = excess
        return worst

    @property
    def bound_respected(self) -> bool:
        """Return whether the Theorem 2(1) bound has held at every observation."""
        return self.max_additive_violation <= 0


@dataclass(frozen=True)
class TimelineEntry:
    """One recorded point of a metric timeline."""

    timestep: int
    healed: GraphMetrics
    ghost: GraphMetrics
    worst_degree_ratio: float


@dataclass
class MetricTimeline:
    """A time series of :class:`~repro.spectral.metrics.GraphMetrics` snapshots.

    Snapshots go through ``engine``'s version-keyed cache, at its fidelity
    configuration, so a row and a Theorem-2 check of the same graph versions
    share every kernel evaluation.
    """

    engine: "MetricsEngine"
    entries: list[TimelineEntry] = field(default_factory=list)

    def record(
        self,
        timestep: int,
        healed: nx.Graph,
        ghost: GhostGraph,
        worst_degree_ratio: float,
        healed_version: int | None = None,
    ) -> TimelineEntry:
        """Snapshot both graphs and append a timeline entry."""
        ghost_alive = ghost.alive_subgraph()
        healed_metrics = self.engine.snapshot(
            healed,
            ghost=ghost_alive,
            version=healed_version,
            ghost_version=ghost.version,
            label="healed",
        )
        ghost_metrics = self.engine.snapshot(
            ghost_alive, version=ghost.version, label="ghost_alive"
        )
        entry = TimelineEntry(
            timestep=timestep,
            healed=healed_metrics,
            ghost=ghost_metrics,
            worst_degree_ratio=worst_degree_ratio,
        )
        self.entries.append(entry)
        return entry

    def series(self, field_name: str, side: str = "healed") -> list[float]:
        """Return the time series of one metric field (``side`` is healed/ghost)."""
        values: list[float] = []
        for entry in self.entries:
            metrics = entry.healed if side == "healed" else entry.ghost
            values.append(getattr(metrics, field_name))
        return values

    def final(self) -> TimelineEntry | None:
        """Return the last recorded entry (None when empty)."""
        return self.entries[-1] if self.entries else None
