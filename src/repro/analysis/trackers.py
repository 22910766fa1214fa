"""Cheap per-timestep trackers used during long experiment runs.

Spectral quantities are expensive to recompute after every adversarial event,
so the harness records them on a cadence through :class:`MetricTimeline`
(which measures through a :class:`~repro.perf.engine.MetricsEngine`), while
:class:`DegreeRatioTracker` keeps the (cheap) degree-ratio invariant up to
date after every single event.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import networkx as nx
import numpy as np

from repro.core.ghost import GhostGraph
from repro.spectral.metrics import GraphMetrics
from repro.util.ids import NodeId

if TYPE_CHECKING:
    from repro.core.edgestore import EdgeStore
    from repro.perf.engine import MetricsEngine


class DegreeRatioTracker:
    """Tracks the per-node degree ratio ``degree(G_t) / degree(G'_t)`` incrementally.

    Two observation paths with identical results:

    * :meth:`observe` — the reference Python scan over an ``nx.Graph``.
    * :meth:`observe_store` — a vectorized pass over an
      :class:`~repro.core.edgestore.EdgeStore`'s degree columns, paired with
      a slot-aligned ghost-degree array the harness keeps current via
      :meth:`record_insertion` (deletions never change ghost degrees, so
      insertions are the only deltas).  ``argmax`` over slot order equals the
      reference scan's first-improvement tie-breaking because node slots are
      assigned in insertion order and never reused.
    """

    def __init__(self, kappa: int):
        self.kappa = kappa
        self.max_ratio_seen = 0.0
        self.max_additive_violation = 0.0
        self.worst_node: NodeId | None = None
        self._store: "EdgeStore | None" = None
        self._ghost: GhostGraph | None = None
        self._ghost_deg = np.zeros(0, dtype=np.int64)

    def observe(self, healed: nx.Graph, ghost: GhostGraph) -> float:
        """Record the current worst degree ratio; return it."""
        worst = 0.0
        for node in healed.nodes():
            ghost_degree = ghost.degree(node)
            ratio = healed.degree(node) / max(1, ghost_degree)
            excess = healed.degree(node) - (self.kappa * ghost_degree + 2 * self.kappa)
            if ratio > worst:
                worst = ratio
            if ratio > self.max_ratio_seen:
                self.max_ratio_seen = ratio
                self.worst_node = node
            if excess > self.max_additive_violation:
                self.max_additive_violation = excess
        return worst

    # -- vectorized path over an EdgeStore ------------------------------------

    def attach_store(self, store: "EdgeStore", ghost: GhostGraph) -> None:
        """Bind the tracker to a healer's store and seed the ghost-degree array."""
        self._store = store
        self._ghost = ghost
        self._ghost_deg = np.zeros(max(16, store.node_high_water * 2), dtype=np.int64)
        for node in store.nodes():
            self._ghost_deg[store.slot_of(node)] = ghost.degree(node)

    def record_insertion(self, node: NodeId, neighbors: Iterable[NodeId]) -> None:
        """Refresh ghost degrees after an insertion was applied to ghost+healer."""
        store, ghost = self._store, self._ghost
        assert store is not None and ghost is not None, "attach_store() first"
        high = store.node_high_water
        if high > len(self._ghost_deg):
            grown = np.zeros(max(high, len(self._ghost_deg) * 2), dtype=np.int64)
            grown[: len(self._ghost_deg)] = self._ghost_deg
            self._ghost_deg = grown
        self._ghost_deg[store.slot_of(node)] = ghost.degree(node)
        for neighbor in set(neighbors):
            if neighbor in store:
                self._ghost_deg[store.slot_of(neighbor)] = ghost.degree(neighbor)

    def observe_store(self) -> float:
        """Vectorized :meth:`observe` over the attached store; same results."""
        store = self._store
        assert store is not None, "attach_store() first"
        node_ids, alive, healed_deg = store.node_columns()
        if not len(node_ids) or not alive.any():
            return 0.0
        ghost_deg = self._ghost_deg[: len(node_ids)]
        ratio = healed_deg / np.maximum(ghost_deg, 1)
        ratio = np.where(alive, ratio, -1.0)
        at = int(ratio.argmax())
        worst = float(ratio[at])
        if worst > self.max_ratio_seen:
            self.max_ratio_seen = worst
            self.worst_node = int(node_ids[at])
        excess = healed_deg - (self.kappa * ghost_deg + 2 * self.kappa)
        worst_excess = int(excess[alive].max())
        if worst_excess > self.max_additive_violation:
            self.max_additive_violation = worst_excess
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
