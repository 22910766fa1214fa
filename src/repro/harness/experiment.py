"""The experiment runner: drive a healer with an adversary and record metrics.

The runner implements the model loop of Figure 1: at every timestep the
adversary produces an insertion or a deletion, the ghost graph records it,
the healer reacts, and the trackers/ledgers accumulate the Theorem 2 and
Theorem 5 quantities.  :func:`run_experiment` is the only loop.  Replaying a
recorded trace against another healer (for apples-to-apples comparisons, see
:func:`repro.harness.sweeps.compare_healers`) or from a run artifact is a
plain run whose adversary is a
:class:`~repro.adversary.correlated.RecordedAdversary`, so live runs and
replays agree on every config knob by construction.

The loop works on the healer's :class:`~repro.core.edgestore.EdgeStore` from
start to finish, and each event costs time in proportion to what it touched.
An ``nx.Graph`` of ``G_t`` is built only for a metric snapshot or when a
caller reads :attr:`ExperimentResult.final_graph`, and the ghost's ``G'_t``
only for a snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import networkx as nx

from repro.adversary.base import Adversary, AdversaryEvent
from repro.analysis.amortized import AmortizedCostSummary, CostLedger
from repro.analysis.invariants import Theorem2Verdict
from repro.analysis.trackers import DegreeRatioTracker, MetricTimeline
from repro.core.edgestore import EdgeStore
from repro.core.events import RepairReport
from repro.core.ghost import GhostGraph
from repro.core.healer import SelfHealer
from repro.perf.engine import MetricsEngine
from repro.spectral.metrics import GraphMetrics
from repro.util.validation import require


@dataclass
class ExperimentConfig:
    """Configuration of one experiment run.

    Attributes
    ----------
    healer_factory / adversary_factory:
        Zero-argument callables producing a fresh
        :class:`~repro.core.healer.SelfHealer` / adversary; the runner owns
        their lifecycle so sweeps can re-instantiate cleanly, and drives the
        healer's ``graph_store`` directly.
    initial_graph:
        The starting topology ``G_0`` (connected, simple).
    timesteps:
        Maximum number of adversarial events to play.
    metric_every:
        Record a full metric snapshot every this many timesteps; 0 disables
        intermediate snapshots (a final snapshot is always taken).  Snapshots
        go through a single :class:`~repro.perf.engine.MetricsEngine` keyed on
        the healer's ``graph_version`` / the ghost's ``version`` counters, so
        when ``metric_every`` and ``check_invariants_every`` coincide on a
        timestep (and at the end of the run) the invariant check reuses the
        snapshot's expansion / lambda / stretch values instead of recomputing
        them — an unchanged graph is never measured twice.
    kappa:
        The kappa used for invariant checking / cost bounds (should match the
        healer's kappa for Xheal; for baselines it only parameterises the
        reporting).
    check_invariants_every:
        Run the full Theorem 2 check every this many timesteps (0 = only at
        the end).  Served by the same engine/cache as ``metric_every``.
    exact_expansion_limit:
        Graphs with at most this many nodes get *exact* expansion and
        conductance values (vectorized Gray-code enumeration of all cuts,
        see :mod:`repro.perf.kernels`); larger graphs get the certified
        sweep+sampling upper bound.  The default is 22 — the vectorized
        kernel enumerates all 2^21 cuts in about a second, where the old
        Python rescan capped out near 18 (hence the previous default of
        16).
    stretch_sample_pairs:
        Number of node pairs sampled for stretch measurements (None = all).
        Sampling happens *before* any shortest-path work: only the sampled
        sources are BFS'd, so the per-snapshot cost is O(k * (n + m)) rather
        than all-pairs.
    snapshot_every:
        Cadence of *full Theorem-2 snapshots*.  ``None`` (default) keeps the
        historical behaviour: one full healed/ghost snapshot plus verdict at
        the end of the run, intermediate cadence governed by ``metric_every``
        alone.  ``0`` skips the end-of-run snapshot trio entirely — sweep
        points that only consume counters get ``None`` in the spectral /
        stretch / verdict columns of ``summary_row()`` and stop paying the
        dominant per-point cost (the Fiedler solves and cut sweeps).  A
        positive value records a timeline snapshot every that many timesteps
        (on top of ``metric_every``) and keeps the final trio.
    """

    healer_factory: Callable[[], SelfHealer]
    adversary_factory: Callable[[], Adversary]
    initial_graph: nx.Graph
    timesteps: int = 100
    metric_every: int = 0
    kappa: int = 4
    check_invariants_every: int = 0
    exact_expansion_limit: int = 22
    stretch_sample_pairs: int | None = 100
    seed: int = 0
    snapshot_every: int | None = None


@dataclass
class ExperimentResult:
    """Everything an experiment run produced."""

    healer_name: str
    adversary_name: str
    timesteps_executed: int
    insertions: int
    deletions: int
    #: The healer's own store holding the final healed graph ``G_t`` (not a
    #: copy: driving the healer on would change it).  :attr:`final_graph`
    #: materializes it.
    final_store: EdgeStore
    ghost: GhostGraph
    final_metrics: GraphMetrics | None
    ghost_metrics: GraphMetrics | None
    final_verdict: Theorem2Verdict | None
    timeline: MetricTimeline
    cost_summary: AmortizedCostSummary
    worst_degree_ratio: float
    trace: list[AdversaryEvent] = field(default_factory=list)
    intermediate_verdicts: list[Theorem2Verdict] = field(default_factory=list)
    cache_stats: dict[str, int] = field(default_factory=dict)
    healer_extra: dict[str, object] = field(default_factory=dict)
    #: Parallel to ``trace``: the 1-based timestep each event belonged to.
    #: Batched adversaries put several events in one timestep; the churn-trace
    #: exporter and :class:`~repro.adversary.correlated.RecordedAdversary`
    #: use this to preserve the grouping.
    event_steps: list[int] = field(default_factory=list)

    @cached_property
    def final_graph(self) -> nx.Graph:
        """The final healed graph as an ``nx.Graph``, built on first read and cached."""
        return self.final_store.to_networkx()

    @property
    def connected(self) -> bool:
        """Return whether the final healed graph is connected."""
        return self.final_store.is_connected()

    def summary_row(self) -> dict[str, object]:
        """Return a flat dict suitable for the report printers.

        Runs configured with ``snapshot_every=0`` skip the final metric
        snapshots; their spectral / stretch / verdict columns are ``None``
        while the counter columns stay exact.
        """
        final, ghost = self.final_metrics, self.ghost_metrics
        row: dict[str, object] = {
            "healer": self.healer_name,
            "adversary": self.adversary_name,
            "steps": self.timesteps_executed,
            "nodes": self.final_store.number_of_nodes(),
            "edges": self.final_store.number_of_edges(),
            "connected": self.connected,
            "h(Gt)": round(final.edge_expansion, 4) if final is not None else None,
            "h(G't)": round(ghost.edge_expansion, 4) if ghost is not None else None,
            "lambda(Gt)": (
                round(final.algebraic_connectivity, 4) if final is not None else None
            ),
            "lambda(G't)": (
                round(ghost.algebraic_connectivity, 4) if ghost is not None else None
            ),
            "max_stretch": (
                round(final.max_stretch, 3)
                if final is not None and final.max_stretch is not None
                else None
            ),
            "max_degree_ratio": round(self.worst_degree_ratio, 3),
            "amortized_msgs": round(self.cost_summary.amortized_messages, 1),
            "theorem2_holds": (
                self.final_verdict.all_hold if self.final_verdict is not None else None
            ),
        }
        # Healer-specific columns (e.g. BudgetedHealer's deferred_repairs /
        # budget_stalls) ride along; artifact lines are sorted-key JSON, so
        # appending here cannot perturb existing goldens.
        row.update(self.healer_extra)
        return row


def _apply_event(
    healer: SelfHealer, ghost: GhostGraph, event: AdversaryEvent
) -> tuple[int, RepairReport]:
    """Apply one event to healer and ghost; return (black_degree, the healer's report)."""
    if event.is_insertion:
        ghost.record_insertion(event.node, event.neighbors)
        return 0, healer.handle_insertion(event.node, event.neighbors)
    black_degree = ghost.degree(event.node)
    ghost.record_deletion(event.node)
    return black_degree, healer.handle_deletion(event.node)


def _touched_nodes(event: AdversaryEvent, report: RepairReport) -> list:
    """Nodes whose degree ratio the event may have raised (see ``observe_store``).

    An insertion's report counts too: a healer may repair on an insertion
    (``BudgetedHealer`` drains deferred edges then).
    """
    touched = [event.node, *event.neighbors]
    for u, v in report.edges_added:
        touched += (u, v)
    return touched


def _validate_batch(live, batch: Sequence[AdversaryEvent]) -> None:
    """Check a whole adversary batch against the live graph *before* applying it.

    Batched events are atomic: either every member applies or none does.  The
    healer validates per event, so a bad third event would otherwise leave the
    first two applied — instead we simulate the batch's membership deltas on a
    set overlay and raise up front, with the graph untouched.
    """
    added: set = set()
    removed: set = set()

    def present(node) -> bool:
        if node in added:
            return True
        return node in live and node not in removed

    for event in batch:
        if event.is_insertion:
            require(not present(event.node), f"batched insertion of existing node {event.node}")
            for neighbor in event.neighbors:
                require(neighbor != event.node, "a node cannot be inserted adjacent to itself")
                require(
                    present(neighbor),
                    f"batched insertion neighbor {neighbor} not in the network",
                )
            added.add(event.node)
            removed.discard(event.node)
        else:
            require(present(event.node), f"batched deletion of unknown node {event.node}")
            removed.add(event.node)
            added.discard(event.node)


def _ghost_full_snapshot(
    engine: MetricsEngine, ghost: GhostGraph, ghost_engine: MetricsEngine | None
) -> GraphMetrics:
    """Snapshot the full ghost graph, optionally through a *shared* engine.

    The full ghost graph (original nodes + insertions, no deletions or
    healing applied) is a pure function of the insertion sequence, so healers
    replaying the same trace all see the identical graph.  Passing the same
    ``ghost_engine`` to each run lets the second and later healers fetch the
    Theorem-2 reference metrics from cache instead of recomputing them.  The
    cache key includes the node and edge counts next to the insertions-only
    version counter, so runs whose ghosts diverged (different traces) can
    never be served each other's values.
    """
    if ghost_engine is None:
        return engine.snapshot(ghost.graph, version=ghost.graph_version, label="ghost_full")
    version = (
        ghost.graph_version,
        ghost.graph.number_of_nodes(),
        ghost.graph.number_of_edges(),
    )
    metrics = ghost_engine.snapshot(ghost.graph, version=version, label="ghost_full")
    # Pre-seed the run-local cache with the two ghost_full kernels the final
    # check_theorem2 reads back on *this* engine (expansion and lambda, keyed
    # by the plain insertions-only version — see check_expansion_invariant /
    # check_spectral_invariant); without these entries every healer would
    # redo the expensive ghost cut sweep and Fiedler solve.
    engine.cache.store(("expansion", "ghost_full"), ghost.graph_version, metrics.edge_expansion)
    engine.cache.store(
        ("combinatorial", "ghost_full"), ghost.graph_version, metrics.algebraic_connectivity
    )
    return metrics


def run_experiment(
    config: ExperimentConfig, ghost_engine: MetricsEngine | None = None
) -> ExperimentResult:
    """Run one healer against one adversary from the configured initial graph.

    ``ghost_engine``, when given, serves the full-ghost metric snapshot from
    a cache shared across runs (see :func:`repro.harness.sweeps.compare_healers`);
    it must be configured with the same fidelity parameters as ``config``.
    """
    require(config.timesteps >= 1, "timesteps must be at least 1")
    require(config.initial_graph.number_of_nodes() >= 2, "initial graph too small")

    healer = config.healer_factory()
    healer.initialize(config.initial_graph)
    ghost = GhostGraph(config.initial_graph)
    adversary = config.adversary_factory()
    adversary.bind(config.initial_graph)

    ledger = CostLedger(kappa=config.kappa)
    degree_tracker = DegreeRatioTracker(kappa=config.kappa)
    engine = MetricsEngine(
        exact_limit=config.exact_expansion_limit,
        stretch_sample_pairs=config.stretch_sample_pairs,
        seed=config.seed,
    )
    timeline = MetricTimeline(engine=engine)
    trace: list[AdversaryEvent] = []
    event_steps: list[int] = []
    verdicts: list[Theorem2Verdict] = []
    insertions = 0
    deletions = 0
    executed = 0

    store = healer.graph_store
    snapshot_cadence = config.snapshot_every if config.snapshot_every else 0

    for timestep in range(1, config.timesteps + 1):
        batch = adversary.next_events(store, timestep)
        if not batch:
            break
        # Atomicity: validate the whole batch against the untouched graph, so
        # a malformed correlated kill aborts before any member event applies.
        _validate_batch(store, batch)
        for event in batch:
            trace.append(event)
            event_steps.append(timestep)
            executed += 1
            if event.is_insertion:
                insertions += 1
            else:
                deletions += 1

            black_degree, report = _apply_event(healer, ghost, event)
            if event.is_deletion:
                ledger.record_deletion(
                    deleted=event.node,
                    black_degree=black_degree,
                    messages=report.messages if report.messages else report.total_edge_changes,
                    rounds=report.rounds,
                    network_size=store.number_of_nodes(),
                )
            # Observe after *every* event (not once per timestep): replays
            # walk the flat trace event by event, so the degree-ratio stream
            # must match or run-vs-replay byte-identity breaks.
            degree_tracker.observe_store(store, ghost, _touched_nodes(event, report))

        due = config.metric_every and timestep % config.metric_every == 0
        due = due or (snapshot_cadence and timestep % snapshot_cadence == 0)
        if due:
            # A row is the only reader of the current worst ratio: one full scan.
            worst_ratio = degree_tracker.observe(store, ghost)
            timeline.record(
                timestep, healer.graph, ghost, worst_ratio, healed_version=healer.graph_version
            )
        if config.check_invariants_every and timestep % config.check_invariants_every == 0:
            verdicts.append(
                engine.check_theorem2(
                    healer.graph,
                    ghost,
                    kappa=config.kappa,
                    healed_version=healer.graph_version,
                )
            )

    # The final Theorem-2 snapshot trio; ``snapshot_every == 0`` skips it.
    final_metrics = ghost_metrics = final_verdict = None
    if config.snapshot_every != 0:
        final_metrics = engine.snapshot(
            healer.graph,
            ghost=ghost.alive_subgraph(),
            version=healer.graph_version,
            ghost_version=ghost.version,
            label="healed",
        )
        ghost_metrics = _ghost_full_snapshot(engine, ghost, ghost_engine)
        final_verdict = engine.check_theorem2(
            healer.graph, ghost, kappa=config.kappa, healed_version=healer.graph_version
        )
    return ExperimentResult(
        healer_name=healer.name,
        adversary_name=adversary.name,
        timesteps_executed=executed,
        insertions=insertions,
        deletions=deletions,
        final_store=healer.graph_store,
        ghost=ghost,
        final_metrics=final_metrics,
        ghost_metrics=ghost_metrics,
        final_verdict=final_verdict,
        timeline=timeline,
        cost_summary=ledger.summary(),
        worst_degree_ratio=degree_tracker.max_ratio_seen,
        trace=trace,
        intermediate_verdicts=verdicts,
        cache_stats=engine.cache_stats(),
        healer_extra=healer.extra_summary(),
        event_steps=event_steps,
    )

